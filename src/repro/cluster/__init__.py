"""Multi-node sharded cache cluster with replicated failover.

The step from "one multi-GPU box" to "a cluster of cache servers behind a
fan-out front-end" (the ROADMAP's first open item, and the production
shape of HugeCTR's inference parameter server):

* :mod:`repro.cluster.ring` — consistent-hash keyspace partitioning with
  R-way replication (vectorized batch resolution);
* :mod:`repro.cluster.placement` — the solver-driven alternative: a
  node-level placement stage above the per-GPU MILP;
* :mod:`repro.cluster.node` — one cache server: a full single-box UGache
  stack whose GPUs cache only its shard;
* :mod:`repro.cluster.rpc` — the inter-node tier: latency/bandwidth
  pricing, per-call timeout, retry, replica hedging;
* :mod:`repro.cluster.frontend` — fan-out/gather with per-node circuit
  breakers, replica failover, host fallback, partial responses;
* :mod:`repro.cluster.soak` — node-kill chaos with goodput gated *during*
  the failover window, not just after recovery.
"""

from repro.cluster.frontend import ClusterConfig, ClusterFrontend, ClusterResponse
from repro.cluster.node import CacheNode
from repro.cluster.placement import (
    NodePlacement,
    analyze_node_loss,
    solve_node_placement,
)
from repro.cluster.ring import HashRing, hash_keys
from repro.cluster.rpc import attempt_profile
from repro.cluster.soak import (
    FAILOVER_GOODPUT_FLOOR,
    RECOVERY_GOODPUT_FLOOR,
    ClusterSoak,
)

__all__ = [
    "CacheNode",
    "ClusterConfig",
    "ClusterFrontend",
    "ClusterResponse",
    "ClusterSoak",
    "FAILOVER_GOODPUT_FLOOR",
    "HashRing",
    "NodePlacement",
    "RECOVERY_GOODPUT_FLOOR",
    "analyze_node_loss",
    "attempt_profile",
    "hash_keys",
    "solve_node_placement",
]
