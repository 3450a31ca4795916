"""Regenerate ``cluster_nodekill_trace.json``: what the front-end answered.

A 3-node mini cluster is driven through a node-kill timeline — healthy,
node 1 down (timeouts, hedge wins, then the breaker ejects it), nodes 1
and 2 down (failovers past a dead hedge target), every node down (partial
responses), healed — once with replication 2 and once unreplicated (host
fallback).  Per request the trace keeps
every *count* of the :class:`~repro.cluster.ClusterResponse`, the failed
positions and a digest of the gathered rows; latencies are left out on
purpose (they are pinned by ``soak_cluster.json``).

The fixture was recorded at the commit *before* the front-end's fan-out
became one sort and its node-groups were admitted once per node, so it
is the old path's answer: a front-end refactor must reproduce it exactly.

Run from the repo root::

    PYTHONPATH=src python tests/golden/generate_cluster_trace.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import replace

import numpy as np

ENTRIES, BATCH, REQUESTS = 2_000, 256, 40
COUNTS = (
    "requested", "served", "replica_keys", "host_fallback_keys", "failovers",
    "rpc_retries", "rpc_timeouts", "hedges", "hedge_wins",
)


def health_at(i: int):
    from repro.faults.spec import HEALTHY, HealthView

    if 8 <= i < 20:
        return HealthView(down_nodes=frozenset({1}))
    if 20 <= i < 24:
        return HealthView(down_nodes=frozenset({1, 2}))
    if 24 <= i < 27:
        return HealthView(down_nodes=frozenset({0, 1, 2}))
    return HEALTHY


def run(replication: int) -> list[dict]:
    from repro.cluster import CacheNode, ClusterConfig, ClusterFrontend
    from repro.hardware.platform import server_a
    from repro.obs import MetricsRegistry, use_registry
    from repro.utils.rng import make_rng
    from repro.utils.stats import zipf_pmf

    platform = server_a()
    table = make_rng(0).standard_normal((ENTRIES, 8)).astype(np.float32)
    pmf = zipf_pmf(ENTRIES, 1.1)
    hotness = pmf * BATCH * platform.num_gpus
    cfg = ClusterConfig(nodes=3, replication=replication, seed=0)
    # Requests arrive one time unit apart; a 6-unit cooldown lets the
    # breaker eject node 1, probe it half-open and re-admit it in-trace.
    cfg = replace(cfg, breaker=replace(cfg.breaker, cooldown_seconds=6.0))
    placement = ClusterFrontend.build_placement(cfg, hotness)
    owners = placement.owners_for(np.arange(ENTRIES, dtype=np.int64))
    nodes = [
        CacheNode(
            node_id=n, platform=platform, table=table, hotness=hotness,
            member_mask=(owners == n).any(axis=1), capacity_entries=ENTRIES // 8,
        )
        for n in range(cfg.nodes)
    ]
    frontend = ClusterFrontend(
        nodes, cfg, baseline_service=1.0, hotness=hotness, placement=placement
    )
    key_rng = make_rng(1)
    rows = []
    with use_registry(MetricsRegistry(f"cluster-trace-r{replication}")):
        for i in range(REQUESTS):
            keys = key_rng.choice(ENTRIES, size=BATCH, p=pmf)
            resp = frontend.serve(keys, float(i), health_at(i), execute=True)
            row = {name: int(getattr(resp, name)) for name in COUNTS}
            row["failed_positions"] = resp.failed_positions.tolist()
            row["values_sha256"] = hashlib.sha256(
                np.ascontiguousarray(resp.values).tobytes()
            ).hexdigest()
            rows.append(row)
    return rows


def build() -> dict:
    return {f"replication-{r}": run(r) for r in (2, 1)}


if __name__ == "__main__":
    out = pathlib.Path(__file__).parent / "cluster_nodekill_trace.json"
    out.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
