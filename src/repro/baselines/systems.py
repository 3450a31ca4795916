"""The seven systems of §8: UGache and its six baselines.

Each class documents which paper system it models and which costs give it
its characteristic behaviour:

=============  ========  ============  ================================
system         policy    mechanism     distinctive cost / benefit
=============  ========  ============  ================================
GNNLab         replicate local+host    bigger cache (sampler offload),
                                       host-queue sample transfer cost
WholeGraph     partition naive peer    fails when table > ΣGPU memory or
                                       pairs are unconnected
PartU          partition naive peer    clique split on DGX-1, host cold tier
RepU           replicate naive peer    —
HPS            replicate local+host    LRU online-eviction bookkeeping
SOK            partition message       buffered AllToAll
UGache         solver    factored      MILP policy + congestion-free FEM
=============  ========  ============  ================================
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import EmbCacheSystem, SystemContext, UnsupportedConfiguration
from repro.core.policy import (
    Placement,
    clique_partition_policy,
    partition_policy,
    replication_policy,
)
from repro.core.solver import SolverConfig, solve_policy
from repro.sim.mechanisms import Mechanism

#: Per-key cost of HPS's online LRU maintenance (hash probe + recency-list
#: update per looked-up key), seconds.  Calibrated so the HPS-vs-RepU gap
#: matches §8.2's "RepU improves on HPS by 2.39× ... static cache design
#: with no online eviction".
LRU_MAINTENANCE_PER_KEY = 2.0e-8

#: Bytes GNNLab moves per sampled key through its host-memory sample
#: queues (sampled subgraph structure: ids, offsets, edge index), §8.2's
#: explanation for GNNLab's end-to-end deficit despite fast extraction.
GNNLAB_QUEUE_BYTES_PER_KEY = 64.0


class GnnLabSystem(EmbCacheSystem):
    """GNNLab [46]: single-GPU replication cache ported to multi-GPU.

    Dedicating sampler GPUs frees trainer memory (no graph storage), so
    its cache budget grows by the topology volume; but every GPU still
    extracts only from its own cache or host, and samples cross GPUs
    through host-memory queues.
    """

    name = "GNNLab"
    supports = ("gnn",)

    def capacity(self, ctx: SystemContext) -> int:
        bonus = int(ctx.graph_bytes / ctx.entry_bytes)
        return ctx.capacity_entries + bonus

    def plan(self, ctx: SystemContext) -> Placement:
        self.check_supported(ctx)
        return replication_policy(ctx.hotness, self.capacity(ctx), ctx.num_gpus)

    def mechanism(self, ctx: SystemContext) -> Mechanism:
        # Replication makes every hit local; misses go to host.  The
        # factored-vs-naive distinction is immaterial without remote
        # traffic, so the peer model (which GNNLab's kernels match) is
        # used.
        return Mechanism.PEER_NAIVE

    def per_iteration_overhead(self, ctx: SystemContext) -> float:
        queue_bytes = ctx.batch_keys * GNNLAB_QUEUE_BYTES_PER_KEY
        # Through host memory: one write + one read over PCIe.
        return 2.0 * queue_bytes / ctx.platform.pcie_bandwidth


class WholeGraphSystem(EmbCacheSystem):
    """WholeGraph [45]: full-table partition + zero-copy peer extraction.

    Reproduces the paper's two launch failures: ① the aggregate GPU
    memory must hold the *entire* table (there is no host tier), and
    ② every GPU pair must be connected.
    """

    name = "WholeGraph"
    supports = ("gnn",)

    def plan(self, ctx: SystemContext) -> Placement:
        self.check_supported(ctx)
        total_capacity = ctx.capacity_entries * ctx.num_gpus
        if total_capacity < ctx.num_entries:
            raise UnsupportedConfiguration(
                "WholeGraph cannot launch: embedding table exceeds total GPU memory"
            )
        topo = ctx.platform.topology
        for i in range(ctx.num_gpus):
            for j in range(i + 1, ctx.num_gpus):
                if not topo.connected(i, j):
                    raise UnsupportedConfiguration(
                        f"WholeGraph cannot launch: GPUs {i} and {j} are unconnected"
                    )
        return partition_policy(
            ctx.hotness, -(-ctx.num_entries // ctx.num_gpus), ctx.num_gpus
        )

    def mechanism(self, ctx: SystemContext) -> Mechanism:
        return Mechanism.PEER_NAIVE


class PartUSystem(EmbCacheSystem):
    """PartU (§8.1): WholeGraph extended with a host cold tier and
    Quiver-style clique partitioning for platforms with unconnected pairs."""

    name = "PartU"

    def plan(self, ctx: SystemContext) -> Placement:
        self.check_supported(ctx)
        cliques = ctx.platform.topology.cliques()
        if len(cliques) > 1:
            return clique_partition_policy(
                ctx.hotness, ctx.capacity_entries, ctx.platform
            )
        return partition_policy(ctx.hotness, ctx.capacity_entries, ctx.num_gpus)

    def mechanism(self, ctx: SystemContext) -> Mechanism:
        return Mechanism.PEER_NAIVE


class RepUSystem(EmbCacheSystem):
    """RepU (§8.1): PartU's codebase with a replication policy."""

    name = "RepU"

    def plan(self, ctx: SystemContext) -> Placement:
        self.check_supported(ctx)
        return replication_policy(ctx.hotness, ctx.capacity_entries, ctx.num_gpus)

    def mechanism(self, ctx: SystemContext) -> Mechanism:
        return Mechanism.PEER_NAIVE


class HpsSystem(EmbCacheSystem):
    """HPS [43]: per-GPU replication cache with online LRU eviction.

    The steady-state content of an LRU cache under a static skewed
    distribution is approximately the hottest entries, so placement
    matches replication; the distinguishing cost is per-key maintenance.
    """

    name = "HPS"
    supports = ("dlr",)

    def plan(self, ctx: SystemContext) -> Placement:
        self.check_supported(ctx)
        return replication_policy(ctx.hotness, ctx.capacity_entries, ctx.num_gpus)

    def mechanism(self, ctx: SystemContext) -> Mechanism:
        return Mechanism.PEER_NAIVE

    def per_iteration_overhead(self, ctx: SystemContext) -> float:
        return ctx.batch_keys * LRU_MAINTENANCE_PER_KEY


class SokSystem(EmbCacheSystem):
    """SOK [8]: partition cache + message-based (AllToAll) extraction.

    SOK's embedding plugin issues one collective lookup per embedding
    table, so a 100-table model pays ~100 rounds of gather/exchange/
    reorder launches on top of the data movement itself.
    """

    name = "SOK"
    supports = ("dlr",)

    def plan(self, ctx: SystemContext) -> Placement:
        self.check_supported(ctx)
        return partition_policy(ctx.hotness, ctx.capacity_entries, ctx.num_gpus)

    def mechanism(self, ctx: SystemContext) -> Mechanism:
        return Mechanism.MESSAGE

    def per_iteration_overhead(self, ctx: SystemContext) -> float:
        from repro.sim.mechanisms import MESSAGE_STAGE_OVERHEAD

        extra_rounds = max(ctx.num_tables - 1, 0)
        return extra_rounds * 3 * MESSAGE_STAGE_OVERHEAD


class UGacheSystem(EmbCacheSystem):
    """UGache: MILP-solved policy + factored extraction mechanism.

    Solved placements are memoized per (platform, capacity, hotness
    fingerprint) — the production system likewise reuses a solved policy
    until the Refresher decides hotness has drifted (§7.2), and the
    benchmark matrix scores the same cell under several metrics.
    """

    name = "UGache"

    #: shared across instances: the same cell appears in several figures
    _plan_cache: dict[tuple, Placement] = {}

    def __init__(self, solver_config: SolverConfig | None = None) -> None:
        self._config = solver_config or SolverConfig()

    def _fingerprint(self, ctx: SystemContext) -> tuple:
        hot = np.ascontiguousarray(ctx.hotness)
        digest = hash((hot.shape[0], float(hot.sum()), hot.tobytes()[:4096]))
        return (
            self._config,
            ctx.platform.name,
            ctx.platform.num_gpus,
            ctx.capacity_entries,
            ctx.entry_bytes,
            digest,
        )

    def plan(self, ctx: SystemContext) -> Placement:
        self.check_supported(ctx)
        key = self._fingerprint(ctx)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        solved = solve_policy(
            ctx.platform,
            ctx.hotness,
            ctx.capacity_entries,
            ctx.entry_bytes,
            config=self._config,
        )
        placement = solved.realize()
        self._plan_cache[key] = placement
        return placement

    def mechanism(self, ctx: SystemContext) -> Mechanism:
        return Mechanism.FACTORED

