"""One simulated cache-server node: a full single-box stack on a shard.

A :class:`CacheNode` is the parameter-server shape of HugeCTR's inference
tier: every node holds the *whole* host table across its backing-tier
chain — all of DRAM on a classic platform, or a DRAM→CXL/SSD waterfall on
a tiered one (the shard's hot head in DRAM, the cold tail sunk deeper) —
so any read it is asked to serve is answerable and bit-exact.  Its GPUs
cache only the shard the cluster placement assigned to it: hotness
outside the shard is masked to zero before the per-GPU policy runs, so
GPU capacity is spent exclusively on keys this node will actually be
routed.

The node's serving surface is deliberately tiny — admit → price → serve:
:meth:`CacheNode.admit` picks the ingress GPU and plans a batch *once*,
:meth:`service_seconds` prices that :class:`AdmittedBatch` and
:meth:`serve` gathers it, so the plan served is the plan priced, on the
GPU it was priced for (handed raw keys, either admits them itself).
Everything fault-related — whether the node is reachable, how slow it is,
when RPCs to it time out — lives *outside*, in the health view and the
RPC layer; the node itself stays a pure single-box UGache instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.extractor import FactoredExtractor
from repro.core.pipeline import ExtractionPlan, price_demand
from repro.core.policy import Placement, hot_replicate_warm_partition_policy
from repro.core.solver import SolverConfig, solve_sharded_policy
from repro.hardware.platform import Platform
from repro.utils.logging import get_logger

logger = get_logger("cluster.node")

__all__ = ["AdmittedBatch", "CacheNode"]

#: Share of each GPU's capacity the greedy placement spends on replicas of
#: the shard's hottest entries; the rest partitions the warm band.
REPLICATE_FRACTION = 0.5


@dataclass(eq=False)
class AdmittedBatch:
    """One key batch's trip to a node: ingress GPU and plan, made once.
    Never kept past the call that admitted it: a cache mutation between
    its plan and its gather would leave the offsets stale."""

    node: "CacheNode"
    gpu: int
    keys: np.ndarray
    plan: ExtractionPlan

    @cached_property
    def seconds(self) -> float:
        """Healthy extraction time of exactly this plan (priced on first use)."""
        demand = self.plan.demand(self.node.cache.entry_bytes)
        return price_demand(self.node.platform, demand).time


class CacheNode:
    """A single-box UGache stack serving one shard of the keyspace."""

    def __init__(
        self,
        node_id: int,
        platform: Platform,
        table: np.ndarray,
        hotness: np.ndarray,
        member_mask: np.ndarray,
        capacity_entries: int,
        placement_mode: str = "greedy",
    ) -> None:
        if placement_mode not in ("greedy", "solver"):
            raise ValueError(
                f"placement mode must be 'greedy' or 'solver', "
                f"got {placement_mode!r}"
            )
        self.node_id = int(node_id)
        self.platform = platform
        self.member_mask = np.asarray(member_mask, dtype=bool)
        if not self.member_mask.any():
            raise ValueError(f"node {node_id}: shard cannot be empty")
        hotness = np.asarray(hotness, dtype=np.float64)
        shard_hotness = np.where(self.member_mask, hotness, 0.0)

        if placement_mode == "solver":
            # The node-level stage above the per-GPU LP: mask, solve,
            # intersect.
            outcome = solve_sharded_policy(
                platform,
                hotness,
                self.member_mask,
                capacity_entries,
                entry_bytes=table.shape[1] * table.dtype.itemsize,
                config=SolverConfig(time_limit=10.0, coarse_block_frac=0.02),
            )
            placement = outcome.placement
            logger.debug(
                "node %d: solver placement via %s (est %.3es)",
                node_id, outcome.source, outcome.est_time,
            )
        else:
            raw = hot_replicate_warm_partition_policy(
                shard_hotness, capacity_entries, platform.num_gpus,
                REPLICATE_FRACTION,
            )
            # Capacity beyond the shard's size would otherwise be padded
            # with zero-hotness strangers; keep the caches shard-pure.
            placement = Placement(
                num_entries=raw.num_entries,
                per_gpu=tuple(
                    ids[self.member_mask[ids]] for ids in raw.per_gpu
                ),
            )
        # On a tiered platform the node's backing chain is ranked by the
        # *shard's* hotness: each node keeps its own hot head in DRAM.
        self.cache = MultiGpuEmbeddingCache(
            platform,
            table,
            placement,
            tier_hotness=shard_hotness if platform.num_tiers > 1 else None,
        )
        self.extractor = FactoredExtractor(self.cache)
        self._next_gpu: int = 0  # ingress round-robin pointer
        #: optional :class:`~repro.repair.scrub.CacheScrubber` — when set,
        #: every served batch passes through its read guard so rotten
        #: slots can never leak corrupt bytes to a caller.
        self.read_guard = None

    # ------------------------------------------------------------------
    # Serving surface
    # ------------------------------------------------------------------
    def admit(self, keys: np.ndarray | AdmittedBatch) -> AdmittedBatch:
        """Plan ``keys`` once on the next ingress GPU (a batch passes through)."""
        if isinstance(keys, AdmittedBatch):
            return keys
        gpu = self._next_gpu
        self._next_gpu = (gpu + 1) % self.platform.num_gpus
        return AdmittedBatch(self, gpu, keys, self.extractor.plan(gpu, keys))

    def service_seconds(self, keys: np.ndarray | AdmittedBatch) -> float:
        """Healthy extraction time for ``keys`` on their ingress GPU."""
        return self.admit(keys).seconds

    def serve(self, keys: np.ndarray | AdmittedBatch) -> tuple[np.ndarray, float]:
        """Gather ``keys``; returns ``(values, healthy service seconds)``."""
        batch = self.admit(keys)
        values, _demand = self.extractor.execute(batch.plan)
        if self.read_guard is not None:
            values, _ = self.read_guard.guard_read(batch.gpu, batch.keys, values)
        return values, batch.seconds

    # ------------------------------------------------------------------
    # Failover bookkeeping
    # ------------------------------------------------------------------
    def drop_gpu_caches(self) -> Placement:
        """Model a node death: GPU cache contents are lost.

        Every store is emptied (arenas and capacity survive — the
        hardware is fine, the bytes are gone) and the location table is
        rebuilt, so until re-staged every read on this node resolves to
        its host table — slower, still bit-exact.  Returns the lost
        placement, the input a :class:`~repro.repair.restage.StagedRecovery`
        plan needs.
        """
        lost = self.cache.placement
        with self.cache.writing():
            for g in range(self.platform.num_gpus):
                store = self.cache.store(g)
                store.evict_many(store.cached_entries())
        self.cache.refresh_source_map()
        logger.warning(
            "node %d: dropped %d GPU-cached entries",
            self.node_id, sum(len(ids) for ids in lost.per_gpu),
        )
        return lost

    def verify_integrity(self) -> list[str]:
        return self.cache.verify_integrity()
