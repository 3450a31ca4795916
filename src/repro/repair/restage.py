"""Rate-limited staged recovery: refill a healed node's GPU caches in
hotness order, under an idle-link-time budget.

When a node dies, its GPU cache contents are gone
(:meth:`~repro.cluster.node.CacheNode.drop_gpu_caches`).  The naive heal
re-stages everything at once — a burst that saturates the host links
exactly when the healed node is trying to absorb traffic again.
:class:`StagedRecovery` replaces the burst with a plan: the lost
``(gpu, entry)`` pairs are sorted by hotness (hottest first, so the
entries that buy back the most goodput return first) and cut into
fixed-size **blocks**; each call to :meth:`grant` hands the plan an idle
window and stages as many whole blocks as that window's priced transfer
budget covers, each transfer priced through the one
:func:`~repro.core.pipeline.price_demand` point.

Invariants the property tests pin: every lost pair is staged **exactly
once**, blocks stage in **non-increasing hotness order**, and when
:attr:`done` the stores hold exactly the lost placement again.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import price_demand
from repro.core.policy import Placement
from repro.obs import get_registry
from repro.sim.mechanisms import GpuDemand
from repro.utils.arrays import sorted_unique
from repro.utils.logging import get_logger

logger = get_logger("repair.restage")

__all__ = ["RestageGrant", "StagedRecovery"]

#: (gpu, entry) pairs per staged block.
CHUNK_ENTRIES = 256


class RestageGrant:
    """What one :meth:`StagedRecovery.grant` staged."""

    def __init__(self) -> None:
        self.blocks = 0
        self.entries = 0
        self.bytes = 0
        self.cost_seconds = 0.0


class StagedRecovery:
    """One healed node's hotness-prioritized, budgeted cache refill.

    ``lost`` is the placement returned by ``drop_gpu_caches`` at death
    time; ``hotness`` is the per-entry demand estimate the placement was
    solved against (higher = stage sooner).
    """

    def __init__(self, node, lost, hotness: np.ndarray) -> None:
        self._node = node
        self._cache = node.cache
        self._entry_cost: dict[int, float] = {}
        hotness = np.asarray(hotness, dtype=np.float64)
        gpus = []
        entries = []
        for gpu, ids in enumerate(lost.per_gpu):
            ids = np.asarray(ids, dtype=np.int64)
            gpus.append(np.full(len(ids), gpu, dtype=np.int64))
            entries.append(ids)
        gpus = np.concatenate(gpus) if gpus else np.empty(0, dtype=np.int64)
        entries = (
            np.concatenate(entries) if entries else np.empty(0, dtype=np.int64)
        )
        # Hottest first; ties broken by (gpu, entry) so the plan is a
        # pure function of (lost, hotness).
        order = np.lexsort((entries, gpus, -hotness[entries]))
        gpus, entries = gpus[order], entries[order]
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = [
            (gpus[i:i + CHUNK_ENTRIES], entries[i:i + CHUNK_ENTRIES])
            for i in range(0, len(entries), CHUNK_ENTRIES)
        ]
        self._next_block = 0
        # Shard keys not yet back on a GPU: the frontend keeps routing
        # them to replica owners while the refill is in flight.
        self._pending = np.zeros(self._cache.num_entries, dtype=bool)
        self._pending[entries] = True
        #: staged block entry-arrays in stage order (the test log).
        self.staged_log: list[np.ndarray] = []
        self.staged_entries = 0
        self.staged_bytes = 0
        self.cost_seconds_total = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._next_block >= len(self._blocks)

    @property
    def blocks_total(self) -> int:
        return len(self._blocks)

    @property
    def remaining_entries(self) -> int:
        return int(
            sum(len(e) for _, e in self._blocks[self._next_block:])
        )

    def restaged_keys(self, keys: np.ndarray) -> np.ndarray:
        """Bool mask over ``keys``: True where the node can GPU-serve the
        key again (never lost, or already re-staged)."""
        return ~self._pending[np.asarray(keys, dtype=np.int64)]

    def remaining_placement(self) -> Placement:
        """The un-staged remainder as a placement.

        If the node dies *again* mid-refill, the next death's lost set is
        the union of what was cached at death and this remainder —
        otherwise the interrupted plan's tail would never come back.
        """
        per_gpu: list[list[int]] = [
            [] for _ in range(self._cache.platform.num_gpus)
        ]
        for gpus, entries in self._blocks[self._next_block:]:
            for g, e in zip(gpus, entries):
                per_gpu[int(g)].append(int(e))
        return Placement(
            num_entries=self._cache.num_entries,
            per_gpu=tuple(
                np.array(sorted(ids), dtype=np.int64) for ids in per_gpu
            ),
        )

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def _per_entry_cost(self, gpu: int) -> float:
        """Priced backing→GPU seconds per staged entry.

        On a tiered platform the reference transfer is split across
        backing tiers by residency share, so a mostly-SSD table prices
        its refill honestly; single-tier platforms reduce to the old
        host-only reference demand.
        """
        cost = self._entry_cost.get(gpu)
        if cost is None:
            ref = 1024
            ref_bytes = float(ref * self._cache.entry_bytes)
            shares = self._cache.backing_shares()
            demand = GpuDemand(
                dst=gpu,
                volumes={s: ref_bytes * f for s, f in shares.items() if f > 0},
            )
            cost = price_demand(self._cache.platform, demand).time / ref
            self._entry_cost[gpu] = cost
        return cost

    def _block_cost(self, block: tuple[np.ndarray, np.ndarray]) -> float:
        gpus, _ = block
        ids, counts = np.unique(gpus, return_counts=True)
        return float(
            sum(self._per_entry_cost(int(g)) * int(c)
                for g, c in zip(ids, counts))
        )

    def grant(self, idle_seconds: float) -> RestageGrant:
        """Stage whole blocks while the idle window's budget lasts.

        Only complete blocks stage (each exactly once); the first block
        that does not fit ends the grant.  An infinite budget
        (``math.inf``) finishes the plan.
        """
        if idle_seconds < 0:
            raise ValueError("idle time must be non-negative")
        grant = RestageGrant()
        remaining = idle_seconds
        while self._next_block < len(self._blocks):
            block = self._blocks[self._next_block]
            cost = self._block_cost(block)
            if cost > remaining:
                break
            self._stage_block(block, grant, cost)
            remaining -= cost
        if grant.blocks:
            self._cache.refresh_source_map()
            reg = get_registry()
            if reg.enabled:
                node = getattr(self._node, "node_id", None)
                labels = {} if node is None else {"node": str(node)}
                reg.counter("repair.restage.blocks", **labels).inc(
                    grant.blocks
                )
                reg.counter("repair.restage.entries", **labels).inc(
                    grant.entries
                )
                reg.counter("repair.restage.bytes", **labels).inc(grant.bytes)
                reg.gauge("repair.restage.remaining_entries", **labels).set(
                    self.remaining_entries
                )
        return grant

    def finish(self) -> RestageGrant:
        """Stage every remaining block (the end-of-run drain)."""
        return self.grant(float("inf"))

    def _stage_block(self, block, grant: RestageGrant, cost: float) -> None:
        gpus, entries = block
        cache = self._cache
        with cache.writing():
            for gpu in sorted_unique(gpus):
                store = cache.store(int(gpu))
                mine = entries[gpus == gpu]  # block order kept per GPU
                missing = mine[store.offset_of[mine] < 0]
                store.insert_many(missing, cache.host_table[missing])
        self._pending[entries] = False
        self.staged_log.append(entries.copy())
        self._next_block += 1
        grant.blocks += 1
        grant.entries += len(entries)
        grant.bytes += len(entries) * cache.entry_bytes
        grant.cost_seconds += cost
        self.staged_entries += len(entries)
        self.staged_bytes += len(entries) * cache.entry_bytes
        self.cost_seconds_total += cost
