"""Anti-entropy scrubber: find silent GPU-cache corruption, quarantine it,
repair it from the cheapest intact replica.

The host table is ground truth (it never rots in this model) and every
entry has a host-side checksum (:attr:`MultiGpuEmbeddingCache.host_checksums`).
A GPU slot is *rotten* when its recomputed content checksum disagrees
with the host's.  The scrubber finds rot two ways:

* the **background scrub loop** — :meth:`CacheScrubber.tick` samples a
  seeded, byte-budgeted slice of one GPU store per tick (round-robin
  across GPUs) and cross-checks recomputed checksums against the host;
* the **read-path guard** — :meth:`CacheScrubber.guard_read` re-checksums
  values as they are served and patches any rotten row from the host
  table before the caller sees it.  The guard is what turns "rot is
  eventually repaired" into "corrupt values are *never served*".

A detected slot is **quarantined** first: every destination GPU whose
location-table route points at the rotten holder is rerouted to
:data:`~repro.hardware.platform.HOST`, so no reader can gather the bad
bytes while repair is pending (a holder nobody routes to is legal: the
integrity check follows the routes).  Repair then
copies the true bytes back — from the cheapest intact replica if another
GPU holds the entry (priced with :func:`~repro.core.pipeline.price_demand`,
the same one-pricing-point the whole stack uses), else from the host —
and restores the saved routes.

All scrubber state (quarantine records, repair queue) is mutated only
under the cache's write lock, so the scrub loop, the read guard (called
from per-GPU serving workers), and the Refresher serialize correctly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.checksum import row_checksums
from repro.core.pipeline import price_demand
from repro.hardware.platform import HOST
from repro.obs import get_registry
from repro.sim.mechanisms import GpuDemand
from repro.utils.logging import get_logger
from repro.utils.rng import make_rng

logger = get_logger("repair.scrub")

__all__ = ["CacheScrubber", "ScrubTick"]

#: Byte budget one :meth:`CacheScrubber.tick` may re-checksum (converted to
#: entries; at least one entry is always scanned).
SCAN_BYTES_PER_TICK = 16 * 1024
#: Byte budget one tick may spend copying true bytes back into quarantined
#: slots; what it does not reach waits for :meth:`CacheScrubber.drain`.
REPAIR_BYTES_PER_TICK = 16 * 1024


@dataclass
class ScrubTick:
    """What one scrub tick did."""

    scanned: int = 0
    mismatches: int = 0
    repaired: int = 0
    repaired_bytes: int = 0
    repair_seconds: float = 0.0


class CacheScrubber:
    """Background anti-entropy loop + read-path guard for one cache.

    ``node`` is an optional label (the cluster soak runs one scrubber per
    :class:`~repro.cluster.node.CacheNode`) threaded onto the
    ``repair.scrub.*`` metrics.
    """

    def __init__(self, cache, node: int | None = None) -> None:
        self._cache = cache
        self._labels = {} if node is None else {"node": str(node)}
        self._rng = make_rng(911)  # scrub coverage is replayable
        self._cursor = 0  # round-robin GPU cursor for tick()
        # (gpu, entry) -> dst GPUs whose route was parked at HOST; the
        # repair restores exactly these (and only where still parked).
        self._quarantined: dict[tuple[int, int], np.ndarray] = {}
        self._repair_queue: deque[tuple[int, int]] = deque()
        self._entry_cost: dict[tuple[int, int], float] = {}
        self.scanned_total = 0
        self.mismatches_total = 0
        self.repaired_total = 0
        self.repaired_bytes_total = 0
        self.read_repairs_total = 0
        self.repair_seconds_total = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def quarantine_depth(self) -> int:
        """Slots detected rotten and not yet repaired."""
        return len(self._quarantined)

    # ------------------------------------------------------------------
    # Background loop
    # ------------------------------------------------------------------
    def tick(self, now: float = 0.0) -> ScrubTick:
        """One scrub round: sample-scan one GPU store, then spend the
        repair budget on the quarantine queue.  Deterministic given the
        call sequence."""
        del now  # time is the caller's clock; the scrubber is stateless in it
        tick = ScrubTick()
        cache = self._cache
        num_gpus = cache.platform.num_gpus
        gpu = self._cursor % num_gpus
        self._cursor += 1
        entry_bytes = max(1, cache.entry_bytes)
        scan_budget = max(1, SCAN_BYTES_PER_TICK // entry_bytes)
        with cache.writing():
            cached = cache.store(gpu).cached_entries()
            if len(cached):
                k = min(scan_budget, len(cached))
                picks = self._rng.choice(len(cached), size=k, replace=False)
                self._scan_locked(gpu, cached[np.sort(picks)], tick)
            repair_budget = REPAIR_BYTES_PER_TICK // entry_bytes
            self._repair_some_locked(repair_budget, tick)
        self._account(tick)
        if tick.mismatches:
            logger.warning(
                "scrub: %d rotten slot(s) on GPU %d quarantined "
                "(%d outstanding)", tick.mismatches, gpu, self.quarantine_depth,
            )
        return tick

    def scrub_all(self) -> ScrubTick:
        """Full-coverage scan of every GPU store plus a complete repair
        drain; the end-of-run reconciliation gate."""
        tick = ScrubTick()
        cache = self._cache
        with cache.writing():
            for gpu in range(cache.platform.num_gpus):
                entries = cache.store(gpu).cached_entries()
                if len(entries):
                    self._scan_locked(gpu, entries, tick)
            self._repair_some_locked(None, tick)
        self._account(tick)
        return tick

    def _scan_locked(self, gpu: int, entries: np.ndarray, tick: ScrubTick) -> None:
        """Checksum ``entries``' slots on ``gpu``; quarantine the rotten."""
        store = self._cache.store(gpu)
        sums = row_checksums(store.data[store.offset_of[entries]])
        bad = entries[sums != self._cache.host_checksums[entries]]
        tick.scanned += int(len(entries))
        tick.mismatches += int(len(bad))
        for entry in bad:
            self._quarantine_locked(gpu, int(entry))

    def _account(self, tick: ScrubTick) -> None:
        """Add ``tick`` to the running totals and the scrub metrics."""
        self.scanned_total += tick.scanned
        self.mismatches_total += tick.mismatches
        reg = get_registry()
        if reg.enabled:
            reg.counter("repair.scrub.scanned_slots", **self._labels).inc(
                tick.scanned
            )
            if tick.mismatches:
                reg.counter("repair.scrub.mismatches", **self._labels).inc(
                    tick.mismatches
                )
            reg.gauge("repair.scrub.quarantine_depth", **self._labels).set(
                self.quarantine_depth
            )

    # ------------------------------------------------------------------
    # Read-path guard
    # ------------------------------------------------------------------
    def guard_read(
        self, dst: int, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Verify served ``values`` row-by-row; patch and quarantine rot.

        ``values`` must be row-aligned with ``keys`` (what an extraction
        returned for them on destination ``dst``).  Rotten rows are
        replaced in place from the host table (bit-exact) and their
        source slots quarantined, so the caller serves only true bytes.
        Returns ``(values, rows_patched)``.
        """
        if len(keys) == 0:
            return values, 0
        cache = self._cache
        sums = row_checksums(values)
        bad = np.flatnonzero(sums != cache.host_checksums[keys])
        if len(bad) == 0:
            return values, 0
        bad_keys = np.asarray(keys)[bad]
        values[bad] = cache.host_gather(bad_keys)
        with cache.writing():
            srcs = cache.source_map[dst][bad_keys]
            for key, src in zip(bad_keys, srcs):
                if 0 <= int(src) < cache.platform.num_gpus:
                    self._quarantine_locked(int(src), int(key))
        patched = int(len(bad))
        self.read_repairs_total += patched
        reg = get_registry()
        if reg.enabled:
            reg.counter("repair.scrub.read_repairs", **self._labels).inc(
                patched
            )
            reg.gauge("repair.scrub.quarantine_depth", **self._labels).set(
                self.quarantine_depth
            )
        logger.warning(
            "read guard: patched %d rotten row(s) served to GPU %d",
            patched, dst,
        )
        return values, patched

    # ------------------------------------------------------------------
    # Quarantine + repair (all under cache.writing())
    # ------------------------------------------------------------------
    def _quarantine_locked(self, gpu: int, entry: int) -> None:
        if (gpu, entry) in self._quarantined:
            return
        cache = self._cache
        dsts = np.flatnonzero(cache.source_map[:, entry] == gpu)
        # Park routes at the entry's backing home: HOST on a single-tier
        # platform, the owning tier of a deeper chain (so the parked route
        # stays a *valid* backing route, not a stale one).
        cache.set_sources(dsts, entry, self._backing_home(entry))
        self._quarantined[(gpu, entry)] = dsts
        self._repair_queue.append((gpu, entry))
        reg = get_registry()
        if reg.enabled:
            reg.counter("repair.scrub.quarantined", **self._labels).inc()

    def _repair_some_locked(
        self, budget_entries: int | None, tick: ScrubTick
    ) -> None:
        """Repair up to ``budget_entries`` queued slots (None = all)."""
        reg = get_registry()
        while self._repair_queue:
            if budget_entries is not None and tick.repaired >= budget_entries:
                break
            gpu, entry = self._repair_queue.popleft()
            seconds = self._repair_one_locked(gpu, entry)
            tick.repaired += 1
            tick.repaired_bytes += self._cache.entry_bytes
            tick.repair_seconds += seconds
            self.repaired_total += 1
            self.repaired_bytes_total += self._cache.entry_bytes
            self.repair_seconds_total += seconds
            if reg.enabled:
                reg.counter("repair.scrub.repaired", **self._labels).inc()
                reg.counter(
                    "repair.scrub.repaired_bytes", **self._labels
                ).inc(self._cache.entry_bytes)

    def _repair_one_locked(self, gpu: int, entry: int) -> float:
        """Copy the true bytes back into one quarantined slot and restore
        its parked routes; returns the priced copy time."""
        cache = self._cache
        dsts = self._quarantined.pop((gpu, entry))
        store = cache.store(gpu)
        slot = int(store.offset_of[entry])
        if slot < 0:
            # Evicted (refresh or node drop) while quarantined: nothing
            # to repair, and the routes were rebuilt by whoever evicted.
            return 0.0
        src, seconds = self._cheapest_intact_source(gpu, entry)
        if src <= HOST:  # any backing tier: the table is the ground truth
            store.data[slot] = cache.host_table[entry]
        else:
            peer = cache.store(src)
            store.data[slot] = peer.data[int(peer.offset_of[entry])]
        store.checksums[slot] = cache.host_checksums[entry]
        # Restore only routes still parked at the backing home — a refresh
        # may have rebuilt the map while the slot sat in quarantine (and a
        # tier move re-points parked routes to the new home, so comparing
        # against the current home is exact).
        back = dsts[cache.source_map[dsts, entry] == self._backing_home(entry)]
        cache.set_sources(back, entry, gpu)
        return seconds

    def _backing_home(self, entry: int) -> int:
        """The entry's backing source: HOST or its tier-chain home."""
        return int(self._cache.backing_home([entry])[0])

    def _cheapest_intact_source(
        self, dst: int, entry: int
    ) -> tuple[int, float]:
        """The cheapest replica whose copy verifies, else the backing home."""
        cache = self._cache
        entry_bytes = float(cache.entry_bytes)
        best_src = self._backing_home(entry)
        best_cost = price_demand(
            cache.platform, GpuDemand(dst=dst, volumes={best_src: entry_bytes})
        ).time
        for g in cache.platform.topology.peers(dst):  # no copy over a missing link
            if (g, entry) in self._quarantined:
                continue
            peer = cache.store(g)
            slot = int(peer.offset_of[entry])
            if slot < 0:
                continue
            if row_checksums(peer.data[slot][None, :])[0] != (
                cache.host_checksums[entry]
            ):
                # The replica is silently rotten too: quarantine it so a
                # later repair (and no reader) touches it.
                self._quarantine_locked(g, entry)
                continue
            cost = self._priced_link(dst, g, entry_bytes)
            if cost < best_cost:
                best_src, best_cost = g, cost
        return best_src, best_cost

    def _priced_link(self, dst: int, src: int, entry_bytes: float) -> float:
        key = (dst, src)
        cost = self._entry_cost.get(key)
        if cost is None:
            cost = price_demand(
                self._cache.platform,
                GpuDemand(dst=dst, volumes={src: entry_bytes}),
            ).time
            self._entry_cost[key] = cost
        return cost
