"""Lookahead prefetching: an oracle cacher over a knowable future.

In trace-driven serving and in training, the near future is not a guess:
the next K batches' keys are sitting in the arrival trace (BagPipe's
observation).  This module turns that knowledge into a **prefetch stage**
ahead of the extraction pipeline: a :class:`LookaheadWindow` exposes the
next K batches per destination GPU, and an :class:`OracleCacher` diffs
that upcoming demand against current cache residency and pre-stages the
would-be host misses into a capacity-bounded per-GPU
:class:`StagingBuffer` while the GPU's links are otherwise idle.

The accounting mirrors the command-recording idiom (record now, execute
later): staging is *recorded* against the demand diff immediately, but
its transfer cost is *priced* against the idle gap the caller reports —
only the non-overlapped remainder of the PCIe transfer lands on the
critical path (:attr:`PrefetchOutcome.critical_seconds`).  At extraction
time the serving runtime asks :meth:`OracleCacher.stage_hits` which host
keys are already resident in staging and shifts their bytes off the host
path with :func:`~repro.core.pipeline.shift_staged_demand`, so a
prefetched key is priced as a local read instead of a PCIe gather.

Everything is per-GPU state: one buffer + one window per destination, so
the per-GPU serving workers never contend on shared prefetch state.
Values are never approximated — staging only re-prices reads; the actual
bytes still come from the host table, byte-identical.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import price_demand
from repro.hardware.platform import HOST
from repro.obs import get_registry, stage_timer
from repro.sim.mechanisms import GpuDemand
from repro.utils.logging import get_logger

logger = get_logger("core.prefetch")

__all__ = [
    "LookaheadWindow",
    "OracleCacher",
    "PrefetchConfig",
    "PrefetchOutcome",
    "StagingBuffer",
]


@dataclass(frozen=True)
class PrefetchConfig:
    """Knobs of the lookahead prefetcher.

    Attributes:
        lookahead: batches peeked ahead of the one being served; 0
            disables prefetching entirely (the runtime behaves
            byte-identically to one with no prefetcher attached).
        capacity_entries: staging-buffer bound per GPU, in entries — the
            GPU-tier headroom the oracle may fill beyond the solved
            placement.
    """

    lookahead: int = 4
    capacity_entries: int = 4096

    def __post_init__(self) -> None:
        if self.lookahead < 0:
            raise ValueError("lookahead must be non-negative")
        if self.capacity_entries < 1:
            raise ValueError("staging capacity must be at least one entry")


@dataclass
class PrefetchOutcome:
    """What one prefetch issuance staged, and what it cost.

    ``cost_seconds`` is the full priced host→GPU transfer;
    ``overlapped_seconds`` is the share absorbed by the idle gap the
    caller reported.  Only :attr:`critical_seconds` may delay serving.
    """

    gpu: int
    staged_keys: int = 0
    staged_bytes: float = 0.0
    #: upcoming host misses that did not fit in the staging buffer.
    deferred_keys: int = 0
    cost_seconds: float = 0.0
    overlapped_seconds: float = 0.0

    @property
    def critical_seconds(self) -> float:
        """Transfer time not hidden by idle links (lands on the GPU)."""
        return max(0.0, self.cost_seconds - self.overlapped_seconds)


class StagingBuffer:
    """Capacity-bounded staging area for one GPU tier's prefetched entries.

    Tracks which staged entries ever served a hit so evictions can split
    into useful turnover versus :attr:`wasted_bytes` (staged, never
    read — the oracle's prediction was overtaken by a drop, a policy
    swap, or the end of the run).
    """

    def __init__(self, gpu: int, num_entries: int, capacity_entries: int,
                 entry_bytes: int) -> None:
        if capacity_entries < 1:
            raise ValueError("staging capacity must be at least one entry")
        self.gpu = gpu
        self.capacity_entries = capacity_entries
        self.entry_bytes = entry_bytes
        self._staged = np.zeros(num_entries, dtype=bool)
        self._used = np.zeros(num_entries, dtype=bool)
        self._count = 0
        self.staged_total = 0
        self.hits = 0
        self.wasted_bytes = 0.0

    @property
    def occupancy(self) -> int:
        """Entries currently staged (never exceeds the capacity bound)."""
        return self._count

    @property
    def free(self) -> int:
        return self.capacity_entries - self._count

    def staged_mask(self, keys: np.ndarray) -> np.ndarray:
        """Which of ``keys`` are currently resident in staging."""
        return self._staged[keys]

    def stage(self, keys: np.ndarray) -> np.ndarray:
        """Stage as many of ``keys`` as capacity allows, in order.

        ``keys`` must be unique and not already staged.  Returns the
        keys actually staged (a prefix of the input).
        """
        room = self.free
        admitted = keys[:room] if len(keys) > room else keys
        if len(admitted):
            self._staged[admitted] = True
            self._used[admitted] = False
            self._count += len(admitted)
            self.staged_total += len(admitted)
        return admitted

    def record_hits(self, keys: np.ndarray) -> np.ndarray:
        """Mark the staged subset of ``keys`` as read; returns the mask."""
        mask = self._staged[keys]
        n = int(mask.sum())
        if n:
            self._used[keys[mask]] = True
            self.hits += n
        return mask

    def evict_except(self, keep_mask: np.ndarray) -> int:
        """Evict staged entries outside ``keep_mask`` (a bool entry mask).

        Entries that never served a hit count toward
        :attr:`wasted_bytes`.  Returns how many entries were evicted.
        """
        evict = self._staged & ~keep_mask
        n = int(evict.sum())
        if n:
            wasted = int((evict & ~self._used).sum())
            self.wasted_bytes += wasted * self.entry_bytes
            self._staged[evict] = False
            self._used[evict] = False
            self._count -= n
        return n

    def drain(self) -> int:
        """Evict everything (end of run); unread entries count as waste."""
        return self.evict_except(np.zeros_like(self._staged))


class LookaheadWindow:
    """The knowable future of one destination GPU: a FIFO of key batches.

    The feeder (the soak harness's trace, a training loader's prefetch
    queue) appends batches with :meth:`push` in arrival order; the
    serving runtime calls :meth:`advance` as each batch *retires*
    (served, expired, or dropped at admission).  The *window* is the
    next ``lookahead`` unretired batches — the slice of the future the
    oracle is allowed to act on — so staged entries survive a request's
    queueing delay.
    """

    def __init__(self, lookahead: int) -> None:
        if lookahead < 0:
            raise ValueError("lookahead must be non-negative")
        self.lookahead = lookahead
        self._future: deque[np.ndarray] = deque()

    def __len__(self) -> int:
        return len(self._future)

    def push(self, keys: np.ndarray) -> None:
        """Append one future batch (arrival order)."""
        self._future.append(np.ascontiguousarray(keys, dtype=np.int64))

    def window(self) -> list[np.ndarray]:
        """The next ≤ ``lookahead`` batches, nearest first."""
        k = min(self.lookahead, len(self._future))
        return [self._future[i] for i in range(k)]

    def union(self) -> np.ndarray:
        """Unique keys across the window, in first-need order.

        Ordering matters under capacity pressure: the staging buffer
        admits a prefix, so the earliest-needed keys must come first.
        """
        batches = self.window()
        if not batches:
            return np.empty(0, dtype=np.int64)
        cat = np.concatenate(batches)
        first = np.sort(np.unique(cat, return_index=True)[1])
        return cat[first]

    def advance(self) -> np.ndarray | None:
        """Slide past the batch that just retired; returns it."""
        if not self._future:
            return None
        return self._future.popleft()


class OracleCacher:
    """Diffs upcoming demand against residency and pre-stages the misses.

    One window + one staging buffer per destination GPU.  The caller
    drives three moments:

    * :meth:`announce` — feed the future (the trace) in arrival order;
    * :meth:`prefetch` — during an idle gap, stage the window's would-be
      host misses into the GPU tier, priced against the idle time;
    * :meth:`stage_hits` — at extraction, claim staged keys so the
      demand can be shifted off the host path; then :meth:`advance`
      (called by the runtime as each batch retires) slides the window
      and evicts staging that the future no longer justifies.

    The prefetch diff runs under the cache's read lock and inside the
    pipeline's ``prefetch`` stage timer (``pipeline.prefetch.seconds``),
    so its cost shows up in the same per-stage breakdown as the rest of
    the extraction pipeline.
    """

    def __init__(self, cache, config: PrefetchConfig | None = None) -> None:
        self._cache = cache
        self.config = config or PrefetchConfig()
        G = cache.platform.num_gpus
        self._windows = [LookaheadWindow(self.config.lookahead) for _ in range(G)]
        self._buffers = [
            StagingBuffer(
                g,
                cache.num_entries,
                self.config.capacity_entries,
                cache.entry_bytes,
            )
            for g in range(G)
        ]
        #: per-GPU host-resolved keys seen at extraction (hit-rate base).
        self._host_keys_seen = [0] * G
        self._overlap_seconds = [0.0] * G
        self._critical_seconds = [0.0] * G
        #: priced per-entry transfer seconds, keyed by (gpu, backing src).
        self._entry_cost: dict[tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def buffer(self, gpu: int) -> StagingBuffer:
        return self._buffers[gpu]

    def window(self, gpu: int) -> LookaheadWindow:
        return self._windows[gpu]

    @property
    def staged_keys_total(self) -> int:
        return sum(b.staged_total for b in self._buffers)

    @property
    def hits_total(self) -> int:
        return sum(b.hits for b in self._buffers)

    @property
    def wasted_bytes_total(self) -> float:
        return float(sum(b.wasted_bytes for b in self._buffers))

    @property
    def overlap_seconds_total(self) -> float:
        return float(sum(self._overlap_seconds))

    @property
    def critical_seconds_total(self) -> float:
        return float(sum(self._critical_seconds))

    @property
    def hit_rate(self) -> float:
        """Staged hits over all host-resolved keys seen at extraction."""
        seen = sum(self._host_keys_seen)
        return self.hits_total / seen if seen else 0.0

    # ------------------------------------------------------------------
    # The three moments
    # ------------------------------------------------------------------
    def announce(self, gpu: int, keys: np.ndarray) -> None:
        """Feed one future batch for ``gpu`` (arrival order)."""
        self._windows[gpu].push(keys)

    def _per_entry_cost(self, gpu: int, src: int = HOST) -> float:
        """Priced tier→GPU transfer seconds per staged entry (cached).

        ``src`` is the backing tier the entry would be pulled from; on a
        single-tier platform that is always :data:`HOST`.
        """
        cost = self._entry_cost.get((gpu, src))
        if cost is None:
            ref = 1024
            demand = GpuDemand(
                dst=gpu,
                volumes={src: float(ref * self._cache.entry_bytes)},
            )
            cost = price_demand(self._cache.platform, demand).time / ref
            self._entry_cost[(gpu, src)] = cost
        return cost

    def prefetch(
        self, gpu: int, now: float = 0.0, idle_seconds: float = 0.0
    ) -> PrefetchOutcome:
        """Stage the window's upcoming host misses during an idle gap.

        ``idle_seconds`` is how long ``gpu``'s links sit idle before its
        next obligation: staging is *budgeted* to the entries that idle
        gap can transfer (``math.inf`` lifts the budget), so prefetch is
        priced against idle link time rather than the serving critical
        path.  Any residual (pricing is not perfectly linear in bytes)
        is reported as :attr:`PrefetchOutcome.critical_seconds` and it
        is the caller's call whether to charge it to the GPU.
        """
        if idle_seconds < 0:
            raise ValueError("idle time must be non-negative")
        buffer = self._buffers[gpu]
        outcome = PrefetchOutcome(gpu=gpu)
        if self.config.lookahead == 0:
            return outcome
        with stage_timer("prefetch"):
            with self._cache.reading():
                upcoming = self._windows[gpu].union()
                if len(upcoming) == 0:
                    return outcome
                sources = self._cache.source_map[gpu][upcoming]
                miss_mask = (sources < 0) & ~buffer.staged_mask(upcoming)
                misses = upcoming[miss_mask]
                miss_src = sources[miss_mask]
                if len(misses) == 0:
                    return outcome
                platform = self._cache.platform
                if math.isinf(idle_seconds):
                    budget = len(misses)
                elif platform.num_tiers == 1:
                    budget = int(idle_seconds / self._per_entry_cost(gpu))
                else:
                    # Misses on deep tiers cost more per entry; budget by
                    # cumulative priced cost in first-need order.
                    per = np.array(
                        [
                            self._per_entry_cost(gpu, int(s))
                            for s in miss_src
                        ]
                    )
                    budget = int((np.cumsum(per) <= idle_seconds).sum())
                outcome.deferred_keys = max(0, len(misses) - budget)
                if budget <= 0:
                    return outcome
                staged = buffer.stage(misses[:budget])
                outcome.staged_keys = len(staged)
                outcome.deferred_keys = len(misses) - len(staged)
                if len(staged) == 0:
                    return outcome
                outcome.staged_bytes = float(
                    len(staged) * self._cache.entry_bytes
                )
                staged_src = miss_src[: len(staged)]
            volumes: dict[int, float] = {}
            for s in np.unique(staged_src):
                volumes[int(s)] = float(
                    int((staged_src == s).sum()) * self._cache.entry_bytes
                )
            demand = GpuDemand(dst=gpu, volumes=volumes)
            outcome.cost_seconds = price_demand(
                self._cache.platform, demand
            ).time
            outcome.overlapped_seconds = min(
                idle_seconds, outcome.cost_seconds
            )
        self._overlap_seconds[gpu] += outcome.overlapped_seconds
        self._critical_seconds[gpu] += outcome.critical_seconds
        reg = get_registry()
        if reg.enabled:
            reg.counter("serve.prefetch.staged_keys", gpu=gpu).inc(
                outcome.staged_keys
            )
            reg.counter("serve.prefetch.staged_bytes", gpu=gpu).inc(
                int(outcome.staged_bytes)
            )
            if outcome.deferred_keys:
                reg.counter("serve.prefetch.deferred_keys", gpu=gpu).inc(
                    outcome.deferred_keys
                )
            reg.histogram("serve.prefetch.overlap.seconds").observe(
                outcome.overlapped_seconds
            )
            reg.histogram("serve.prefetch.critical.seconds").observe(
                outcome.critical_seconds
            )
        return outcome

    def stage_hits(self, gpu: int, host_keys: np.ndarray) -> np.ndarray:
        """Claim staged entries among a plan's host-resolved keys.

        Returns the boolean hit mask over ``host_keys``.  Hit entries
        stay staged while the window still references them (a hot staged
        entry serves every queued batch that needs it).
        """
        self._host_keys_seen[gpu] += len(host_keys)
        if len(host_keys) == 0:
            return np.zeros(0, dtype=bool)
        mask = self._buffers[gpu].record_hits(host_keys)
        n = int(mask.sum())
        if n:
            reg = get_registry()
            if reg.enabled:
                reg.counter("serve.prefetch.hits", gpu=gpu).inc(n)
        return mask

    def advance(self, gpu: int) -> None:
        """Slide ``gpu``'s window past the batch that just retired.

        Staged entries the remaining window no longer references are
        evicted; the never-read ones count as wasted bytes.
        """
        window = self._windows[gpu]
        window.advance()
        buffer = self._buffers[gpu]
        if buffer.occupancy == 0:
            return
        keep = np.zeros(self._cache.num_entries, dtype=bool)
        remaining = window.window()
        if remaining:
            keep[np.concatenate(remaining)] = True
        evicted = buffer.evict_except(keep)
        if evicted:
            reg = get_registry()
            if reg.enabled:
                reg.counter("serve.prefetch.evicted_keys", gpu=gpu).inc(
                    evicted
                )

    def finalize(self) -> None:
        """End of run: drain every buffer, counting unread staging as waste."""
        reg = get_registry()
        for buffer in self._buffers:
            evicted = buffer.drain()
            if evicted and reg.enabled:
                reg.counter(
                    "serve.prefetch.evicted_keys", gpu=buffer.gpu
                ).inc(evicted)
        if reg.enabled:
            reg.counter("serve.prefetch.wasted_bytes").inc(
                int(self.wasted_bytes_total)
            )
