"""Background cache Refresher (§7.2, evaluated in §8.6 / Figure 17).

Embedding hotness drifts slowly (days), so UGache refreshes its static
cache in the background instead of paying per-access eviction bookkeeping:

1. a new hotness estimate arrives (a re-profiled workload, or the serving
   tier's :class:`~repro.core.drift_adapt.StreamingHotnessEstimator`);
2. periodically the Solver re-estimates extraction time under the new
   hotness; if it improved enough, a refresh is triggered;
3. the Refresher computes the placement diff and applies it in small
   batches, throttled so foreground impact stays bounded (~10%);
4. the location hashtable is swapped only after the affected store
   contents are in place, with a foreground batch between the two steps,
   so lookups never observe a dangling ``<GPU, Offset>``.

Two entry points: :meth:`Refresher.refresh` mutates a live cache
incrementally (functional), and :func:`simulate_refresh_timeline`
reproduces Figure 17's latency-vs-time trace analytically.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.filler import apply_diff_step, placement_diff
from repro.core.policy import Placement
from repro.obs import get_registry
from repro.utils.logging import get_logger

logger = get_logger("core.refresher")


#: Fractional slowdown imposed on foreground requests while a refresh step
#: is in flight (§7.2: <10%).
FOREGROUND_IMPACT = 0.10
#: Refresh only if the newly solved policy's estimated extraction time beats
#: the current one by this factor.
TRIGGER_RATIO = 1.05
#: Charged for the background policy solve (the paper reports ~10 s; our
#: HiGHS solves are faster, so this models the full-size problem).
SOLVE_SECONDS = 10.0
#: Sustained cache-update throughput, entries/second (bounded by PCIe refill
#: bandwidth and deliberately throttled).
ENTRIES_PER_SECOND = 200_000.0
#: Seconds between samples of :func:`simulate_refresh_timeline`.
SAMPLE_INTERVAL = 0.5


@dataclass(frozen=True)
class RefreshConfig:
    """Refresh throttling.

    Attributes:
        update_batch_entries: entries evicted and entries inserted per
            small-batch update step.  A step is one batched copy each way,
            checked as a whole before it writes, and costs O(step).
    """

    update_batch_entries: int = 4096

    def __post_init__(self) -> None:
        if self.update_batch_entries <= 0:
            raise ValueError("update batch must be positive")


@dataclass
class RefreshOutcome:
    """What one refresh did."""

    triggered: bool
    entries_moved: int = 0
    steps: int = 0
    estimated_duration: float = 0.0


class Refresher:
    """Applies a new placement to a live cache in throttled steps."""

    def __init__(self, cache: MultiGpuEmbeddingCache, config: RefreshConfig | None = None):
        self._cache = cache
        self._config = config or RefreshConfig()
        # Epoch of the content now being served: set at construction (the
        # initial fill) and advanced on every completed refresh; its age
        # is the staleness the next refresh retires.
        self._content_epoch = _time.perf_counter()

    def should_refresh(self, current_time: float, candidate_time: float) -> bool:
        """Trigger when the candidate policy is sufficiently better."""
        if candidate_time <= 0:
            return False
        return current_time / candidate_time >= TRIGGER_RATIO

    def refresh(self, new_placement: Placement) -> RefreshOutcome:
        """Incrementally move the cache to ``new_placement``.

        Drains :meth:`refresh_steps`; see there for the consistency and
        rollback arguments.
        """
        outcome = RefreshOutcome(triggered=False)
        for outcome in self.refresh_steps(new_placement):
            pass
        return outcome

    def _rollback(
        self,
        undo: list[tuple[int, np.ndarray, np.ndarray]],
        placement: Placement,
        source_map: np.ndarray,
    ) -> None:
        """Reverse every applied step, restore the snapshotted routing, and
        prove the cache is bit-identical to its pre-refresh state.

        Survives a *double fault* — a failure raised while the rollback
        itself replays the undo log: the host table is the ground truth,
        so when the incremental replay dies we abandon it and rebuild the
        stores wholesale from the snapshotted placement.  Either way the
        location state is restored and integrity re-verified.
        """
        table = self._cache.host_table
        with self._cache.writing():
            try:
                for gpu, evicted, inserted in reversed(undo):
                    # Inverse of apply_diff_step: drop what it inserted,
                    # re-insert what it evicted (values come back from the host
                    # table, which is the ground truth the stores mirror).
                    apply_diff_step(
                        self._cache.store(gpu), table, inserted, evicted
                    )
            except Exception as exc:
                logger.error(
                    "rollback replay failed (%s); rebuilding stores from the "
                    "host table instead", exc,
                )
                get_registry().counter("refresher.rollback.double_faults").inc()
                self._cache.replace_placement(placement)
            self._cache.restore_location_state(placement, source_map)
            self._cache.check_integrity()
        reg = get_registry()
        if reg.enabled:
            reg.counter("refresher.rollbacks").inc()
            reg.histogram("refresher.rollback.steps").observe(len(undo))
        logger.warning("refresh rolled back: %d step(s) undone", len(undo))

    def refresh_steps(self, new_placement: Placement):
        """Generator form of :meth:`refresh`: yields after every small-batch
        update step so a caller (or test) can interleave foreground lookups.

        Lookups stay correct at every yield point: before any store is
        touched, every to-be-evicted entry is rerouted to host in all
        location tables, so no lookup can chase a slot a later step
        recycles; inserted entries only become visible when the maps are
        rebuilt after the final step.

        The refresh is transactional: the placement and location table are
        snapshotted up front and every applied step is recorded in an undo
        log.  If any step raises, the log is replayed in reverse and the
        snapshot restored, leaving the cache bit-identical to its
        pre-refresh state — verified by
        :meth:`~repro.core.cache.MultiGpuEmbeddingCache.check_integrity` —
        and the exception propagates unchanged.
        """
        cfg = self._config
        reg = get_registry()
        swap_start = _time.perf_counter()
        diff = placement_diff(self._cache.placement, new_placement)
        total = diff.total_changes()
        if total == 0:
            reg.counter("refresher.noop").inc()
            yield RefreshOutcome(triggered=False)
            return

        snapshot_placement = self._cache.placement
        snapshot_map = self._cache.source_map.copy()
        undo: list[tuple[int, np.ndarray, np.ndarray]] = []

        # The old source map may point any GPU at a slot a refresh step
        # recycles, so first route every to-be-evicted entry to its backing
        # tier for the duration of the refresh (the paper instead waits a
        # foreground batch; the effect — no dangling read — is the same).
        with self._cache.writing():
            evicted = np.concatenate(diff.evictions)
            owners = np.repeat(np.arange(len(diff.evictions)), list(map(len, diff.evictions)))
            readers = np.flatnonzero(self._cache.source_map[:, evicted] == owners)
            dsts, at = np.divmod(readers, len(evicted))
            self._cache.set_sources(dsts, evicted[at], self._cache.backing_home(evicted[at]))

        steps = 0
        table = self._cache.host_table
        try:
            for gpu in range(new_placement.num_gpus):
                evict = diff.evictions[gpu]
                insert = diff.insertions[gpu]
                cursor_e = cursor_i = 0
                while cursor_e < len(evict) or cursor_i < len(insert):
                    batch_e = evict[cursor_e : cursor_e + cfg.update_batch_entries]
                    batch_i = insert[cursor_i : cursor_i + cfg.update_batch_entries]
                    # Keep occupancy within capacity: evict before insert.
                    # Each step holds the cache's write lock on its own (the
                    # lock is *not* held across the yield below), so serving
                    # workers' lookups interleave between steps, never inside
                    # one.
                    with self._cache.writing():
                        apply_diff_step(
                            self._cache.store(gpu), table, batch_e, batch_i
                        )
                    undo.append((gpu, batch_e, batch_i))
                    cursor_e += len(batch_e)
                    cursor_i += len(batch_i)
                    steps += 1
                    yield RefreshOutcome(
                        triggered=True,
                        entries_moved=int(cursor_e + cursor_i),
                        steps=steps,
                        estimated_duration=0.0,
                    )
        except Exception:
            self._rollback(undo, snapshot_placement, snapshot_map)
            raise
        self._cache.refresh_source_map()
        duration = SOLVE_SECONDS + total / ENTRIES_PER_SECOND
        if reg.enabled:
            now = _time.perf_counter()
            reg.counter("refresher.refreshes").inc()
            reg.counter("refresher.entries_moved").inc(total)
            reg.histogram("refresher.steps").observe(steps)
            reg.histogram("refresher.swap.seconds").observe(now - swap_start)
            reg.histogram("refresher.staleness.seconds").observe(
                swap_start - self._content_epoch
            )
            reg.histogram("refresher.modelled_duration.seconds").observe(duration)
            self._content_epoch = now
        else:
            self._content_epoch = _time.perf_counter()
        logger.info(
            "refresh complete: moved %d entries in %d steps (~%.1fs modelled)",
            total, steps, duration,
        )
        yield RefreshOutcome(
            triggered=True,
            entries_moved=total,
            steps=steps,
            estimated_duration=duration,
        )


@dataclass(frozen=True)
class RefreshTimeline:
    """Figure 17's trace: foreground latency sampled over wall-clock time."""

    times: np.ndarray
    latencies: np.ndarray
    refresh_windows: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def mean_latency(self, start: float, stop: float) -> float:
        mask = (self.times >= start) & (self.times < stop)
        if not mask.any():
            return 0.0
        return float(self.latencies[mask].mean())


def simulate_refresh_timeline(
    baseline_latency: float,
    total_duration: float,
    refresh_starts: tuple[float, ...],
    entries_to_move: int,
) -> RefreshTimeline:
    """Analytic Figure-17 trace: latency vs time with refreshes triggered.

    During a refresh window (solve + throttled updates), foreground
    iterations slow by :data:`FOREGROUND_IMPACT`; outside, they run at
    ``baseline_latency``.
    """
    refresh_duration = SOLVE_SECONDS + entries_to_move / ENTRIES_PER_SECOND
    windows = tuple(
        (start, min(start + refresh_duration, total_duration))
        for start in refresh_starts
    )
    times = np.arange(0.0, total_duration, SAMPLE_INTERVAL)
    latencies = np.full_like(times, baseline_latency)
    for start, stop in windows:
        mask = (times >= start) & (times < stop)
        latencies[mask] = baseline_latency * (1.0 + FOREGROUND_IMPACT)
    return RefreshTimeline(times=times, latencies=latencies, refresh_windows=windows)
