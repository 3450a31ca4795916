"""Deterministic fault injector: realizes a :class:`FaultPlan` against a
live cache over (simulated) time.

Standing faults (GPU down, degraded link, host stall) are pure *health*
— :meth:`FaultInjector.advance` just flattens them into the
:class:`~repro.faults.spec.HealthView` the extractor and simulators
consult.  One-shot faults (corrupted location-table slots) mutate state
exactly once at onset, with seeded randomness, so two runs of the same
plan poison the same entries.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.faults.spec import FaultKind, FaultPlan, FaultSpec, HealthView
from repro.obs import get_registry
from repro.utils.logging import get_logger
from repro.utils.rng import make_rng

logger = get_logger("faults.injector")

#: Source ids planted by corruption: far outside any real GPU id so the
#: degraded router and the integrity check's route check must notice.
CORRUPT_SOURCE_BASE = 0x4000


class FaultInjector:
    """Drives one :class:`FaultPlan` against a cache's location state.

    The injector is the only component that *writes* faults; everything
    else reads health views.  ``cache`` may be any object exposing the
    :class:`~repro.core.cache.MultiGpuEmbeddingCache` ``source_map`` /
    ``set_sources`` surface (duck-typed to keep this module free of core
    imports).
    """

    def __init__(self, plan: FaultPlan, cache=None) -> None:
        self._plan = plan
        self._cache = cache
        self._applied: set[int] = set()
        # Recurring bit-rot faults keep per-fault event state: the seeded
        # rng and the next event time.  Events are consumed in
        # chronological order, so the realized schedule is independent of
        # how often advance() is called.
        self._rot_state: dict[int, list] = {}
        # advance() mutates _applied and (for one-shots) the cache's
        # source map; per-GPU serving workers may all drive time forward,
        # so realize faults under a lock.
        self._lock = threading.Lock()

    def advance(self, now: float) -> HealthView:
        """Move time forward, realizing any one-shot faults that fired.

        Returns the health view at ``now``.  Idempotent per fault: a
        one-shot is applied the first time ``now`` passes its onset.
        """
        reg = get_registry()
        with self._lock:
            for idx, fault in enumerate(self._plan.faults):
                if fault.kind is FaultKind.BIT_ROT:
                    if now < fault.onset:
                        continue
                    flips = self._advance_bit_rot(idx, fault, now)
                    if idx not in self._applied:
                        self._applied.add(idx)
                        reg.counter(
                            "faults.injected", kind=fault.kind.value
                        ).inc()
                        logger.warning(
                            "fault active at t=%.2f: bit-rot at %.3g "
                            "events/s", now, fault.rate,
                        )
                    if flips:
                        reg.counter("faults.bit_rot.flips").inc(flips)
                    continue
                if idx in self._applied or now < fault.onset:
                    continue
                if fault.kind is FaultKind.CORRUPT_SLOT:
                    self._applied.add(idx)
                    corrupted = self._corrupt_source_map(fault)
                    reg.counter(
                        "faults.injected", kind=fault.kind.value
                    ).inc()
                    reg.counter("faults.corrupted_slots").inc(corrupted)
                    logger.warning(
                        "fault injected at t=%.2f: corrupted %d location "
                        "slots referencing GPU %d", now, corrupted, fault.gpu,
                    )
                elif fault.onset <= now:
                    # Standing faults are realized through health views;
                    # count each once at onset so the timeline shows when
                    # they hit.
                    self._applied.add(idx)
                    reg.counter("faults.injected", kind=fault.kind.value).inc()
                    logger.warning(
                        "fault active at t=%.2f: %s (severity %.2f)",
                        now, fault.kind.value, fault.severity,
                    )
        view = self._plan.health_at(now)
        if reg.enabled:
            reg.gauge("faults.active").set(len(self._plan.active_at(now)))
        return view

    def _advance_bit_rot(self, idx: int, fault: FaultSpec, now: float) -> int:
        """Apply every bit-rot event due by ``now``; returns flips applied.

        The event schedule (exponential inter-arrivals at ``fault.rate``
        from onset to clear) and each event's victim are drawn from one
        seeded rng in event order, so the realized corruption is a pure
        function of the plan — not of the cadence ``advance`` is called
        at.  Stored slot checksums are deliberately *not* updated: the
        rot is silent until the scrubber's cross-check against the host
        ground truth, a read-path guard or the integrity check sees it.
        """
        if self._cache is None:
            return 0
        state = self._rot_state.get(idx)
        if state is None:
            rng = make_rng(
                self._plan.seed * 1_000_003 + fault.seed * 101 + 7
            )
            state = [rng, fault.onset + float(rng.exponential(1.0 / fault.rate))]
            self._rot_state[idx] = state
        rng = state[0]
        end = min(now, fault.clears_at)
        flips = 0
        writing = getattr(self._cache, "writing", None)
        guard = writing() if writing is not None else None
        if guard is not None:
            guard.__enter__()
        try:
            while state[1] <= end:
                flips += self._flip_one_byte(rng, fault)
                state[1] += float(rng.exponential(1.0 / fault.rate))
        finally:
            if guard is not None:
                guard.__exit__(None, None, None)
        if flips:
            logger.warning(
                "bit-rot: %d byte flip(s) realized by t=%.2f", flips, now
            )
        return flips

    def _flip_one_byte(self, rng, fault: FaultSpec) -> int:
        """Flip one seeded bit in one cached slot's raw bytes."""
        store_of = getattr(self._cache, "store", None)
        source_map = getattr(self._cache, "source_map", None)
        if store_of is None or source_map is None:
            return 0
        num_gpus = source_map.shape[0]
        gpu = fault.gpu if fault.gpu is not None else int(rng.integers(num_gpus))
        store = store_of(gpu)
        cached = np.flatnonzero(store.offset_of >= 0)
        if len(cached) == 0:
            return 0
        entry = int(rng.choice(cached))
        slot = int(store.offset_of[entry])
        row = store.data[slot].view(np.uint8)
        byte = int(rng.integers(row.size))
        bit = int(rng.integers(8))
        row[byte] ^= np.uint8(1 << bit)
        return 1

    def _corrupt_source_map(self, fault: FaultSpec) -> int:
        """Poison seeded random location-table entries pointing at a GPU.

        For every destination GPU, a seeded sample of the entries it
        currently reads from ``fault.gpu`` is rewritten (under the write lock)
        to an out-of-range id; severity scales how many.  Returns slots corrupted.
        """
        if self._cache is None:
            return 0
        source_map = self._cache.source_map
        num_gpus = source_map.shape[0]
        rng = make_rng(self._plan.seed * 1_000_003 + fault.seed * 101 + int(fault.gpu))
        corrupted = 0
        for dst in range(num_gpus):
            victims = np.flatnonzero(source_map[dst] == fault.gpu)
            if len(victims) == 0:
                continue
            count = max(1, int(round(fault.severity * len(victims))))
            picks = rng.choice(victims, size=min(count, len(victims)), replace=False)
            self._cache.set_sources(dst, picks, CORRUPT_SOURCE_BASE + dst)
            corrupted += len(picks)
        return corrupted
