"""Online drift adaptation: estimator → detector → re-solve → guarded swap.

:class:`DriftAdapter` closes the loop the paper leaves open (§2 assumes
daily hot sets are "highly alike"): a
:class:`~repro.core.drift_adapt.StreamingHotnessEstimator` is fed from
the serving hot path (one counter and one decayed ``bincount`` a request), a
:class:`~repro.core.drift_adapt.DriftDetector` periodically compares the
live estimate against the solved policy's snapshot, and when drift
crosses threshold the adapter triggers an *incremental* re-solve —
warm-starting :func:`~repro.core.solver.solve_policy_with_fallback` from
the last :class:`~repro.core.solver.SolvedPolicy` so only entries whose
hotness class changed move — and lands the result through the existing
:class:`~repro.serve.policy_manager.PolicyManager`
drain → verify → p99-guardrail path (a failed re-solve is a skip).

Everything the adapter did is kept on :attr:`DriftAdapter.events` (and
the detector's tape), which the soak report surfaces and the drift
golden fixture pins.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.drift_adapt import DriftDetector, StreamingHotnessEstimator
from repro.core.solver import SolvedPolicy
from repro.obs import get_registry
from repro.serve.policy_manager import PolicyManager, SwapReport
from repro.utils.logging import get_logger

logger = get_logger("serve.adaptation")

__all__ = ["AdaptationEvent", "DriftAdapter"]

#: Estimator decay per recorded batch (window half-life
#: ``log(0.5)/log(DECAY)`` batches).
DECAY = 0.95
#: Detector cadence, in recorded requests.  Between checks
#: :meth:`DriftAdapter.maybe_adapt` is a cheap counter read.
CHECK_EVERY = 8


@dataclass(frozen=True)
class AdaptationEvent:
    """One step of the adaptation loop, for the report and the golden."""

    at: float
    #: "detect" | "resolve" | "swap" | "rollback" | "skip"
    kind: str
    detail: str = ""
    version: int = 0

    def to_dict(self) -> dict:
        return {
            "at": self.at,
            "kind": self.kind,
            "detail": self.detail,
            "version": self.version,
        }


class DriftAdapter:
    """Wires streaming hotness estimation into guarded policy re-solves.

    The adapter is attached to the :class:`~repro.serve.runtime.ServingRuntime`
    (``runtime.adapter``), which calls :meth:`observe` for every
    *offered* request at submit time — before admission control, so a
    drifted policy shedding most traffic cannot starve the estimator of
    the very evidence that would fix it; the soak loop calls
    :meth:`maybe_adapt` at event boundaries.  ``observe`` is hot-path
    safe (a lock-guarded counter plus one decayed ``bincount``) and is called
    concurrently from per-GPU workers; ``maybe_adapt`` must be called
    from the single control thread that owns policy swaps (the same
    thread that calls :meth:`PolicyManager.swap` today).
    """

    def __init__(
        self,
        manager: PolicyManager,
        capacity_entries: int | list[int],
        snapshot_hotness: np.ndarray,
        warm: SolvedPolicy | None = None,
    ) -> None:
        self._manager = manager
        self._capacity = capacity_entries
        snapshot = np.asarray(snapshot_hotness, dtype=np.float64)
        self.estimator = StreamingHotnessEstimator(len(snapshot), decay=DECAY)
        self.detector = DriftDetector(snapshot)
        #: last successful :class:`SolvedPolicy`, the warm-start seed for
        #: the next incremental re-solve.
        self.warm = warm
        self.events: list[AdaptationEvent] = []
        self.detections = 0
        self.resolves = 0
        self.swaps_landed = 0
        self.rollbacks = 0
        self._observed = 0
        self._recorded_since_check = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def observe(self, gpu: int, keys: np.ndarray, now: float) -> None:
        """Account one served request's key batch."""
        with self._lock:
            self._observed += 1
            self._recorded_since_check += 1
        self.estimator.record(keys)

    @property
    def observed(self) -> int:
        with self._lock:
            return self._observed

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------
    def _due(self) -> bool:
        with self._lock:
            if self._recorded_since_check < CHECK_EVERY:
                return False
            self._recorded_since_check = 0
            return True

    def maybe_adapt(
        self, now: float, drain=None, probe=None
    ) -> SwapReport | None:
        """Check for drift and, when it fires, re-solve and swap.

        Cheap between cadence boundaries (one lock-guarded counter
        read).  Returns the :class:`SwapReport` when a swap was
        attempted, ``None`` otherwise.
        """
        if not self._due():
            return None
        hot, batches = self.estimator.snapshot()
        # The estimator sees per-request batches; one iteration is one such
        # batch per GPU, so solver-scale hotness is ×G.
        live = hot * self._manager.current.placement.num_gpus
        score = self.detector.check(live, at=now, batches=batches)
        if not score.fired:
            return None

        reg = get_registry()
        version = self._manager.version
        self.detections += 1
        self.events.append(
            AdaptationEvent(
                at=now,
                kind="detect",
                detail=(
                    f"jaccard={score.jaccard:.3f} corr={score.rank_corr:.3f}"
                ),
                version=version,
            )
        )

        outcome, report = self._manager.resolve(
            live, self._capacity, warm=self.warm,
            now=now, drain=drain, probe=probe,
        )
        source = "failed" if outcome is None else outcome.source
        if outcome is not None:
            self.resolves += 1
            if reg.enabled:
                reg.counter("adapt.resolves", source=source).inc()
            self.events.append(
                AdaptationEvent(at=now, kind="resolve", detail=source, version=version)
            )
        if report.swapped:
            self.swaps_landed += 1
            self.warm = outcome.solved
            # The swapped placement serves the live estimate — it is the
            # new normal the detector must measure divergence from.
            self.detector.rebase(live)
            kind = "swap"
        elif report.rolled_back:
            self.rollbacks += 1
            kind = "rollback"
        else:
            kind = "skip"
        if reg.enabled:
            reg.counter("adapt.swaps", result=kind).inc()
        self.events.append(
            AdaptationEvent(
                at=now, kind=kind, detail=report.reason, version=report.version
            )
        )
        logger.info(
            "drift adaptation at t=%.3f: %s (%s re-solve, v%d)",
            now, kind, source, report.version,
        )
        return report
