"""Online hotness drift: streaming estimation and detection (§2, §7.2).

The solver places the cache from a *static* hotness snapshot, justified
by the paper's observation that "hot entries in different daily traces
are highly alike" (§2).  Production recommendation traffic is not that
polite: heads rotate with diurnal cycles, whole tables change popularity
when a model is promoted, and flash crowds mint new hot entries in
minutes.  This module supplies the two building blocks the serving tier
needs to notice:

* :class:`StreamingHotnessEstimator` — exponentially decayed access
  counts layered on :class:`~repro.core.hotness.HotnessTracker`, cheap
  enough to feed from the serving hot path and thread-safe against
  concurrent serving threads;
* :class:`DriftDetector` — windowed comparison of the live estimate
  against the solved policy's snapshot (hot-set Jaccard + rank
  correlation), with hysteresis and a post-fire cooldown so noise never
  thrashes the re-solver.

The *reaction* to a detection — the incremental warm-start re-solve and
the guarded policy swap — lives in :func:`~repro.core.solver.warm_start_policy`
and :class:`~repro.serve.adaptation.DriftAdapter`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.hotness import HotnessTracker
from repro.obs import get_registry
from repro.utils.arrays import hot_order, sorted_unique
from repro.utils.logging import get_logger

logger = get_logger("core.drift_adapt")

__all__ = [
    "DriftDetector",
    "DriftScore",
    "StreamingHotnessEstimator",
    "hot_set_jaccard",
    "rank_correlation",
]


class StreamingHotnessEstimator(HotnessTracker):
    """Exponentially decayed streaming hotness over a fixed entry universe.

    Each recorded batch first decays every accumulated count by
    ``decay``, so the estimate is a sliding exponential window over the
    stream: with decay ``d`` the effective window holds
    ``(1 - d**b) / (1 - d)`` batches (→ ``1 / (1 - d)`` in steady
    state).  On a *stationary* stream the estimate converges to the true
    per-batch access frequencies (the base tracker's semantics); under
    drift it forgets the old regime at a controlled half-life of
    ``log(0.5) / log(d)`` batches.

    ``decay=1.0`` degrades to the base tracker's plain counting (every
    batch weighted equally, forever).

    Unlike the base tracker — which a profiling epoch feeds from a
    single thread — this estimator is recorded from the serving hot
    path, concurrently from every per-GPU worker, while the drift
    detector reads snapshots.  Every record and snapshot happens under
    one mutex: no lost updates, no torn hot-set reads.
    """

    def __init__(self, num_entries: int, decay: float = 0.95) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        super().__init__(num_entries)
        self.decay = float(decay)
        self._lock = threading.Lock()

    def _effective_batches_locked(self) -> float:
        if self.decay >= 1.0:
            return float(self._batches)
        return (1.0 - self.decay**self._batches) / (1.0 - self.decay)

    def record(self, keys: np.ndarray) -> None:
        """Account one batch: decay the window, then add the accesses."""
        counts = self._batch_counts(keys)
        with self._lock:
            if self.decay < 1.0:
                self._counts *= self.decay
            self._counts += counts
            self._batches += 1

    def snapshot(self) -> tuple[np.ndarray, int]:
        """Atomic ``(hotness, batches_recorded)`` pair for the detector:
        expected accesses per entry per batch over the decayed window.

        Reading the two separately could pair a post-batch estimate with
        a pre-batch count (a torn read); the detector's ``min_batches``
        warm-up gate needs them consistent.  Before the first batch the
        window is undefined and this raises :class:`RuntimeError`: silent
        zeros would tell the solver nothing is ever accessed.
        """
        with self._lock:
            if self._batches == 0:
                raise RuntimeError("no batches recorded yet")
            hot = self._counts / self._effective_batches_locked()
            return hot, self._batches


# ---------------------------------------------------------------------------
# Drift scoring
# ---------------------------------------------------------------------------


def _hot_heads(
    live: np.ndarray, snapshot: np.ndarray, top_frac: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both estimates as float64, then each one's hottest ``top_frac``
    entries (at least one), concatenated."""
    if not 0 < top_frac <= 1:
        raise ValueError("top_frac must be in (0, 1]")
    live = np.asarray(live, dtype=np.float64)
    snapshot = np.asarray(snapshot, dtype=np.float64)
    if live.shape != snapshot.shape:
        raise ValueError("live and snapshot hotness must align")
    k = max(1, int(top_frac * len(live)))
    heads = [hot_order(v)[:k] for v in (live, snapshot)]
    return live, snapshot, np.concatenate(heads)


def hot_set_jaccard(
    live: np.ndarray, snapshot: np.ndarray, top_frac: float = 0.01
) -> float:
    """Jaccard overlap of the two estimates' hottest ``top_frac`` entries.

    This is §2's stability metric ("hot entries in different daily
    traces are highly alike") applied to hotness vectors: 1.0 means
    the live head is exactly the solved policy's head, 0.0 means the
    cache is hot for yesterday's traffic.
    """
    heads = _hot_heads(live, snapshot, top_frac)[2]
    union = len(sorted_unique(heads))
    # Each head holds distinct ids, so |A ∩ B| = |A| + |B| - |A ∪ B|.
    return (len(heads) - union) / union if union else 1.0


def rank_correlation(
    live: np.ndarray, snapshot: np.ndarray, top_frac: float = 0.01
) -> float:
    """Spearman rank correlation over the union of the two hot sets.

    Restricting to the joint head keeps the statistic sensitive: over
    the full table the huge all-but-unobserved cold tail dominates and
    drowns any head rotation in tied near-zero ranks.
    """
    live, snapshot, heads = _hot_heads(live, snapshot, top_frac)
    union = sorted_unique(heads)
    if len(union) < 3:
        return 1.0
    a, b = live[union], snapshot[union]
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        # A constant vector has no ranking to disagree with.
        return 1.0
    from scipy.stats import spearmanr

    rho = spearmanr(a, b).statistic
    if not np.isfinite(rho):
        return 1.0
    return float(rho)


# The windowed drift detector's thresholds.
#: Hot-set size (fraction of the table) both scores use.
TOP_FRAC = 0.01
#: Hot-set overlap, and rank correlation, below which a window breaches.
JACCARD_FLOOR = 0.5
CORR_FLOOR = 0.2
#: Consecutive breaching checks required before the detector fires — one
#: noisy window never triggers a re-solve.
HYSTERESIS = 2
#: Checks after a fire during which the detector scores but cannot fire
#: again (the re-solve + swap it triggered needs time to land and the
#: estimator needs time to converge on the new regime).
COOLDOWN_CHECKS = 8
#: Estimator warm-up; checks before this many recorded batches score but
#: never breach (a cold window is noise).
MIN_BATCHES = 16


@dataclass(frozen=True)
class DriftScore:
    """One detector check, kept on the tape for goldens and reports."""

    at: float
    jaccard: float
    rank_corr: float
    #: this window's scores crossed a floor (after warm-up).
    breached: bool
    #: hysteresis satisfied and not cooling down — the caller should
    #: trigger a re-solve.
    fired: bool

    def to_dict(self) -> dict:
        return {
            "at": self.at,
            "jaccard": self.jaccard,
            "rank_corr": self.rank_corr,
            "breached": self.breached,
            "fired": self.fired,
        }


class DriftDetector:
    """Compares a live hotness estimate against the solved snapshot.

    Stateful: consecutive breaches accumulate toward :data:`HYSTERESIS`, a
    fire starts a cooldown, and :meth:`rebase` re-anchors the reference
    snapshot after a policy swap lands (the new placement *is* the new
    normal, so the old divergence must not re-fire).  Every check is
    appended to :attr:`tape` — the golden fixture pins this tape.
    """

    def __init__(self, snapshot: np.ndarray) -> None:
        self._snapshot = np.asarray(snapshot, dtype=np.float64).copy()
        if self._snapshot.ndim != 1 or self._snapshot.size == 0:
            raise ValueError("snapshot hotness must be a non-empty 1-D array")
        self._streak = 0
        self._cooldown = 0
        self.tape: list[DriftScore] = []
        self.detections = 0

    def rebase(self, snapshot: np.ndarray) -> None:
        """Re-anchor on a freshly solved snapshot (after a swap lands)."""
        snapshot = np.asarray(snapshot, dtype=np.float64)
        if snapshot.shape != self._snapshot.shape:
            raise ValueError("rebased snapshot must cover the same universe")
        self._snapshot = snapshot.copy()
        self._streak = 0

    def check(
        self, live: np.ndarray, at: float = 0.0, batches: int | None = None
    ) -> DriftScore:
        """Score one window; returns the (taped) verdict.

        Args:
            live: current streaming hotness estimate.
            at: timestamp stamped on the tape entry (simulated seconds).
            batches: the estimator's recorded-batch count; below
                :data:`MIN_BATCHES` the window scores but cannot breach.
        """
        jac = hot_set_jaccard(live, self._snapshot, TOP_FRAC)
        rho = rank_correlation(live, self._snapshot, TOP_FRAC)
        warm = batches is None or batches >= MIN_BATCHES
        breached = warm and (jac < JACCARD_FLOOR or rho < CORR_FLOOR)

        fired = False
        if self._cooldown > 0:
            self._cooldown -= 1
            self._streak = 0
        elif breached:
            self._streak += 1
            if self._streak >= HYSTERESIS:
                fired = True
                self.detections += 1
                self._streak = 0
                self._cooldown = COOLDOWN_CHECKS
        else:
            self._streak = 0

        score = DriftScore(
            at=float(at), jaccard=jac, rank_corr=rho,
            breached=breached, fired=fired,
        )
        self.tape.append(score)
        reg = get_registry()
        if reg.enabled:
            reg.counter("drift.detector.checks").inc()
            reg.gauge("drift.detector.jaccard").set(jac)
            reg.gauge("drift.detector.rank_corr").set(rho)
            if fired:
                reg.counter("drift.detections").inc()
        if fired:
            logger.info(
                "drift detected at t=%.3f: hot-set jaccard %.3f, "
                "rank corr %.3f (floors %.2f / %.2f)",
                at, jac, rho, JACCARD_FLOOR, CORR_FLOOR,
            )
        return score
