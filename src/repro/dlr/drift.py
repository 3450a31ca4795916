"""Hotness drift: piecewise-stationary access distributions (§7.2, §8.6).

Production recommendation traffic shifts — the paper refreshes the static
cache periodically instead of paying per-access eviction.  A
:class:`DriftSchedule` is that kind of workload as the soak consumes it:
named scenarios whose per-entry pmf changes abruptly at known points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.stats import zipf_pmf


@dataclass(frozen=True)
class DriftPhase:
    """One stationary regime of a drift scenario.

    Attributes:
        start: activation point as a fraction of the run's duration
            (``0.0`` = the run's beginning).
        pmf: per-entry access distribution while the phase is active.
    """

    start: float
    pmf: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < 1.0:
            raise ValueError("phase start must be in [0, 1)")
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.ndim != 1 or pmf.size == 0 or (pmf < 0).any():
            raise ValueError("phase pmf must be a non-negative 1-D vector")
        if not np.isclose(pmf.sum(), 1.0):
            raise ValueError("phase pmf must sum to 1")


@dataclass(frozen=True)
class DriftSchedule:
    """A piecewise-stationary workload: abrupt pmf changes at known points.

    The change points are *abrupt* on purpose — the drift detector's job
    is to notice them from the key stream alone; a schedule that eased
    between phases would let a sluggish detector pass by accident.

    Attributes:
        name: scenario name (a :data:`DRIFT_SCENARIOS` key).
        phases: stationary regimes ordered by ``start``; the first must
            start at 0.
        transitions: the change points (each later phase's ``start``),
            kept separately so reports can bucket requests into
            transition windows without re-deriving them.
    """

    name: str
    phases: tuple[DriftPhase, ...]
    transitions: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("schedule needs at least one phase")
        if self.phases[0].start != 0.0:
            raise ValueError("first phase must start at 0")
        starts = [p.start for p in self.phases]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("phase starts must be strictly increasing")
        if tuple(p.start for p in self.phases[1:]) != self.transitions:
            raise ValueError("transitions must mirror later phase starts")

    def phase_at(self, frac: float) -> int:
        """Index of the phase active at run-fraction ``frac``."""
        idx = 0
        for k, phase in enumerate(self.phases):
            if frac >= phase.start:
                idx = k
        return idx


def _rank_pmf(ranks: np.ndarray, alpha: float) -> np.ndarray:
    """Zipf mass assigned by rank: ``ranks[k]`` holds rank-``k``'s entry."""
    pmf = np.zeros(len(ranks))
    pmf[ranks] = zipf_pmf(len(ranks), alpha)
    return pmf


def _rotating_head(num_entries: int, alpha: float, seed: int) -> DriftSchedule:
    """The Zipf *ranking* rotates: hot entries cool, cold entries heat.

    A pure rank permutation — the distribution's shape never changes, so
    an incremental warm-started re-solve is exactly as good as a cold
    solve (the §6.3 block profile is rank-sliced, not identity-keyed).
    """
    rng = make_rng(seed)
    ranks = rng.permutation(num_entries)
    shift1 = np.roll(ranks, num_entries // 3)
    shift2 = np.roll(ranks, 2 * (num_entries // 3))
    return DriftSchedule(
        name="rotating-head",
        phases=(
            DriftPhase(0.0, _rank_pmf(ranks, alpha)),
            DriftPhase(0.35, _rank_pmf(shift1, alpha)),
            DriftPhase(0.65, _rank_pmf(shift2, alpha)),
        ),
        transitions=(0.35, 0.65),
    )


def _table_shift(num_entries: int, alpha: float, seed: int) -> DriftSchedule:
    """Popularity moves *between* embedding tables, not within them.

    The universe is split into four contiguous segments (stand-ins for
    per-table ID ranges); each keeps its internal Zipf ranking while the
    cross-segment popularity weights rotate — the DLR analogue of one
    feature suddenly dominating traffic.
    """
    rng = make_rng(seed)
    bounds = np.linspace(0, num_entries, 5).astype(int)
    segment_pmfs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        seg = np.zeros(num_entries)
        ranks = rng.permutation(b - a)
        seg[a:b] = _rank_pmf(ranks, alpha)
        segment_pmfs.append(seg)
    weights = np.array([0.6, 0.25, 0.1, 0.05])

    def mix(w: np.ndarray) -> np.ndarray:
        pmf = sum(wi * seg for wi, seg in zip(w, segment_pmfs))
        return pmf / pmf.sum()

    return DriftSchedule(
        name="table-shift",
        phases=(
            DriftPhase(0.0, mix(weights)),
            DriftPhase(0.4, mix(np.roll(weights, 1))),
        ),
        transitions=(0.4,),
    )


def _flash_crowd(num_entries: int, alpha: float, seed: int) -> DriftSchedule:
    """Half the traffic stampedes onto ~1% previously-cold entries.

    Unlike the rotation scenarios this *changes the distribution's
    shape* (a second head appears), so the warm-start profile guard is
    expected to refuse and the adaptation falls through to a cold
    re-solve; the schedule reverts, testing re-adaptation back.
    """
    rng = make_rng(seed)
    ranks = rng.permutation(num_entries)
    base = _rank_pmf(ranks, alpha)
    k = max(1, num_entries // 100)
    crowd_entries = np.argsort(base)[:k]  # the coldest tail
    crowd = base * 0.5
    crowd[crowd_entries] += 0.5 / k
    crowd = crowd / crowd.sum()
    return DriftSchedule(
        name="flash-crowd",
        phases=(
            DriftPhase(0.0, base),
            DriftPhase(0.35, crowd),
            DriftPhase(0.70, base.copy()),
        ),
        transitions=(0.35, 0.70),
    )


#: scenario name -> builder(num_entries, alpha, seed)
DRIFT_SCENARIOS = {
    "rotating-head": _rotating_head,
    "table-shift": _table_shift,
    "flash-crowd": _flash_crowd,
}


#: Fewest entries a drift scenario's shifted segments can be cut from.
MIN_DRIFT_ENTRIES = 4


def build_drift_schedule(
    scenario: str, num_entries: int, alpha: float = 1.05, seed: int = 0
) -> DriftSchedule:
    """Construct a named drift scenario over ``num_entries`` entries."""
    if scenario not in DRIFT_SCENARIOS:
        raise ValueError(
            f"unknown drift scenario {scenario!r}; "
            f"choose from {sorted(DRIFT_SCENARIOS)}"
        )
    if num_entries < MIN_DRIFT_ENTRIES:
        raise ValueError(f"drift scenarios need at least {MIN_DRIFT_ENTRIES} entries")
    return DRIFT_SCENARIOS[scenario](num_entries, alpha, seed)
