"""Cross-validation of the solver's time model against the simulator.

The MILP minimizes an *estimate* of extraction time (§6.2); the simulator
prices the realized placement independently.  If the two drift apart, the
solver optimizes the wrong objective — the classic failure mode of
model-based placement.  This harness quantifies the agreement across
randomized workloads and platforms, and is run both as a test invariant
and as an experiment (`model-agreement`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evaluate import evaluate_placement
from repro.core.solver import SolverConfig, solve_policy
from repro.hardware.platform import Platform
from repro.sim.mechanisms import Mechanism
from repro.utils.rng import make_rng
from repro.utils.stats import zipf_pmf


@dataclass(frozen=True)
class AgreementSample:
    """One randomized configuration's estimate-vs-simulation outcome."""

    platform: str
    alpha: float
    cache_ratio: float
    estimated_time: float
    simulated_time: float

    @property
    def relative_error(self) -> float:
        """Signed (simulated − estimated) / simulated."""
        if self.simulated_time <= 0:
            return 0.0
        return (self.simulated_time - self.estimated_time) / self.simulated_time


@dataclass(frozen=True)
class AgreementReport:
    """Aggregate of many samples."""

    samples: tuple[AgreementSample, ...]

    @property
    def mean_abs_error(self) -> float:
        if not self.samples:
            return 0.0
        return float(np.mean([abs(s.relative_error) for s in self.samples]))

    @property
    def worst_abs_error(self) -> float:
        if not self.samples:
            return 0.0
        return float(max(abs(s.relative_error) for s in self.samples))

    def within(self, tolerance: float) -> bool:
        return self.worst_abs_error <= tolerance


def validate_model_agreement(
    platforms: list[Platform],
    num_entries: int = 3000,
    alphas: tuple[float, ...] = (0.6, 1.0, 1.4),
    ratios: tuple[float, ...] = (0.03, 0.10, 0.30),
    solver: SolverConfig | None = None,
) -> AgreementReport:
    """Sweep (platform × skew × capacity) and compare estimate vs simulation.

    The hotness for each cell is a Zipf pmf with per-cell random entry
    permutation, so placements never accidentally align with entry ids.
    """
    solver = solver or SolverConfig(coarse_block_frac=0.02)
    entry_bytes, batch_keys = 512, 50_000.0
    rng = make_rng(0)
    samples: list[AgreementSample] = []
    for platform in platforms:
        for alpha in alphas:
            pmf = zipf_pmf(num_entries, alpha) * batch_keys
            hotness = pmf[rng.permutation(num_entries)]
            for ratio in ratios:
                capacity = int(ratio * num_entries)
                solved = solve_policy(
                    platform, hotness, capacity, entry_bytes, solver
                )
                simulated = evaluate_placement(
                    platform,
                    solved.realize(),
                    hotness,
                    entry_bytes,
                    Mechanism.FACTORED,
                ).time
                samples.append(
                    AgreementSample(
                        platform=platform.name,
                        alpha=alpha,
                        cache_ratio=ratio,
                        estimated_time=solved.est_time,
                        simulated_time=simulated,
                    )
                )
    return AgreementReport(samples=tuple(samples))
