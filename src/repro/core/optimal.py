"""Theoretically-optimal cache policy reference (§8.5, Figure 16).

The paper quantifies its blocking approximation by solving the MILP at the
granularity of individual entries on reduced datasets (SYN-As/SYN-Bs).  We
expose the same reference: :func:`solve_optimal` builds one block per entry
and solves it — the continuous relaxation by default (a lower bound on the
binary optimum and exact whenever the relaxation is integral, which these
transportation-like instances usually are), or the true binary program for
tiny universes.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import per_entry_blocks
from repro.core.solver import SolvedPolicy, SolverConfig, solve_policy
from repro.hardware.platform import Platform

#: Above this universe size the per-entry model is refused — the paper hits
#: the same wall and reduces the dataset instead (SYN-As/Bs).
MAX_OPTIMAL_ENTRIES = 10_000


def solve_optimal(
    platform: Platform,
    hotness: np.ndarray,
    capacity_entries: int | list[int],
    entry_bytes: int,
) -> SolvedPolicy:
    """Solve the cache policy at per-entry granularity.

    Raises:
        ValueError: if the universe exceeds :data:`MAX_OPTIMAL_ENTRIES`
            (mirroring the paper's infeasibility on full-size datasets).
    """
    hotness = np.asarray(hotness, dtype=np.float64)
    if hotness.size > MAX_OPTIMAL_ENTRIES:
        raise ValueError(
            f"per-entry optimal solve limited to {MAX_OPTIMAL_ENTRIES} entries "
            f"(got {hotness.size}); reduce the dataset as §8.5 does"
        )
    blocks = per_entry_blocks(hotness)
    config = SolverConfig(time_limit=300.0)
    return solve_policy(
        platform,
        hotness,
        capacity_entries,
        entry_bytes,
        config=config,
        blocks=blocks,
    )


def approximation_gap(ugache: SolvedPolicy, optimal: SolvedPolicy) -> float:
    """Relative extraction-time gap of the blocked solve vs the reference.

    The paper reports <2% on average (§6.3, Figure 16).
    """
    if optimal.est_time <= 0:
        return 0.0
    return (ugache.est_time - optimal.est_time) / optimal.est_time
