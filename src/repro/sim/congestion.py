"""Congestion model for unorganized (naive peer) extraction — paper §5.1-5.2.

The paper's Figure 6 microbenchmark shows each path (local HBM, NVLink pair,
PCIe/host) *tolerates* only a bounded number of concurrent SMs; Figure 7
shows how random key dispatch over-allocates SMs to slow links, stalling
cores and degrading delivered bandwidth "by up to 50%".

We model a GPU running naive peer extraction as a closed queueing system in
fluid steady state:

* every SM processes a random mix of keys, so the fraction of SMs
  instantaneously parked on source ``j`` is proportional to the total
  service time the batch spends on ``j``;
* a path of bandwidth ``B_j`` with tolerance ``T_j = B_j / per_core_bw``
  SMs delivers its full bandwidth only while at most ``T_j`` SMs target it.
  When ``n_j > T_j`` SMs pile up, delivered bandwidth *degrades* — the
  hardware effect behind the paper's 50% figure (oversubscribed
  outstanding-read queues, switch collisions).  We use a calibrated
  hyperbolic penalty ``B_eff = B / (1 + beta * (n/T - 1))`` clamped at
  ``MAX_DEGRADATION``.

The fixed point of (SM occupancy ↔ per-byte service time) converges in a
handful of damped iterations and yields the batch extraction time.  With
``BETA = 0`` the model is work-conserving and reduces to the factored
mechanism's time whenever no path is oversubscribed — which is exactly the
paper's claim that FEM's benefit *is* congestion avoidance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


#: Strength of bandwidth degradation per unit of relative oversubscription.
#: Calibrated so heavily congested links lose ~half their bandwidth, matching
#: §3.2 ("reduces system performance by up to 50%").
BETA = 1.0
#: Floor on ``B_eff / B`` (0.5 = at most 50% loss).
MAX_DEGRADATION = 0.5
#: Extra penalty applied on switch platforms when several GPUs' unorganized
#: readers collide on one source's outbound port (right half of Figure 6(b)).
SWITCH_COLLISION_BETA = 0.06
#: Fixed-point iteration budget and update damping factor in (0, 1].
ITERATIONS = 60
DAMPING = 0.5


def effective_bandwidth(peak: float, cores: float, tolerance: float) -> float:
    """Delivered bandwidth of a path under ``cores`` concurrent SMs."""
    if peak <= 0:
        return 0.0
    if tolerance <= 0 or cores <= tolerance:
        return peak
    oversub = cores / tolerance - 1.0
    degraded = peak / (1.0 + BETA * oversub)
    return max(degraded, peak * MAX_DEGRADATION)


@dataclass(frozen=True)
class CongestedOutcome:
    """Result of the fixed-point solve for one destination GPU."""

    total_time: float
    #: per-source time share: seconds of the batch attributable to source k
    core_seconds: dict[int, float]
    #: per-source steady-state SM occupancy
    cores_by_source: dict[int, float]
    #: per-source delivered bandwidth after degradation
    effective_bandwidth: dict[int, float]


def solve_congested_extraction(
    volumes: dict[int, float],
    peak_bandwidth: dict[int, float],
    per_core_bandwidth: float,
    num_cores: int,
    collision_pressure: dict[int, float] | None = None,
) -> CongestedOutcome:
    """Fixed-point extraction time for unorganized dispatch on one GPU.

    Args:
        volumes: bytes to extract from each source this batch.
        peak_bandwidth: uncontended path bandwidth per source (for switch
            platforms the caller passes the fair inbound share).
        per_core_bandwidth: bytes/second one SM sustains.
        num_cores: SMs on the destination GPU.
        collision_pressure: optional per-source multiplier ≥ 1 expressing
            how many unorganized reader GPUs collide on the source's
            outbound port; applied through :data:`SWITCH_COLLISION_BETA`.

    Returns:
        The converged outcome; ``total_time`` is the batch extraction time.
    """
    if per_core_bandwidth <= 0:
        raise ValueError("per-core bandwidth must be positive")
    if num_cores <= 0:
        raise ValueError("core count must be positive")

    sources = [s for s, v in volumes.items() if v > 0]
    if not sources:
        return CongestedOutcome(0.0, {}, {}, {})
    vols = np.array([volumes[s] for s in sources], dtype=np.float64)
    peaks = np.array([peak_bandwidth[s] for s in sources], dtype=np.float64)
    if (peaks <= 0).any():
        missing = [s for s, p in zip(sources, peaks) if p <= 0]
        raise ValueError(f"sources {missing} have no bandwidth but non-zero volume")
    pressure = np.array(
        [(collision_pressure or {}).get(s, 1.0) for s in sources], dtype=np.float64
    )
    if (pressure < 1.0).any():
        raise ValueError("collision pressure must be >= 1")

    tolerance = peaks / per_core_bandwidth
    # Start from the uncongested service time (1 byte takes 1/b seconds).
    service = np.full(len(sources), 1.0 / per_core_bandwidth)
    for _ in range(ITERATIONS):
        core_seconds = vols * service
        occupancy = num_cores * core_seconds / core_seconds.sum()
        eff = np.array(
            [
                effective_bandwidth(p, n, t)
                for p, n, t in zip(peaks, occupancy, tolerance)
            ]
        )
        # Unorganized cross-GPU collisions further degrade switch sources.
        collide = 1.0 + SWITCH_COLLISION_BETA * (pressure - 1.0)
        eff = eff / collide
        new_service = np.maximum(1.0 / per_core_bandwidth, occupancy / eff)
        service = DAMPING * new_service + (1 - DAMPING) * service

    core_seconds = vols * service
    total_core_seconds = core_seconds.sum()
    occupancy = num_cores * core_seconds / total_core_seconds
    eff = np.array(
        [
            effective_bandwidth(p, n, t)
            for p, n, t in zip(peaks, occupancy, tolerance)
        ]
    ) / (1.0 + SWITCH_COLLISION_BETA * (pressure - 1.0))
    total_time = total_core_seconds / num_cores
    return CongestedOutcome(
        total_time=float(total_time),
        core_seconds={s: float(cs) for s, cs in zip(sources, core_seconds)},
        cores_by_source={s: float(n) for s, n in zip(sources, occupancy)},
        effective_bandwidth={s: float(e) for s, e in zip(sources, eff)},
    )
