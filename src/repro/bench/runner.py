"""Measured workload replay: stream real batches through a built cache.

Every figure driver prices placements from *expected* per-source volumes
(hotness × entry size).  This runner performs the measurement the other
way — replaying actual sampled batches against the placement and timing
each with the simulator — yielding per-iteration distributions
(mean/p50/p99) and a direct check that the expected-value shortcut is
unbiased
(the ``measured-vs-expected`` experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.evaluate import demand_from_keys
from repro.core.policy import Placement
from repro.hardware.platform import Platform
from repro.sim.engine import simulate_batch
from repro.sim.mechanisms import Mechanism


@dataclass(frozen=True)
class ReplayStats:
    """Distribution of per-iteration extraction times over a replay."""

    iterations: int
    times: np.ndarray
    local_fraction: float
    remote_fraction: float
    host_fraction: float

    @property
    def mean_time(self) -> float:
        return float(self.times.mean()) if self.iterations else 0.0

    @property
    def p50_time(self) -> float:
        return float(np.percentile(self.times, 50)) if self.iterations else 0.0

    @property
    def p99_time(self) -> float:
        return float(np.percentile(self.times, 99)) if self.iterations else 0.0

    @property
    def stdev_time(self) -> float:
        return float(self.times.std()) if self.iterations else 0.0


def replay_workload(
    platform: Platform,
    placement: Placement,
    batches: Iterable[list[np.ndarray]],
    entry_bytes: int,
    mechanism: Mechanism = Mechanism.FACTORED,
    max_iterations: int | None = None,
) -> ReplayStats:
    """Time every iteration of a batch stream against a placement.

    ``batches`` yields one key array per GPU per iteration (the workload
    protocol of :mod:`repro.gnn.workload` / :mod:`repro.dlr.workload`).
    Only demands are derived — values are not gathered, so large replays
    stay cheap.
    """
    from repro.core.evaluate import resolve_sources

    source_map = resolve_sources(platform, placement)
    times: list[float] = []
    volume = {"local": 0.0, "remote": 0.0, "host": 0.0}
    for iteration, per_gpu in enumerate(batches):
        if max_iterations is not None and iteration >= max_iterations:
            break
        demands = [
            demand_from_keys(platform, source_map, dst, keys, entry_bytes)
            for dst, keys in enumerate(per_gpu)
        ]
        report = simulate_batch(platform, demands, mechanism)
        times.append(report.time)
        split = report.volume_split()
        for key in volume:
            volume[key] += split[key]
    total = sum(volume.values()) or 1.0
    return ReplayStats(
        iterations=len(times),
        times=np.asarray(times),
        local_fraction=volume["local"] / total,
        remote_fraction=volume["remote"] / total,
        host_fraction=volume["host"] / total,
    )
