"""Event-level trace of one factored extraction — Figure 8 as data.

While :mod:`repro.sim.mechanisms` answers "how long does the batch take",
this module reconstructs *when* each source group runs and which SMs it
occupies, by replaying the §5.3 schedule:

* every non-local group starts at t=0 on its dedicated cores and runs for
  ``volume / rate`` plus its tier's access latency;
* the local group runs at low priority on whatever cores are idle —
  initially the un-dedicated remainder, growing as non-local groups drain
  (the *padding*).

The resulting trace is exactly consistent with
:func:`repro.sim.mechanisms.factored_extraction` (tested), and can be
rendered as an ASCII Gantt chart (``python -m repro solve`` prints it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.platform import HOST, Platform
from repro.sim.mechanisms import GpuDemand, factored_terms

#: Columns of the ASCII Gantt chart's time axis.
GANTT_WIDTH = 60


@dataclass(frozen=True)
class GroupEvent:
    """One source group's execution interval."""

    source: int
    cores: int
    start: float
    finish: float
    volume: float


@dataclass(frozen=True)
class LocalSegment:
    """A constant-core-count span of the low-priority local extraction."""

    start: float
    finish: float
    cores: float


@dataclass(frozen=True)
class ExtractionTrace:
    """Full schedule of one GPU's factored batch extraction."""

    dst: int
    total_cores: int
    groups: tuple[GroupEvent, ...]
    local_segments: tuple[LocalSegment, ...]
    local_volume: float

    @property
    def makespan(self) -> float:
        ends = [g.finish for g in self.groups]
        ends += [s.finish for s in self.local_segments]
        return max(ends, default=0.0)

    def gantt(self) -> str:
        """ASCII Gantt chart: one row per group, time left→right."""
        width = GANTT_WIDTH
        span = self.makespan
        if span <= 0:
            return "(empty trace)"
        lines = [f"GPU {self.dst} factored extraction ({span * 1e3:.3f} ms)"]
        rows: list[tuple[str, float, float]] = []
        for g in self.groups:
            if g.source == HOST:
                label = "host"
            elif g.source < 0:  # a deeper backing tier
                label = f"T{-g.source - 1}"
            else:
                label = f"G{g.source}"
            rows.append((f"{label:>5} ({g.cores:3d} SMs)", g.start, g.finish))
        for s in self.local_segments:
            rows.append((f"local ({s.cores:3.0f} SMs)", s.start, s.finish))
        for label, start, finish in rows:
            begin = int(round(start / span * width))
            end = max(begin + 1, int(round(finish / span * width)))
            bar = " " * begin + "█" * (end - begin)
            lines.append(f"  {label:16s} |{bar:<{width}}|")
        return "\n".join(lines)


def trace_factored(
    platform: Platform, demand: GpuDemand, local_padding: bool = True
) -> ExtractionTrace:
    """Replay the §5.3 schedule for one GPU's demand.

    With padding, local extraction consumes idle SM capacity from t=0,
    stepping up each time a non-local group drains; without it, local
    waits for every non-local group (the ablation).
    """
    per_core_bandwidth, num_cores, local_bandwidth, terms = factored_terms(
        platform, demand.dst, tuple(demand.volumes)
    )
    groups = [
        GroupEvent(
            source=src, cores=busy, start=0.0, finish=vol / rate + latency,
            volume=vol,
        )
        for src, rate, latency, _, busy in terms
        if (vol := demand.volumes[src]) > 0
    ]

    local_volume = demand.volume(demand.dst)
    segments: list[LocalSegment] = []
    if local_volume > 0:
        work = local_volume / per_core_bandwidth  # SM-seconds needed
        if local_padding:
            segments = _fill_idle_capacity(work, groups, num_cores)
        else:
            start = max((g.finish for g in groups), default=0.0)
            duration = local_volume / local_bandwidth
            segments = [
                LocalSegment(start=start, finish=start + duration, cores=num_cores)
            ]
    return ExtractionTrace(
        dst=demand.dst,
        total_cores=num_cores,
        groups=tuple(groups),
        local_segments=tuple(segments),
        local_volume=local_volume,
    )


def _fill_idle_capacity(
    work: float, groups: list[GroupEvent], total_cores: int
) -> list[LocalSegment]:
    """Consume ``work`` SM-seconds on the cores the groups leave idle."""
    boundaries = sorted({0.0, *(g.finish for g in groups)})
    segments: list[LocalSegment] = []
    remaining = work
    for i, start in enumerate(boundaries):
        if remaining <= 1e-18:
            break
        busy = sum(g.cores for g in groups if g.finish > start + 1e-18)
        idle = max(total_cores - busy, 0)
        end = boundaries[i + 1] if i + 1 < len(boundaries) else float("inf")
        if idle <= 0:
            continue
        capacity = idle * (end - start)
        if capacity >= remaining:
            finish = start + remaining / idle
            segments.append(LocalSegment(start=start, finish=finish, cores=idle))
            remaining = 0.0
        else:
            segments.append(LocalSegment(start=start, finish=end, cores=idle))
            remaining -= capacity
    return segments
