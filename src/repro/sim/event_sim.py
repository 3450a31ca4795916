"""Chunk-level event-driven extraction simulator (cross-validation).

The analytic models in :mod:`repro.sim.mechanisms` are fluid
approximations: the factored model assumes perfect local padding, and the
naive-peer model solves a steady-state occupancy fixed point.  This module
simulates the same physics *discretely* — individual SMs pulling
fixed-size chunks, link rates recomputed at every completion event — and
is used by tests and the `event-sim` experiment to check that
the fluid models converge to the discrete behaviour (within chunking
noise).

Shared physics, independent dynamics: the per-link delivered-bandwidth law
(full bandwidth up to tolerance, degraded beyond — §5.1/Figure 6) is the
same :func:`~repro.sim.congestion.effective_bandwidth`; everything about
*when* which SM reads from where is simulated, not assumed.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.hardware.platform import Platform
from repro.sim.congestion import effective_bandwidth
from repro.sim.mechanisms import GpuDemand, core_dedication
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class EventSimResult:
    """Outcome of one discrete simulation."""

    total_time: float
    chunks_processed: int
    events: int


@dataclass(frozen=True)
class HedgedSimResult:
    """Outcome of racing a primary extraction against a host-DRAM hedge."""

    #: when the request completes: min(primary, hedge) in batch-relative
    #: seconds.
    total_time: float
    primary_time: float
    #: absolute completion time of the hedge (issue delay included).
    hedge_time: float
    #: ``"primary"`` or ``"hedge"`` — whichever finished first.
    winner: str

    @property
    def hedge_won(self) -> bool:
        return self.winner == "hedge"


def _link_rate(
    peak: float,
    per_core_bw: float,
    active_cores: int,
) -> float:
    """Per-core byte rate on a link with ``active_cores`` concurrent SMs."""
    if active_cores <= 0:
        return 0.0
    tolerance = peak / per_core_bw
    delivered = effective_bandwidth(peak, active_cores, tolerance)
    return min(per_core_bw, delivered / active_cores)


def simulate_naive_event_driven(
    platform: Platform,
    demand: GpuDemand,
    chunk_bytes: float = 64 * 1024,
    readers_per_source: dict[int, int] | None = None,
    seed: int = 0,
) -> EventSimResult:
    """Discretely simulate unorganized (random-dispatch) extraction.

    The batch is cut into chunks, shuffled (random dispatch), and dealt to
    SMs round-robin.  Each SM serially processes its queue; link rates are
    recomputed whenever any SM finishes a chunk.  As ``chunk_bytes → 0``
    this approaches the fluid fixed point of
    :func:`repro.sim.congestion.solve_congested_extraction`.

    ``readers_per_source`` uses the same semantics as
    :func:`repro.sim.mechanisms.naive_peer_extraction`: on a switch
    platform, ``k`` concurrent reader GPUs shrink a source's usable
    outbound share to ``outbound / k``.
    """
    from repro.hardware.topology import TopologyKind

    gpu = platform.gpu
    rng = make_rng(seed)
    readers = readers_per_source or {}

    chunks: list[int] = []  # source per chunk
    peaks = {}
    for src, vol in demand.volumes.items():
        if vol <= 0:
            continue
        if src == demand.dst or platform.is_backing(src):
            peak = platform.bandwidth(demand.dst, src)
        elif platform.topology.kind is TopologyKind.SWITCH:
            n_readers = max(1, readers.get(src, 1))
            peak = platform.topology.outbound_bandwidth(src) / n_readers
        else:
            peak = platform.bandwidth(demand.dst, src)
        if peak <= 0:
            raise ValueError(f"source {src} unreachable from GPU {demand.dst}")
        peaks[src] = peak
        chunks.extend([src] * max(1, int(round(vol / chunk_bytes))))
    if not chunks:
        return EventSimResult(0.0, 0, 0)
    order = rng.permutation(len(chunks))

    num_cores = gpu.num_cores
    queues: list[list[int]] = [[] for _ in range(num_cores)]
    for i, chunk_idx in enumerate(order):
        queues[i % num_cores].append(chunks[chunk_idx])

    # Per-core state: current source (or None) and remaining bytes.
    current: list[int | None] = [None] * num_cores
    remaining = np.zeros(num_cores)
    positions = [0] * num_cores
    for core in range(num_cores):
        if queues[core]:
            current[core] = queues[core][0]
            positions[core] = 1
            remaining[core] = chunk_bytes

    clock = 0.0
    events = 0
    processed = 0
    while True:
        active = [c for c in range(num_cores) if current[c] is not None]
        if not active:
            break
        counts: dict[int, int] = {}
        for core in active:
            counts[current[core]] = counts.get(current[core], 0) + 1
        rates = {
            src: _link_rate(peaks[src], gpu.per_core_bandwidth, n)
            for src, n in counts.items()
        }
        # Earliest completion under current rates.
        dt = min(
            remaining[core] / rates[current[core]]
            for core in active
            if rates[current[core]] > 0
        )
        clock += dt
        events += 1
        for core in active:
            remaining[core] -= dt * rates[current[core]]
            if remaining[core] <= 1e-9:
                processed += 1
                if positions[core] < len(queues[core]):
                    current[core] = queues[core][positions[core]]
                    positions[core] += 1
                    remaining[core] = chunk_bytes
                else:
                    current[core] = None
                    remaining[core] = 0.0
    clock += _access_latency(platform, demand)
    return EventSimResult(total_time=clock, chunks_processed=processed, events=events)


def _access_latency(platform: Platform, demand: GpuDemand) -> float:
    """Worst per-source access latency of the demand's tiers.

    Deep backing tiers (SSD, CXL) charge a fixed access latency on top of
    their bandwidth; the discrete simulators pay the slowest source's
    latency once per batch, mirroring the analytic factored model's
    per-group ``tier_latency`` term.  Zero on single-tier platforms (DRAM
    tier latency is 0), so existing cross-validation stays exact.
    """
    return max(
        (
            platform.tier_latency(src)
            for src, vol in demand.volumes.items()
            if vol > 0
        ),
        default=0.0,
    )


def simulate_factored_event_driven(
    platform: Platform,
    demand: GpuDemand,
    chunk_bytes: float = 64 * 1024,
) -> EventSimResult:
    """Discretely simulate the §5.3 factored schedule.

    Dedicated SMs drain their group's chunk queue; each SM that runs out
    of non-local work switches to the local queue (the low-priority
    padding).  Converges to
    :func:`repro.sim.mechanisms.factored_extraction` as chunks shrink.
    To price the schedule under faults, hand it the platform and demand
    :func:`repro.core.pipeline.apply_health` returns: degraded links slow
    their group, dead sources' chunks drain via host.
    """
    gpu = platform.gpu
    dedication = core_dedication(platform, demand.dst, list(demand.volumes))

    # Build per-source chunk counts.
    group_chunks: dict[int, int] = {}
    peaks: dict[int, float] = {}
    for src, vol in demand.volumes.items():
        if vol <= 0:
            continue
        peaks[src] = platform.bandwidth(demand.dst, src)
        group_chunks[src] = max(1, int(round(vol / chunk_bytes)))

    local_src = demand.dst
    local_remaining = group_chunks.pop(local_src, 0)

    # Assign cores: dedicated per non-local group, remainder to local.
    assignments: list[int] = []  # core -> source
    for src, count in group_chunks.items():
        cores = dedication.get(src, 1)
        # Never beyond the link's tolerance (matches the analytic model's
        # busy-core accounting).
        busy = min(cores, platform.tolerance(demand.dst, src))
        assignments.extend([src] * busy)
    num_cores = gpu.num_cores
    free_cores = num_cores - len(assignments)

    remaining = dict(group_chunks)
    clock = 0.0
    events = 0
    processed = 0
    # Core states: (source or local) and time when it finishes its chunk.
    cores: list[list] = []
    for src in assignments:
        cores.append([src, None])
    for _ in range(max(free_cores, 0)):
        cores.append(["local", None])

    def chunk_time(src) -> float:
        if src == "local":
            return chunk_bytes / gpu.per_core_bandwidth
        n = sum(1 for c in cores if c[0] == src and c[1] is not None)
        rate = min(gpu.per_core_bandwidth, peaks[src] / max(n, 1))
        return chunk_bytes / rate

    # Seed initial chunks.
    for core in cores:
        src = core[0]
        if src == "local":
            if local_remaining > 0:
                local_remaining -= 1
                core[1] = 0.0  # placeholder; set below
            else:
                core[1] = None
        else:
            if remaining.get(src, 0) > 0:
                remaining[src] -= 1
                core[1] = 0.0
            else:
                core[0] = "local"
                if local_remaining > 0:
                    local_remaining -= 1
                    core[1] = 0.0
                else:
                    core[1] = None
    for core in cores:
        if core[1] is not None:
            core[1] = chunk_time(core[0])

    while True:
        active = [c for c in cores if c[1] is not None]
        if not active:
            break
        t = min(c[1] for c in active)
        clock = t
        events += 1
        for core in cores:
            if core[1] is None or core[1] > t + 1e-15:
                continue
            processed += 1
            src = core[0]
            if src != "local" and remaining.get(src, 0) > 0:
                remaining[src] -= 1
                core[1] = t + chunk_time(src)
            elif local_remaining > 0:
                core[0] = "local"
                local_remaining -= 1
                core[1] = t + chunk_time("local")
            else:
                core[1] = None
    clock += _access_latency(platform, demand)
    return EventSimResult(total_time=clock, chunks_processed=processed, events=events)


def simulate_hedged_extraction(
    platform: Platform,
    demand: GpuDemand,
    hedge_issue_at: float = 0.0,
) -> HedgedSimResult:
    """Price a deadline hedge: primary plan vs a host-DRAM gather, discretely.

    The serving runtime's hedged host-fallback issues a host-only gather
    of the whole batch ``hedge_issue_at`` seconds after the primary plan
    launches, and the request takes whichever completes first.  Both arms
    are priced with the factored event-driven simulator on the same
    (possibly degraded) platform, so a link fault that slows the primary
    is exactly what makes the hedge win.

    The hedge's host gather contends for PCIe like any host group would;
    modelling it as an independent event-driven run (rather than adding
    its volume to the primary's host group) matches the runtime's
    semantics: the hedge is a *separate* racing request whose result is
    taken instead of, not merged with, the primary's.
    """
    if hedge_issue_at < 0:
        raise ValueError("hedge issue time must be non-negative")
    from repro.core.pipeline import host_fallback_demand

    primary = simulate_factored_event_driven(platform, demand)
    hedge = simulate_factored_event_driven(platform, host_fallback_demand(demand))
    hedge_done = hedge_issue_at + hedge.total_time
    if hedge_done < primary.total_time:
        return HedgedSimResult(
            total_time=hedge_done,
            primary_time=primary.total_time,
            hedge_time=hedge_done,
            winner="hedge",
        )
    return HedgedSimResult(
        total_time=primary.total_time,
        primary_time=primary.total_time,
        hedge_time=hedge_done,
        winner="primary",
    )


@dataclass(frozen=True)
class RpcSimResult:
    """Outcome of one front-end → cache-node RPC exchange."""

    #: when the exchange resolved (success or final failure), relative to
    #: the first attempt's launch.
    total_time: float
    ok: bool
    #: ``"primary"`` or ``"hedge"`` when ``ok``; ``"none"`` otherwise.
    winner: str
    #: primary attempts actually issued.
    attempts: int
    #: primary attempts that burned their full timeout budget.
    timeouts: int
    hedged: bool = False

    @property
    def hedge_won(self) -> bool:
        return self.ok and self.winner == "hedge"


def simulate_rpc_exchange(
    attempt_times: list[tuple[float, bool]],
    timeout: float,
    hedge_time: float | None | Callable[[], float | None] = None,
    hedge_issue_at: float = 0.0,
) -> RpcSimResult:
    """Walk one RPC's retry/hedge timeline deterministically.

    ``attempt_times[i]`` is the i-th primary attempt as ``(elapsed, ok)``:
    how long the attempt runs and whether it returns a payload.  An
    attempt whose elapsed time reaches ``timeout`` is cut off there and
    counted as a timeout regardless of its ``ok`` flag (a dead node's
    attempt is ``(inf, False)``; a partitioned node fails fast with a
    small elapsed and ``ok=False``).  A failed attempt is retried at once
    until attempts run out.

    A hedge — the same read duplicated to the next replica — may be
    issued at ``hedge_issue_at``; it completes after ``hedge_time`` and
    the exchange takes whichever arm lands first, exactly like
    :func:`simulate_hedged_extraction` races its host gather.  A callable
    ``hedge_time`` is a lazy price, called (once) only if the hedge would be
    sent — primary unresolved at ``hedge_issue_at`` — to the same result.
    """
    if timeout <= 0:
        raise ValueError("rpc timeout must be positive")
    if hedge_issue_at < 0:
        raise ValueError("hedge issue time must be non-negative")
    t = 0.0
    attempts = 0
    timeouts = 0
    primary_done = np.inf
    for elapsed, ok in attempt_times:
        attempts += 1
        if elapsed >= timeout:
            timeouts += 1
            t += timeout
        elif ok:
            primary_done = t + elapsed
            break
        else:
            t += elapsed
    if callable(hedge_time):
        hedge_time = hedge_time() if primary_done > hedge_issue_at else None
    hedge_done = (
        hedge_issue_at + hedge_time if hedge_time is not None else np.inf
    )
    hedge_available = hedge_time is not None and np.isfinite(hedge_done)
    if not np.isfinite(primary_done) and not hedge_available:
        return RpcSimResult(
            total_time=t, ok=False, winner="none",
            attempts=attempts, timeouts=timeouts,
        )
    if hedge_done < primary_done:
        return RpcSimResult(
            total_time=float(hedge_done), ok=True, winner="hedge",
            attempts=attempts, timeouts=timeouts, hedged=True,
        )
    # The hedge only counts as issued if the primary had not already
    # resolved by its launch time.
    return RpcSimResult(
        total_time=float(primary_done), ok=True, winner="primary",
        attempts=attempts, timeouts=timeouts,
        hedged=hedge_available and hedge_issue_at < primary_done,
    )
