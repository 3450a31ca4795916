"""Chunk-level event-driven extraction simulator (cross-validation).

The analytic models in :mod:`repro.sim.mechanisms` are fluid
approximations: the factored model assumes perfect local padding, and the
naive-peer model solves a steady-state occupancy fixed point.  This module
simulates the same physics *discretely*, individual SMs pulling fixed-size
chunks through one drain kernel (:func:`_drain`).  The two simulators
differ only in how a core takes its next chunk and in the rate rule: the
naive rule recomputes every link's rate at each completion event, the
factored rule fixes a chunk's rate when the chunk starts, from the SMs
then reading its source.  Tests and the `event-sim` experiment use it to
check that the fluid models converge to the discrete behaviour (within
chunking noise).

Shared physics, independent dynamics: the per-link delivered-bandwidth law
(full bandwidth up to tolerance, degraded beyond — §5.1/Figure 6) is the
same :func:`~repro.sim.congestion.effective_bandwidth`, and tier latency
follows its analytic twin: a factored group's cores sit out the group's
``latency`` from :func:`~repro.sim.mechanisms.factored_terms` before
their first chunk, as the price charges it, while naive extraction
charges none, as :func:`~repro.sim.mechanisms.naive_peer_extraction`
does.  Everything about *when* which SM reads from where is simulated,
not assumed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.hardware.platform import Platform
from repro.sim.congestion import effective_bandwidth
from repro.sim.mechanisms import GpuDemand, factored_terms, peer_peaks
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


def _drain(current, take, rate_rule, chunk_bytes, hold) -> EventSimResult:
    """Cores drain fixed-size chunks until none can take another.

    ``current[c]`` is the source of core ``c``'s chunk (None: idle) and
    ``take(c)`` the source of its next one (None: done).  ``rate_rule(
    current, rate, core)`` writes per-core byte rates into ``rate``; it is
    called with ``core=None`` before each event and with the core each
    time one starts a chunk.  Core ``c`` sits out ``hold[c]`` seconds of
    access latency before its first chunk.
    """
    n = len(current)
    remaining = [chunk_bytes] * n
    rate = [0.0] * n
    hold = list(hold)
    for core in range(n):
        if current[core] is not None:
            rate_rule(current, rate, core)
    clock = 0.0
    events = 0
    processed = 0
    while True:
        active = [c for c in range(n) if current[c] is not None]
        if not active:
            break
        rate_rule(current, rate, None)
        # Earliest completion under current rates.
        dt = min(hold[c] + remaining[c] / rate[c] for c in active if rate[c] > 0)
        clock += dt
        events += 1
        for core in active:
            drained = dt - hold[core]
            if drained < 0:
                hold[core] = -drained
                continue
            hold[core] = 0.0
            remaining[core] -= drained * rate[core]
            if remaining[core] <= 1e-9:
                processed += 1
                current[core] = take(core)
                if current[core] is not None:
                    remaining[core] = chunk_bytes
                    rate_rule(current, rate, core)
    return EventSimResult(total_time=clock, chunks_processed=processed, events=events)


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
    :func:`repro.sim.congestion.solve_congested_extraction`.  The link
    peaks, ``readers_per_source`` included, are
    :func:`repro.sim.mechanisms.peer_peaks`, as the analytic model reads
    them.
    """
    per_core = platform.gpu.per_core_bandwidth
    num_cores = platform.gpu.num_cores
    peaks: dict[int, float] = {}
    chunks: list[int] = []  # source per chunk
    for src, (peak, _) in peer_peaks(platform, demand, readers_per_source).items():
        if peak <= 0:
            raise ValueError(f"source {src} unreachable from GPU {demand.dst}")
        peaks[src] = peak
        chunks.extend([src] * max(1, int(round(demand.volumes[src] / chunk_bytes))))
    if not chunks:
        return EventSimResult(0.0, 0, 0)
    order = make_rng(seed).permutation(len(chunks))
    queues = [iter([chunks[i] for i in order[c::num_cores]]) for c in range(num_cores)]

    def recompute_every_event(current, rate, core):
        if core is not None:
            return
        counts = Counter(src for src in current if src is not None)
        rates = {src: _link_rate(peaks[src], per_core, k) for src, k in counts.items()}
        for c, src in enumerate(current):
            if src is not None:
                rate[c] = rates[src]

    def take(core):
        return next(queues[core], None)

    current = [take(core) for core in range(num_cores)]
    return _drain(current, take, recompute_every_event, chunk_bytes, [0.0] * num_cores)


def simulate_factored_event_driven(
    platform: Platform,
    demand: GpuDemand,
    chunk_bytes: float = 64 * 1024,
) -> EventSimResult:
    """Discretely simulate the §5.3 factored schedule.

    Each non-local group's ``busy`` cores from
    :func:`repro.sim.mechanisms.factored_terms` sit out the group's access
    ``latency`` once, then drain its chunk queue; a core that runs out of
    its group's work switches to the local queue (the low-priority
    padding), which the remaining cores drain from t=0.  Converges to
    :func:`repro.sim.mechanisms.factored_extraction` as chunks shrink.
    To price the schedule under faults, hand it the platform and demand
    :func:`repro.core.pipeline.apply_health` returns: degraded links slow
    their group, dead sources' chunks drain via host.
    """
    local = demand.dst
    per_core, num_cores, _, terms = factored_terms(platform, local, tuple(demand.volumes))
    left = {local: 0}  # chunks not yet taken, per source
    for src, vol in demand.volumes.items():
        if vol > 0:
            left[src] = max(1, int(round(vol / chunk_bytes)))
    lane: list[int] = []  # the queue each core drains
    hold: list[float] = []
    for src, _, latency, _, busy in terms:
        if src in left:
            lane += [src] * busy
            hold += [latency] * busy
    free = max(num_cores - len(lane), 0)
    lane += [local] * free
    hold += [0.0] * free

    def fix_at_start(current, rate, core):
        if core is None:
            return
        src = current[core]
        if src == local:
            rate[core] = per_core
        else:
            readers = current.count(src)
            rate[core] = min(per_core, platform.bandwidth(local, src) / readers)

    def take(core):
        if left[lane[core]] == 0:
            lane[core] = local
        if left[lane[core]] == 0:
            return None
        left[lane[core]] -= 1
        return lane[core]

    current = [take(core) for core in range(len(lane))]
    return _drain(current, take, fix_at_start, chunk_bytes, hold)


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
