"""Timing models for the three extraction mechanisms of §3.2 / §5.

Given, for each destination GPU, the number of bytes it must pull from every
source location this batch, these functions compute the batch extraction
time under:

* :func:`factored_extraction` — UGache's FEM (§5.3): cores statically
  dedicated per source within link tolerance, local extraction padding the
  ragged non-local groups.  Matches the solver's time estimate (§6.2) by
  construction.
* :func:`naive_peer_extraction` — WholeGraph-style zero-copy peer access
  with random dispatch; suffers the congestion of Figure 7 (modelled by
  :mod:`repro.sim.congestion`).
* :func:`message_extraction` — SOK-style buffered AllToAll exchange; pays
  extra gather/reorder passes and per-stage launch overheads but uses links
  efficiently during the exchange itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.hardware.platform import Platform, remember
from repro.hardware.topology import TopologyKind
from repro.sim.congestion import solve_congested_extraction


class Mechanism(enum.Enum):
    """Cross-GPU embedding extraction mechanisms."""

    FACTORED = "factored"
    PEER_NAIVE = "peer"
    MESSAGE = "message"


@dataclass(frozen=True)
class GpuDemand:
    """Bytes one destination GPU must extract from each source this batch."""

    dst: int
    volumes: dict[int, float]

    def __post_init__(self) -> None:
        for src, vol in self.volumes.items():
            if vol < 0:
                raise ValueError(f"negative volume {vol} for source {src}")

    @property
    def total_bytes(self) -> float:
        return float(sum(self.volumes.values()))

    def volume(self, src: int) -> float:
        return float(self.volumes.get(src, 0.0))


@dataclass(frozen=True)
class GpuExtractionReport:
    """Per-destination outcome of one simulated batch extraction."""

    dst: int
    mechanism: Mechanism
    time: float
    time_by_source: dict[int, float]
    volumes: dict[int, float]
    cores_by_source: dict[int, float] = field(default_factory=dict)
    stage_times: dict[str, float] = field(default_factory=dict)

    def volume_local(self) -> float:
        return float(self.volumes.get(self.dst, 0.0))

    def volume_host(self) -> float:
        """Bytes pulled from the backing chain (all tiers; ids are < 0)."""
        return float(sum(v for s, v in self.volumes.items() if s < 0))

    def volume_remote(self) -> float:
        return float(
            sum(v for s, v in self.volumes.items() if s != self.dst and s >= 0)
        )


# ----------------------------------------------------------------------
# Core dedication (§5.3)
# ----------------------------------------------------------------------
def core_dedication(
    platform: Platform, dst: int, active_sources: list[int]
) -> dict[int, int]:
    """UGache's static core split for GPU ``dst`` (§5.3).

    Host gets its small tolerance first ("a small number of cores for
    host").  The remaining cores are sliced across remote GPUs by link
    bandwidth ratio on hard-wired platforms, or equally on switch
    platforms (abstracting the switch into a fully connected graph so each
    reader claims a 1/(N-1) non-overlapping share).  Every remaining core
    — and each dedicated core once its group drains — serves local
    extraction, so local is not listed here.
    """
    total = platform.gpu.num_cores
    dedication: dict[int, int] = {}
    backing = [s for s in active_sources if platform.is_backing(s)]
    remotes = [
        s for s in active_sources if s != dst and not platform.is_backing(s)
    ]
    # Every backing tier is HOST-like: a small dedicated share bounded by
    # the tier's link tolerance (a slower tier needs even fewer cores to
    # saturate, so the bound tightens on its own).
    for src in backing:
        dedication[src] = min(platform.tolerance(dst, src), total // 4)

    remaining = total - sum(dedication.get(s, 0) for s in backing)
    if remotes:
        if platform.topology.kind is TopologyKind.SWITCH:
            # Equal split across *all* peers keeps per-source claims at
            # outbound/(N-1) even when only a few have traffic this batch.
            share = remaining // (platform.num_gpus - 1)
            for src in remotes:
                dedication[src] = max(1, share)
        else:
            weights = {src: platform.bandwidth(dst, src) for src in remotes}
            total_weight = sum(weights.values())
            if total_weight <= 0:
                # Every remote link is dead or unknown (a degraded
                # platform, a corrupt route): split evenly rather than
                # divide by zero.
                for src in remotes:
                    dedication[src] = max(1, remaining // len(remotes))
            else:
                for src in remotes:
                    dedication[src] = max(
                        1, int(remaining * weights[src] / total_weight)
                    )
    return dedication


# ----------------------------------------------------------------------
# Factored extraction (§5.3)
# ----------------------------------------------------------------------
def factored_terms(platform: Platform, dst: int, sources: tuple[int, ...]):
    """The §5.3 terms of GPU ``dst`` reading ``sources``:
    ``(per_core_bandwidth, num_cores, local_bandwidth, groups)``, with
    ``groups`` one ``(source, rate, latency, cores, busy)`` per non-local
    source in ``sources`` order, remembered per (platform or degraded
    view, ``dst``, ``sources``).

    A group runs on its dedicated ``cores`` at ``rate``; ``busy`` is the
    cores it holds, never beyond the link's tolerance.  The one latency
    rule: a group pays its tier's fixed access ``latency`` (0 for DRAM)
    once, inside the group, so its ``busy`` cores are held for
    ``volume / rate + latency``.  The price, the Gantt trace and the event
    simulator (whose group cores sit the latency out before their first
    chunk) all read these.
    """
    key = ("factored", dst, sources)
    found = platform.memo.get(key)
    if found is None:
        gpu = platform.gpu
        dedication = core_dedication(platform, dst, list(sources))
        groups = []
        for src in sources:
            if src == dst:
                continue
            cores = dedication.get(src, 1)
            rate = min(cores * gpu.per_core_bandwidth, platform.bandwidth(dst, src))
            busy = min(cores, platform.tolerance(dst, src))
            groups.append((src, rate, platform.tier_latency(src), cores, busy))
        found = remember(platform.memo, key, (
            gpu.per_core_bandwidth, gpu.num_cores, gpu.local_bandwidth, tuple(groups)
        ))
    return found


def factored_extraction(
    platform: Platform,
    demand: GpuDemand,
    local_padding: bool = True,
) -> GpuExtractionReport:
    """Batch time under UGache's factored extraction mechanism.

    Each non-local group ``j`` runs on its dedicated cores at
    ``min(cores_j * per_core_bw, B_j)``; the local group runs at low
    priority on every otherwise-idle core.  With padding, the batch time
    is the larger of the slowest group and the work-conservation bound
    ``(sum of busy core-seconds) / num_cores`` — exactly the Extractor
    estimate the solver optimizes (§6.2).  Without padding (ablation),
    local extraction waits for all non-local groups to finish.

    The terms are :func:`factored_terms`.
    """
    dst, volumes = demand.dst, demand.volumes
    per_core_bandwidth, num_cores, local_bandwidth, terms = factored_terms(
        platform, dst, tuple(volumes)
    )
    time_by_source: dict[int, float] = {}
    cores_by_source: dict[int, float] = {}
    busy_core_seconds = 0.0
    slowest_group = 0.0

    for src, rate, latency, cores, busy in terms:
        vol = float(volumes[src])
        if vol <= 0:
            continue
        group_time = vol / rate + latency
        time_by_source[src] = group_time
        cores_by_source[src] = cores
        busy_core_seconds += busy * group_time
        if group_time > slowest_group:
            slowest_group = group_time

    local_vol = float(volumes.get(dst, 0.0))
    local_core_seconds = local_vol / per_core_bandwidth
    if local_padding:
        total = max(
            slowest_group,
            (busy_core_seconds + local_core_seconds) / num_cores,
        )
    else:
        total = slowest_group + local_vol / local_bandwidth
    if local_vol > 0:
        time_by_source[dst] = local_core_seconds / num_cores
        cores_by_source[dst] = num_cores

    return GpuExtractionReport(
        dst=dst,
        mechanism=Mechanism.FACTORED,
        time=float(total),
        time_by_source=time_by_source,
        volumes=dict(volumes),
        cores_by_source=cores_by_source,
    )


# ----------------------------------------------------------------------
# Naive peer extraction (WholeGraph-style, §5.2)
# ----------------------------------------------------------------------
def peer_peaks(
    platform: Platform, demand: GpuDemand, readers_per_source: dict[int, int] | None
) -> dict[int, tuple[float, int]]:
    """``(peak, readers)`` per source GPU ``demand.dst`` reads unorganized.

    On a switch platform, ``k`` concurrent reader GPUs of a peer shrink its
    usable outbound share to ``outbound / k``; own memory, backing tiers
    and hard-wired links give their link bandwidth to one reader.
    """
    readers = readers_per_source or {}
    switch = platform.topology.kind is TopologyKind.SWITCH
    peaks: dict[int, tuple[float, int]] = {}
    for src, vol in demand.volumes.items():
        if vol <= 0:
            continue
        if switch and src != demand.dst and not platform.is_backing(src):
            k = max(1, readers.get(src, 1))
            peaks[src] = (platform.topology.outbound_bandwidth(src) / k, k)
        else:
            peaks[src] = (platform.bandwidth(demand.dst, src), 1)
    return peaks


def naive_peer_extraction(
    platform: Platform,
    demand: GpuDemand,
    readers_per_source: dict[int, int] | None = None,
) -> GpuExtractionReport:
    """Batch time under unorganized zero-copy peer extraction.

    ``readers_per_source`` tells the switch-collision model how many GPUs
    are simultaneously pulling from each source (data-parallel execution
    makes this ``G - 1`` for every GPU source under a partition policy).
    """
    gpu = platform.gpu
    peaks = peer_peaks(platform, demand, readers_per_source)
    outcome = solve_congested_extraction(
        volumes={s: demand.volumes[s] for s in peaks},
        peak_bandwidth={s: peak for s, (peak, _) in peaks.items()},
        per_core_bandwidth=gpu.per_core_bandwidth,
        num_cores=gpu.num_cores,
        collision_pressure={s: float(k) for s, (_, k) in peaks.items()},
    )
    time_by_source = {
        s: cs / gpu.num_cores for s, cs in outcome.core_seconds.items()
    }
    return GpuExtractionReport(
        dst=demand.dst,
        mechanism=Mechanism.PEER_NAIVE,
        time=outcome.total_time,
        time_by_source=time_by_source,
        volumes=dict(demand.volumes),
        cores_by_source=outcome.cores_by_source,
    )


# ----------------------------------------------------------------------
# Message-based extraction (SOK-style AllToAll, §3.2)
# ----------------------------------------------------------------------
#: Fixed per-stage cost of launching/synchronizing a collective round.
MESSAGE_STAGE_OVERHEAD = 30e-6


def message_extraction(
    platform: Platform,
    demands: list[GpuDemand],
) -> list[GpuExtractionReport]:
    """Batch times under buffered AllToAll message passing.

    Stages (serialized, as NCCL-based embedding exchanges are):

    1. *gather*: every GPU reads the entries requested by all peers from
       its local shard and packs them into contiguous send buffers — one
       gather pass plus one sequential write pass over the HBM;
    2. *exchange*: AllToAll over the interconnect; collectives schedule
       transfers explicitly, so links run at full (uncongested) bandwidth
       and the stage ends when the busiest endpoint finishes;
    3. *reorder*: each GPU scatters received buffers back into the
       requested key order — again two HBM passes;
    4. host-resident entries are fetched directly over PCIe, overlapping
       the exchange stage.

    All GPUs synchronize at each collective, so every GPU reports the same
    batch time (the max over endpoints).
    """
    if not demands:
        return []
    gpu = platform.gpu
    dsts = [d.dst for d in demands]
    if len(set(dsts)) != len(dsts):
        raise ValueError("duplicate destination GPUs in demand list")

    # Bytes GPU j must send to GPU i: demands[i].volumes[j].
    sent_by: dict[int, float] = {g: 0.0 for g in platform.gpu_ids}
    recv_by: dict[int, float] = {g: 0.0 for g in platform.gpu_ids}
    pair_bytes: dict[tuple[int, int], float] = {}
    host_by: dict[int, float] = {g: 0.0 for g in platform.gpu_ids}
    #: per-dst seconds spent on backing-tier fetches (tier-aware: each
    #: tier's bytes stream at that tier's bandwidth plus its latency).
    backing_seconds_by: dict[int, float] = {g: 0.0 for g in platform.gpu_ids}
    local_by: dict[int, float] = {g: 0.0 for g in platform.gpu_ids}
    for d in demands:
        for src, vol in d.volumes.items():
            if vol <= 0:
                continue
            if platform.is_backing(src):
                host_by[d.dst] += vol
                backing_seconds_by[d.dst] += (
                    vol / platform.bandwidth(d.dst, src)
                    + platform.tier_latency(src)
                )
            elif src == d.dst:
                local_by[d.dst] += vol
            else:
                sent_by[src] += vol
                recv_by[d.dst] += vol
                pair_bytes[(d.dst, src)] = pair_bytes.get((d.dst, src), 0.0) + vol

    # Stage 1: gather into send buffers (plus each GPU's local entries,
    # which message-based systems also route through the buffer).
    gather_time = max(
        2.0 * (sent_by[g] + local_by[g]) / gpu.local_bandwidth
        for g in platform.gpu_ids
    )

    # Stage 2: AllToAll exchange.
    if platform.topology.kind is TopologyKind.SWITCH:
        out_bw = platform.topology.outbound_bandwidth(0)
        exchange_time = max(
            max(sent_by[g] / out_bw, recv_by[g] / out_bw) for g in platform.gpu_ids
        )
    else:
        exchange_time = 0.0
        for (dst, src), vol in pair_bytes.items():
            bw = platform.peak_pair_bandwidth(dst, src)
            if bw <= 0:
                # Unconnected pair: the collective routes through PCIe.
                bw = platform.pcie_bandwidth
            exchange_time = max(exchange_time, vol / bw)

    # Stage 4 overlaps stage 2.
    host_time = max(
        (backing_seconds_by[g] for g in platform.gpu_ids), default=0.0
    )
    exchange_time = max(exchange_time, host_time)

    # Stage 3: reorder received buffers (remote + local + host entries all
    # pass through the output reordering).
    reorder_time = max(
        2.0 * (recv_by[g] + local_by[g] + host_by[g]) / gpu.local_bandwidth
        for g in platform.gpu_ids
    )

    total = (
        gather_time + exchange_time + reorder_time + 3 * MESSAGE_STAGE_OVERHEAD
    )
    reports = []
    for d in demands:
        stage_times = {
            "gather": gather_time,
            "exchange": exchange_time,
            "reorder": reorder_time,
        }
        time_by_source = {
            src: (vol / d.total_bytes) * total if d.total_bytes else 0.0
            for src, vol in d.volumes.items()
        }
        reports.append(
            GpuExtractionReport(
                dst=d.dst,
                mechanism=Mechanism.MESSAGE,
                time=float(total),
                time_by_source=time_by_source,
                volumes=dict(d.volumes),
                stage_times=stage_times,
            )
        )
    return reports
