"""Multi-GPU platform model: GPUs + interconnect + a backing-memory chain.

A :class:`Platform` is the single hardware object the rest of the library
consumes.  It answers three questions for any (destination GPU, source
location) pair:

* ``bandwidth(dst, src)`` — bytes/second the path sustains for one reader;
* ``tolerance(dst, src)`` — how many SMs can read concurrently before the
  link congests (Figure 6's plateau onset);
* ``cost_per_byte(dst, src)`` — the solver's ``T_{i←j}`` coefficient.

Source locations are integers: GPU ids ``0..G-1`` plus *negative* ids for
the ordered backing-tier chain below the GPUs.  Tier ``k`` of
``Platform.tiers`` is source ``-(k + 1)``: host DRAM is tier 0 and keeps
its historical sentinel :data:`HOST` (= -1); deeper tiers (CXL, SSD) get
-2, -3, …  A platform built without an explicit chain has exactly one
tier — host DRAM sized by ``host_memory_bytes`` and reached at
``pcie_bandwidth`` — so every pre-tier consumer behaves byte-identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from repro.hardware.spec import GPUSpec, a100_80gb, v100_16gb, v100_32gb
from repro.hardware.topology import (
    NVLINK_LANE_BANDWIDTH,
    Topology,
    TopologyKind,
    dgx1_8gpu,
    hardwired_fully_connected,
    nvswitch,
)
from repro.utils.units import GB, GIB, KIB, MIB, gbps

#: Source id of backing tier 0 — host DRAM reached over PCIe.  Kept as a
#: module constant because it predates the tier chain; ``-(k + 1)`` is the
#: id of tier ``k`` in general (see :meth:`Platform.tier_source_id`).
HOST: int = -1

#: The one dtype every bulk source-location array uses (the location
#: table's lookup results, the cache's dense ``source_map``, the
#: extractor's replica search).  Must hold :data:`HOST` plus every GPU id
#: the packed location format supports (15-bit sources); widen it here —
#: and only here — if a platform ever exceeds that.
SOURCE_DTYPE = np.int16

#: Most answers one platform (or one degraded view of it) remembers.
MEMO_LIMIT = 4096


def remember(memo: dict, key, value):
    """Keep ``value`` as ``memo[key]``; at :data:`MEMO_LIMIT` the oldest
    answer leaves first (answers are pure, so a dropped one is recomputed)."""
    if len(memo) >= MEMO_LIMIT:
        try:
            del memo[next(iter(memo))]
        except (KeyError, RuntimeError):  # another thread got there first
            pass
    memo[key] = value
    return value


@dataclass(frozen=True)
class MemoryTier:
    """One level of the backing-memory chain below the GPUs.

    Attributes:
        name: tier label, e.g. ``"dram"``, ``"cxl"``, ``"ssd"``.
        capacity_bytes: how many bytes the tier can hold.
        bandwidth: sustained extraction bandwidth into a GPU, bytes/second.
        latency_s: fixed per-group access latency in seconds, paid once per
            batched read against this tier (0 for DRAM, where the PCIe
            pipe dominates; ~100 µs for an NVMe read).
    """

    name: str
    capacity_bytes: int
    bandwidth: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("memory tier needs a name")
        if self.capacity_bytes <= 0:
            raise ValueError(f"tier {self.name!r}: capacity must be positive")
        if self.bandwidth <= 0:
            raise ValueError(f"tier {self.name!r}: bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError(f"tier {self.name!r}: latency must be non-negative")


#: Reference (bandwidth, latency) per well-known tier kind.  DRAM's
#: bandwidth is ``None`` — it is bounded by the platform's PCIe pipe, so
#: :func:`parse_tier_spec` substitutes ``pcie_bandwidth`` there.
TIER_KINDS: dict[str, tuple[float | None, float]] = {
    "dram": (None, 0.0),
    "cxl": (gbps(12), 1e-6),
    "ssd": (gbps(6), 100e-6),
}

_TIER_CAPACITY_UNITS = {
    "b": 1,
    "kb": 1_000,
    "mb": 1_000_000,
    "gb": GB,
    "tb": 1_000 * GB,
    "kib": KIB,
    "mib": MIB,
    "gib": GIB,
    "tib": 1024 * GIB,
}


def parse_capacity(text: str) -> int:
    """Parse ``"8GB"`` / ``"1TiB"`` / ``"512MB"`` into bytes."""
    m = re.fullmatch(r"\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z]+)\s*", text)
    if not m:
        raise ValueError(f"cannot parse capacity {text!r} (want e.g. '8GB')")
    unit = m.group(2).lower()
    if unit not in _TIER_CAPACITY_UNITS:
        raise ValueError(f"unknown capacity unit {m.group(2)!r} in {text!r}")
    return int(float(m.group(1)) * _TIER_CAPACITY_UNITS[unit])


def parse_tier_spec(
    spec: str, pcie_bandwidth: float = gbps(16)
) -> tuple[MemoryTier, ...]:
    """Parse ``"dram:8GB,ssd:1TB"`` into an ordered tier chain.

    Each comma-separated element is ``kind:capacity[:GB/s[:latency_us]]``;
    ``kind`` picks bandwidth/latency defaults from :data:`TIER_KINDS`
    (DRAM inherits ``pcie_bandwidth``), and the optional trailing fields
    override them.  Order in the spec is the chain order — tier 0 first.
    """
    tiers: list[MemoryTier] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) < 2:
            raise ValueError(
                f"tier spec {part!r} needs at least kind:capacity (e.g. 'dram:8GB')"
            )
        kind = fields[0].strip().lower()
        if kind not in TIER_KINDS:
            raise ValueError(
                f"unknown tier kind {kind!r}; known: {sorted(TIER_KINDS)}"
            )
        default_bw, default_lat = TIER_KINDS[kind]
        bandwidth = default_bw if default_bw is not None else pcie_bandwidth
        latency = default_lat
        if len(fields) >= 3 and fields[2].strip():
            bandwidth = gbps(float(fields[2]))
        if len(fields) >= 4 and fields[3].strip():
            latency = float(fields[3]) * 1e-6
        tiers.append(
            MemoryTier(
                name=kind,
                capacity_bytes=parse_capacity(fields[1]),
                bandwidth=bandwidth,
                latency_s=latency,
            )
        )
    if not tiers:
        raise ValueError(f"tier spec {spec!r} names no tiers")
    return tuple(tiers)


@dataclass(frozen=True)
class Platform:
    """A single machine with ``G`` identical GPUs, an interconnect and host DRAM.

    Attributes:
        name: display name, e.g. ``"server-c"``.
        gpu: spec shared by all GPUs (the paper's testbeds are homogeneous).
        topology: inter-GPU fabric.
        host_memory_bytes: host DRAM capacity.
        pcie_bandwidth: sustained host→GPU extraction bandwidth over PCIe,
            bytes/second.  The paper's Figure 6 shows host extraction
            plateauing below 10% of SMs at roughly PCIe wire speed.
    """

    name: str
    gpu: GPUSpec
    topology: Topology
    host_memory_bytes: int = 512 * GIB
    pcie_bandwidth: float = gbps(16)
    #: Ordered backing chain below the GPUs; tier ``k`` is source
    #: ``-(k + 1)``.  Defaults to a single host-DRAM tier built from
    #: ``host_memory_bytes`` / ``pcie_bandwidth``, which keeps every
    #: pre-tier consumer byte-identical.  When a chain is supplied, tier 0
    #: becomes the authoritative host tier and ``host_memory_bytes`` /
    #: ``pcie_bandwidth`` are synchronized to it.
    tiers: tuple[MemoryTier, ...] = field(default=())
    #: Pure functions of this platform remembered under ``(name, *args)``:
    #: path bandwidths, tolerances, its degraded views, and what the extraction
    #: pipeline records per route (see :mod:`repro.core.pipeline`).  Per
    #: instance, so ``replace``/:func:`with_tiers` copies start empty.
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.pcie_bandwidth <= 0:
            raise ValueError("PCIe bandwidth must be positive")
        if self.host_memory_bytes <= 0:
            raise ValueError("host memory must be positive")
        if not self.tiers:
            object.__setattr__(
                self,
                "tiers",
                (
                    MemoryTier(
                        name="dram",
                        capacity_bytes=self.host_memory_bytes,
                        bandwidth=self.pcie_bandwidth,
                    ),
                ),
            )
        else:
            object.__setattr__(self, "tiers", tuple(self.tiers))
            # Tier 0 is the host tier; keep the legacy scalar fields in
            # lock-step so `bandwidth(dst, HOST)` has exactly one answer.
            object.__setattr__(
                self, "host_memory_bytes", self.tiers[0].capacity_bytes
            )
            object.__setattr__(self, "pcie_bandwidth", self.tiers[0].bandwidth)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        return self.topology.num_gpus

    @property
    def gpu_ids(self) -> range:
        return range(self.num_gpus)

    # ------------------------------------------------------------------
    # Backing-tier chain
    # ------------------------------------------------------------------
    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    @property
    def backing_ids(self) -> list[int]:
        """Source ids of the backing chain in tier order: [-1, -2, …]."""
        return [-(k + 1) for k in range(len(self.tiers))]

    @staticmethod
    def tier_source_id(index: int) -> int:
        """Source id of tier ``index`` (tier 0 → :data:`HOST`)."""
        return -(index + 1)

    @staticmethod
    def tier_index(src: int) -> int:
        """Chain index of backing source ``src`` (:data:`HOST` → 0)."""
        return -src - 1

    def is_gpu(self, src: int) -> bool:
        """Whether ``src`` is a GPU id on this platform."""
        return 0 <= src < self.num_gpus

    def is_backing(self, src: int) -> bool:
        """Whether ``src`` names a tier of this platform's backing chain.

        The centralized form of the old ``src == HOST`` test: on a
        single-tier platform they are equivalent, and on a deeper chain
        every valid negative tier id answers True — which is what keeps
        the pipeline's corrupt-source check from mistaking tier ids for
        garbage.
        """
        return -len(self.tiers) <= src <= -1

    def tier_of(self, src: int) -> MemoryTier:
        """The :class:`MemoryTier` behind backing source ``src``."""
        if not self.is_backing(src):
            raise ValueError(f"source {src} is not a backing tier")
        return self.tiers[self.tier_index(src)]

    def tier_latency(self, src: int) -> float:
        """Per-group access latency of ``src`` (0 for GPU sources)."""
        if self.is_backing(src):
            return self.tiers[self.tier_index(src)].latency_s
        return 0.0

    def backing_mask(self, sources: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_backing` over a source array."""
        sources = np.asarray(sources)
        return (sources <= -1) & (sources >= -len(self.tiers))

    def valid_source_mask(self, sources: np.ndarray) -> np.ndarray:
        """True where a source id names a real GPU or backing tier.

        The complement is the pipeline's corrupt-source mask; keeping it
        here means a new tier can never be mistaken for a corrupt id.
        """
        sources = np.asarray(sources)
        return ((sources >= 0) & (sources < self.num_gpus)) | self.backing_mask(
            sources
        )

    def sources_for(self, dst: int) -> list[int]:
        """All source locations GPU ``dst`` can extract from.

        Order is derived from measured ``cost_per_byte`` rather than a
        hardcoded ``[dst, *peers, HOST]`` literal: local HBM first (always
        the cheapest path), then the NVLink fabric's peers (kept in
        topology order — ties at fabric granularity stay deterministic and
        LP-column stable), then the backing chain sorted cheapest-first.
        On every pre-tier preset this reproduces the historical order
        exactly; a chain declared out of cost order (ssd before cxl) is
        straightened here.  Unconnected peers are excluded — reads to them
        are serviced from the backing chain instead (the paper drops the
        corresponding ``t^j_i`` terms).
        """
        self._check_gpu(dst)
        remote = [j for j in self.topology.peers(dst)]
        backing = sorted(
            self.backing_ids, key=lambda s: (self.cost_per_byte(dst, s), -s)
        )
        return [dst, *remote, *backing]

    def is_connected(self, dst: int, src: int) -> bool:
        """Whether ``dst`` can read ``src`` without falling back to PCIe."""
        self._check_gpu(dst)
        if self.is_backing(src) or src == dst:
            return True
        self._check_gpu(src)
        return self.topology.connected(dst, src)

    # ------------------------------------------------------------------
    # Bandwidth model
    # ------------------------------------------------------------------
    def bandwidth(self, dst: int, src: int) -> float:
        """Peak path bandwidth for GPU ``dst`` reading from ``src``, bytes/s.

        For a switch fabric this is the fair share ``outbound / (G - 1)``:
        UGache's factored extraction dedicates exactly that slice per
        reader so shares never overlap (§5.3); it is also the sustainable
        long-run rate when all GPUs extract simultaneously, which is the
        regime every experiment in §8 runs in.
        """
        found = self.memo.get(("bandwidth", dst, src))
        if found is None:
            found = self.memo["bandwidth", dst, src] = self._path_bandwidth(
                dst, src, shared=True
            )
        return found

    def _path_bandwidth(self, dst: int, src: int, shared: bool) -> float:
        self._check_gpu(dst)
        if src == dst:
            return self.gpu.local_bandwidth
        if self.is_backing(src):
            return self.tiers[self.tier_index(src)].bandwidth
        self._check_gpu(src)
        if not self.topology.connected(dst, src):
            return 0.0
        if shared and self.topology.kind is TopologyKind.SWITCH:
            return self.topology.outbound_bandwidth(src) / (self.num_gpus - 1)
        return self.topology.pair_bandwidth(dst, src)

    def peak_pair_bandwidth(self, dst: int, src: int) -> float:
        """Uncontended single-flow bandwidth (used by the congestion model).

        Unlike :meth:`bandwidth`, on a switch platform a *lone* reader can
        pull the source's full outbound bandwidth.
        """
        return self._path_bandwidth(dst, src, shared=False)

    def tolerance(self, dst: int, src: int) -> int:
        """Number of SMs of ``dst`` that saturate the path to ``src``.

        This is the plateau onset of Figure 6: a link of bandwidth ``B``
        tolerates ``B / per_core_bandwidth`` concurrent SMs; additional
        SMs stall.  Local memory tolerates all SMs by construction.
        """
        key = ("tolerance", dst, src)
        if key not in self.memo:
            bw = self.bandwidth(dst, src)
            cores = int(round(bw / self.gpu.per_core_bandwidth))
            self.memo[key] = max(1, min(cores, self.gpu.num_cores)) if bw > 0 else 0
        return self.memo[key]

    def cost_per_byte(self, dst: int, src: int) -> float:
        """The solver coefficient ``T_{i←j}``: seconds per byte extracted.

        Infinite (``float('inf')``) for unconnected pairs; the solver drops
        those terms.
        """
        bw = self.bandwidth(dst, src)
        if bw <= 0:
            return float("inf")
        return 1.0 / bw

    # ------------------------------------------------------------------
    # Capacity helpers
    # ------------------------------------------------------------------
    def _check_gpu(self, i: int) -> None:
        if not 0 <= i < self.num_gpus:
            raise ValueError(f"GPU id {i} out of range for {self.num_gpus}-GPU platform")


# ----------------------------------------------------------------------
# Paper testbed presets (§8.1)
# ----------------------------------------------------------------------
def server_a() -> Platform:
    """Server A: 4×V100-16GB, hard-wired fully connected, 384 GB host."""
    return Platform(
        name="server-a",
        gpu=v100_16gb(),
        topology=hardwired_fully_connected(4, lanes_per_gpu=6),
        host_memory_bytes=384 * GIB,
        pcie_bandwidth=gbps(16),
    )


def server_b() -> Platform:
    """Server B: 8×V100-32GB on a DGX-1 board, 724 GB host."""
    return Platform(
        name="server-b",
        gpu=v100_32gb(),
        topology=dgx1_8gpu(),
        host_memory_bytes=724 * GIB,
        pcie_bandwidth=gbps(16),
    )


def server_c() -> Platform:
    """Server C: 8×A100-80GB behind NVSwitch, 1 TB host."""
    return Platform(
        name="server-c",
        gpu=a100_80gb(),
        topology=nvswitch(8, lanes_per_gpu=12),
        host_memory_bytes=1024 * GIB,
        pcie_bandwidth=gbps(24),
    )


def single_gpu() -> Platform:
    """A one-GPU platform (Table 1's testbed) — no interconnect.

    The topology is an empty 1×1 lane matrix: the only sources are local
    HBM and host DRAM over PCIe.
    """
    topo = Topology(
        kind=TopologyKind.HARDWIRED,
        lane_counts=np.zeros((1, 1), dtype=np.int64),
        lane_bandwidth=NVLINK_LANE_BANDWIDTH,
        outbound_lanes=0,
        name="single-gpu",
    )
    return Platform(
        name="single-gpu",
        gpu=a100_80gb(),
        topology=topo,
        pcie_bandwidth=gbps(24),
    )


def dgx2() -> Platform:
    """A DGX-2-like box: 16×V100-32GB behind NVSwitch (beyond the paper's
    testbeds; used by the generalization benchmark)."""
    return Platform(
        name="dgx2",
        gpu=v100_32gb(),
        topology=nvswitch(16, lanes_per_gpu=6),
        host_memory_bytes=1536 * GIB,
        pcie_bandwidth=gbps(16),
    )


def pcie_only(num_gpus: int = 4) -> Platform:
    """A commodity multi-GPU box with no NVLink at all.

    Every GPU pair is unconnected, so the only sources are local HBM and
    host DRAM — the degenerate platform where any partition policy
    collapses and UGache must fall back to pure replication.
    """
    topo = Topology(
        kind=TopologyKind.HARDWIRED,
        lane_counts=np.zeros((num_gpus, num_gpus), dtype=np.int64),
        lane_bandwidth=NVLINK_LANE_BANDWIDTH,
        outbound_lanes=0,
        name=f"pcie-only-{num_gpus}gpu",
    )
    return Platform(
        name=f"pcie-only-{num_gpus}gpu",
        gpu=v100_16gb(),
        topology=topo,
        pcie_bandwidth=gbps(16),
    )


# ----------------------------------------------------------------------
# Tiered-memory presets (beyond the paper: HugeCTR-HPS-style hierarchies)
# ----------------------------------------------------------------------
def dram_tier(capacity_bytes: int, bandwidth: float = gbps(16)) -> MemoryTier:
    """Host DRAM reached over PCIe — tier 0 of every chain."""
    return MemoryTier(name="dram", capacity_bytes=capacity_bytes, bandwidth=bandwidth)


def ssd_tier(capacity_bytes: int) -> MemoryTier:
    """NVMe SSD: the terminal capacity tier, ~100 µs per batched read."""
    bw, lat = TIER_KINDS["ssd"]
    return MemoryTier(name="ssd", capacity_bytes=capacity_bytes, bandwidth=bw, latency_s=lat)


def with_tiers(platform: Platform, tiers: tuple[MemoryTier, ...]) -> Platform:
    """``platform`` with its backing chain replaced by ``tiers``."""
    return replace(platform, tiers=tuple(tiers))


def server_a_tiered() -> Platform:
    """Server A as a parameter server: 64 GB DRAM backed by a 1 TB SSD.

    The HPS shape — embedding tables far larger than host DRAM, with the
    cold tail demoted to NVMe.
    """
    base = server_a()
    return with_tiers(
        base,
        (
            dram_tier(64 * GIB, bandwidth=base.pcie_bandwidth),
            ssd_tier(1_000 * GB),
        ),
    )


#: Registry used by benchmarks to iterate the paper's testbeds.
PRESETS = {
    "server-a": server_a,
    "server-b": server_b,
    "server-c": server_c,
}

#: Extension platforms beyond the paper (generalization benchmark).
EXTRA_PLATFORMS = {
    "dgx2": dgx2,
    "pcie-only": pcie_only,
    "server-a-tiered": server_a_tiered,
}
