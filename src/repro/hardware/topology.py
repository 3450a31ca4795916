"""GPU interconnect topologies (paper Figure 3).

A :class:`Topology` records, for every ordered GPU pair, the point-to-point
bandwidth an extraction read can use, and whether the platform is hard-wired
(bandwidth physically partitioned per pair) or switch-based (bandwidth
dynamically allocated by an NVSwitch, subject to inbound/outbound caps).

Three presets reproduce the paper's testbeds:

* :func:`hardwired_fully_connected` — Figure 3(a), e.g. 4×V100 where each
  GPU's 6 lanes split evenly into 2 lanes (50 GB/s) per peer;
* :func:`dgx1_8gpu` — Figure 3(b), the DGX-1 8×V100 board with non-uniform
  lane counts and *unconnected* pairs that fall back to PCIe;
* :func:`nvswitch` — Figure 3(c), e.g. DGX-A100 where every pair is
  reachable at full outbound bandwidth but concurrent readers of one GPU
  share its outbound capacity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

#: NVLink per-lane bandwidth, bytes/second (25 GB/s, V100 and A100 alike).
NVLINK_LANE_BANDWIDTH = 25e9


class TopologyKind(enum.Enum):
    """How inter-GPU bandwidth is provisioned."""

    HARDWIRED = "hardwired"
    SWITCH = "switch"


@dataclass(frozen=True)
class Topology:
    """Interconnect description for ``num_gpus`` GPUs.

    Attributes:
        kind: hard-wired or switch-based.
        lane_counts: ``(G, G)`` integer matrix; entry ``[i, j]`` is the
            number of NVLink lanes between GPU ``i`` and GPU ``j`` (0 means
            the pair is unconnected and must use PCIe).  For switch
            topologies this holds each GPU's full lane count for every
            reachable peer, because the switch can allocate the whole
            outbound bandwidth to a single flow.
        lane_bandwidth: bytes/second per lane.
        outbound_lanes: lanes wired from each GPU into the fabric; caps the
            *sum* of concurrent flows out of one GPU.
    """

    kind: TopologyKind
    lane_counts: np.ndarray
    lane_bandwidth: float
    outbound_lanes: int
    name: str = field(default="custom")

    def __post_init__(self) -> None:
        lanes = np.asarray(self.lane_counts)
        if lanes.ndim != 2 or lanes.shape[0] != lanes.shape[1]:
            raise ValueError(f"lane_counts must be square, got {lanes.shape}")
        if (lanes < 0).any():
            raise ValueError("lane counts must be non-negative")
        if not np.array_equal(lanes, lanes.T):
            raise ValueError("lane_counts must be symmetric")
        if np.diagonal(lanes).any():
            raise ValueError("diagonal lane counts must be zero (local is not a link)")
        if self.lane_bandwidth <= 0:
            raise ValueError("lane bandwidth must be positive")
        # Freeze the array so a frozen dataclass is actually immutable.
        lanes = lanes.astype(np.int64)
        lanes.setflags(write=False)
        object.__setattr__(self, "lane_counts", lanes)

    @property
    def num_gpus(self) -> int:
        return int(self.lane_counts.shape[0])

    def connected(self, i: int, j: int) -> bool:
        """Whether GPUs ``i`` and ``j`` have a fast path (not PCIe)."""
        if i == j:
            return True
        return bool(self.lane_counts[i, j] > 0)

    def pair_bandwidth(self, i: int, j: int) -> float:
        """Point-to-point bandwidth from GPU ``j`` to GPU ``i``, bytes/s.

        Returns 0.0 for unconnected pairs; callers fall back to PCIe.
        On a switch platform this is the *uncontended* bandwidth; the
        simulator applies inbound-collision sharing separately.
        """
        if i == j:
            raise ValueError("pair_bandwidth is undefined for a GPU with itself")
        return float(self.lane_counts[i, j]) * self.lane_bandwidth

    def outbound_bandwidth(self, j: int) -> float:
        """Total bandwidth other GPUs can concurrently pull from GPU ``j``."""
        if self.kind is TopologyKind.SWITCH:
            return self.outbound_lanes * self.lane_bandwidth
        return float(self.lane_counts[j].sum()) * self.lane_bandwidth

    def peers(self, i: int) -> list[int]:
        """GPUs directly reachable from ``i`` over NVLink/NVSwitch."""
        return [j for j in range(self.num_gpus) if j != i and self.connected(i, j)]

    def cliques(self) -> list[list[int]]:
        """Partition GPUs into maximal fully-connected groups.

        This is the grouping Quiver's clique cache policy uses on DGX-1
        (two quads).  Greedy construction is exact for the regular
        topologies modelled here and deterministic for tests.
        """
        remaining = list(range(self.num_gpus))
        groups: list[list[int]] = []
        while remaining:
            seed = remaining.pop(0)
            group = [seed]
            for cand in list(remaining):
                if all(self.connected(cand, member) for member in group):
                    group.append(cand)
                    remaining.remove(cand)
            groups.append(group)
        return groups


def hardwired_fully_connected(
    num_gpus: int, lanes_per_gpu: int = 6
) -> Topology:
    """Uniform all-to-all hard-wired topology (Figure 3(a)).

    Each GPU's ``lanes_per_gpu`` lanes are split evenly among its
    ``num_gpus - 1`` peers, e.g. 4×V100: 6 lanes / 3 peers = 2 lanes
    (50 GB/s) per pair.
    """
    if num_gpus < 2:
        raise ValueError("need at least two GPUs for an interconnect")
    if lanes_per_gpu % (num_gpus - 1) != 0:
        raise ValueError(
            f"{lanes_per_gpu} lanes cannot split evenly across {num_gpus - 1} peers"
        )
    per_pair = lanes_per_gpu // (num_gpus - 1)
    lanes = np.full((num_gpus, num_gpus), per_pair, dtype=np.int64)
    np.fill_diagonal(lanes, 0)
    return Topology(
        kind=TopologyKind.HARDWIRED,
        lane_counts=lanes,
        lane_bandwidth=NVLINK_LANE_BANDWIDTH,
        outbound_lanes=lanes_per_gpu,
        name=f"hardwired-{num_gpus}gpu",
    )


#: DGX-1 (V100) lane map: two fully connected quads {0..3} and {4..7} with
#: one double-lane cross link per GPU.  Lane counts per the NVLink2 board
#: wiring; every GPU uses exactly its 6 ports.  Pairs like (0, 5) are
#: unconnected and fall back to PCIe — the case PartU's clique split exists
#: to avoid.
_DGX1_EDGES: tuple[tuple[int, int, int], ...] = (
    (0, 1, 1),
    (0, 2, 1),
    (0, 3, 2),
    (1, 2, 2),
    (1, 3, 1),
    (2, 3, 1),
    (4, 5, 1),
    (4, 6, 1),
    (4, 7, 2),
    (5, 6, 2),
    (5, 7, 1),
    (6, 7, 1),
    (0, 4, 2),
    (1, 5, 2),
    (2, 6, 2),
    (3, 7, 2),
)


def dgx1_8gpu() -> Topology:
    """The non-uniform 8×V100 DGX-1 topology (Figure 3(b))."""
    lanes = np.zeros((8, 8), dtype=np.int64)
    for a, b, count in _DGX1_EDGES:
        lanes[a, b] = count
        lanes[b, a] = count
    return Topology(
        kind=TopologyKind.HARDWIRED,
        lane_counts=lanes,
        lane_bandwidth=NVLINK_LANE_BANDWIDTH,
        outbound_lanes=6,
        name="dgx1-8xV100",
    )


def nvswitch(num_gpus: int, lanes_per_gpu: int = 12) -> Topology:
    """Switch-based topology (Figure 3(c)), e.g. DGX-A100.

    Every pair is reachable; a single flow can use the GPU's entire
    outbound bandwidth, but concurrent readers of one GPU share it.
    """
    if num_gpus < 2:
        raise ValueError("need at least two GPUs for an interconnect")
    lanes = np.full((num_gpus, num_gpus), lanes_per_gpu, dtype=np.int64)
    np.fill_diagonal(lanes, 0)
    return Topology(
        kind=TopologyKind.SWITCH,
        lane_counts=lanes,
        lane_bandwidth=NVLINK_LANE_BANDWIDTH,
        outbound_lanes=lanes_per_gpu,
        name=f"nvswitch-{num_gpus}gpu",
    )
