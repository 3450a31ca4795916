"""Hardware component specifications.

These are declarative descriptions of the GPUs and links that make up a
multi-GPU server.  The extraction simulator (:mod:`repro.sim`) and the cache
policy solver (:mod:`repro.core.solver`) consume only the numbers recorded
here; nothing else in the library knows about a specific GPU model.

Numbers follow the paper's §8.1 testbeds and public datasheets:

* each NVLink lane carries 25 GB/s per direction;
* a V100 has 6 lanes (150 GB/s aggregate outbound), an A100 has 12
  (300 GB/s);
* HBM2(e) local bandwidth ~900 GB/s (V100) / ~1555 GB/s is quoted at
  2039 GB/s for A100-80G, but sustained gather bandwidth is far lower; we
  use the paper's "300 vs 900 GB/s" framing and Figure 6, where local
  bandwidth plateaus around 650-700 GB/s on A100 and ~280 GB/s on V100 for
  gather-style access.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.topology import NVLINK_LANE_BANDWIDTH
from repro.utils.units import GIB, gbps


class LinkKind(enum.Enum):
    """Classes of physical paths an extraction read can traverse."""

    LOCAL = "local"  # GPU reading its own HBM
    NVLINK = "nvlink"  # hard-wired point-to-point lanes
    NVSWITCH = "nvswitch"  # switched fabric, dynamically allocated
    PCIE = "pcie"  # fallback path, also used for host memory


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one GPU.

    Attributes:
        name: marketing name, e.g. ``"V100-16GB"``.
        memory_bytes: HBM capacity usable in total (before workload
            reservations).
        num_cores: number of streaming multiprocessors (SMs).
        local_bandwidth: sustained gather bandwidth from local HBM with all
            SMs active, bytes/second.
        nvlink_lanes: number of NVLink lanes wired out of the GPU, each
            :data:`~repro.hardware.topology.NVLINK_LANE_BANDWIDTH` wide.
    """

    name: str
    memory_bytes: int
    num_cores: int
    local_bandwidth: float
    nvlink_lanes: int

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ValueError(f"{self.name}: memory must be positive")
        if self.num_cores <= 0:
            raise ValueError(f"{self.name}: core count must be positive")
        if self.local_bandwidth <= 0:
            raise ValueError(f"{self.name}: local bandwidth must be positive")
        if self.nvlink_lanes < 0:
            raise ValueError(f"{self.name}: lane count must be non-negative")

    @property
    def outbound_bandwidth(self) -> float:
        """Aggregate NVLink bandwidth out of this GPU, bytes/second."""
        return self.nvlink_lanes * NVLINK_LANE_BANDWIDTH

    @property
    def per_core_bandwidth(self) -> float:
        """Extraction bandwidth one SM sustains, bytes/second.

        Figure 6 shows local bandwidth scaling linearly in the number of
        cores until all SMs are active; the slope is this value.  A link of
        bandwidth ``B`` therefore *tolerates* ``B / per_core_bandwidth``
        concurrent SMs before congesting.
        """
        return self.local_bandwidth / self.num_cores


def v100_16gb() -> GPUSpec:
    """V100 SXM2 16 GB — Server A's GPU."""
    return GPUSpec(
        name="V100-16GB",
        memory_bytes=16 * GIB,
        num_cores=80,
        local_bandwidth=gbps(280),
        nvlink_lanes=6,
    )


def v100_32gb() -> GPUSpec:
    """V100 SXM2 32 GB — Server B's GPU."""
    return GPUSpec(
        name="V100-32GB",
        memory_bytes=32 * GIB,
        num_cores=80,
        local_bandwidth=gbps(280),
        nvlink_lanes=6,
    )


def a100_80gb() -> GPUSpec:
    """A100 SXM4 80 GB — Server C's GPU."""
    return GPUSpec(
        name="A100-80GB",
        memory_bytes=80 * GIB,
        num_cores=108,
        local_bandwidth=gbps(650),
        nvlink_lanes=12,
    )
