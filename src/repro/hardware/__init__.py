"""Hardware substrate: GPU specs, interconnect topologies, platform presets.

The paper's evaluation spans three servers (§8.1); :func:`server_a`,
:func:`server_b` and :func:`server_c` reproduce them declaratively.  All
performance modelling elsewhere in the library consumes only the numbers
exposed by :class:`Platform`.
"""

from repro.hardware.bandwidth import ToleranceCurve, achieved_bandwidth, tolerance_curves
from repro.hardware.memory import OutOfDeviceMemory, SlotArena
from repro.hardware.platform import (
    HOST,
    PRESETS,
    MemoryTier,
    Platform,
    parse_tier_spec,
    server_a,
    server_a_tiered,
    server_b,
    server_c,
    single_gpu,
    with_tiers,
)
from repro.hardware.spec import GPUSpec, LinkKind, a100_80gb, v100_16gb, v100_32gb
from repro.hardware.topology import (
    Topology,
    TopologyKind,
    dgx1_8gpu,
    hardwired_fully_connected,
    nvswitch,
)

__all__ = [
    "HOST",
    "PRESETS",
    "MemoryTier",
    "Platform",
    "parse_tier_spec",
    "server_a",
    "server_a_tiered",
    "server_b",
    "server_c",
    "single_gpu",
    "with_tiers",
    "GPUSpec",
    "LinkKind",
    "a100_80gb",
    "v100_16gb",
    "v100_32gb",
    "Topology",
    "TopologyKind",
    "dgx1_8gpu",
    "hardwired_fully_connected",
    "nvswitch",
    "SlotArena",
    "OutOfDeviceMemory",
    "ToleranceCurve",
    "achieved_bandwidth",
    "tolerance_curves",
]
