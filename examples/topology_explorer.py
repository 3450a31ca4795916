"""Explore the modelled multi-GPU platforms (Figure 3 + Figure 6).

Prints, for each of the paper's three testbeds, the interconnect layout,
per-pair bandwidths, link tolerances (how many SMs saturate each path), and
the Extractor's resulting core-dedication split (§5.3) — then does the same
for a user-defined custom platform to show the model is not preset-bound.

Run:  python examples/topology_explorer.py
"""

from repro.hardware import (
    GPUSpec,
    HOST,
    Platform,
    hardwired_fully_connected,
    server_a,
    server_b,
    server_c,
    tolerance_curves,
)
from repro.sim import core_dedication
from repro.utils.units import GIB, gbps


def describe(platform: Platform) -> None:
    gpu = platform.gpu
    print(f"\n=== {platform.name}: {platform.num_gpus}x {gpu.name} "
          f"({platform.topology.kind.value}) ===")
    print(f"  per-GPU: {gpu.num_cores} SMs, local {gpu.local_bandwidth/1e9:.0f} GB/s, "
          f"outbound {gpu.outbound_bandwidth/1e9:.0f} GB/s; "
          f"PCIe {platform.pcie_bandwidth/1e9:.0f} GB/s")

    print("  pair bandwidth (GB/s) from GPU 0:")
    for j in platform.gpu_ids:
        if j == 0:
            continue
        bw = platform.bandwidth(0, j)
        label = f"{bw/1e9:.1f}" if bw else "unconnected -> host fallback"
        print(f"    G0 <- G{j}: {label}")

    print("  Figure-6 curves (plateau GB/s @ saturating SMs):")
    for curve in tolerance_curves(platform):
        print(f"    {curve.source_label:22s} {curve.plateau_bandwidth/1e9:6.1f} GB/s "
              f"@ {curve.saturation_cores:3d}/{platform.gpu.num_cores} SMs")

    dedication = core_dedication(platform, 0, platform.sources_for(0))
    pretty = {("host" if s == HOST else f"G{s}"): c for s, c in dedication.items()}
    print(f"  FEM core dedication on GPU 0 (§5.3): {pretty} "
          f"(remaining SMs pad local extraction)")

    cliques = platform.topology.cliques()
    if len(cliques) > 1:
        print(f"  NVLink cliques (Quiver's split): {cliques}")


def custom_platform() -> Platform:
    """A hypothetical 6-GPU box with 40 GB GPUs and 5 lanes per pair."""
    gpu = GPUSpec(
        name="Hypo-40GB",
        memory_bytes=40 * GIB,
        num_cores=96,
        local_bandwidth=gbps(500),
        nvlink_lanes=10,
    )
    return Platform(
        name="custom-6gpu",
        gpu=gpu,
        topology=hardwired_fully_connected(6, lanes_per_gpu=10),
        pcie_bandwidth=gbps(20),
    )


def main() -> None:
    for platform in (server_a(), server_b(), server_c(), custom_platform()):
        describe(platform)


if __name__ == "__main__":
    main()
