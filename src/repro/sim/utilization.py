"""Link-utilization accounting during extraction — paper Figure 13.

The paper measures PCIe and NVLink busy fractions with Nsight during
embedding extraction, showing that FEM raises utilization by avoiding core
stalls (PCIe ×1.91, NVLink ×3.47 on average).  We compute the same
quantity analytically: for each link class, the time the wire is actually
moving bytes divided by the batch extraction time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.platform import Platform
from repro.sim.engine import BatchReport


@dataclass(frozen=True)
class LinkUtilization:
    """Busy fractions (0..1) of each link class during one batch."""

    pcie: float
    nvlink: float


def batch_utilization(platform: Platform, report: BatchReport) -> LinkUtilization:
    """Average PCIe and NVLink utilization over one batch.

    For each GPU the wire-busy time of a link class is the bytes moved over
    it divided by its peak bandwidth; dividing by the batch time gives the
    utilization the profiler would sample.  NVLink capacity is each GPU's
    inbound NVLink bandwidth (the fabric share actually reachable by its
    reads), so a mechanism that stalls cores — stretching batch time
    without moving more bytes — shows up as low utilization, exactly as in
    the paper's measurement.
    """
    total_time = report.time
    if total_time <= 0:
        return LinkUtilization(pcie=0.0, nvlink=0.0)

    pcie_fracs: list[float] = []
    nvlink_fracs: list[float] = []
    for gpu_report in report.per_gpu:
        dst = gpu_report.dst
        host_bytes = gpu_report.volume_host()
        pcie_fracs.append(host_bytes / platform.pcie_bandwidth / total_time)

        remote_bytes = gpu_report.volume_remote()
        inbound_bw = sum(
            platform.bandwidth(dst, src) for src in platform.topology.peers(dst)
        )
        if inbound_bw > 0:
            nvlink_fracs.append(remote_bytes / inbound_bw / total_time)

    pcie = min(1.0, sum(pcie_fracs) / len(pcie_fracs)) if pcie_fracs else 0.0
    nvlink = min(1.0, sum(nvlink_fracs) / len(nvlink_fracs)) if nvlink_fracs else 0.0
    return LinkUtilization(pcie=pcie, nvlink=nvlink)
