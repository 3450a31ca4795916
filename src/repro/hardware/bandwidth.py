"""Core-count bandwidth model — the Figure 6 microbenchmark.

Figure 6 measures, for one destination GPU, the extraction bandwidth
achieved from each source (local HBM, a remote GPU, host DRAM) as a
function of the number of SMs participating.  The observed shape is linear
scaling at ``per_core_bandwidth`` per SM until the path's peak bandwidth,
then a flat plateau: extra SMs add nothing and merely stall.

This module exposes that curve so the microbenchmark can be regenerated
and so the simulator and tests share one definition of "link tolerance".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.platform import HOST, Platform


def achieved_bandwidth(
    platform: Platform,
    dst: int,
    src: int,
    num_cores: int,
    concurrent_readers: int = 1,
) -> float:
    """Bandwidth GPU ``dst`` achieves reading ``src`` with ``num_cores`` SMs.

    ``concurrent_readers`` models the right half of Figure 6(b): on a
    switch platform, ``k`` GPUs simultaneously pulling from the same source
    share its outbound bandwidth, so each reader's plateau drops to
    ``outbound / k``.  Hard-wired pair links are physically dedicated, so
    the parameter has no effect there (or for local/host paths).
    """
    if num_cores < 0:
        raise ValueError("core count must be non-negative")
    if concurrent_readers < 1:
        raise ValueError("at least one reader must be present")
    num_cores = min(num_cores, platform.gpu.num_cores)
    linear = num_cores * platform.gpu.per_core_bandwidth
    peak = platform.peak_pair_bandwidth(dst, src)
    if src not in (dst, HOST) and platform.topology.kind.value == "switch":
        peak = peak / concurrent_readers
    return float(min(linear, peak))


@dataclass(frozen=True)
class ToleranceCurve:
    """A sampled Figure-6 curve: bandwidth vs number of cores."""

    source_label: str
    cores: np.ndarray
    bandwidth: np.ndarray

    @property
    def plateau_bandwidth(self) -> float:
        """Peak sustained bandwidth of this path, bytes/second."""
        return float(self.bandwidth.max(initial=0.0))

    @property
    def saturation_cores(self) -> int:
        """Smallest sampled core count reaching ≥99% of the plateau."""
        plateau = self.plateau_bandwidth
        if plateau <= 0:
            return 0
        mask = self.bandwidth >= 0.99 * plateau
        return int(self.cores[np.argmax(mask)])


def tolerance_curves(
    platform: Platform, concurrent_readers: int = 1
) -> list[ToleranceCurve]:
    """Regenerate Figure 6 for a platform: one curve per source class, as
    GPU 0 sees them.

    Returns curves for host (``CPU``), local HBM (``Local``), and one
    representative remote GPU per distinct pair bandwidth (hard-wired
    platforms have several; a switch platform has one).
    """
    dst = 0
    cores = np.arange(0, platform.gpu.num_cores + 1)
    curves = [
        _sample(platform, dst, HOST, cores, "CPU", 1),
        _sample(platform, dst, dst, cores, "Local", 1),
    ]
    seen_bandwidths: set[float] = set()
    for src in platform.topology.peers(dst):
        pair_bw = platform.peak_pair_bandwidth(dst, src)
        if pair_bw in seen_bandwidths:
            continue
        seen_bandwidths.add(pair_bw)
        curves.append(
            _sample(
                platform,
                dst,
                src,
                cores,
                f"Remote(G{dst}<-G{src})",
                concurrent_readers,
            )
        )
    return curves


def _sample(
    platform: Platform,
    dst: int,
    src: int,
    cores: np.ndarray,
    label: str,
    concurrent_readers: int,
) -> ToleranceCurve:
    bandwidth = np.array(
        [
            achieved_bandwidth(platform, dst, src, int(c), concurrent_readers)
            for c in cores
        ]
    )
    return ToleranceCurve(source_label=label, cores=cores, bandwidth=bandwidth)
