"""Dense-layer cost models for DLR inference (DLRM and DCN, §8.1).

DLRM runs six MLP layers over the concatenated embeddings plus dense
features [36, 43]; DCN adds a Cross layer [41].  As in the GNN case the
paper holds the dense side fixed and varies embedding extraction, so we
charge FLOP-derived per-iteration times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.platform import Platform

_GPU_THROUGHPUT = {
    "V100-16GB": 8.0e12,
    "V100-32GB": 8.0e12,
    "A100-80GB": 16.0e12,
}

#: Kernel-launch / framework overhead per inference iteration, seconds.
_ITERATION_OVERHEAD = 1.0e-3


#: The top MLP both models share: depth and width.
MLP_LAYERS = 6
MLP_WIDTH = 512


@dataclass(frozen=True)
class DlrModelSpec:
    """Compute shape of one DLR model: the shared top MLP plus
    ``cross_layers`` of DCN cross network (0 for DLRM)."""

    name: str
    cross_layers: int = 0

    def flops_per_request(self, num_tables: int, dim: int) -> float:
        """Inference FLOPs for one sample."""
        feature_width = num_tables * dim
        flops = 2.0 * feature_width * MLP_WIDTH  # input projection
        flops += 2.0 * MLP_WIDTH * MLP_WIDTH * max(MLP_LAYERS - 1, 0)
        flops += 4.0 * feature_width * self.cross_layers  # cross layers
        return flops


DLRM = DlrModelSpec(name="dlrm", cross_layers=0)
DCN = DlrModelSpec(name="dcn", cross_layers=3)


def model_by_name(name: str) -> DlrModelSpec:
    """Look up a DLR model spec by name (``dlrm`` or ``dcn``)."""
    if name == "dlrm":
        return DLRM
    if name == "dcn":
        return DCN
    raise ValueError(f"unknown DLR model {name!r}")


def dense_time_per_iteration(
    platform: Platform,
    model: DlrModelSpec,
    batch_size: int,
    num_tables: int,
    dim: int,
) -> float:
    """Seconds of dense inference compute per iteration on one GPU."""
    throughput = _GPU_THROUGHPUT.get(platform.gpu.name)
    if throughput is None:
        raise ValueError(f"no throughput calibration for {platform.gpu.name}")
    flops = batch_size * model.flops_per_request(num_tables, dim)
    return flops / throughput + _ITERATION_OVERHEAD
