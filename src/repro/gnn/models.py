"""Dense-layer cost models for the GNN applications (GCN / GraphSAGE).

The paper treats the dense portion (message passing + MLP) as a fixed
per-iteration term — Table 1 measures 10.6 ms of MLP time against 113 ms of
embedding extraction — and varies only the embedding side.  We model dense
time from FLOP counts and per-GPU throughput so the end-to-end figures keep
the right extraction-vs-compute proportions on every testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.platform import Platform

#: Sustained mixed-precision training throughput (FLOP/s) by GPU model.
#: Calibrated against Table 1: the paper's 10.6 ms MLP time at ~800k
#: sampled vertices of dim 768 implies tensor-core-class throughput, not
#: fp32 CUDA-core rates.
_GPU_THROUGHPUT = {
    "V100-16GB": 40.0e12,
    "V100-32GB": 40.0e12,
    "A100-80GB": 100.0e12,
}

#: Fixed per-iteration overhead (kernel launches, optimizer step, allreduce
#: of the small dense model), seconds.  The real value is ~2 ms at the
#: paper's batch 8K; our GNN stand-ins are ~1000× scaled, so the constant
#: is scaled accordingly to preserve the extraction-vs-compute proportions
#: of Table 1.
_ITERATION_OVERHEAD = 2.0e-6


#: Per-layer width of both models.
HIDDEN = 256


@dataclass(frozen=True)
class GnnModelSpec:
    """Compute shape of one GNN model.

    ``layers`` is the number of message-passing layers (= hops), each
    :data:`HIDDEN` wide.  The FLOP estimate covers forward and backward
    over the sampled neighbourhood.
    """

    name: str
    layers: int = 2

    def flops_per_iteration(self, sampled_vertices: int, input_dim: int) -> float:
        """Approximate training FLOPs for one iteration on one GPU."""
        # First layer projects input_dim -> hidden over every sampled
        # vertex; deeper layers shrink the frontier roughly geometrically.
        flops = 0.0
        width_in = input_dim
        vertices = float(sampled_vertices)
        for _ in range(self.layers):
            flops += 2.0 * vertices * width_in * HIDDEN
            width_in = HIDDEN
            vertices = max(vertices / 8.0, 1.0)
        return 3.0 * flops  # forward + backward ≈ 3× forward


GCN = GnnModelSpec(name="gcn", layers=3)
GRAPHSAGE = GnnModelSpec(name="graphsage", layers=2)


def model_for_mode(mode: str) -> GnnModelSpec:
    """Map a workload mode (§8.1) to its model spec."""
    if mode == "gcn":
        return GCN
    if mode in ("sage-sup", "sage-unsup"):
        return GRAPHSAGE
    raise ValueError(f"unknown GNN mode {mode!r}")


def dense_time_per_iteration(
    platform: Platform,
    model: GnnModelSpec,
    sampled_vertices: int,
    input_dim: int,
) -> float:
    """Seconds of dense compute per training iteration on this platform."""
    throughput = _GPU_THROUGHPUT.get(platform.gpu.name)
    if throughput is None:
        raise ValueError(f"no throughput calibration for {platform.gpu.name}")
    flops = model.flops_per_iteration(sampled_vertices, input_dim)
    return flops / throughput + _ITERATION_OVERHEAD


def sampling_time_per_iteration(
    platform: Platform, sampled_vertices: int
) -> float:
    """Seconds of GPU-based graph sampling per iteration.

    Sampling is a memory-bound random gather over the topology; we charge
    two 8-byte reads per sampled vertex at local HBM bandwidth plus a
    launch overhead.  This keeps sampling a visible but non-dominant term,
    as in the paper's breakdowns.
    """
    bytes_read = 16.0 * sampled_vertices
    return bytes_read / platform.gpu.local_bandwidth + 0.5e-6
