"""GNN substrate: CSR graphs, k-hop sampling, training workloads, models."""

from repro.gnn.graph import CSRGraph, power_law_graph
from repro.gnn.models import (
    GCN,
    GRAPHSAGE,
    GnnModelSpec,
    dense_time_per_iteration,
    model_for_mode,
    sampling_time_per_iteration,
)
from repro.gnn.nn import FanoutTree, GraphSageModel, sample_tree
from repro.gnn.sampling import SampledBatch, khop_sample, negative_sample, sample_neighbors
from repro.gnn.workload import DEFAULT_FANOUTS, GnnWorkload

__all__ = [
    "FanoutTree",
    "GraphSageModel",
    "sample_tree",
    "CSRGraph",
    "power_law_graph",
    "GCN",
    "GRAPHSAGE",
    "GnnModelSpec",
    "dense_time_per_iteration",
    "model_for_mode",
    "sampling_time_per_iteration",
    "SampledBatch",
    "khop_sample",
    "negative_sample",
    "sample_neighbors",
    "DEFAULT_FANOUTS",
    "GnnWorkload",
]
