"""Scaled stand-ins for the paper's GNN datasets (Table 3).

The originals (OGB-Papers100M, Com-Friendster, OGB-MAG240M) are 50-350 GB
and cannot ship here; each stand-in is a synthetic power-law graph scaled
down ~500-1000× that preserves the properties the evaluation exercises:

* the *degree skew* that drives embedding-access skew (PA/MAG high, CF
  low — Figure 14 contrasts exactly this);
* the embedding dim/dtype (MAG is float16 at dim 768, the rest float32);
* the relative embedding-volume-to-GPU-memory ratio, via ``scale``:
  benchmarks shrink GPU cache budgets by the same factor, so cache ratios
  and who-fits-where match the paper's testbeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.gnn.graph import CSRGraph, power_law_graph
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class GnnDatasetSpec:
    """Declarative description of one GNN dataset stand-in."""

    key: str
    paper_name: str
    num_nodes: int
    #: undirected edges to sample (CSR stores both directions)
    num_edges: int
    dim: int
    dtype: str
    degree_alpha: float
    train_fraction: float
    #: linear scale factor vs the paper's dataset (nodes ratio)
    scale: float
    paper_volume_gb: float
    #: Table 3's Volume_G (topology) in the original dataset, GB
    paper_topology_gb: float = 13.0

    @property
    def dtype_bytes(self) -> int:
        return np.dtype(self.dtype).itemsize

    @property
    def entry_bytes(self) -> int:
        return self.dim * self.dtype_bytes

    @property
    def embedding_bytes(self) -> int:
        """Volume_E of the stand-in (scaled)."""
        return self.num_nodes * self.entry_bytes

    @property
    def topology_budget_bytes(self) -> int:
        """GPU memory the topology would occupy, at the paper's
        topology-to-embedding proportion (Table 3's Volume_G/Volume_E).

        The synthetic stand-in graphs are denser than a faithful scale-down,
        so GNNLab's sampler-offload capacity bonus uses the paper's ratio
        rather than the stand-in's raw CSR size.
        """
        return int(self.embedding_bytes * self.paper_topology_gb / self.paper_volume_gb)


@dataclass(frozen=True)
class GnnDataset:
    """A materialized stand-in: graph + train split (+ lazy table)."""

    spec: GnnDatasetSpec
    graph: CSRGraph
    train_ids: np.ndarray


#: The three GNN datasets of Table 3, scaled.  ``num_edges`` is the count
#: of sampled undirected edges; CSR holds 2× that.
GNN_SPECS: dict[str, GnnDatasetSpec] = {
    "pa": GnnDatasetSpec(
        key="pa",
        paper_name="OGB-Papers100M",
        num_nodes=111_000,
        num_edges=3_200_000,
        dim=128,
        dtype="float32",
        degree_alpha=1.20,
        train_fraction=0.15,
        scale=111_000 / 111_000_000,
        paper_volume_gb=53.0,
        paper_topology_gb=12.8,
    ),
    "cf": GnnDatasetSpec(
        key="cf",
        paper_name="Com-Friendster",
        num_nodes=131_000,
        num_edges=3_600_000,
        dim=256,
        dtype="float32",
        degree_alpha=0.55,
        train_fraction=0.15,
        scale=131_000 / 65_600_000,
        paper_volume_gb=62.0,
        paper_topology_gb=14.0,
    ),
    "mag": GnnDatasetSpec(
        key="mag",
        paper_name="OGB-MAG240M",
        num_nodes=232_000,
        num_edges=3_200_000,
        dim=768,
        dtype="float16",
        degree_alpha=1.00,
        train_fraction=0.05,
        scale=232_000 / 232_000_000,
        paper_volume_gb=349.0,
        paper_topology_gb=13.8,
    ),
}


@lru_cache(maxsize=8)
def build_gnn_dataset(key: str) -> GnnDataset:
    """Generate (and memoize) one stand-in dataset."""
    spec = GNN_SPECS.get(key)
    if spec is None:
        raise KeyError(f"unknown GNN dataset {key!r}; have {sorted(GNN_SPECS)}")
    graph = power_law_graph(
        num_nodes=spec.num_nodes,
        num_edges=spec.num_edges,
        degree_alpha=spec.degree_alpha,
        seed=0,
    )
    rng = make_rng(1)
    train_count = max(1, int(spec.train_fraction * spec.num_nodes))
    train_ids = rng.choice(spec.num_nodes, size=train_count, replace=False)
    return GnnDataset(spec=spec, graph=graph, train_ids=np.sort(train_ids))
