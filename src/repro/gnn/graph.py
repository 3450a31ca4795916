"""Compressed-sparse-row graph storage for the GNN substrate.

The paper's GNN workloads (GraphSAGE/GCN over OGB graphs) need only two
graph operations: neighbour access for k-hop sampling and degrees for the
PaGraph-style hotness estimate.  A minimal immutable CSR covers both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng


@dataclass(frozen=True)
class CSRGraph:
    """Immutable directed graph in CSR form.

    ``indptr`` has length ``num_nodes + 1``; the out-neighbours of node
    ``u`` are ``indices[indptr[u]:indptr[u+1]]``.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if len(indptr) < 1 or indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if (np.diff(indptr) < 0).any():
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= len(indptr) - 1):
            raise ValueError("neighbour index out of range")
        indptr.setflags(write=False)
        indices.setflags(write=False)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def degrees(self) -> np.ndarray:
        """Out-degree of every node."""
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    @staticmethod
    def from_edges(num_nodes: int, src: np.ndarray, dst: np.ndarray) -> "CSRGraph":
        """Build a CSR graph from parallel edge-endpoint arrays."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src/dst must have the same length")
        if src.size and (
            min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= num_nodes
        ):
            raise ValueError("edge endpoint out of range")
        order = np.argsort(src, kind="stable")
        sorted_src = src[order]
        sorted_dst = dst[order]
        counts = np.bincount(sorted_src, minlength=num_nodes)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return CSRGraph(indptr=indptr, indices=sorted_dst)


def power_law_graph(
    num_nodes: int,
    num_edges: int,
    degree_alpha: float = 0.8,
    seed: int | np.random.Generator = 0,
) -> CSRGraph:
    """Generate a Chung-Lu style power-law graph.

    Endpoints are drawn from a rank-Zipf weight distribution with exponent
    ``degree_alpha`` (higher → more skewed degrees → more skewed embedding
    access, the property PA/MAG exhibit and CF exhibits less).  Every
    sampled edge is inserted in both directions, matching the OGB
    preprocessing into undirected homogeneous graphs.

    Self-loops are removed; parallel edges are kept (they only bias
    sampling slightly, as in real multigraph datasets).
    """
    if num_nodes <= 1:
        raise ValueError("need at least two nodes")
    if num_edges < 0:
        raise ValueError("edge count must be non-negative")
    rng = make_rng(seed)
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    weights = ranks**-degree_alpha
    weights /= weights.sum()
    # Hot endpoints: weighted; the other side: uniform-ish mixture, which
    # keeps hubs connected to the periphery like citation graphs.
    src = rng.choice(num_nodes, size=num_edges, p=weights)
    dst = rng.choice(num_nodes, size=num_edges, p=weights)
    # Degree floor: every node gets one edge to a weighted partner, so no
    # vertex is unreachable (matching real datasets, where isolated
    # vertices are dropped in preprocessing).  This keeps the embedding
    # universe's access support wide — the long tail of Figure 2.
    floor_src = np.arange(num_nodes)
    floor_dst = rng.choice(num_nodes, size=num_nodes, p=weights)
    src = np.concatenate([src, floor_src])
    dst = np.concatenate([dst, floor_dst])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    # Shuffle node identities so hotness is not correlated with node id
    # (real datasets' ids carry no hotness order).
    perm = rng.permutation(num_nodes)
    return CSRGraph.from_edges(num_nodes, perm[src], perm[dst])
