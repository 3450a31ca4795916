"""k-hop random neighbourhood sampling (the DGL-style sampler of §8.1).

GraphSAGE uses 2-hop and GCN 3-hop random fanout sampling [49]; the set of
*distinct* sampled vertices per batch is the embedding key set the cache
must serve.  Sampling is fully vectorised: one ``randint`` per hop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gnn.graph import CSRGraph
from repro.utils.arrays import sorted_unique
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class SampledBatch:
    """One mini-batch's sampled neighbourhood.

    ``all_nodes`` keeps duplicates: the paper's ``extract`` function reads
    one entry per *key occurrence* (no dedup — §3.2's pseudocode), which
    is why its batches reach "the million level" and why hub embeddings
    dominate extraction volume.
    """

    seeds: np.ndarray
    #: every sampled vertex occurrence, seeds included (duplicates kept)
    all_nodes: np.ndarray
    #: deduplicated view (what a dedup-optimized loader would fetch)
    unique_nodes: np.ndarray


def sample_neighbors(
    graph: CSRGraph,
    frontier: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample up to ``fanout`` random neighbours of each frontier node.

    Nodes with fewer than ``fanout`` neighbours contribute samples with
    replacement (DGL's default); zero-degree nodes contribute nothing.
    """
    if fanout <= 0:
        raise ValueError("fanout must be positive")
    frontier = np.asarray(frontier, dtype=np.int64)
    starts = graph.indptr[frontier]
    degs = graph.indptr[frontier + 1] - starts
    alive = degs > 0
    if not alive.any():
        return np.empty(0, dtype=np.int64)
    starts = starts[alive]
    degs = degs[alive]
    offsets = rng.integers(0, degs[:, None], size=(len(degs), fanout))
    return graph.indices[(starts[:, None] + offsets).ravel()]


def khop_sample(
    graph: CSRGraph,
    seeds: np.ndarray,
    fanouts: tuple[int, ...],
    seed: int | np.random.Generator = 0,
) -> SampledBatch:
    """Expand ``seeds`` by random fanout sampling, one hop per entry.

    Returns the union of all hops' vertices — the embedding keys of the
    batch.  The frontier of each hop is the previous hop's *samples*
    (with duplicates), matching layered GraphSAGE sampling.
    """
    rng = make_rng(seed)
    seeds = np.asarray(seeds, dtype=np.int64)
    collected = [seeds]
    frontier = seeds
    for fanout in fanouts:
        sampled = sample_neighbors(graph, frontier, fanout, rng)
        collected.append(sampled)
        frontier = sampled
        if frontier.size == 0:
            break
    all_nodes = np.concatenate(collected)
    return SampledBatch(
        seeds=seeds, all_nodes=all_nodes, unique_nodes=sorted_unique(all_nodes)
    )


def negative_sample(
    num_nodes: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform negative samples for unsupervised (link-prediction) training.

    Uniform sampling is what reduces access skew in unsupervised GNN —
    the effect behind the paper's larger win over GNNLab there (§8.2).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return rng.integers(0, num_nodes, size=count)
