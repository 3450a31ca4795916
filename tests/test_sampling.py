"""k-hop neighbourhood sampling."""

import numpy as np
import pytest

from repro.gnn.graph import power_law_graph
from repro.gnn.sampling import khop_sample, negative_sample, sample_neighbors
from repro.utils.rng import make_rng


@pytest.fixture
def graph():
    return power_law_graph(500, 3000, degree_alpha=0.8, seed=0)


class TestSampleNeighbors:
    def test_samples_are_neighbors(self, graph):
        frontier = np.array([0, 1, 2])
        out = sample_neighbors(graph, frontier, 5, make_rng(0))
        neighborhood = set()
        for u in frontier:
            neighborhood.update(graph.neighbors(int(u)).tolist())
        assert set(out.tolist()) <= neighborhood

    def test_fanout_respected(self, graph):
        frontier = np.array([0, 1])
        out = sample_neighbors(graph, frontier, 7, make_rng(0))
        assert len(out) == 14  # degree floor guarantees non-empty adjacency

    def test_zero_degree_nodes_skipped(self):
        from repro.gnn.graph import CSRGraph

        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]))
        out = sample_neighbors(g, np.array([2]), 4, make_rng(0))
        assert out.size == 0

    def test_empty_frontier(self, graph):
        out = sample_neighbors(graph, np.empty(0, dtype=np.int64), 3, make_rng(0))
        assert out.size == 0

    def test_rejects_bad_fanout(self, graph):
        with pytest.raises(ValueError):
            sample_neighbors(graph, np.array([0]), 0, make_rng(0))


class TestKhopSample:
    def test_includes_seeds(self, graph):
        seeds = np.array([5, 10, 15])
        batch = khop_sample(graph, seeds, (4, 2), seed=1)
        assert set(seeds.tolist()) <= set(batch.unique_nodes.tolist())
        assert np.array_equal(batch.all_nodes[:3], seeds)

    def test_all_nodes_counts_duplicates(self, graph):
        seeds = np.array([0] * 10)
        batch = khop_sample(graph, seeds, (5,), seed=1)
        # 10 seeds + 10×5 neighbour samples.
        assert len(batch.all_nodes) == 60

    def test_unique_nodes_deduplicated(self, graph):
        seeds = np.array([0] * 10)
        batch = khop_sample(graph, seeds, (5,), seed=1)
        assert len(batch.unique_nodes) < len(batch.all_nodes)
        assert len(np.unique(batch.unique_nodes)) == len(batch.unique_nodes)

    def test_deeper_fanouts_sample_more(self, graph):
        seeds = np.arange(20)
        one = khop_sample(graph, seeds, (5,), seed=2)
        two = khop_sample(graph, seeds, (5, 5), seed=2)
        assert len(two.all_nodes) > len(one.all_nodes)

    def test_deterministic(self, graph):
        seeds = np.arange(10)
        a = khop_sample(graph, seeds, (4, 3), seed=9)
        b = khop_sample(graph, seeds, (4, 3), seed=9)
        assert np.array_equal(a.all_nodes, b.all_nodes)

    def test_empty_seeds(self, graph):
        batch = khop_sample(graph, np.empty(0, dtype=np.int64), (4,), seed=0)
        assert len(batch.all_nodes) == 0


class TestNegativeSample:
    def test_range(self):
        out = negative_sample(100, 1000, make_rng(0))
        assert out.min() >= 0 and out.max() < 100

    def test_count(self):
        assert len(negative_sample(100, 17, make_rng(0))) == 17

    def test_roughly_uniform(self):
        out = negative_sample(10, 100_000, make_rng(0))
        counts = np.bincount(out, minlength=10)
        assert counts.min() > 8000  # each value ~10k ± noise

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            negative_sample(10, -1, make_rng(0))
