"""CSR graph storage and the power-law generator."""

import numpy as np
import pytest

from repro.gnn.graph import CSRGraph, power_law_graph


class TestCSRGraph:
    def test_from_edges_roundtrip(self):
        g = CSRGraph.from_edges(4, np.array([0, 0, 2]), np.array([1, 3, 0]))
        assert g.num_nodes == 4
        assert g.num_edges == 3
        assert sorted(g.neighbors(0).tolist()) == [1, 3]
        assert g.neighbors(2).tolist() == [0]
        assert g.neighbors(1).size == 0

    def test_degrees(self):
        g = CSRGraph.from_edges(3, np.array([0, 0, 1]), np.array([1, 2, 2]))
        assert g.degrees().tolist() == [2, 1, 0]

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, np.array([0]), np.array([2]))

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, np.array([0, 1]), np.array([1]))

    def test_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0]))

    def test_immutable(self):
        g = CSRGraph.from_edges(2, np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            g.indices[0] = 0


class TestPowerLawGraph:
    def test_deterministic(self):
        a = power_law_graph(500, 2000, seed=5)
        b = power_law_graph(500, 2000, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_seed_changes_graph(self):
        a = power_law_graph(500, 2000, seed=5)
        b = power_law_graph(500, 2000, seed=6)
        assert not np.array_equal(a.indices, b.indices)

    def test_symmetric_by_default(self):
        g = power_law_graph(200, 1000, seed=0)
        # Spot-check: every edge has its reverse.
        for u in range(0, 200, 37):
            for v in g.neighbors(u)[:5]:
                assert u in g.neighbors(int(v))

    def test_degree_floor(self):
        g = power_law_graph(300, 500, degree_alpha=1.5, seed=1)
        assert g.degrees().min() >= 1

    def test_higher_alpha_more_skewed_degrees(self):
        flat = power_law_graph(1000, 10_000, degree_alpha=0.3, seed=2)
        steep = power_law_graph(1000, 10_000, degree_alpha=1.4, seed=2)
        assert steep.degrees().max() > flat.degrees().max()

    def test_no_self_loops(self):
        g = power_law_graph(100, 1000, seed=3)
        for u in range(100):
            assert u not in g.neighbors(u)

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError):
            power_law_graph(1, 10)

    def test_rejects_negative_edges(self):
        with pytest.raises(ValueError):
            power_law_graph(10, -1)
