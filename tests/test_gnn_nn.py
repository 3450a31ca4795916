"""Numpy GraphSAGE: tree sampling, forward/backward, training."""

import numpy as np
import pytest

from repro.gnn.graph import power_law_graph
from repro.gnn.nn import GraphSageModel, sample_tree


@pytest.fixture
def graph():
    return power_law_graph(400, 3000, degree_alpha=0.8, seed=0)


@pytest.fixture
def tree(graph):
    return sample_tree(graph, np.arange(16), fanouts=(4, 3), seed=1)


def _features_for(tree, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((1000, dim)).astype(np.float64)
    return [table[nodes] for nodes in tree.nodes], table


class TestSampleTree:
    def test_shape_per_depth(self, tree):
        assert len(tree.nodes[0]) == 16
        assert len(tree.nodes[1]) == 16 * 4
        assert len(tree.nodes[2]) == 16 * 4 * 3

    def test_children_are_neighbors_or_self(self, graph, tree):
        for i, parent in enumerate(tree.nodes[0]):
            children = tree.nodes[1][i * 4 : (i + 1) * 4]
            nbrs = set(graph.neighbors(int(parent)).tolist()) | {int(parent)}
            assert set(children.tolist()) <= nbrs

    def test_all_keys_counts_duplicates(self, tree):
        assert len(tree.all_keys()) == 16 + 64 + 192

    def test_deterministic(self, graph):
        a = sample_tree(graph, np.arange(8), (3,), seed=5)
        b = sample_tree(graph, np.arange(8), (3,), seed=5)
        assert np.array_equal(a.nodes[1], b.nodes[1])

    def test_features_by_depth_scatter(self, tree):
        keys = tree.all_keys()
        unique = np.unique(keys)
        rng = np.random.default_rng(0)
        values = rng.standard_normal((len(unique), 8))
        feats = tree.features_by_depth(unique, values)
        lookup = {int(k): i for i, k in enumerate(unique)}
        for depth in range(3):
            rows = [lookup[int(v)] for v in tree.nodes[depth][:10]]
            assert np.allclose(feats[depth][:10], values[rows])


class TestForward:
    def test_logit_shape(self, tree):
        feats, _ = _features_for(tree)
        model = GraphSageModel(8, 16, num_levels=2, num_classes=5)
        logits, _ = model.forward(tree, feats)
        assert logits.shape == (16, 5)

    def test_depth_mismatch_rejected(self, tree):
        feats, _ = _features_for(tree)
        model = GraphSageModel(8, 16, num_levels=3, num_classes=5)
        with pytest.raises(ValueError):
            model.forward(tree, feats)

    def test_deterministic_given_seed(self, tree):
        feats, _ = _features_for(tree)
        a = GraphSageModel(8, 16, 2, 5, seed=3).forward(tree, feats)[0]
        b = GraphSageModel(8, 16, 2, 5, seed=3).forward(tree, feats)[0]
        assert np.allclose(a, b)


class TestGradients:
    def test_numeric_gradient_check(self, tree):
        """Backprop matches finite differences on sampled weight entries."""
        feats, _ = _features_for(tree)
        model = GraphSageModel(8, 6, num_levels=2, num_classes=3, seed=1)
        labels = np.arange(16) % 3
        loss, grads = model.loss_and_grads(tree, feats, labels)

        eps = 1e-6
        checks = [
            (model.w_self[0], grads.w_self[0], (0, 0)),
            (model.w_self[1], grads.w_self[1], (2, 3)),
            (model.w_neigh[0], grads.w_neigh[0], (1, 2)),
            (model.w_neigh[1], grads.w_neigh[1], (4, 1)),
            (model.w_out, grads.w_out, (5, 2)),
        ]
        for weight, grad, (i, j) in checks:
            original = weight[i, j]
            weight[i, j] = original + eps
            loss_plus, _ = model.loss_and_grads(tree, feats, labels)
            weight[i, j] = original - eps
            loss_minus, _ = model.loss_and_grads(tree, feats, labels)
            weight[i, j] = original
            numeric = (loss_plus - loss_minus) / (2 * eps)
            assert numeric == pytest.approx(grad[i, j], rel=1e-3, abs=1e-6)

    def test_loss_positive(self, tree):
        feats, _ = _features_for(tree)
        model = GraphSageModel(8, 6, 2, 3)
        loss, _ = model.loss_and_grads(tree, feats, np.zeros(16, dtype=int))
        assert loss > 0


class TestTraining:
    def test_loss_decreases_on_learnable_task(self, graph):
        """Labels derived from embedding features are learnable."""
        rng = np.random.default_rng(0)
        dim, classes = 8, 3
        table = rng.standard_normal((graph.num_nodes, dim))
        true_w = rng.standard_normal((dim, classes))
        labels_all = (table @ true_w).argmax(axis=1)

        model = GraphSageModel(dim, 16, num_levels=2, num_classes=classes, seed=2)
        seeds = rng.choice(graph.num_nodes, size=64, replace=False)
        tree = sample_tree(graph, seeds, (4, 3), seed=3)
        feats = [table[nodes] for nodes in tree.nodes]
        labels = labels_all[seeds]

        first_loss, grads = model.loss_and_grads(tree, feats, labels)
        for _ in range(60):
            loss, grads = model.loss_and_grads(tree, feats, labels)
            model.sgd_step(grads, lr=0.3)
        final_loss, _ = model.loss_and_grads(tree, feats, labels)
        assert final_loss < 0.7 * first_loss

    def test_predict_shape(self, tree):
        feats, _ = _features_for(tree)
        model = GraphSageModel(8, 6, 2, 4)
        preds = model.predict(tree, feats)
        assert preds.shape == (16,)
        assert ((preds >= 0) & (preds < 4)).all()
