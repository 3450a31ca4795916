"""GNN training workloads: epochs, modes, hotness estimation."""

import numpy as np
import pytest

from repro.core.hotness import degree_hotness
from repro.gnn.graph import power_law_graph
from repro.gnn.workload import DEFAULT_FANOUTS, GnnWorkload


@pytest.fixture
def graph():
    return power_law_graph(1000, 8000, degree_alpha=1.0, seed=0)


@pytest.fixture
def train_ids(graph):
    return np.arange(0, 1000, 4)  # 250 train nodes


def _workload(graph, train_ids, mode="sage-sup", **kw):
    defaults = dict(batch_size=32, num_gpus=2)
    defaults.update(kw)
    return GnnWorkload(graph, train_ids, mode, **defaults)


class TestConstruction:
    def test_mode_fanouts(self, graph, train_ids):
        assert _workload(graph, train_ids, "gcn").fanouts == DEFAULT_FANOUTS["gcn"]
        assert len(_workload(graph, train_ids, "gcn").fanouts) == 3
        assert len(_workload(graph, train_ids, "sage-sup").fanouts) == 2

    def test_custom_fanouts(self, graph, train_ids):
        wl = _workload(graph, train_ids, fanouts=(3, 3))
        assert wl.fanouts == (3, 3)

    def test_unknown_mode_rejected(self, graph, train_ids):
        with pytest.raises(ValueError):
            _workload(graph, train_ids, mode="gat")

    def test_supervised_needs_train_set(self, graph):
        with pytest.raises(ValueError):
            _workload(graph, np.empty(0, dtype=np.int64), "sage-sup")

    def test_unsup_without_train_set_ok(self, graph):
        wl = _workload(graph, np.empty(0, dtype=np.int64), "sage-unsup")
        assert wl.iterations_per_epoch() >= 1


class TestEpoch:
    def test_one_batch_per_gpu(self, graph, train_ids):
        wl = _workload(graph, train_ids)
        batches = next(iter(wl.epoch(0)))
        assert len(batches) == 2

    def test_iteration_count(self, graph, train_ids):
        wl = _workload(graph, train_ids)
        assert wl.iterations_per_epoch() == len(train_ids) // 64
        assert len(list(wl.epoch(0))) == wl.iterations_per_epoch()

    def test_keys_in_range(self, graph, train_ids):
        wl = _workload(graph, train_ids)
        for batches in wl.epoch(1):
            for keys in batches:
                assert keys.min() >= 0 and keys.max() < graph.num_nodes

    def test_epoch_deterministic(self, graph, train_ids):
        wl = _workload(graph, train_ids)
        a = [k for b in wl.epoch(7) for k in b]
        b = [k for b in wl.epoch(7) for k in b]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_supervised_seeds_come_from_train_set(self, graph, train_ids):
        wl = _workload(graph, train_ids, fanouts=(2,))
        train = set(train_ids.tolist())
        for batches in wl.epoch(0):
            for keys in batches:
                # Seeds are the first batch_size entries of each key array.
                assert set(keys[:32].tolist()) <= train

    def test_dedup_produces_fewer_keys(self, graph, train_ids):
        # the loader keeps duplicates (§3.2: one read per key occurrence)
        wl = _workload(graph, train_ids)
        raw = next(iter(wl.epoch(0)))[0]
        assert len(np.unique(raw)) < len(raw)

    def test_unsup_epoch_longer_than_sup(self, graph, train_ids):
        sup = _workload(graph, train_ids, "sage-sup")
        unsup = _workload(graph, train_ids, "sage-unsup")
        assert unsup.iterations_per_epoch() > sup.iterations_per_epoch()


class TestHotness:
    def test_presampled_hotness_shape(self, graph, train_ids):
        wl = _workload(graph, train_ids)
        hot = wl.presampled_hotness(0, max_iterations=2)
        assert hot.shape == (graph.num_nodes,)
        assert (hot >= 0).all()
        assert hot.sum() > 0

    def test_presampled_normalized_per_gpu_batch(self, graph, train_ids):
        wl = _workload(graph, train_ids, fanouts=(2,))
        hot = wl.presampled_hotness(0)
        # Expected accesses per batch per GPU = batch × (1 + fanout).
        assert hot.sum() == pytest.approx(32 * 3, rel=0.05)

    def test_degree_hotness_ranks_hubs_first(self, graph):
        hot = degree_hotness(graph.degrees())
        degs = graph.degrees()
        assert hot[np.argmax(degs)] == hot.max()

    def test_degree_and_presample_correlate(self, graph, train_ids):
        wl = _workload(graph, train_ids)
        pre = wl.presampled_hotness(0)
        deg = degree_hotness(graph.degrees())
        corr = np.corrcoef(pre, deg)[0, 1]
        assert corr > 0.8
