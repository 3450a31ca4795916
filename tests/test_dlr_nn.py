"""Numpy DLRM/DCN forward passes."""

import numpy as np
import pytest

from repro.dlr.nn import DcnNet, DlrmNet, serve_batch, sigmoid


@pytest.fixture
def batch(rng):
    dense = rng.standard_normal((32, 13))
    embeddings = rng.standard_normal((32, 5, 8))
    return dense, embeddings


class TestDlrm:
    def test_output_shape_and_range(self, batch):
        dense, emb = batch
        net = DlrmNet(num_tables=5, embedding_dim=8)
        probs = net.forward(dense, emb)
        assert probs.shape == (32,)
        assert ((probs > 0) & (probs < 1)).all()

    def test_deterministic(self, batch):
        dense, emb = batch
        a = DlrmNet(5, 8, seed=1).forward(dense, emb)
        b = DlrmNet(5, 8, seed=1).forward(dense, emb)
        assert np.allclose(a, b)

    def test_embeddings_affect_output(self, batch, rng):
        dense, emb = batch
        net = DlrmNet(5, 8)
        a = net.forward(dense, emb)
        b = net.forward(dense, rng.standard_normal(emb.shape))
        assert not np.allclose(a, b)

    def test_shape_mismatch_rejected(self, batch):
        dense, emb = batch
        net = DlrmNet(6, 8)
        with pytest.raises(ValueError):
            net.forward(dense, emb)

    def test_rejects_zero_tables(self):
        with pytest.raises(ValueError):
            DlrmNet(0, 8)


class TestDcn:
    def test_output_shape_and_range(self, batch):
        dense, emb = batch
        net = DcnNet(num_tables=5, embedding_dim=8)
        probs = net.forward(dense, emb)
        assert probs.shape == (32,)
        assert ((probs > 0) & (probs < 1)).all()

    def test_cross_layers_required(self):
        # the cross network's depth is fixed, and there is one
        with pytest.raises(TypeError):
            DcnNet(5, 8, cross_layers=0)
        assert len(DcnNet(5, 8).cross_w) >= 1

    def test_differs_from_dlrm(self, batch):
        dense, emb = batch
        dlrm = DlrmNet(5, 8, seed=0).forward(dense, emb)
        dcn = DcnNet(5, 8, seed=0).forward(dense, emb)
        assert not np.allclose(dlrm, dcn)


class TestServeBatch:
    def test_pulls_through_cache_lookup(self, platform_a, small_table, skewed_hotness, rng):
        from repro.core.cache import MultiGpuEmbeddingCache
        from repro.core.policy import replication_policy

        cache = MultiGpuEmbeddingCache(
            platform_a, small_table, replication_policy(skewed_hotness, 200, 4)
        )
        net = DlrmNet(num_tables=3, embedding_dim=small_table.shape[1])
        keys = rng.integers(0, 2000, size=(16, 3))
        dense = rng.standard_normal((16, 13))
        probs = serve_batch(
            net, lambda k: cache.lookup(0, k).values, keys, dense
        )
        assert probs.shape == (16,)
        # Same keys straight from the table give identical outputs.
        direct = net.forward(dense, small_table[keys.reshape(-1)].reshape(16, 3, -1))
        assert np.allclose(probs, direct)


class TestSigmoid:
    def test_range(self):
        x = np.array([-1e5, -1.0, 0.0, 1.0, 1e5])
        y = sigmoid(x)
        assert ((y > 0) & (y < 1)).all()
        assert y[2] == pytest.approx(0.5)
