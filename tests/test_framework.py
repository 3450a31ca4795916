"""Framework-style wrappers (§7.1)."""

import numpy as np
import pytest

from repro.framework import Module, UGacheEmbedding, UGacheKerasEmbedding

N, D = 2000, 8


class TestTorchLike:
    def test_call_dispatches_to_forward(self):
        class Doubler(Module):
            def forward(self, x):
                return 2 * x

        assert Doubler()(21) == 42

    def test_module_forward_abstract(self):
        with pytest.raises(AttributeError):  # a subclass supplies forward
            Module()(1)

    def test_embedding_shape_contract(self, platform_a, small_table, skewed_hotness):
        emb = UGacheEmbedding(platform_a, small_table, skewed_hotness, cache_ratio=0.1)
        keys = np.array([[1, 2, 3], [4, 5, 6]])
        out = emb(keys, device=0)
        assert out.shape == (2, 3, D)
        assert np.array_equal(out, small_table[keys])

    def test_embedding_attributes(self, platform_a, small_table, skewed_hotness):
        emb = UGacheEmbedding(platform_a, small_table, skewed_hotness, cache_ratio=0.1)
        assert emb.num_embeddings == N
        assert emb.embedding_dim == D

    def test_scalar_like_input(self, platform_a, small_table, skewed_hotness):
        emb = UGacheEmbedding(platform_a, small_table, skewed_hotness, cache_ratio=0.1)
        out = emb(np.array([7]), device=1)
        assert np.array_equal(out[0], small_table[7])

    def test_layer_accessor(self, platform_a, small_table, skewed_hotness):
        emb = UGacheEmbedding(platform_a, small_table, skewed_hotness, cache_ratio=0.1)
        assert emb.layer.hit_rates().local > 0


class TestKerasLike:
    def test_lifecycle(self, platform_a, small_table, skewed_hotness):
        layer = UGacheKerasEmbedding(platform_a, cache_ratio=0.1)
        assert not layer.built
        layer.build(small_table, skewed_hotness)
        assert layer.built
        keys = np.array([[3, 1], [4, 1]])
        out = layer(keys, device=0)
        assert out.shape == (2, 2, D)
        assert np.array_equal(out, small_table[keys])

    def test_call_before_build_raises(self, platform_a):
        layer = UGacheKerasEmbedding(platform_a, cache_ratio=0.1)
        with pytest.raises(RuntimeError):
            layer(np.array([1]), device=0)

    def test_double_build_raises(self, platform_a, small_table, skewed_hotness):
        layer = UGacheKerasEmbedding(platform_a, cache_ratio=0.1)
        layer.build(small_table, skewed_hotness)
        with pytest.raises(RuntimeError):
            layer.build(small_table, skewed_hotness)

    def test_layer_accessor_guard(self, platform_a):
        layer = UGacheKerasEmbedding(platform_a, cache_ratio=0.1)
        with pytest.raises(RuntimeError):
            _ = layer.layer
