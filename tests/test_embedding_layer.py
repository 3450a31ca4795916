"""The public UGache embedding-layer facade."""

import numpy as np
import pytest

from repro.core.embedding_layer import EmbeddingLayerConfig, UGacheEmbeddingLayer
from repro.core.solver import SolverConfig
from repro.sim.mechanisms import Mechanism
from repro.utils.stats import zipf_pmf

N, D = 2000, 8


@pytest.fixture
def layer(platform_a, small_table, skewed_hotness):
    return UGacheEmbeddingLayer(
        platform_a,
        small_table,
        skewed_hotness,
        EmbeddingLayerConfig(cache_ratio=0.08),
    )


class TestConfig:
    def test_requires_exactly_one_capacity_spec(self):
        with pytest.raises(ValueError):
            EmbeddingLayerConfig().resolve_capacity(100)
        with pytest.raises(ValueError):
            EmbeddingLayerConfig(cache_ratio=0.1, capacity_entries=5).resolve_capacity(
                100
            )

    def test_ratio_resolution(self):
        assert EmbeddingLayerConfig(cache_ratio=0.25).resolve_capacity(100) == 25

    def test_explicit_capacity(self):
        assert EmbeddingLayerConfig(capacity_entries=7).resolve_capacity(100) == 7

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            EmbeddingLayerConfig(cache_ratio=1.5).resolve_capacity(100)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            EmbeddingLayerConfig(capacity_entries=-1).resolve_capacity(100)


class TestLookup:
    def test_lookup_exact(self, layer, small_table, rng):
        keys = rng.integers(0, N, size=300)
        for gpu in range(4):
            assert np.array_equal(layer.lookup(gpu, keys), small_table[keys])

    def test_extract_all(self, layer, small_table, rng):
        keys = [rng.integers(0, N, size=100) for _ in range(4)]
        values, report = layer.extract(keys)
        for v, k in zip(values, keys):
            assert np.array_equal(v, small_table[k])
        assert report.time > 0

    def test_capacity_respected(self, layer):
        layer.placement.validate_capacity(int(0.08 * N))

    def test_hit_rates_sum(self, layer):
        hits = layer.hit_rates()
        assert hits.local + hits.remote + hits.host == pytest.approx(1.0)

    def test_expected_report(self, layer):
        fem = layer.expected_report()
        naive = layer.expected_report(Mechanism.PEER_NAIVE)
        assert fem.time <= naive.time


class TestValidation:
    def test_table_shape_checked(self, platform_a, skewed_hotness):
        with pytest.raises(ValueError):
            UGacheEmbeddingLayer(
                platform_a,
                np.zeros(10, dtype=np.float32),
                skewed_hotness,
                EmbeddingLayerConfig(cache_ratio=0.1),
            )

    def test_hotness_length_checked(self, platform_a, small_table):
        with pytest.raises(ValueError):
            UGacheEmbeddingLayer(
                platform_a,
                small_table,
                np.ones(5),
                EmbeddingLayerConfig(cache_ratio=0.1),
            )


class TestRefresh:
    def test_refresh_on_hotness_drift(self, platform_a, small_table):
        # Start hot at the front, drift to the back of the id space.
        hot_front = np.concatenate([zipf_pmf(N // 2, 1.4), np.full(N // 2, 1e-9)])
        layer = UGacheEmbeddingLayer(
            platform_a,
            small_table,
            hot_front * 1000,
            EmbeddingLayerConfig(
                cache_ratio=0.1, solver=SolverConfig(coarse_block_frac=0.05)
            ),
        )
        hot_back = hot_front[::-1].copy() * 1000
        outcome = layer.refresh(hot_back)
        assert outcome.triggered
        hits = layer.hit_rates()
        assert hits.local > 0.5  # hot tail is now cached

    def test_refresh_skipped_when_unchanged(self, layer, skewed_hotness):
        outcome = layer.refresh(skewed_hotness)
        assert not outcome.triggered

    def test_refresh_shape_checked(self, layer):
        with pytest.raises(ValueError):
            layer.refresh(np.ones(3))

    def test_lookups_exact_after_refresh(self, platform_a, small_table, rng):
        hot_front = np.concatenate([zipf_pmf(N // 2, 1.4), np.full(N // 2, 1e-9)])
        layer = UGacheEmbeddingLayer(
            platform_a,
            small_table,
            hot_front * 1000,
            EmbeddingLayerConfig(cache_ratio=0.1),
        )
        layer.refresh(hot_front[::-1].copy() * 1000)
        keys = rng.integers(0, N, size=400)
        for gpu in range(4):
            assert np.array_equal(layer.lookup(gpu, keys), small_table[keys])
