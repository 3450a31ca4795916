"""Multi-GPU embedding cache: functional correctness of lookups."""

import numpy as np
import pytest

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.policy import (
    Placement,
    partition_policy,
    replication_policy,
)
from repro.core.solver import solve_policy
from repro.hardware.platform import HOST

N, D = 2000, 8


@pytest.fixture
def cache_partition(platform_a, small_table, skewed_hotness):
    placement = partition_policy(skewed_hotness, 200, 4)
    return MultiGpuEmbeddingCache(platform_a, small_table, placement)


class TestLookupCorrectness:
    def test_values_exact_partition(self, cache_partition, small_table, rng):
        keys = rng.integers(0, N, size=500)
        for gpu in range(4):
            result = cache_partition.lookup(gpu, keys)
            assert np.array_equal(result.values, small_table[keys])

    def test_values_exact_replication(self, platform_a, small_table, skewed_hotness, rng):
        placement = replication_policy(skewed_hotness, 300, 4)
        cache = MultiGpuEmbeddingCache(platform_a, small_table, placement)
        keys = rng.integers(0, N, size=500)
        assert np.array_equal(cache.lookup(2, keys).values, small_table[keys])

    def test_values_exact_solver_placement(
        self, platform_a, small_table, skewed_hotness, rng
    ):
        solved = solve_policy(platform_a, skewed_hotness, 150, D * 4)
        cache = MultiGpuEmbeddingCache(platform_a, small_table, solved.realize())
        keys = rng.integers(0, N, size=1000)
        for gpu in range(4):
            assert np.array_equal(cache.lookup(gpu, keys).values, small_table[keys])

    def test_empty_cache_serves_from_host(self, platform_a, small_table, rng):
        cache = MultiGpuEmbeddingCache(
            platform_a, small_table, Placement(N, ((),) * 4)
        )
        keys = rng.integers(0, N, size=100)
        result = cache.lookup(0, keys)
        assert np.array_equal(result.values, small_table[keys])
        assert result.host_fraction == 1.0

    def test_duplicate_keys(self, cache_partition, small_table):
        keys = np.array([7, 7, 7, 1900, 7])
        assert np.array_equal(
            cache_partition.lookup(0, keys).values, small_table[keys]
        )

    def test_empty_batch(self, cache_partition):
        result = cache_partition.lookup(0, np.empty(0, dtype=np.int64))
        assert result.values.shape == (0, D)

    def test_out_of_range_key(self, cache_partition):
        with pytest.raises(KeyError):
            cache_partition.lookup(0, np.array([N]))


class TestLookupProvenance:
    def test_sources_match_demand(self, cache_partition, rng):
        keys = rng.integers(0, N, size=300)
        result = cache_partition.lookup(1, keys)
        host_keys = int((result.sources == HOST).sum())
        assert result.demand.volume(HOST) == host_keys * cache_partition.entry_bytes

    def test_local_fraction(self, platform_a, small_table, skewed_hotness):
        placement = replication_policy(skewed_hotness, N, 4)  # everything local
        cache = MultiGpuEmbeddingCache(platform_a, small_table, placement)
        result = cache.lookup(0, np.arange(100))
        assert (result.sources == 0).all()
        assert result.host_fraction == 0.0


class TestReplacePlacement:
    def test_swap_changes_contents(self, platform_a, small_table, skewed_hotness, rng):
        cache = MultiGpuEmbeddingCache(
            platform_a, small_table, replication_policy(skewed_hotness, 100, 4)
        )
        cache.replace_placement(partition_policy(skewed_hotness, 100, 4))
        keys = rng.integers(0, N, size=400)
        assert np.array_equal(cache.lookup(0, keys).values, small_table[keys])
        assert cache.placement.replication_factor() == pytest.approx(1.0)

    def test_mismatched_placement_rejected(self, cache_partition, skewed_hotness):
        with pytest.raises(ValueError):
            cache_partition.replace_placement(Placement(N + 1, ((),) * 4))


class TestValidation:
    def test_table_must_be_2d(self, platform_a, skewed_hotness):
        with pytest.raises(ValueError):
            MultiGpuEmbeddingCache(
                platform_a, np.zeros(10), Placement(10, ((),) * 4)
            )

    def test_placement_table_mismatch(self, platform_a, small_table):
        with pytest.raises(ValueError):
            MultiGpuEmbeddingCache(platform_a, small_table, Placement(5, ((),) * 4))
