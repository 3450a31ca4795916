"""Runtime factored Extractor: plans, grouping, execution (Figure 8)."""

import numpy as np
import pytest

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.extractor import FactoredExtractor
from repro.core.policy import partition_policy, replication_policy
from repro.hardware.platform import HOST
from repro.obs import MetricsRegistry, use_registry

N, D = 2000, 8


@pytest.fixture
def extractor(platform_a, small_table, skewed_hotness):
    placement = partition_policy(skewed_hotness, 200, 4)
    cache = MultiGpuEmbeddingCache(platform_a, small_table, placement)
    return FactoredExtractor(cache)


class TestPlan:
    def test_groups_cover_batch(self, extractor, rng):
        keys = rng.integers(0, N, size=300)
        plan = extractor.plan(0, keys)
        positions = np.concatenate([g.batch_positions for g in plan.groups])
        assert sorted(positions.tolist()) == list(range(300))

    def test_groups_are_source_pure(self, extractor, rng):
        keys = rng.integers(0, N, size=300)
        plan = extractor.plan(0, keys)
        source_map = extractor._cache.source_map
        for group in plan.groups:
            assert (source_map[0][group.keys] == group.source).all()

    def test_local_group_is_last(self, extractor):
        # Key 0..799 are partitioned over GPUs; include locals and remotes.
        keys = np.arange(800)
        plan = extractor.plan(2, keys)
        assert plan.groups[-1].source == 2

    def test_nonlocal_offsets_resolve_storage(self, extractor, small_table):
        keys = np.arange(800)
        plan = extractor.plan(0, keys)
        for group in plan.groups:
            if group.source == HOST:
                continue
            store = extractor._cache.store(group.source)
            assert np.array_equal(store.data[group.offsets], small_table[group.keys])

    def test_dedicated_cores_positive(self, extractor):
        plan = extractor.plan(0, np.arange(1000))
        for group in plan.groups:
            assert group.dedicated_cores >= 1

    def test_local_gets_all_cores(self, extractor, platform_a):
        plan = extractor.plan(0, np.arange(1000))
        local = next(g for g in plan.groups if g.source == 0)
        assert local.dedicated_cores == platform_a.gpu.num_cores

    def test_demand_volumes(self, extractor):
        keys = np.arange(100)
        plan = extractor.plan(0, keys)
        demand = plan.demand(entry_bytes=32)
        assert demand.total_bytes == 100 * 32


class TestExecute:
    def test_values_exact(self, extractor, small_table, rng):
        keys = rng.integers(0, N, size=500)
        plan = extractor.plan(1, keys)
        values, demand = extractor.execute(plan)
        assert np.array_equal(values, small_table[keys])
        assert demand.total_bytes == 500 * extractor._cache.entry_bytes

    def test_extract_all_gpus(self, extractor, small_table, rng):
        keys = [rng.integers(0, N, size=200) for _ in range(4)]
        values, report = extractor.extract(keys)
        for v, k in zip(values, keys):
            assert np.array_equal(v, small_table[k])
        assert report.time > 0

    def test_price_matches_extract_time(self, extractor, rng):
        keys = [rng.integers(0, N, size=200) for _ in range(4)]
        _, report = extractor.extract(keys)
        solo = extractor.price(0, keys[0])
        assert solo.time <= report.time + 1e-9


class TestPaddingAblation:
    def test_padding_no_slower(self, extractor, rng):
        keys = [rng.integers(0, N, size=400) for _ in range(4)]
        _, padded = extractor.extract(keys, local_padding=True)
        _, serial = extractor.extract(keys, local_padding=False)
        assert padded.time <= serial.time + 1e-12


class TestReplicationPlans:
    def test_all_local_single_group(self, platform_a, small_table, skewed_hotness):
        placement = replication_policy(skewed_hotness, N, 4)
        cache = MultiGpuEmbeddingCache(platform_a, small_table, placement)
        extractor = FactoredExtractor(cache)
        plan = extractor.plan(0, np.arange(500))
        assert len(plan.groups) == 1
        assert plan.groups[0].source == 0


class TestHostGatherApi:
    """The extractor goes through the cache's public host-gather path."""

    def test_execute_matches_cache_lookup(self, extractor, rng):
        keys = rng.integers(0, N, size=500)
        plan = extractor.plan(2, keys)
        values, _ = extractor.execute(plan)
        looked_up = extractor._cache.lookup(2, keys).values
        assert np.array_equal(values, looked_up)

    def test_host_gather_matches_table(self, extractor, small_table, rng):
        keys = rng.integers(0, N, size=64)
        assert np.array_equal(
            extractor._cache.host_gather(keys), small_table[keys]
        )

    def test_host_gather_rejects_out_of_range(self, extractor):
        with pytest.raises(KeyError):
            extractor._cache.host_gather(np.array([N + 1]))
        with pytest.raises(KeyError):
            extractor._cache.host_gather(np.array([-1]))


class TestPlanCallBudget:
    """The plan's Python-level work is per present source, not per key."""

    def test_calls_bounded_and_independent_of_batch_size(
        self, platform_c, rng, count_calls
    ):
        n = 20_000
        table = rng.standard_normal((n, 4)).astype(np.float32)
        hotness = np.arange(n, 0, -1, dtype=np.float64)
        cache = MultiGpuEmbeddingCache(
            platform_c, table, partition_policy(hotness, n // 10, 8)
        )
        extractor = FactoredExtractor(cache)
        counts = {}
        # A fresh registry: no instrument's pending log is near its inline
        # fold, whatever earlier tests recorded.
        with use_registry(MetricsRegistry("budget")):
            for size in (1024, 8192):
                keys = rng.integers(0, n, size=size)
                plan = extractor.plan(0, keys)  # warm: instruments, memo tables
                assert len(plan.groups) == 9  # 8 GPUs + host
                counts[size] = count_calls(lambda: extractor.plan(0, keys))
        assert counts[1024] == counts[8192]
        # 862 before the segment index (G+1 mask passes, two registry
        # lookups per group, core_dedication recomputed per plan), 231 with
        # it, 181 with the slot table, 143 with context-free stage timing
        # and append-instruments.
        assert counts[1024] <= 157
