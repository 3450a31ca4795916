"""Placements and heuristic cache policies (§3.1 baselines)."""

import numpy as np
import pytest

from repro.core.policy import (
    Placement,
    clique_partition_policy,
    hot_replicate_warm_partition_policy,
    partition_policy,
    replication_policy,
)
from repro.utils.stats import zipf_pmf

HOT = zipf_pmf(1000, 1.2)


class TestPlacement:
    def test_storage_matrix(self):
        p = Placement(num_entries=5, per_gpu=(np.array([0, 2]), np.array([2])))
        mat = p.storage_matrix()
        assert mat[0, 0] and mat[0, 2] and not mat[0, 1]
        assert mat[1, 2] and not mat[1, 0]

    def test_distinct_and_replication_factor(self):
        p = Placement(num_entries=5, per_gpu=(np.array([0, 1]), np.array([1, 2])))
        assert p.distinct_cached() == 3
        assert p.replication_factor() == pytest.approx(4 / 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Placement(num_entries=5, per_gpu=(np.array([1, 1]),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Placement(num_entries=5, per_gpu=(np.array([5]),))

    def test_validate_capacity(self):
        p = Placement(num_entries=5, per_gpu=(np.array([0, 1, 2]),))
        p.validate_capacity(3)
        with pytest.raises(ValueError):
            p.validate_capacity(2)

    def test_arrays_frozen(self):
        p = Placement(num_entries=5, per_gpu=(np.array([0]),))
        with pytest.raises(ValueError):
            p.per_gpu[0][0] = 3

    def test_empty_placement(self):
        p = Placement(10, ((),) * 4)
        assert p.distinct_cached() == 0
        assert p.replication_factor() == 0.0


class TestReplication:
    def test_every_gpu_has_same_entries(self):
        p = replication_policy(HOT, 100, 4)
        for ids in p.per_gpu[1:]:
            assert np.array_equal(np.sort(ids), np.sort(p.per_gpu[0]))

    def test_caches_hottest(self):
        p = replication_policy(HOT, 10, 2)
        assert set(p.per_gpu[0]) == set(range(10))  # zipf: rank==id here

    def test_replication_factor_is_gpu_count(self):
        p = replication_policy(HOT, 50, 8)
        assert p.replication_factor() == pytest.approx(8.0)

    def test_zero_capacity(self):
        p = replication_policy(HOT, 0, 4)
        assert p.distinct_cached() == 0


class TestPartition:
    def test_no_replication(self):
        p = partition_policy(HOT, 100, 4)
        assert p.replication_factor() == pytest.approx(1.0)

    def test_covers_capacity_times_gpus(self):
        p = partition_policy(HOT, 100, 4)
        assert p.distinct_cached() == 400

    def test_round_robin_balances_hot_entries(self):
        p = partition_policy(HOT, 100, 4)
        # Hottest four entries land on four different GPUs.
        owners = {g for g in range(4) for e in range(4) if e in set(p.per_gpu[g])}
        assert owners == {0, 1, 2, 3}

    def test_never_exceeds_universe(self):
        p = partition_policy(HOT, 600, 4)
        assert p.distinct_cached() == 1000

    def test_global_coverage_beats_replication(self):
        rep = replication_policy(HOT, 100, 4)
        part = partition_policy(HOT, 100, 4)
        assert part.distinct_cached() > rep.distinct_cached()


class TestCliquePartition:
    def test_dgx1_two_cliques_replicate_across(self, platform_b):
        p = clique_partition_policy(HOT, 50, platform_b)
        # The two quads each cover the hottest 200 entries.
        quad_a = np.unique(np.concatenate([p.per_gpu[g] for g in range(4)]))
        quad_b = np.unique(np.concatenate([p.per_gpu[g] for g in range(4, 8)]))
        assert np.array_equal(quad_a, quad_b)
        assert len(quad_a) == 200

    def test_no_replication_within_clique(self, platform_b):
        p = clique_partition_policy(HOT, 50, platform_b)
        for a in range(4):
            for b in range(a + 1, 4):
                assert not set(p.per_gpu[a]) & set(p.per_gpu[b])

    def test_fully_connected_behaves_like_partition(self, platform_a):
        clique = clique_partition_policy(HOT, 50, platform_a)
        part = partition_policy(HOT, 50, 4)
        assert clique.distinct_cached() == part.distinct_cached()


class TestHotRepWarmPart:
    def test_fraction_one_is_replication(self):
        p = hot_replicate_warm_partition_policy(HOT, 100, 4, 1.0)
        rep = replication_policy(HOT, 100, 4)
        assert p.distinct_cached() == rep.distinct_cached()

    def test_fraction_zero_is_partition(self):
        p = hot_replicate_warm_partition_policy(HOT, 100, 4, 0.0)
        assert p.replication_factor() == pytest.approx(1.0)

    def test_mixed_fraction(self):
        p = hot_replicate_warm_partition_policy(HOT, 100, 4, 0.5)
        # 50 replicated everywhere + 50×4 partitioned.
        assert p.distinct_cached() == 50 + 200
        for ids in p.per_gpu:
            assert len(ids) == 100

    def test_capacity_respected(self):
        p = hot_replicate_warm_partition_policy(HOT, 100, 4, 0.3)
        p.validate_capacity(100)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            hot_replicate_warm_partition_policy(HOT, 10, 2, 1.5)
