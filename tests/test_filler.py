"""Filler: cache stores, offset maps, placement diffs."""

import numpy as np
import pytest

from repro.core.filler import (
    apply_diff_step,
    fill_all,
    fill_gpu,
    placement_diff,
)
from repro.core.policy import Placement
from repro.hardware.memory import OutOfDeviceMemory


@pytest.fixture
def table(rng):
    return rng.standard_normal((100, 4)).astype(np.float32)


class TestFillGpu:
    def test_contents_match_table(self, table):
        ids = np.array([3, 7, 42])
        store = fill_gpu(0, table, ids)
        assert np.array_equal(store.read(ids), table[ids])

    def test_offsets_dense(self, table):
        store = fill_gpu(0, table, np.array([5, 6]))
        offsets = store.offset_of[[5, 6]]
        assert sorted(offsets) == [0, 1]

    def test_uncached_offset_is_minus_one(self, table):
        store = fill_gpu(0, table, np.array([5]))
        assert store.offset_of[6] == -1

    def test_read_uncached_raises(self, table):
        store = fill_gpu(0, table, np.array([5]))
        with pytest.raises(KeyError):
            store.read(np.array([6]))

    def test_capacity_enforced(self, table):
        with pytest.raises(ValueError):
            fill_gpu(0, table, np.array([1, 2, 3]), capacity_entries=2)

    def test_cached_entries(self, table):
        ids = np.array([9, 2, 57])
        store = fill_gpu(0, table, ids)
        assert np.array_equal(store.cached_entries(), np.sort(ids))

    def test_empty_fill(self, table):
        store = fill_gpu(0, table, np.empty(0, dtype=np.int64))
        assert store.cached_entries().size == 0


class TestInsertEvict:
    def test_insert_then_read(self, table):
        store = fill_gpu(0, table, np.array([1]), capacity_entries=2)
        store.insert_many([50], table[[50]])
        assert np.array_equal(store.read(np.array([50]))[0], table[50])

    def test_double_insert_rejected(self, table):
        store = fill_gpu(0, table, np.array([1]), capacity_entries=2)
        with pytest.raises(ValueError):
            store.insert_many([1], table[[1]])

    def test_evict_frees_slot(self, table):
        store = fill_gpu(0, table, np.array([1, 2]), capacity_entries=2)
        store.evict_many([1])
        store.insert_many([3], table[[3]])  # recycled slot
        assert np.array_equal(store.read(np.array([3]))[0], table[3])

    def test_evict_uncached_rejected(self, table):
        store = fill_gpu(0, table, np.array([1]), capacity_entries=2)
        with pytest.raises(ValueError):
            store.evict_many([2])

    def test_insert_beyond_capacity(self, table):
        store = fill_gpu(0, table, np.array([1, 2]), capacity_entries=2)
        with pytest.raises(OutOfDeviceMemory):
            store.insert_many([3], table[[3]])


class TestFillAll:
    def test_one_store_per_gpu(self, table):
        placement = Placement(
            num_entries=100, per_gpu=(np.array([0]), np.array([1, 2]))
        )
        stores = fill_all(table, placement)
        assert len(stores) == 2
        assert stores[1].cached_entries().tolist() == [1, 2]

    def test_table_mismatch_rejected(self, table):
        placement = Placement(num_entries=50, per_gpu=(np.array([0]),))
        with pytest.raises(ValueError):
            fill_all(table, placement)


class TestPlacementDiff:
    def test_diff_contents(self):
        old = Placement(num_entries=10, per_gpu=(np.array([1, 2, 3]),))
        new = Placement(num_entries=10, per_gpu=(np.array([2, 3, 4]),))
        diff = placement_diff(old, new)
        assert diff.evictions[0].tolist() == [1]
        assert diff.insertions[0].tolist() == [4]
        assert diff.total_changes() == 2

    def test_identical_placements(self):
        p = Placement(num_entries=10, per_gpu=(np.array([1]),))
        assert placement_diff(p, p).total_changes() == 0

    def test_incomparable_rejected(self):
        a = Placement(num_entries=10, per_gpu=(np.array([1]),))
        b = Placement(num_entries=11, per_gpu=(np.array([1]),))
        with pytest.raises(ValueError):
            placement_diff(a, b)


class TestApplyDiffStep:
    def test_step_moves_entries(self, table):
        store = fill_gpu(0, table, np.array([1, 2]), capacity_entries=2)
        apply_diff_step(store, table, evict=np.array([1]), insert=np.array([9]))
        assert store.offset_of[1] == -1
        assert np.array_equal(store.read(np.array([9]))[0], table[9])

    def test_evictions_applied_before_insertions(self, table):
        # At full capacity a step must not overflow transiently.
        store = fill_gpu(0, table, np.array([1, 2]), capacity_entries=2)
        apply_diff_step(store, table, evict=np.array([1, 2]), insert=np.array([3, 4]))
        assert sorted(store.cached_entries().tolist()) == [3, 4]
