"""DLR multi-table inference workloads."""

import numpy as np
import pytest

from repro.dlr.workload import DlrWorkload


@pytest.fixture
def workload():
    return DlrWorkload(
        table_sizes=(100, 200, 50), alpha=1.2, batch_size=64, num_gpus=2, seed=0
    )


class TestConstruction:
    def test_offsets(self, workload):
        assert workload.table_offsets == (0, 100, 300)
        assert workload.num_entries == 350
        assert workload.num_tables == 3

    def test_rejects_empty_tables(self):
        with pytest.raises(ValueError):
            DlrWorkload(table_sizes=(), alpha=1.0)

    def test_rejects_zero_table(self):
        with pytest.raises(ValueError):
            DlrWorkload(table_sizes=(10, 0), alpha=1.0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            DlrWorkload(table_sizes=(10,), alpha=-1.0)


class TestBatches:
    def test_batch_shape(self, workload):
        batch = workload.take_batches(1)[0]
        assert len(batch) == 2  # one per GPU
        assert len(batch[0]) == 64 * 3  # batch × tables

    def test_keys_stay_in_their_table(self, workload):
        batch = workload.take_batches(1)[0][0].reshape(3, 64)
        for t, (lo, size) in enumerate(zip(workload.table_offsets, workload.table_sizes)):
            assert batch[t].min() >= lo
            assert batch[t].max() < lo + size

    def test_deterministic(self, workload):
        a = workload.take_batches(2, seed=3)
        b = workload.take_batches(2, seed=3)
        for ba, bb in zip(a, b):
            for ka, kb in zip(ba, bb):
                assert np.array_equal(ka, kb)

    def test_gpus_get_different_keys(self, workload):
        batch = workload.take_batches(1)[0]
        assert not np.array_equal(batch[0], batch[1])

    def test_batches_iterate_indefinitely(self, workload):
        assert len(workload.take_batches(5)) == 5


class TestHotness:
    def test_shape_and_mass(self, workload):
        hot = workload.hotness()
        assert hot.shape == (350,)
        # One key per table per request: expected accesses per batch =
        # batch_size per table.
        assert hot[:100].sum() == pytest.approx(64)
        assert hot.sum() == pytest.approx(64 * 3)

    def test_hot_entries_permuted(self):
        a = DlrWorkload(table_sizes=(1000,), alpha=1.3, batch_size=8, seed=0)
        b = DlrWorkload(table_sizes=(1000,), alpha=1.3, batch_size=8, seed=1)
        assert not np.array_equal(a.hotness(), b.hotness())

    def test_higher_alpha_more_skew(self):
        lo = DlrWorkload(table_sizes=(1000,), alpha=0.8, batch_size=8).hotness()
        hi = DlrWorkload(table_sizes=(1000,), alpha=1.4, batch_size=8).hotness()
        assert hi.max() > lo.max()

    def test_hotness_matches_empirical_frequency(self):
        wl = DlrWorkload(table_sizes=(50,), alpha=1.2, batch_size=512, num_gpus=1, seed=4)
        analytic = wl.hotness()
        counts = np.zeros(50)
        n_batches = 40
        for batch in wl.take_batches(n_batches, seed=9):
            counts += np.bincount(batch[0], minlength=50)
        empirical = counts / n_batches
        # Hot entries' empirical frequency tracks the analytic pmf.
        top = np.argsort(-analytic)[:5]
        assert np.allclose(empirical[top], analytic[top], rtol=0.2)
