"""Hotness metric (§6.1): tracking, degree proxy."""

import numpy as np
import pytest

from repro.core.hotness import HotnessTracker, degree_hotness


class TestHotnessTracker:
    def test_counts_accesses(self):
        tracker = HotnessTracker(5)
        tracker.record(np.array([0, 0, 3]))
        counts = tracker.counts()
        assert counts[0] == 2 and counts[3] == 1 and counts[1] == 0

    def test_duplicates_count(self):
        # The paper's extract reads one entry per occurrence.
        tracker = HotnessTracker(3)
        tracker.record(np.array([2, 2, 2, 2]))
        assert tracker.counts()[2] == 4

    def test_empty_batch_still_counts_as_batch(self):
        tracker = HotnessTracker(3)
        tracker.record(np.array([], dtype=np.int64))
        assert tracker.batches_recorded == 1

    def test_out_of_range_key_rejected(self):
        tracker = HotnessTracker(3)
        with pytest.raises(ValueError):
            tracker.record(np.array([3]))
        with pytest.raises(ValueError):
            tracker.record(np.array([-1]))


class TestDegreeHotness:
    def test_proportional_to_degree(self):
        hot = degree_hotness(np.array([10.0, 5.0, 5.0]))
        assert hot[0] == pytest.approx(2 * hot[1])

    def test_scales_to_budget(self):
        hot = degree_hotness(np.array([1.0, 3.0]))
        assert hot.sum() == pytest.approx(1)

    def test_rejects_negative_degrees(self):
        with pytest.raises(ValueError):
            degree_hotness(np.array([-1.0, 2.0]))

    def test_rejects_edgeless_graph(self):
        with pytest.raises(ValueError):
            degree_hotness(np.zeros(3))


class TestStreamingEstimatorColdStart:
    """The zero-batch edge of the streaming estimator is loud."""

    def test_zero_batch_edge_is_loud_not_silent(self):
        from repro.core.drift_adapt import StreamingHotnessEstimator

        # Silent zeros would tell the solver nothing is ever accessed;
        # the estimator must refuse instead.
        est = StreamingHotnessEstimator(8)
        assert est.batches_recorded == 0
        with pytest.raises(RuntimeError):
            est.snapshot()
        est.record(np.array([], dtype=np.int64))
        # an empty batch IS a window — all-cold is now a valid answer.
        assert est.snapshot()[0].sum() == 0.0

    def test_streaming_without_prior_keeps_loud_edge(self):
        from repro.core.drift_adapt import StreamingHotnessEstimator

        with pytest.raises(RuntimeError):
            StreamingHotnessEstimator(5).snapshot()

    def test_decay_one_matches_plain_tracker(self):
        from repro.core.drift_adapt import StreamingHotnessEstimator

        plain = HotnessTracker(6)
        decayed = StreamingHotnessEstimator(6, decay=1.0)
        rng = np.random.default_rng(7)
        for _ in range(9):
            keys = rng.integers(0, 6, size=16)
            plain.record(keys)
            decayed.record(keys)
        np.testing.assert_allclose(
            decayed.snapshot()[0], plain.counts() / plain.batches_recorded
        )
