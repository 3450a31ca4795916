"""Platform profiler and drifting traces."""

import numpy as np
import pytest

from repro.dlr.drift import DriftingTrace, hot_set_overlap
from repro.dlr.workload import DlrWorkload
from repro.hardware.profiler import profile_platform, verify_profile


class TestProfiler:
    def test_profile_matches_platform(self, any_platform):
        profile = profile_platform(any_platform)
        assert verify_profile(any_platform, profile)

    def test_sources_recorded(self, platform_b):
        profile = profile_platform(platform_b)
        # DGX-1 GPU 0 reaches 4 peers + itself + host.
        assert len(profile.sources[0]) == 6

    def test_tolerances_sane(self, platform_c):
        profile = profile_platform(platform_c)
        from repro.hardware.platform import HOST

        assert profile.tolerance[(0, HOST)] < profile.tolerance[(0, 0)]

    def test_bandwidth_matrix_shape(self, platform_a):
        profile = profile_platform(platform_a)
        matrix = profile.bandwidth_matrix()
        assert matrix.shape == (4, 5)
        assert matrix[0, 0] == pytest.approx(280, rel=0.01)  # local GB/s
        assert matrix[0, 4] == pytest.approx(16, rel=0.01)  # host GB/s

    def test_verify_detects_mismatch(self, platform_a, platform_c):
        profile = profile_platform(platform_a)
        # A profile from another machine must not verify.
        from dataclasses import replace

        wrong = replace(profile, cost_per_byte={
            k: v * 3 for k, v in profile.cost_per_byte.items()
        })
        assert not verify_profile(platform_a, wrong)

    def test_rejects_bad_probe_points(self, platform_a):
        with pytest.raises(ValueError):
            profile_platform(platform_a, probe_points=1)


class TestDriftingTrace:
    @pytest.fixture
    def base(self):
        return DlrWorkload(
            table_sizes=(500, 300), alpha=1.2, batch_size=64, num_gpus=2, seed=0
        )

    def test_day_count(self, base):
        trace = DriftingTrace(base=base, churn=0.1, num_days=4)
        assert len(list(trace.days())) == 4

    def test_zero_churn_is_static(self, base):
        trace = DriftingTrace(base=base, churn=0.0, num_days=3)
        days = list(trace.days())
        assert np.allclose(days[0].hotness(), days[-1].hotness())

    def test_consecutive_days_highly_alike(self, base):
        # §2: "hot entries in different daily traces are highly alike".
        trace = DriftingTrace(base=base, churn=0.1, num_days=3, seed=1)
        days = list(trace.days())
        assert hot_set_overlap(days[0], days[1], top_frac=0.05) > 0.5

    def test_churn_accumulates(self, base):
        trace = DriftingTrace(base=base, churn=0.3, num_days=8, seed=1)
        days = list(trace.days())
        near = hot_set_overlap(days[0], days[1], top_frac=0.05)
        far = hot_set_overlap(days[0], days[-1], top_frac=0.05)
        assert far <= near

    def test_mass_conserved(self, base):
        trace = DriftingTrace(base=base, churn=0.5, num_days=3)
        for day in trace.days():
            assert day.hotness().sum() == pytest.approx(base.hotness().sum())

    def test_batches_respect_drifted_hot_set(self, base):
        trace = DriftingTrace(base=base, churn=0.5, num_days=2, seed=3)
        days = list(trace.days())
        last = days[-1]
        hot = last.hotness()
        counts = np.zeros(last.num_entries)
        for batch in last.take_batches(20, seed=9):
            counts += np.bincount(batch[0], minlength=last.num_entries)
        # Empirical frequency tracks the drifted analytic hotness.
        top = np.argsort(-hot)[:5]
        assert counts[top].sum() > counts.sum() * 0.2

    def test_validation(self, base):
        with pytest.raises(ValueError):
            DriftingTrace(base=base, churn=1.5)
        with pytest.raises(ValueError):
            DriftingTrace(base=base, num_days=0)
        with pytest.raises(ValueError):
            hot_set_overlap(base, base, top_frac=0.0)


class TestWorkloadPermutationsParam:
    def test_explicit_permutations_used(self):
        perm = (np.array([2, 0, 1]),)
        wl = DlrWorkload(table_sizes=(3,), alpha=1.0, batch_size=4,
                         num_gpus=1, permutations=perm)
        hot = wl.hotness()
        # Rank-0 (most popular) maps to entry perm[0] = 2.
        assert hot.argmax() == 2

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            DlrWorkload(table_sizes=(3,), alpha=1.0,
                        permutations=(np.array([0, 0, 1]),))
        with pytest.raises(ValueError):
            DlrWorkload(table_sizes=(3, 4), alpha=1.0,
                        permutations=(np.array([0, 1, 2]),))
