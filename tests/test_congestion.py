"""Congestion fixed point for unorganized extraction (§5.1-5.2)."""

import pytest

from repro.sim import congestion
from repro.sim.congestion import effective_bandwidth, solve_congested_extraction


def _solve(volumes, peaks, cores=100, per_core=1e9, pressure=None):
    return solve_congested_extraction(
        volumes=volumes,
        peak_bandwidth=peaks,
        per_core_bandwidth=per_core,
        num_cores=cores,
        collision_pressure=pressure,
    )


class TestSingleSource:
    def test_local_only_runs_at_full_bandwidth(self):
        # 100 cores × 1 GB/s, local peak 100 GB/s → 1 GB in 10 ms.
        out = _solve({0: 1e9}, {0: 100e9})
        assert out.total_time == pytest.approx(0.01)

    def test_slow_source_saturates_with_degradation(self):
        # All cores hammer a 10 GB/s link: heavy oversubscription halves
        # delivered bandwidth (the 50% clamp).
        out = _solve({1: 1e9}, {1: 10e9})
        assert out.total_time == pytest.approx(1e9 / 5e9, rel=0.05)

    def test_no_volume_no_time(self):
        out = _solve({}, {})
        assert out.total_time == 0.0
        assert out.core_seconds == {}


class TestMixedSources:
    def test_slow_link_inflates_total(self):
        fast_only = _solve({0: 1e9}, {0: 100e9})
        mixed = _solve({0: 1e9, 9: 0.2e9}, {0: 100e9, 9: 5e9})
        assert mixed.total_time > fast_only.total_time

    def test_occupancy_sums_to_cores(self):
        out = _solve({0: 1e9, 1: 1e9, 9: 0.5e9}, {0: 100e9, 1: 30e9, 9: 5e9})
        assert sum(out.cores_by_source.values()) == pytest.approx(100)

    def test_slow_source_captures_cores(self):
        # Equal volumes, very different speeds: the slow link holds more
        # SMs at any instant — the Figure 7 stall.
        out = _solve({0: 1e9, 9: 1e9}, {0: 100e9, 9: 5e9})
        assert out.cores_by_source[9] > out.cores_by_source[0]

    def test_total_time_is_work_over_cores(self):
        out = _solve({0: 2e9, 9: 0.3e9}, {0: 100e9, 9: 5e9})
        work = sum(out.core_seconds.values())
        assert out.total_time == pytest.approx(work / 100)


class TestDegradationModel:
    def test_beta_zero_is_work_conserving(self, monkeypatch):
        monkeypatch.setattr(congestion, "BETA", 0.0)
        monkeypatch.setattr(congestion, "SWITCH_COLLISION_BETA", 0.0)
        out = _solve({9: 1e9}, {9: 10e9})
        # Without degradation a saturated link still delivers its peak.
        assert out.total_time == pytest.approx(0.1)

    def test_degradation_capped(self, monkeypatch):
        monkeypatch.setattr(congestion, "BETA", 100.0)
        out = _solve({9: 1e9}, {9: 10e9})
        assert out.total_time <= 1e9 / 5e9 * 1.01

    def test_effective_bandwidth_below_tolerance_is_peak(self):
        assert effective_bandwidth(10e9, cores=3, tolerance=10) == 10e9

    def test_effective_bandwidth_degrades_above_tolerance(self):
        degraded = effective_bandwidth(10e9, cores=20, tolerance=10)
        assert degraded == pytest.approx(5e9)

    def test_collision_pressure_slows_switch_sources(self):
        base = _solve({1: 1e9}, {1: 43e9})
        pressured = _solve({1: 1e9}, {1: 43e9}, pressure={1: 7.0})
        assert pressured.total_time > base.total_time

    def test_invalid_model_params(self):
        # the ranges the model is defined on, now that the values are fixed
        assert congestion.BETA >= 0 and congestion.SWITCH_COLLISION_BETA >= 0
        assert 0 < congestion.MAX_DEGRADATION <= 1
        assert 0 < congestion.DAMPING <= 1


class TestValidation:
    def test_rejects_volume_without_bandwidth(self):
        with pytest.raises(ValueError):
            _solve({0: 1e9}, {0: 0.0})

    def test_rejects_bad_cores(self):
        with pytest.raises(ValueError):
            solve_congested_extraction({0: 1.0}, {0: 1e9}, 1e9, 0)

    def test_rejects_bad_per_core(self):
        with pytest.raises(ValueError):
            solve_congested_extraction({0: 1.0}, {0: 1e9}, 0, 10)

    def test_rejects_pressure_below_one(self):
        with pytest.raises(ValueError):
            _solve({0: 1e9}, {0: 1e9}, pressure={0: 0.5})


class TestConvergence:
    def test_fixed_point_is_stable(self, monkeypatch):
        monkeypatch.setattr(congestion, "ITERATIONS", 30)
        a = _solve({0: 1e9, 9: 0.4e9}, {0: 100e9, 9: 5e9})
        monkeypatch.setattr(congestion, "ITERATIONS", 200)
        b = _solve({0: 1e9, 9: 0.4e9}, {0: 100e9, 9: 5e9})
        assert a.total_time == pytest.approx(b.total_time, rel=1e-3)

    def test_scale_invariance(self):
        # Doubling all volumes doubles the time.
        a = _solve({0: 1e9, 9: 0.2e9}, {0: 100e9, 9: 5e9})
        b = _solve({0: 2e9, 9: 0.4e9}, {0: 100e9, 9: 5e9})
        assert b.total_time == pytest.approx(2 * a.total_time, rel=1e-6)
