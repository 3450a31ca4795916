"""Drift adaptation: detector mechanics, adapter loop, drift soak smoke."""

import numpy as np
import pytest

from repro.core import drift_adapt
from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.drift_adapt import DriftDetector
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.dlr.drift import DRIFT_SCENARIOS, MIN_DRIFT_ENTRIES, build_drift_schedule
from repro.core.solver import SolverConfig
from repro.hardware.platform import server_a, server_b
from repro.serve import (
    DriftAdapter,
    PolicyManager,
    SoakConfig,
    run_soak,
)
from repro.serve import adaptation
from repro.utils.rng import make_rng
from repro.utils.stats import zipf_pmf

pytestmark = pytest.mark.drift

N = 1200


def _set(monkeypatch, **constants):
    """Pin the loop's module constants (``min_batches=4`` → ``MIN_BATCHES``),
    wherever each lives."""
    for name, value in constants.items():
        module = adaptation if hasattr(adaptation, name.upper()) else drift_adapt
        monkeypatch.setattr(module, name.upper(), value)


@pytest.fixture
def make_detector(monkeypatch):
    def make(**over):
        _set(monkeypatch, **{"min_batches": 0, **over})
        snapshot = zipf_pmf(N, 1.1) * 256
        return DriftDetector(snapshot), snapshot

    return make


def _drifted(snapshot):
    return np.roll(snapshot, N // 2)


class TestDriftDetector:
    def test_hysteresis_requires_consecutive_breaches(self, make_detector):
        det, snap = make_detector(hysteresis=3)
        bad = _drifted(snap)
        assert not det.check(bad).fired          # streak 1
        assert not det.check(snap).fired         # streak reset
        assert not det.check(bad).fired          # streak 1
        assert not det.check(bad).fired          # streak 2
        assert det.check(bad).fired              # streak 3 → fire
        assert det.detections == 1

    def test_cooldown_suppresses_refire(self, make_detector):
        det, snap = make_detector(hysteresis=1, cooldown_checks=3)
        bad = _drifted(snap)
        assert det.check(bad).fired
        for _ in range(3):
            s = det.check(bad)
            assert s.breached and not s.fired
        assert det.check(bad).fired
        assert det.detections == 2

    def test_rebase_clears_divergence(self, make_detector):
        det, snap = make_detector(hysteresis=1)
        bad = _drifted(snap)
        assert det.check(bad).fired
        det.rebase(bad)
        for _ in range(20):
            s = det.check(bad)
            assert not s.breached
        assert det.detections == 1

    def test_warmup_scores_but_never_breaches(self, make_detector):
        det, snap = make_detector(hysteresis=1, min_batches=16)
        bad = _drifted(snap)
        s = det.check(bad, batches=8)
        assert s.jaccard < 0.5 and not s.breached and not s.fired
        assert det.check(bad, batches=16).fired

    def test_tape_records_every_check(self, make_detector):
        det, snap = make_detector()
        for i in range(5):
            det.check(snap, at=float(i))
        assert [s.at for s in det.tape] == [0.0, 1.0, 2.0, 3.0, 4.0]
        d = det.tape[0].to_dict()
        assert set(d) == {"at", "jaccard", "rank_corr", "breached", "fired"}


def _adapter_rig(platform=None, solver_config=None):
    platform = platform or server_a()
    rng = make_rng(0)
    table = rng.standard_normal((N, 8)).astype(np.float32)
    hotness = zipf_pmf(N, 1.1) * 1024
    cap = N // 8
    placement = hot_replicate_warm_partition_policy(
        hotness, cap, platform.num_gpus, 0.5
    )
    cache = MultiGpuEmbeddingCache(platform, table, placement)
    manager = PolicyManager(cache, solver_config=solver_config)
    adapter = DriftAdapter(manager, cap, hotness)
    return adapter, manager, hotness, cap


class TestDriftAdapter:
    def test_every_observed_request_is_recorded(self):
        adapter, _m, _h, _cap = _adapter_rig()
        keys = np.arange(32)
        for _ in range(16):
            adapter.observe(0, keys, now=0.0)
        assert adapter.observed == 16
        assert adapter.estimator.batches_recorded == 16

    def test_no_fire_no_resolve(self, monkeypatch):
        """Stationary traffic: maybe_adapt checks but never re-solves."""
        _set(monkeypatch, check_every=4, min_batches=4)
        adapter, manager, hotness, _cap = _adapter_rig()
        rng = np.random.default_rng(0)
        pmf = hotness / hotness.sum()
        for i in range(32):
            adapter.observe(0, rng.choice(N, size=256, p=pmf), now=float(i))
            adapter.maybe_adapt(float(i))
        assert adapter.detections == 0 and adapter.resolves == 0
        assert manager.version == 0
        assert len(adapter.detector.tape) == 8  # 32 recorded / check_every=4

    def test_detect_resolve_swap_loop(self, monkeypatch):
        """A rotated head fires the detector, re-solves, and lands a swap
        through the manager's guarded path."""
        _set(monkeypatch, check_every=4, min_batches=4, hysteresis=2, decay=0.8)
        adapter, manager, hotness, _cap = _adapter_rig()
        rng = np.random.default_rng(1)
        rolled = np.roll(hotness, N // 2)
        pmf = rolled / rolled.sum()
        report = None
        for i in range(64):
            adapter.observe(0, rng.choice(N, size=256, p=pmf), now=float(i))
            report = adapter.maybe_adapt(float(i)) or report
        assert adapter.detections >= 1
        assert adapter.resolves >= 1
        assert adapter.swaps_landed >= 1
        assert manager.version >= 1
        assert report is not None and report.swapped
        kinds = [e.kind for e in adapter.events]
        assert kinds[:3] == ["detect", "resolve", "swap"]
        # the landed swap rebased the detector and re-seeded the warm start
        assert adapter.warm is not None or adapter.events[-1].kind != "swap"

    def test_a_failed_resolve_is_a_skip(self, monkeypatch):
        """A re-solve HiGHS cannot finish (a real 1 us time limit on
        server-b) refuses the swap: the adapter records a skip and the
        serving generation stays."""
        _set(monkeypatch, check_every=4, min_batches=4, hysteresis=2, decay=0.8)
        adapter, manager, hotness, _cap = _adapter_rig(
            server_b(), SolverConfig(time_limit=1e-6)
        )
        rng = np.random.default_rng(1)
        rolled = np.roll(hotness, N // 2)
        pmf = rolled / rolled.sum()
        for i in range(64):
            adapter.observe(0, rng.choice(N, size=256, p=pmf), now=float(i))
            if adapter.maybe_adapt(float(i)) is not None:
                break
        assert adapter.detections == 1 and adapter.resolves == 0
        assert [(e.kind, e.detail) for e in adapter.events[1:]] == [
            ("skip", "solve-failed")
        ]
        assert manager.version == 0 and adapter.warm is None
        assert [r.reason for r in manager.swap_log] == ["solve-failed"]

    def test_events_serialize(self, monkeypatch):
        _set(monkeypatch, check_every=2, min_batches=2, hysteresis=1)
        adapter, _m, hotness, _cap = _adapter_rig()
        rng = np.random.default_rng(2)
        rolled = np.roll(hotness, N // 2)
        pmf = rolled / rolled.sum()
        for i in range(16):
            adapter.observe(0, rng.choice(N, size=256, p=pmf), now=float(i))
            adapter.maybe_adapt(float(i))
        assert adapter.events
        for e in adapter.events:
            d = e.to_dict()
            assert set(d) == {"at", "kind", "detail", "version"}


class TestDriftSchedules:
    @pytest.mark.parametrize("name", sorted(DRIFT_SCENARIOS))
    def test_schedule_shape(self, name):
        sched = build_drift_schedule(name, 2000, seed=3)
        assert sched.name == name
        assert sched.phases[0].start == 0.0
        assert len(sched.transitions) == len(sched.phases) - 1
        for phase in sched.phases:
            assert phase.pmf.shape == (2000,)
            assert phase.pmf.sum() == pytest.approx(1.0)
        # the pmf actually changes across each transition
        for frac in sched.transitions:
            before = sched.phases[sched.phase_at(frac - 1e-6)].pmf
            after = sched.phases[sched.phase_at(frac)].pmf
            assert np.abs(before - after).sum() > 0.1

    def test_phase_at_boundaries(self):
        sched = build_drift_schedule("rotating-head", 1000)
        assert sched.phase_at(0.0) == 0
        assert sched.phase_at(0.999) == len(sched.phases) - 1
        for k, t in enumerate(sched.transitions, start=1):
            assert sched.phase_at(t) == k
            assert sched.phase_at(t - 1e-6) == k - 1

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            build_drift_schedule("nope", 1000)


class TestDriftSoak:
    def test_too_few_entries_refused_by_the_config(self):
        """The config refuses what the schedule cannot be cut from, so no
        run starts; one entry more builds."""
        with pytest.raises(ValueError, match="drift"):
            SoakConfig.quick(drift="rotating-head", num_entries=MIN_DRIFT_ENTRIES - 1)
        SoakConfig.quick(drift="rotating-head", num_entries=MIN_DRIFT_ENTRIES)

    def test_adapt_soak_detects_and_swaps(self):
        """End-to-end: rotating-head drift is detected, incrementally
        re-solved, and swapped — and transition goodput beats adapt-off
        on the same seed."""
        base = SoakConfig.quick(seed=0, drift="rotating-head")
        off = run_soak(base)
        on = run_soak(SoakConfig.quick(seed=0, drift="rotating-head+adapt"))

        adapt = on.drift.adapt
        assert adapt is not None and off.drift.adapt is None
        assert on.drift.drift_transitions == 2
        assert adapt.drift_detections >= 1
        assert adapt.adapt_resolves >= 1
        assert adapt.adapt_incremental_resolves >= 1
        assert adapt.adapt_swaps_landed >= 1
        assert adapt.drift_tape and adapt.adapt_events
        assert (
            on.drift.transition_goodput_ratio
            > off.drift.transition_goodput_ratio
        )

    def test_adapt_off_leaves_loop_untouched(self):
        r = run_soak(SoakConfig.quick(seed=1, drift="table-shift"))
        assert r.drift.drift_scenario == "table-shift"
        assert r.drift.adapt is None
        assert "adapt" not in r.to_dict()["drift"]
        assert r.drift.transition_requests > 0
