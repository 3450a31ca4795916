"""Hot policy swap (PolicyManager) and the chaos soak harness."""

import numpy as np
import pytest

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.core.refresher import RefreshConfig, Refresher
from repro.core.solver import PolicyOutcome, SolverConfig
from repro.hardware.platform import server_a, server_b
from repro.obs import MetricsRegistry, use_registry
from repro.serve import (
    SOAK_SCENARIOS,
    PolicyManager,
    SoakConfig,
    build_soak_plan,
    render_soak_report,
    run_soak,
)
from repro.serve.soak import CLUSTER_SCENARIOS
from repro.utils.rng import make_rng
from repro.utils.stats import zipf_pmf

pytestmark = pytest.mark.serve

N = 1200


def _manager(platform=None, solver_config=None):
    platform = platform or server_a()
    rng = make_rng(0)
    table = rng.standard_normal((N, 8)).astype(np.float32)
    hotness = zipf_pmf(N, 1.1) * 1000
    cap = N // 8
    placement = hot_replicate_warm_partition_policy(
        hotness, cap, platform.num_gpus, 0.5
    )
    cache = MultiGpuEmbeddingCache(platform, table, placement)
    manager = PolicyManager(
        cache,
        refresher=Refresher(cache, RefreshConfig(update_batch_entries=64)),
        solver_config=solver_config,
    )
    target = hot_replicate_warm_partition_policy(
        hotness, cap, platform.num_gpus, 0.0
    )
    outcome = PolicyOutcome(placement=target, source="milp", est_time=1.0)
    return cache, manager, hotness, cap, outcome


def _same_placement(cache, placement):
    return all(
        np.array_equal(np.sort(a), np.sort(b))
        for a, b in zip(cache.placement.per_gpu, placement.per_gpu)
    )


class TestPolicySwap:
    def test_successful_swap_bumps_version(self):
        cache, manager, _h, _cap, outcome = _manager()
        drained = []
        report = manager.swap(
            outcome, now=5.0, drain=lambda: drained.append(True),
            probe=lambda: 1.0,
        )
        assert report.swapped and not report.rolled_back
        assert report.reason == "swapped"
        assert report.entries_moved > 0
        assert drained == [True]
        assert manager.version == 1
        assert manager.current.activated_at == 5.0
        assert _same_placement(cache, outcome.placement)
        assert cache.verify_integrity() == []

    def test_guardrail_regression_rolls_back(self):
        cache, manager, _h, _cap, outcome = _manager()
        before = cache.placement
        probes = iter([1.0, 10.0])  # post-swap p99 blows past 2x pre
        report = manager.swap(outcome, probe=lambda: next(probes))
        assert report.rolled_back and not report.swapped
        assert report.reason == "p99-guardrail"
        assert manager.version == 0
        assert _same_placement(cache, before)
        assert cache.verify_integrity() == []

    def test_interrupted_refresh_leaves_old_generation(self, monkeypatch):
        import repro.core.refresher as refresher_module

        cache, manager, _h, _cap, outcome = _manager()
        before_map = cache.source_map.copy()
        probe = make_rng(1).integers(0, N, size=300)
        before = [cache.lookup(g, probe).values.copy() for g in range(4)]
        real_apply = refresher_module.apply_diff_step
        calls = {"n": 0}

        def flaky_apply(store, table, evict, insert):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("refresh step failed")
            real_apply(store, table, evict, insert)

        monkeypatch.setattr(refresher_module, "apply_diff_step", flaky_apply)
        registry = MetricsRegistry("refresh-failed")
        with use_registry(registry), pytest.raises(
            RuntimeError, match="refresh step failed"
        ):
            manager.swap(outcome, probe=lambda: 1.0)
        monkeypatch.undo()
        assert calls["n"] > 3  # steps landed, then the rollback undid them
        assert manager.version == 0
        (report,) = manager.swap_log
        assert report.rolled_back and not report.swapped
        assert report.reason == "refresh-failed"
        assert registry.value("serve.policy.swaps", result="refresh-failed") == 1.0
        assert np.array_equal(cache.source_map, before_map)
        for gpu in range(4):
            assert np.array_equal(cache.lookup(gpu, probe).values, before[gpu])
        assert cache.verify_integrity() == []

    def test_solve_feeds_swap_end_to_end(self):
        cache, manager, hotness, cap, _outcome = _manager()
        outcome = manager.solve(hotness, cap)
        assert outcome.source == "milp"
        report = manager.swap(outcome, probe=lambda: 1.0)
        assert report.reason == "swapped"
        assert cache.verify_integrity() == []

    def test_swap_counters_exported(self):
        registry = MetricsRegistry("t")
        with use_registry(registry):
            _cache, manager, _h, _cap, outcome = _manager()
            manager.swap(outcome, probe=lambda: 1.0)
        assert registry.value("serve.policy.swaps", result="swapped") == 1.0
        assert registry.value("serve.policy.version") == 1.0


class TestRefusedSwap:
    def test_a_timed_out_resolve_keeps_the_serving_generation(self):
        # A real HiGHS time limit on server-b, no injected fake: the
        # re-solve fails, so the swap is refused and nothing moves.
        cache, manager, hotness, cap, _outcome = _manager(
            platform=server_b(), solver_config=SolverConfig(time_limit=1e-6)
        )
        before_map = cache.source_map.copy()
        registry = MetricsRegistry("t")
        with use_registry(registry):
            outcome, report = manager.resolve(
                hotness, cap, probe=lambda: pytest.fail("a refused swap probes")
            )
        assert outcome is None
        assert report.reason == "solve-failed"
        assert not report.swapped and not report.rolled_back
        assert manager.swap_log == [report]
        assert manager.version == 0
        assert np.array_equal(cache.source_map, before_map)
        assert registry.value("serve.policy.swaps", result="solve-failed") == 1


class TestSoak:
    def test_scenario_registry(self):
        assert "dgx_a100_partial_failure" in SOAK_SCENARIOS
        assert SOAK_SCENARIOS["dgx_a100_partial_failure"][0] == "server-c"
        with pytest.raises(ValueError):
            build_soak_plan("no-such-scenario", 1.0)
        assert build_soak_plan("steady", 1.0) is None
        plan = build_soak_plan("dgx_a100_partial_failure", 10.0)
        assert max(f.clears_at for f in plan.faults) <= 10.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SoakConfig(requests_per_gpu=0)
        with pytest.raises(ValueError):
            SoakConfig(load=0.0)

    def test_dgx_a100_partial_failure_soak(self):
        registry = MetricsRegistry("soak")
        with use_registry(registry):
            report = run_soak(
                SoakConfig.quick(
                    scenario="dgx_a100_partial_failure", requests_per_gpu=80
                )
            )
        # acceptance: completes with zero unhandled exceptions (we got
        # here), bounded queue depth, observable breaker transitions, and
        # at least one successful hot policy swap.
        assert report.ok
        assert report.integrity_failures == 0
        assert report.box.max_queue_depth <= report.box.queue_capacity
        assert report.breaker_transitions.get("open", 0) >= 1
        assert report.breaker_transitions.get("half-open", 0) >= 1
        assert report.box.swaps_landed >= 1
        assert report.served_ok > 0
        assert report.box.rerouted_keys > 0
        assert report.p99_latency >= report.p50_latency > 0
        # metrics made it into the registry the run was captured under
        assert registry.value("soak.goodput_rps") == pytest.approx(
            report.goodput_rps
        )
        text = render_soak_report(report)
        assert "dgx_a100_partial_failure" in text and "PASS" in text
        doc = report.to_dict()
        assert doc["ok"] is True and doc["box"]["swaps_landed"] >= 1

    def test_soak_is_deterministic(self):
        cfg = SoakConfig.quick(scenario="steady", requests_per_gpu=40)
        a = run_soak(cfg)
        b = run_soak(cfg)
        assert a.to_dict() == b.to_dict()

    def test_closed_loop_soak(self):
        report = run_soak(
            SoakConfig.quick(
                scenario="steady",
                requests_per_gpu=40,
                closed_loop=True,
                clients=3,
            )
        )
        assert report.served_ok > 0
        assert report.integrity_failures == 0
        assert report.box.max_queue_depth <= report.box.queue_capacity

    @pytest.mark.parametrize(
        "scenario", sorted(set(SOAK_SCENARIOS) - CLUSTER_SCENARIOS)
    )
    def test_overload_never_fills_a_queue(self, scenario):
        # Admission sheds once (depth + 1) x estimate passes the SLO
        # (8 x s0) or the deadline (10 x s0), far short of the queue's
        # capacity, so the full-queue reject never fires and a full queue
        # needs no other policy.  A change that makes the bound reachable
        # has to revisit that.
        tenants = 3 if scenario == "hps-multitenant" else 1
        report = run_soak(
            SoakConfig.quick(scenario=scenario, load=2.0, tenants=tenants)
        )
        assert report.box.max_queue_depth < report.box.queue_capacity
        assert report.rejected == 0

    def test_overload_sheds_instead_of_queueing_unboundedly(self, monkeypatch):
        from repro.serve import soak

        monkeypatch.setattr(soak, "SWAP_AT", ())
        report = run_soak(
            SoakConfig.quick(scenario="steady", requests_per_gpu=60, load=3.0)
        )
        assert report.shed + report.rejected > 0
        assert report.box.max_queue_depth <= report.box.queue_capacity
        assert report.served_ok > 0
