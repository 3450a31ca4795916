"""Chaos scenario matrix and its CLI front end (``python -m repro chaos``)."""

import itertools

import pytest

from repro.faults.chaos import (
    NODE_SCENARIOS,
    SCENARIOS,
    ChaosConfig,
    build_fault_plan,
    render_results,
    run_matrix,
    run_scenario,
)

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def quick_cfg():
    return ChaosConfig.quick(seed=0)


class TestScenarioMatrix:
    def test_every_scenario_has_a_builder_or_driver(self, quick_cfg):
        for scenario in SCENARIOS:
            if scenario in ("solver-timeout", "refresh-interrupt"):
                continue
            plan = build_fault_plan(scenario, quick_cfg)
            assert len(plan) >= 1
            assert plan.name == scenario

    def test_unknown_scenario_rejected(self, quick_cfg):
        with pytest.raises(ValueError):
            run_scenario("power-outage", quick_cfg)

    def test_gpu_failure_scenario_passes(self, quick_cfg):
        result = run_scenario("gpu-failure", quick_cfg)
        assert result.ok
        assert result.values_exact
        assert result.completed_batches == quick_cfg.num_batches
        assert result.rerouted_keys > 0
        assert result.degradation > 1.0  # host path is slower
        assert result.recovery == pytest.approx(1.0, rel=0.1)

    def test_solver_timeout_scenario_passes(self, quick_cfg):
        result = run_scenario("solver-timeout", quick_cfg)
        assert result.ok
        assert result.extra["source"] in ("greedy", "cached")

    def test_refresh_interrupt_scenario_passes(self, quick_cfg):
        result = run_scenario("refresh-interrupt", quick_cfg)
        assert result.ok
        assert result.values_exact  # bit-identical after rollback
        assert result.extra["rollback_steps"] > 0
        assert result.extra["retry_moved"] > 0

    def test_full_matrix_quick(self, quick_cfg):
        results = run_matrix(cfg=quick_cfg)
        assert len(results) == len(SCENARIOS)
        assert all(r.ok for r in results)
        rendered = render_results(results)
        assert f"{len(SCENARIOS)}/{len(SCENARIOS)} scenarios passed" in rendered
        for scenario in SCENARIOS:
            assert scenario in rendered

    def test_deterministic_across_runs(self, quick_cfg):
        a = run_scenario("link-partition", quick_cfg)
        b = run_scenario("link-partition", quick_cfg)
        assert a.rerouted_keys == b.rerouted_keys
        assert a.baseline_time == pytest.approx(b.baseline_time)
        assert a.degraded_time == pytest.approx(b.degraded_time)


class TestNodeScenarios:
    """The ``node_*`` drills: the 3-node cluster tier loses a whole node."""

    @pytest.mark.parametrize("scenario", sorted(NODE_SCENARIOS))
    def test_node_scenario_passes_and_recovers(self, quick_cfg, scenario):
        result = run_scenario(scenario, quick_cfg)
        assert result.ok
        assert result.values_exact
        assert result.completed_batches == quick_cfg.num_batches
        assert result.rerouted_keys > 0, "the fault must push keys off-primary"
        assert result.degradation > 1.0  # hedged reads are slower
        assert result.recovery == pytest.approx(1.0, rel=0.1)
        assert result.recovered()

    def test_node_flap_schedules_two_stints(self, quick_cfg):
        plan = build_fault_plan("node_flap", quick_cfg)
        assert len(plan) == 2
        (first, second) = sorted(plan, key=lambda f: f.onset)
        assert first.clears_at < second.onset, "the node must come back between"

    @pytest.mark.parametrize(
        "cfg", [ChaosConfig(), ChaosConfig.quick()], ids=["full", "quick"]
    )
    def test_node_flap_brings_the_node_back_for_a_batch(self, cfg):
        """Batch ``t`` runs at time ``t``: unless some batch sees node 1 up
        between the stints, the flap is one unbroken outage."""
        plan = build_fault_plan("node_flap", cfg)
        up = [
            plan.health_at(float(t)).node_reachable(1)
            for t in range(cfg.num_batches)
        ]
        runs = [state for state, _ in itertools.groupby(up)]
        assert runs == [True, False, True, False, True]

    def test_a_death_restages_and_a_partition_does_not(self, quick_cfg):
        """Every node drill runs under the node lifecycle: a dead node
        loses its GPU caches and refills them, a partitioned one keeps
        them."""
        down = run_scenario("node_down", quick_cfg)
        partition = run_scenario("node_partition", quick_cfg)
        assert down.extra["restage_blocks"] > 0
        assert partition.extra["restage_blocks"] == 0

    def test_node_plans_target_a_node_not_a_gpu(self, quick_cfg):
        for scenario in sorted(NODE_SCENARIOS):
            for spec in build_fault_plan(scenario, quick_cfg):
                assert spec.node is not None
                assert spec.gpu is None


class TestChaosCli:
    def test_single_scenario_smoke(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--scenario", "gpu-failure", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "gpu-failure" in out
        assert "PASS" in out

    def test_metrics_artifact(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import load_metrics

        path = tmp_path / "chaos.json"
        code = main(
            ["chaos", "--scenario", "corrupt-slot", "--quick",
             "--metrics-out", str(path)]
        )
        assert code == 0
        doc = load_metrics(path)
        names = {m["name"] for m in doc["metrics"]}
        assert "chaos.scenarios" in names
        assert "faults.injected" in names


class TestRecoveryGating:
    def test_recovered_within_tolerance(self):
        from repro.faults.chaos import ScenarioResult

        r = ScenarioResult(
            scenario="x", ok=True,
            baseline_time=1.0, degraded_time=5.0, recovered_time=1.1,
        )
        assert r.recovered(1.25)
        assert not r.recovered(1.05)
        with pytest.raises(ValueError):
            r.recovered(0.5)

    def test_unjudgeable_recovery_counts_as_recovered(self):
        from repro.faults.chaos import ScenarioResult

        # no post-fault window (e.g. solver-timeout): can't be judged
        assert ScenarioResult(scenario="x", ok=True).recovered(1.0)

    def test_summarize_results_flags_unrecovered(self):
        from repro.faults.chaos import ScenarioResult, summarize_results

        good = ScenarioResult(
            scenario="good", ok=True,
            baseline_time=1.0, degraded_time=3.0, recovered_time=1.0,
        )
        stuck = ScenarioResult(
            scenario="stuck", ok=True,
            baseline_time=1.0, degraded_time=3.0, recovered_time=3.0,
        )
        summary = summarize_results([good, stuck], tolerance=1.25)
        assert summary["schema"] == "repro.chaos/v1"
        assert summary["unrecovered"] == ["stuck"]
        assert summary["failed"] == []
        assert not summary["ok"]
        by_name = {s["scenario"]: s for s in summary["scenarios"]}
        assert by_name["good"]["recovered"] is True
        assert by_name["stuck"]["recovered"] is False
        assert by_name["stuck"]["recovery"] == pytest.approx(3.0)

    def test_render_marks_never_recovered(self):
        from repro.faults.chaos import ScenarioResult, render_results

        stuck = ScenarioResult(
            scenario="stuck", ok=True,
            baseline_time=1.0, degraded_time=3.0, recovered_time=3.0,
        )
        text = render_results([stuck], tolerance=1.25)
        assert "NEVER RECOVERED" in text
        assert "FAIL" in text
        assert "0/1 scenarios passed" in text

    def test_cli_exits_nonzero_when_recovery_fails(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "summary.json"
        # an impossible tolerance: even healthy jitter counts as stuck,
        # so the run must exit non-zero and say which scenarios are stuck.
        code = main(
            ["chaos", "--scenario", "gpu-failure", "--quick",
             "--recovery-tolerance", "1.0",
             "--json-out", str(path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "never recovered" in captured.err
        doc = json.loads(path.read_text())
        assert doc["unrecovered"] == ["gpu-failure"]
        assert doc["ok"] is False

    def test_cli_json_out_on_passing_run(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "summary.json"
        code = main(
            ["chaos", "--scenario", "gpu-failure", "--quick",
             "--json-out", str(path)]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["ok"] is True
        assert doc["passed"] == 1
        assert doc["scenarios"][0]["scenario"] == "gpu-failure"
