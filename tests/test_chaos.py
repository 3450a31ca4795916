"""Chaos scenario matrix and its CLI front end (``python -m repro chaos``).

Node faults are cluster soaks; their drills live in ``tests/test_cluster.py``."""

import pytest

from repro.faults.chaos import (
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

    def test_the_matrix_drills_one_box(self, quick_cfg):
        """Node faults run as cluster soaks, not here: no row targets a
        node and the module imports nothing from the cluster tier."""
        import ast
        import pathlib

        from repro.faults import chaos

        assert len(SCENARIOS) == 9
        for scenario in SCENARIOS:
            if scenario not in ("solver-timeout", "refresh-interrupt"):
                plan = build_fault_plan(scenario, quick_cfg)
                assert all(spec.node is None for spec in plan)
        tree = ast.parse(pathlib.Path(chaos.__file__).read_text())
        imported = [
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        ] + [
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names
        ]
        assert not [m for m in imported if m.startswith("repro.cluster")]

    def test_deterministic_across_runs(self, quick_cfg):
        a = run_scenario("link-partition", quick_cfg)
        b = run_scenario("link-partition", quick_cfg)
        assert a.rerouted_keys == b.rerouted_keys
        assert a.baseline_time == pytest.approx(b.baseline_time)
        assert a.degraded_time == pytest.approx(b.degraded_time)


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
