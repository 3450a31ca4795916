"""Command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.platform == "server-c"
        assert args.cache_ratio == 0.08

    def test_solve_overrides(self):
        args = build_parser().parse_args(
            ["solve", "--platform", "server-a", "--entries", "100", "--alpha", "0.9"]
        )
        assert args.platform == "server-a"
        assert args.entries == 100
        assert args.alpha == 0.9

    def test_invalid_platform_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--platform", "server-z"])


class TestCommands:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for key in ("fig2", "fig10", "table1", "fig16"):
            assert key in out

    def test_experiment_registry_complete(self):
        # Every paper table/figure has a CLI id.
        expected = {
            "table1", "table3",
            "fig2", "fig4", "fig6", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15", "fig16", "fig17",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_platforms_command(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "server-a" in out and "server-c" in out
        assert "GB/s" in out

    def test_solve_command_small(self, capsys):
        code = main(
            ["solve", "--entries", "500", "--cache-ratio", "0.1",
             "--platform", "server-a", "--coarse-frac", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated extraction time" in out
        assert "hit rates" in out

    def test_experiment_command_fast_driver(self, capsys):
        assert main(["experiment", "table3"]) == 0
        assert "Criteo-TB" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["solve", "--entries", "500", "--alpha", "-1"], "--alpha"),
            (["cluster", "--entries", "0"], "--entries"),
            (["solve", "--entries", "0"], "--entries"),
            (["solve", "--entries", "500", "--cache-ratio", "1.5"], "--cache-ratio"),
            (["solve", "--entries", "500", "--coarse-frac", "0"], "--coarse-frac"),
            (["cluster", "--alpha", "-1"], "--alpha"),
        ],
    )
    def test_out_of_range_value_is_one_line_and_exit_2(self, capsys, argv, names):
        """Rejected before any work: no traceback, nothing on stdout."""
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and names in err


class TestMetrics:
    def test_solve_writes_metrics_artifact(self, capsys, tmp_path):
        from repro.obs import load_metrics

        out = tmp_path / "solve.json"
        code = main(
            ["solve", "--entries", "500", "--cache-ratio", "0.1",
             "--platform", "server-a", "--coarse-frac", "0.1",
             "--metrics-out", str(out)]
        )
        assert code == 0
        assert "metrics written to" in capsys.readouterr().out
        doc = load_metrics(out)
        names = {m["name"] for m in doc["metrics"]}
        # Hit split, per-GPU extraction timing, and solver solve time all
        # land in one artifact.
        assert "cache.hit_rate" in names
        assert "extract.gpu_seconds" in names
        assert "solver.solve.seconds" in names

    def test_experiment_writes_metrics_artifact(self, capsys, tmp_path):
        from repro.obs import load_metrics

        out = tmp_path / "exp.json"
        assert main(["experiment", "table3", "--metrics-out", str(out)]) == 0
        doc = load_metrics(out)
        assert doc["schema"] == "repro.obs/v1"

    def test_metrics_command_summarizes(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        main(["solve", "--entries", "500", "--cache-ratio", "0.1",
              "--platform", "server-a", "--coarse-frac", "0.1",
              "--metrics-out", str(out)])
        capsys.readouterr()
        assert main(["metrics", str(out)]) == 0
        text = capsys.readouterr().out
        assert "metrics artifact" in text
        assert "solver.solve.seconds" in text

    def test_metrics_command_missing_file(self, capsys, tmp_path):
        assert main(["metrics", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


@pytest.mark.serve
class TestSoakCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["soak"])
        assert args.scenario == "dgx_a100_partial_failure"
        assert args.load == 0.8
        assert not args.closed_loop

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["soak", "--scenario", "nope"])

    def test_quick_soak_passes_and_writes_artifacts(self, tmp_path, capsys):
        import json

        summary = tmp_path / "soak.json"
        metrics = tmp_path / "metrics.json"
        code = main(
            ["soak", "--quick", "--requests", "60", "--seed", "0",
             "--json-out", str(summary), "--metrics-out", str(metrics)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "policy swaps" in out
        doc = json.loads(summary.read_text())
        assert doc["ok"] is True
        assert doc["integrity_failures"] == 0
        assert doc["served_ok"] > 0
        from repro.obs import load_metrics

        names = {m["name"] for m in load_metrics(metrics)["metrics"]}
        assert "serve.latency.seconds" in names
        assert "soak.goodput_rps" in names

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["--scenario", "steady", "--compare-adapt"], "--compare-adapt"),
            (["--scenario", "steady", "--drift", "rotating-head",
              "--compare-adapt"], "--compare-adapt"),
        ],
    )
    def test_a_comparison_that_cannot_run_exits_2(
        self, monkeypatch, capsys, argv, names
    ):
        """A ``--compare-*`` flag whose arm cannot run used to print no row
        and exit 0; now it is one stderr line and exit 2, before any soak."""
        import repro.serve.soak as soak_module

        def no_soak(cfg):
            raise AssertionError("a soak ran")

        monkeypatch.setattr(soak_module, "run_soak", no_soak)
        assert main(["soak", "--quick", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("bad soak configuration: ") and names in err

    @pytest.mark.parametrize(
        "argv",
        [["--repair"], ["--restage", "burst"], ["--compare-restage"]],
    )
    def test_the_parser_rejects_the_repair_flags(self, argv, capsys):
        """A dead node always loses its caches and refills them in stages:
        there is no repair switch, burst refill or comparison left."""
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(
                ["soak", "--quick", "--scenario", "node-kill", "--nodes", "3",
                 *argv]
            )
        assert exit_.value.code == 2
        assert argv[0] in capsys.readouterr().err


class TestTiersCommand:
    @pytest.mark.parametrize("entries", [1, 2, 3])
    def test_a_swap_may_fill_a_gpu_the_opening_placement_left_short(
        self, capsys, entries
    ):
        """Each GPU's slot arena holds the stack's capacity, not just the
        entries its opening placement cached: on a tiny table the policy
        swap fills GPUs that started near empty."""
        assert main(["tiers", "dram:1MB", "--entries", str(entries)]) == 0
        assert "dram:1MB" in capsys.readouterr().out
