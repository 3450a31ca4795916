"""The figure table (``bench/report.SPECS``) and what is derived from it."""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.harness import ExperimentResult, render_table
from repro.bench.report import SPECS

ROOT = Path(__file__).resolve().parents[1]
BY_ID = {spec.exp_id: spec for spec in SPECS}
#: The drivers that take well under a second each.
FAST = ("table1", "table3", "fig6", "fig17", "ablation-blocking", "generalization")


@functools.lru_cache(maxsize=None)
def _run(exp_id: str) -> ExperimentResult:
    return BY_ID[exp_id].run()


class TestSpecs:
    def test_every_paper_experiment_covered(self):
        expected = {
            "table1", "table3",
            "fig2", "fig4", "fig6", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15", "fig16", "fig17",
        }
        assert expected <= set(BY_ID)

    def test_specs_well_formed(self):
        for spec in SPECS:
            assert callable(spec.driver) and spec.paper_claim
            assert callable(spec.headline) and spec.measured
            assert spec.claims, spec.exp_id
            assert all(text and callable(holds) for text, holds in spec.claims)

    def test_no_duplicate_ids(self):
        ids = [spec.exp_id for spec in SPECS]
        assert len(ids) == len(set(ids))


class TestSummarizersOnFastDrivers:
    @pytest.mark.parametrize("exp_id", FAST)
    def test_headline_renders_and_every_claim_holds(self, exp_id):
        spec, result = BY_ID[exp_id], _run(exp_id)
        assert spec.summary(result.rows)
        assert spec.failures(result.rows) == []
        assert render_table(result).startswith(f"== {exp_id}: ")

    def test_table3_summary(self):
        assert "6 datasets" in BY_ID["table3"].summary(_run("table3").rows)

    def test_fig6_summary(self):
        summary = BY_ID["fig6"].summary(_run("fig6").rows)
        assert "SMs" in summary and "GB/s" in summary

    def test_fig17_summary(self):
        assert "foreground impact" in BY_ID["fig17"].summary(_run("fig17").rows)

    def test_a_broken_claim_is_named(self):
        rows = [dict(row, impact_pct=50.0) for row in _run("fig17").rows]
        assert BY_ID["fig17"].failures(rows) == [
            "each refresh slows the foreground by at most 10.5%"]


def test_results_out_is_keyed_by_table_ids(tmp_path):
    """The bench session names each result by its entry's id, whatever the
    driver is called."""
    out = tmp_path / "results.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/bench_figures.py", "-k", "table3 or fig6 or fig17",
         "--results-out", str(out)],
        cwd=ROOT, env=env, check=True, capture_output=True)
    assert set(json.loads(out.read_text())) == {"table3", "fig6", "fig17"}


def _paper_claims():
    spec = importlib.util.spec_from_file_location(
        "paper_claims", ROOT / "tools" / "paper_claims.py")
    claims = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(claims)
    return claims


def test_paper_claims_summary_has_the_ledger_keys(monkeypatch):
    """Stub rows that reproduce the parent's numbers summarize to exactly
    the parent block's figures, and pass its gate."""
    claims = _paper_claims()
    parent = json.loads((ROOT / "BENCH_paper.json").read_text())["parent"]
    monkeypatch.setattr(claims, "solver_probe", lambda: parent["solver"])

    def speedups(fig):
        return [{"UGache": 1.0, **parent[fig]}]

    rows = {
        "fig10": speedups("fig10"),
        "fig11": speedups("fig11"),
        "fig12": [{"dataset": cell.split()[0],
                   "cache_ratio_pct": float(cell.split()[1].rstrip("%")),
                   "UGache_ms": ms, "plus_policy_ms": ms, "PartU_ms": ms}
                  for cell, ms in parent["fig12"].items()],
        "fig13": [{f"{link}_{fem}_fem_pct": ratio if fem == "w" else 1.0
                   for link, ratio in parent["fig13"].items() for fem in ("w", "wo")}],
        "fig16": [{"platform": key.split()[0], "workload": key.split()[1],
                   "gap_pct": gap} for key, gap in parent["fig16"]["gap_pct"].items()],
    }
    now = claims.summarize({k: {"rows": r, "seconds": 1.0} for k, r in rows.items()})
    assert set(now) == set(parent)
    for fig in claims.GATED:
        assert set(parent[fig]) <= set(now[fig]), fig
    assert claims.check(now, parent) == []


def test_fig12_gains_are_gated_higher_is_better():
    """A parent recorded with fig-12's whole headline: a time cell may not
    rise, a gain ratio may not fall, and a rising gain is no regression."""
    claims = _paper_claims()
    others = {"fig16": {"gap_pct": {}}, "fig10": {}, "fig11": {}, "fig13": {},
              "solver": {}}
    fig12 = {"pa 2%": 0.04, "pa 25%": 0.02, "low_pct": 2.0, "high_pct": 25.0,
             "mechanism_low": 1.5, "policy_low": 1.2, "policy_high": 1.1}
    parent = {**others, "fig12": fig12}

    def worse(**moved):
        return claims.check({**others, "fig12": {**fig12, **moved}}, parent)

    assert worse(mechanism_low=3.0, policy_low=2.4, policy_high=2.2) == []
    assert worse(**{"pa 2%": 0.03}) == []
    assert [line.split(":")[0] for line in worse(policy_low=1.0)] == ["fig12 policy_low"]
    assert [line.split(":")[0] for line in worse(**{"pa 25%": 0.03})] == ["fig12 pa 25%"]


class TestMarkdownSkeleton:
    def test_render_single_section(self, monkeypatch):
        """generate_markdown structure, with all drivers stubbed fast."""
        import repro.bench.report as report

        def fake_driver():
            r = ExperimentResult("stubbed result")
            r.add(x=1)
            return r

        stub_specs = tuple(
            replace(spec, driver=fake_driver, headline=lambda rows: {}, measured="ok")
            for spec in report.SPECS[:3]
        )
        monkeypatch.setattr(report, "SPECS", stub_specs)
        text = report.generate_markdown()
        assert text.startswith("# EXPERIMENTS")
        assert "**Paper:**" in text
        assert "**Measured:** ok" in text
        assert text.count("## ") == 3
        assert f"== {stub_specs[0].exp_id}: stubbed result ==" in text
