"""Benchmark result containers and rendering."""

import pytest

from repro.bench.harness import ExperimentResult, render_table, speedup_summary


class TestExperimentResult:
    def test_add_and_columns(self):
        r = ExperimentResult("test")
        r.add(a=1, b=2.0)
        r.add(a=3, c="x")
        assert r.columns() == ["a", "b", "c"]


class TestRenderTable:
    def test_contains_title_and_values(self):
        r = ExperimentResult("Policies")
        r.experiment = "fig2"
        r.add(system="rep", time_ms=1.234)
        text = render_table(r)
        assert "fig2" in text and "Policies" in text
        assert "rep" in text and "1.234" in text

    def test_none_renders_as_cross(self):
        r = ExperimentResult("e2e")
        r.add(system="WholeGraph", time_ms=None)
        assert "✗" in render_table(r)

    def test_notes_rendered(self):
        r = ExperimentResult("e2e", notes=["geomean 2x"])
        assert "note: geomean 2x" in render_table(r)

    def test_empty_result(self):
        text = render_table(ExperimentResult("empty"))
        assert "empty" in text

    def test_small_floats_not_zeroed(self):
        r = ExperimentResult("fmt")
        r.add(v=0.00042)
        assert "0.00042" in render_table(r)


class TestSpeedupSummary:
    def test_geomean_and_max(self):
        rows = [
            {"base": 2.0, "target": 1.0},
            {"base": 8.0, "target": 1.0},
        ]
        s = speedup_summary(rows, "base", "target")
        assert s["geomean"] == pytest.approx(4.0)
        assert s["max"] == pytest.approx(8.0)
        assert s["count"] == 2

    def test_skips_missing(self):
        rows = [{"base": None, "target": 1.0}, {"base": 2.0, "target": 1.0}]
        assert speedup_summary(rows, "base", "target")["count"] == 1

    def test_all_missing(self):
        s = speedup_summary([{"base": None, "target": None}], "base", "target")
        assert s["count"] == 0
