"""ASCII charts and the solver/simulator agreement harness."""

import pytest

from repro.bench.plotting import bar_chart, line_chart
from repro.core.solver import SolverConfig
from repro.hardware.platform import server_a, server_c
from repro.bench.validation import validate_model_agreement


class TestLineChart:
    def test_renders_all_series(self):
        chart = line_chart(
            [0, 1, 2],
            {"rep": [1.0, 2.0, 3.0], "part": [3.0, 2.0, 1.0]},
            x_label="ratio",
            y_label="ms",
        )
        assert "o=rep" in chart and "x=part" in chart
        assert "ms" in chart

    def test_handles_none_points(self):
        chart = line_chart([0, 1], {"a": [None, 2.0]}, "x", "y")
        assert "o=a" in chart

    def test_constant_series(self):
        chart = line_chart([0, 1], {"a": [5.0, 5.0]}, "x", "y")
        assert "o" in chart

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            line_chart([0, 1], {"a": [1.0]}, "x", "y")

    def test_empty(self):
        assert line_chart([], {}, "x", "y") == "(no data)"

    def test_extremes_placed_correctly(self):
        chart = line_chart([0, 1], {"a": [0.0, 10.0]}, "x", "y", width=10, height=5)
        rows = [line for line in chart.splitlines() if line.startswith("|")]
        assert rows[0].rstrip().endswith("o")  # max at top-right
        assert rows[-1][1] == "o"  # min at bottom-left


class TestBarChart:
    def test_proportional_bars(self):
        chart = bar_chart({"a": 1.0, "b": 2.0}, "", width=10)
        a_len = chart.splitlines()[0].count("█")
        b_len = chart.splitlines()[1].count("█")
        assert b_len == 10 and a_len == 5

    def test_none_is_cross(self):
        chart = bar_chart({"WholeGraph": None, "UGache": 1.0}, "")
        assert "✗" in chart

    def test_unit_suffix(self):
        assert "ms" in bar_chart({"a": 1.5}, unit="ms")

    def test_empty(self):
        assert bar_chart({}, "") == "(no data)"
        assert bar_chart({"a": None}, "") == "(no data)"


class TestModelAgreement:
    @pytest.fixture(scope="class")
    def report(self):
        return validate_model_agreement(
            [server_a(), server_c()],
            num_entries=800,
            alphas=(0.8, 1.3),
            ratios=(0.05, 0.25),
            solver=SolverConfig(coarse_block_frac=0.05),
        )

    def test_covers_the_grid(self, report):
        assert len(report.samples) == 2 * 2 * 2

    def test_estimates_track_simulation(self, report):
        # The solver must be optimizing (approximately) the same objective
        # the simulator prices: mean error tight, worst bounded.
        assert report.mean_abs_error < 0.15
        assert report.worst_abs_error < 0.45

    def test_within_helper(self, report):
        assert report.within(1.0)
        assert not report.within(0.0) or report.worst_abs_error == 0.0

    def test_sample_fields(self, report):
        s = report.samples[0]
        assert s.platform in ("server-a", "server-c")
        assert s.estimated_time >= 0 and s.simulated_time >= 0
