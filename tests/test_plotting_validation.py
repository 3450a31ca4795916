"""The solver/simulator agreement harness."""

import pytest

from repro.core.solver import SolverConfig
from repro.hardware.platform import server_a, server_c
from repro.bench.validation import validate_model_agreement


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
