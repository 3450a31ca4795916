"""Statistics helpers: Zipf pmf, coverage curves, aggregation."""

import numpy as np
import pytest

from repro.utils.stats import (
    coverage_curve,
    geometric_mean,
    normalize,
    zipf_pmf,
)


class TestZipfPmf:
    def test_sums_to_one(self):
        assert zipf_pmf(1000, 1.2).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        pmf = zipf_pmf(100, 0.8)
        assert (np.diff(pmf) <= 0).all()

    def test_alpha_zero_is_uniform(self):
        pmf = zipf_pmf(10, 0.0)
        assert np.allclose(pmf, 0.1)

    def test_higher_alpha_more_skewed(self):
        low = zipf_pmf(1000, 0.9)
        high = zipf_pmf(1000, 1.4)
        assert high[0] > low[0]
        assert high[-1] < low[-1]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_pmf(0, 1.0)
        with pytest.raises(ValueError):
            zipf_pmf(10, -0.1)


class TestNormalize:
    def test_result_sums_to_one(self):
        assert normalize(np.array([1.0, 3.0])).sum() == pytest.approx(1.0)

    def test_preserves_ratios(self):
        out = normalize(np.array([1.0, 3.0]))
        assert out[1] / out[0] == pytest.approx(3.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize(np.array([1.0, -1.0]))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(3))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            normalize(np.ones((2, 2)))


class TestGeometricMean:
    def test_of_constant(self):
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestCoverageCurve:
    def test_starts_at_zero_ends_at_one(self):
        curve = coverage_curve(zipf_pmf(50, 1.0))
        assert curve[0] == 0.0
        assert curve[-1] == pytest.approx(1.0)

    def test_monotone(self):
        curve = coverage_curve(zipf_pmf(50, 1.3))
        assert (np.diff(curve) >= 0).all()

    def test_concave_for_skewed_input(self):
        curve = coverage_curve(zipf_pmf(100, 1.2))
        # The first cached entry contributes more than the last.
        assert curve[1] - curve[0] > curve[-1] - curve[-2]

    @pytest.mark.slow
    def test_never_exceeds_one_on_large_catalog(self):
        # Regression: at 1e7 items the running np.cumsum drifts past 1.0
        # (zipf_pmf(1e7, 0.5) overshoots by ~2e-15 pre-fix), which
        # downstream hit-rate math would read as >100% hit rate.
        curve = coverage_curve(zipf_pmf(10**7, 0.5))
        assert curve.max() <= 1.0
        assert curve[-1] == pytest.approx(1.0)
