"""Statistics helpers: Zipf pmf, aggregation."""

import numpy as np
import pytest

from repro.utils.stats import geometric_mean, zipf_pmf


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
