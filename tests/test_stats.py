"""Statistics helpers: Zipf pmf, key draws from a CDF, aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import choice_cdf, geometric_mean, sample_cdf, zipf_pmf


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


class TestChoiceCdf:
    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=200).filter(
            lambda w: sum(w) > 0
        ),
        size=st.one_of(st.none(), st.integers(0, 64), st.tuples(
            st.integers(1, 4), st.integers(1, 4)
        )),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_equal_generator_choice(self, weights, size, seed):
        """The same indices as ``Generator.choice`` with ``p``, and the
        generator left at the same stream position."""
        p = np.asarray(weights) / np.sum(weights)
        theirs, ours = np.random.default_rng(seed), np.random.default_rng(seed)
        want = theirs.choice(len(p), size=size, p=p)
        got = sample_cdf(choice_cdf(p), ours, size)
        assert np.array_equal(got, want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_zipf_draws_equal_generator_choice(self):
        p = zipf_pmf(20_000, 1.1)
        cdf = choice_cdf(p)
        for seed in range(5):
            theirs, ours = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                want = theirs.choice(20_000, size=1024, p=p)
                assert np.array_equal(sample_cdf(cdf, ours, 1024), want)

    @pytest.mark.parametrize(
        "p",
        [
            [0.5, np.nan, 0.5],
            [0.5, np.inf],
            [1.5, -0.5],
            [0.5, 0.4],
            [[0.5, 0.5]],
        ],
        ids=["nan", "inf", "negative", "sum", "2-d"],
    )
    def test_rejects_what_choice_rejects(self, p):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(np.ravel(p)), p=p)
        with pytest.raises(ValueError):
            choice_cdf(p)
