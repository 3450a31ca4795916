"""The seeded backoff schedule behind the cluster's RPC retries."""

import pytest

from repro.utils.retry import RetryPolicy


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(max_attempts=7, base_delay=0.1)
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.6, 2.0])

    def test_single_attempt_has_no_delays(self):
        assert list(RetryPolicy(max_attempts=1).delays()) == []

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.5, seed=7)
        first = list(policy.delays())
        second = list(policy.delays())
        assert first == second  # deterministic
        plain = list(RetryPolicy(max_attempts=4, base_delay=0.1).delays())
        for jittered, base in zip(first, plain):
            assert 0.5 * base <= jittered <= 1.5 * base

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)


class TestExplicitJitterRng:
    def test_explicit_seed_reproduces_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.5, seed=7)
        assert list(policy.delays(rng=123)) == list(policy.delays(rng=123))
        # an explicit rng overrides the policy's own seed
        assert list(policy.delays(rng=123)) != list(policy.delays())

    def test_shared_generator_advances_across_schedules(self):
        from repro.utils.rng import make_rng

        policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.5)
        rng = make_rng(9)
        first = list(policy.delays(rng=rng))
        second = list(policy.delays(rng=rng))  # same generator, consumed on
        assert first != second
        replay = make_rng(9)
        assert list(policy.delays(rng=replay)) == first

    def test_none_falls_back_to_policy_seed(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.5, seed=7)
        assert list(policy.delays(rng=None)) == list(policy.delays())
