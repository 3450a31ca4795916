"""Retry/backoff/deadline helpers behind the solver fallback chain."""

import pytest

from repro.utils.retry import Deadline, RetriesExhausted, RetryPolicy, retry_call


class FakeClock:
    """Injectable monotonic clock; sleeps advance it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


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


class TestDeadline:
    def test_remaining_counts_down(self):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)
        clock.sleep(3.0)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        clock.sleep(2.5)
        assert deadline.remaining() == 0.0
        assert deadline.expired

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)


class TestRetryCall:
    def test_succeeds_first_try(self):
        calls = []
        assert retry_call(lambda: calls.append(1) or "ok") == "ok"
        assert len(calls) == 1

    def test_retries_until_success(self):
        clock = FakeClock()
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
            return attempts["n"]

        result = retry_call(
            flaky,
            policy=RetryPolicy(max_attempts=3, base_delay=0.1),
            sleep=clock.sleep,
        )
        assert result == 3
        assert clock.now == pytest.approx(0.1 + 0.2)  # slept the schedule

    def test_exhaustion_chains_last_error(self):
        def always():
            raise KeyError("nope")

        with pytest.raises(RetriesExhausted) as info:
            retry_call(
                always,
                policy=RetryPolicy(max_attempts=2, base_delay=0.0),
                sleep=lambda s: None,
            )
        assert isinstance(info.value.__cause__, KeyError)

    def test_unlisted_exception_propagates_immediately(self):
        calls = {"n": 0}

        def typed():
            calls["n"] += 1
            raise ValueError("fatal")

        with pytest.raises(ValueError):
            retry_call(
                typed,
                policy=RetryPolicy(max_attempts=5, base_delay=0.0),
                retry_on=(KeyError,),
                sleep=lambda s: None,
            )
        assert calls["n"] == 1

    def test_deadline_stops_retries(self):
        clock = FakeClock()
        deadline = Deadline.after(0.15, clock=clock)
        calls = {"n": 0}

        def always():
            calls["n"] += 1
            raise RuntimeError("down")

        with pytest.raises(RetriesExhausted):
            retry_call(
                always,
                policy=RetryPolicy(max_attempts=10, base_delay=0.1),
                sleep=clock.sleep,
                deadline=deadline,
            )
        assert calls["n"] < 10  # the budget cut the schedule short


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

    def test_retry_call_threads_rng_to_backoff(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.8, seed=0)
        runs = []
        for _ in range(2):
            slept = []
            with pytest.raises(RetriesExhausted):
                retry_call(
                    lambda: (_ for _ in ()).throw(ValueError("boom")),
                    policy=policy,
                    sleep=slept.append,
                    rng=42,
                )
            runs.append(tuple(slept))
        assert runs[0] == runs[1]
        assert runs[0] == tuple(policy.delays(rng=42))
