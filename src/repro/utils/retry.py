"""Retry, backoff, and deadline helpers for the solver fallback chain.

Everything here is deterministic and clock-injectable: delays come from a
seeded RNG and ``retry_call``/:class:`Deadline` take their clock and sleep
functions as arguments, so tests can drive retries without wall-clock time
passing.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.utils.rng import make_rng

#: Backoff growth factor between attempts, and the ceiling on any one sleep
#: (seconds).
BACKOFF_MULTIPLIER = 2.0
MAX_DELAY = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule for a bounded number of attempts: each
    delay is :data:`BACKOFF_MULTIPLIER` times the last, up to
    :data:`MAX_DELAY`.

    Attributes:
        max_attempts: total tries, including the first one.
        base_delay: seconds slept after the first failure.
        jitter: fractional (seeded) jitter applied to each delay, in
            ``[0, 1]``; ``0.2`` means ±20%.
        seed: RNG seed for the jitter, so schedules are reproducible.
            :meth:`delays` also accepts an explicit ``rng`` when a caller
            wants to share one generator across several schedules.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")

    def delays(self, rng: Any | None = None) -> Iterator[float]:
        """Delays slept between attempts (``max_attempts - 1`` of them).

        ``rng`` may be a ``numpy.random.Generator``, an integer seed, or
        ``None`` (use the policy's own :attr:`seed`).  Passing the same
        rng/seed always reproduces the same jittered schedule.
        """
        rng = make_rng(self.seed if rng is None else rng)
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            jittered = delay
            if self.jitter > 0:
                jittered *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
            yield min(max(jittered, 0.0), MAX_DELAY)
            delay = min(delay * BACKOFF_MULTIPLIER, MAX_DELAY)


@dataclass
class Deadline:
    """A wall-clock budget with an injectable clock.

    ``Deadline.after(5.0)`` expires five seconds from now;
    :meth:`remaining` never goes negative, so it can be handed directly to
    solver time limits.
    """

    expires_at: float
    clock: Callable[[], float] = _time.monotonic

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = _time.monotonic
    ) -> "Deadline":
        if seconds < 0:
            raise ValueError("deadline must be non-negative")
        return cls(expires_at=clock() + seconds, clock=clock)

    def remaining(self) -> float:
        return max(0.0, self.expires_at - self.clock())

    @property
    def expired(self) -> bool:
        return self.clock() >= self.expires_at


class RetriesExhausted(RuntimeError):
    """All attempts of :func:`retry_call` failed; ``__cause__`` is the last."""


def retry_call(
    fn: Callable[[], Any],
    policy: RetryPolicy | None = None,
    retry_on: tuple[type[BaseException], ...] = (Exception,),
    sleep: Callable[[float], None] = _time.sleep,
    deadline: Deadline | None = None,
    rng: Any | None = None,
) -> Any:
    """Call ``fn`` until it succeeds, backing off between failures.

    Args:
        fn: zero-argument callable to retry.
        policy: attempt count and backoff schedule.
        retry_on: exception types that trigger a retry; anything else
            propagates immediately.
        sleep: sleep function (injectable for tests).
        deadline: optional budget; once expired, no further attempts are
            made and the last failure is re-raised.
        rng: explicit jitter rng or seed handed to
            :meth:`RetryPolicy.delays` (default: the policy's own seed).

    Raises:
        RetriesExhausted: when every attempt failed (chained to the last
            failure), or the deadline expired between attempts.
    """
    policy = policy or RetryPolicy()
    delays = policy.delays(rng)
    last: BaseException | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if deadline is not None and deadline.expired and last is not None:
            raise RetriesExhausted(
                f"deadline expired after {attempt - 1} attempt(s)"
            ) from last
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt == policy.max_attempts:
                break
            delay = next(delays, 0.0)
            if deadline is not None:
                delay = min(delay, deadline.remaining())
            if delay > 0:
                sleep(delay)
    raise RetriesExhausted(
        f"all {policy.max_attempts} attempt(s) failed"
    ) from last
