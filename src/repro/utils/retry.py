"""The backoff schedule of the cluster's RPC retries (``cluster/rpc.py``).

Deterministic: delays come from a seeded RNG, so a schedule replays
exactly for a given seed or generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

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
