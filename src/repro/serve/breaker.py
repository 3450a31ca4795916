"""Per-source circuit breakers over the multi-GPU cache's read paths.

When a source GPU keeps failing — corrupt location slots, a degraded link
whose group extraction time blows past its timeout — continuing to route
reads at it wastes deadline budget on work the degraded-mode router will
redo anyway.  A breaker per source implements the classic three-state
machine:

* **closed** — traffic flows; consecutive failures are counted;
* **open** — after ``failure_threshold`` consecutive failures the source
  is excluded from extraction plans (the extractor's degraded-mode router
  sends its keys to the cheapest surviving replica or host) for
  ``cooldown_seconds``;
* **half-open** — after the cooldown, up to ``half_open_probes`` batches
  are allowed through as probes; ``success_threshold`` consecutive probe
  successes close the breaker, any probe failure re-opens it.

All state transitions are observable: ``serve.breaker.transitions`` counts
them per (source, to-state) and ``serve.breaker.state`` gauges the current
state (0 = closed, 1 = half-open, 2 = open).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

from repro.obs import get_registry
from repro.utils.logging import get_logger

logger = get_logger("serve.breaker")

__all__ = ["BreakerBoard", "BreakerConfig", "BreakerState", "CircuitBreaker"]


class BreakerState(str, Enum):
    """The three positions of a per-source circuit breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: Gauge encoding of the state machine (exported metric value).
_STATE_CODE = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery thresholds shared by every source's breaker.

    Attributes:
        failure_threshold: consecutive failures that open a closed breaker.
        cooldown_seconds: how long an open breaker refuses before half-open.
        half_open_probes: requests a half-open breaker lets through.
        success_threshold: probe successes that close it again.
    """

    failure_threshold: int = 3
    cooldown_seconds: float = 2.0
    half_open_probes: int = 2
    success_threshold: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure threshold must be at least 1")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown must be non-negative")
        if self.half_open_probes < 1:
            raise ValueError("need at least one half-open probe")
        if self.success_threshold < 1:
            raise ValueError("success threshold must be at least 1")


class CircuitBreaker:
    """Closed → open → half-open state machine for one source.

    ``allow``/``record_success``/``record_failure`` each read and rewrite
    several fields (failure streaks, probe budgets, the state itself), so
    a per-breaker lock serializes them — per-GPU serving workers all feed
    the same :class:`BreakerBoard` and a torn half-open probe count would
    over-admit probes or wedge a breaker open.
    """

    def __init__(self, source: int, config: BreakerConfig | None = None):
        self.source = source
        self.config = config or BreakerConfig()
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self._probes_issued = 0
        self._probe_successes = 0
        self._lock = threading.Lock()
        #: full transition history: (time, from-state, to-state).
        self.transitions: list[tuple[float, BreakerState, BreakerState]] = []
        #: accumulated seconds spent in each state (closed stint starts
        #: at t=0; the in-progress stint is added by ``time_in_state``).
        self._state_entered_at = 0.0
        self._time_in_state = {state: 0.0 for state in BreakerState}

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _transition(self, to: BreakerState, now: float) -> None:
        if to is self.state:
            return
        reg = get_registry()
        reg.counter(
            "serve.breaker.transitions", source=self.source, to=to.value
        ).inc()
        reg.gauge("serve.breaker.state", source=self.source).set(
            _STATE_CODE[to]
        )
        self.transitions.append((now, self.state, to))
        self._time_in_state[self.state] += max(0.0, now - self._state_entered_at)
        self._state_entered_at = now
        reg.gauge(
            "serve.breaker.time_in_state",
            source=self.source, state=self.state.value,
        ).set(self._time_in_state[self.state])
        logger.info(
            "breaker source=%d: %s -> %s at t=%.3f",
            self.source, self.state.value, to.value, now,
        )
        self.state = to

    def allow(self, now: float) -> bool:
        """Whether a batch may read from this source at ``now``.

        An open breaker whose cooldown has elapsed moves to half-open and
        starts admitting probes; a half-open breaker admits at most
        ``half_open_probes`` outstanding probes per window.
        """
        with self._lock:
            if self.state is BreakerState.CLOSED:
                return True
            if self.state is BreakerState.OPEN:
                if now - self.opened_at < self.config.cooldown_seconds:
                    return False
                self._transition(BreakerState.HALF_OPEN, now)
                self._probes_issued = 0
                self._probe_successes = 0
            # half-open: meter the probes.
            if self._probes_issued >= self.config.half_open_probes:
                return False
            self._probes_issued += 1
            return True

    def record_success(self, now: float) -> None:
        if self.state is BreakerState.CLOSED and not self.consecutive_failures:
            return  # nothing to reset, nothing to close: no lock needed
        with self._lock:
            self.consecutive_failures = 0
            # A success while open can only come from a probe admitted just
            # before the trip; ignore — recovery goes through half-open.
            if self.state is BreakerState.HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.config.success_threshold:
                    self._transition(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if self.state is BreakerState.HALF_OPEN:
                # any probe failure re-opens immediately (fresh cooldown).
                self.opened_at = now
                self._transition(BreakerState.OPEN, now)
                return
            if (
                self.state is BreakerState.CLOSED
                and self.consecutive_failures >= self.config.failure_threshold
            ):
                self.opened_at = now
                self._transition(BreakerState.OPEN, now)

    def time_in_state(self, now: float) -> dict[str, float]:
        """Accumulated seconds per state, the in-progress stint included."""
        with self._lock:
            out = {state.value: t for state, t in self._time_in_state.items()}
            out[self.state.value] += max(0.0, now - self._state_entered_at)
        return out

    def transition_counts(self) -> dict[str, int]:
        """Transitions per to-state for this one breaker."""
        out: dict[str, int] = {}
        for _t, _frm, to in self.transitions:
            out[to.value] = out.get(to.value, 0) + 1
        return out


class BreakerBoard:
    """One breaker per cache source, plus the plan-level exclusion view."""

    _NONE: frozenset[int] = frozenset()  # what every all-closed board answers

    def __init__(
        self, sources: list[int], config: BreakerConfig | None = None
    ) -> None:
        self.config = config or BreakerConfig()
        self._breakers = {
            int(s): CircuitBreaker(int(s), self.config) for s in sources
        }

    def __iter__(self):
        return iter(self._breakers.values())

    def excluded_sources(self, now: float) -> frozenset[int]:
        """Sources extraction plans must avoid at ``now``.

        Calling this meters half-open probes: an excluded source stays
        excluded until its cooldown elapses, then readmits a bounded
        number of probe batches.  A closed breaker allows without being
        asked, so without taking its lock.
        """
        excluded = [
            s
            for s, b in self._breakers.items()
            if b.state is not BreakerState.CLOSED and not b.allow(now)
        ]
        return frozenset(excluded) if excluded else self._NONE

    def record(self, source: int, ok: bool, now: float) -> None:
        """Feed one batch outcome for ``source`` into its breaker."""
        breaker = self._breakers.get(int(source))
        if breaker is None:
            return
        if ok:
            breaker.record_success(now)
        else:
            breaker.record_failure(now)

    def transition_counts(self) -> dict[str, int]:
        """Total transitions per to-state (the soak report's summary)."""
        out: dict[str, int] = {}
        for b in self._breakers.values():
            for _t, _frm, to in b.transitions:
                out[to.value] = out.get(to.value, 0) + 1
        return out

    def transition_counts_by_source(self) -> dict[str, dict[str, int]]:
        """Per-source/per-node transition counters (JSON-keyed by id).

        Only sources that transitioned at all appear, so the common
        all-quiet report stays small.
        """
        out: dict[str, dict[str, int]] = {}
        for s, b in self._breakers.items():
            counts = b.transition_counts()
            if counts:
                out[str(s)] = counts
        return out

    def time_in_state(self, now: float) -> dict[str, dict[str, float]]:
        """Per-source seconds spent in each breaker state up to ``now``.

        Sources that never left ``closed`` are summarized implicitly (all
        their time is the closed stint); only sources with a transition
        history are listed, mirroring :meth:`transition_counts_by_source`.
        """
        return {
            str(s): b.time_in_state(now)
            for s, b in self._breakers.items()
            if b.transitions
        }
