"""Serving request/response types and the simulated clock's physics.

The serving runtime runs entirely in *simulated* time: the clock is a
plain float the soak harness advances by the priced extraction times, so
a 30-second soak finishes in well under a wall-clock second and every run
is bit-reproducible.  A real deployment would pass ``time.monotonic``
readings instead; nothing in the runtime cares which it gets.

:func:`check_time_physics` states what that clock must obey; every soak
runs it over its own responses.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Request",
    "RequestStatus",
    "Response",
    "check_time_physics",
]


class RequestStatus(str, Enum):
    """Terminal state of one serving request."""

    #: served within its deadline — the only state that counts as goodput.
    OK = "ok"
    #: dropped at admission by SLO-aware load shedding.
    SHED = "shed"
    #: refused at admission because the queue was full.
    REJECTED = "rejected"
    #: served (or dropped) after its deadline had already passed.
    EXPIRED = "expired"
    #: an unrecoverable serving error (should never happen — degraded
    #: mode reroutes instead — but the status exists so nothing is silent).
    FAILED = "failed"


@dataclass(frozen=True)
class Request:
    """One embedding-gather request against a single destination GPU.

    ``deadline`` is absolute (same timebase as the clock); ``math.inf``
    means best-effort.  Keys are the entry ids to gather.
    """

    request_id: int
    gpu: int
    keys: np.ndarray
    arrival: float
    deadline: float = math.inf

    def remaining(self, now: float) -> float:
        """Seconds of deadline budget left at ``now`` (can be negative)."""
        return self.deadline - now

    def expired(self, now: float) -> bool:
        return now >= self.deadline


@dataclass
class Response:
    """The outcome of one request, with full serving provenance."""

    request: Request
    status: RequestStatus
    completed_at: float = 0.0
    #: when the extraction began (None if dropped before execution);
    #: stored because ``completed_at - service_time`` does not round-trip.
    started_at: float | None = None
    #: simulated seconds the extraction itself took (queueing excluded).
    service_time: float = 0.0
    #: a host-DRAM hedge was issued because the deadline was close.
    hedged: bool = False
    #: the hedge finished first and its result was taken.
    hedge_won: bool = False
    #: keys the degraded-mode router moved off their mapped source.
    rerouted_keys: int = 0
    #: how many requests shared this request's extraction (1 = served
    #: alone; >1 = coalesced into a micro-batch of that size).
    coalesced: int = 1
    #: gathered values (None for requests dropped before execution).
    values: np.ndarray | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.OK

    @property
    def latency(self) -> float:
        """Arrival-to-completion seconds (0 for admission-time drops,
        which complete *at* arrival).  Completing before arriving is a
        harness bug, never a latency of zero."""
        if self.completed_at < self.request.arrival:
            raise ValueError(
                f"request {self.request.request_id} completed before it arrived"
            )
        return self.completed_at - self.request.arrival


def check_time_physics(
    responses: Sequence[Response],
    offered: int | None = None,
    batches: Sequence = (),
) -> list[str]:
    """Violations of the simulated clock's physics (empty = clean).

    ``responses`` in production order (per GPU: service order),
    ``offered`` the number of requests submitted, ``batches`` every
    :class:`~repro.serve.coalesce.CoalesceOutcome`.  Checked:
    conservation (one response per offered request); causality (nothing
    starts or completes before it arrives, and ``completed_at ==
    started_at + service_time`` exactly); one service at a time (a GPU's
    intervals are disjoint and ordered, a coalesced batch being one
    interval); one price per union (a batch extracts no more keys than
    were asked for, and members share its start and — unless they won a
    hedge — its price).
    """
    bad: list[str] = []

    def flag(r: Response, what: str) -> None:
        bad.append(f"request {r.request.request_id} (gpu {r.request.gpu}) {what}")

    if offered is not None and offered != len(responses):
        bad.append(f"{offered} requests offered, {len(responses)} answered")
    interval: dict[int, tuple[float, float]] = {}
    for r in responses:
        if r.completed_at < r.request.arrival:
            flag(r, "completed before it arrived")
        if r.started_at is None:
            continue
        if r.started_at < r.request.arrival:
            flag(r, "started before it arrived")
        if r.completed_at != r.started_at + r.service_time:
            flag(r, "has completed_at != started_at + service_time")
        start, end = interval.get(r.request.gpu, (-math.inf, -math.inf))
        if r.started_at == start:
            end = max(end, r.completed_at)
        elif r.started_at < end:
            flag(r, "started while its GPU was still serving")
        else:
            start, end = r.started_at, r.completed_at
        interval[r.request.gpu] = (start, end)
    for outcome in batches:
        members = [r for r in outcome.responses if r.started_at is not None]
        if outcome.union_size > outcome.total_keys:
            bad.append("coalesced batch extracted more keys than requested")
        for r in members:
            if r.started_at != members[0].started_at or not (
                r.hedge_won or r.service_time == outcome.service_time
            ):
                flag(r, "disagrees with its batch's start or price")
    return bad
