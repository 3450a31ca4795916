"""Admission control: bounded per-GPU queues, backpressure, SLO shedding.

Production embedding servers bound their queues — an unbounded queue under
sustained overload converts a throughput problem into an unbounded-latency
problem.  A full queue refuses a newcomer at once with
:attr:`~repro.serve.request.RequestStatus.REJECTED`: that bound is the
memory bound, and the SLO shedder below keeps queues far short of it.

SLO-aware load shedding drops a request *at admission* when the latency
estimator predicts it cannot meet its deadline or the configured SLO —
shedding early is strictly cheaper than doing the work and missing
anyway.  The estimator is fed from (and feeds) the ``serve.batch.seconds``
histograms in :mod:`repro.obs`, so its view and the exported metrics can
never disagree.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

from repro.obs import Counter, Histogram, get_registry
from repro.serve.request import Request, RequestStatus

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionResult",
    "BoundedRequestQueue",
    "LatencyEstimator",
    "QueuePolicy",
]


class QueuePolicy(str, Enum):
    """What happens to a new request when its GPU's queue is full: it is
    rejected."""

    REJECT = "reject"


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the admission controller.

    Attributes:
        capacity: maximum queued requests per GPU.
        policy: what a full queue does to a newcomer (it rejects).
        slo_seconds: target end-to-end latency; ``inf`` disables SLO
            shedding (deadline-based shedding still applies).
        shed_on_slo: predictively shed at admission when the estimated
            completion would bust the request's deadline or, behind a
            non-empty queue, the SLO.
    """

    capacity: int = 64
    policy: QueuePolicy = QueuePolicy.REJECT
    slo_seconds: float = math.inf
    shed_on_slo: bool = True

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if self.slo_seconds <= 0:
            raise ValueError("SLO must be positive")


#: EWMA smoothing factor of the latency estimator.
ESTIMATOR_ALPHA = 0.2


class LatencyEstimator:
    """EWMA service-time estimate backed by an obs histogram.

    Every observation lands in the registry histogram
    ``serve.batch.seconds{gpu=…}`` (the export surface) *and* updates a
    local EWMA (the fast estimate admission control reads per request).
    """

    def __init__(self, gpu: int) -> None:
        self.gpu = gpu
        self._ewma: float | None = None

    def _histogram(self) -> Histogram:
        return get_registry().cached("histogram", "serve.batch.seconds", gpu=self.gpu)

    def observe(self, seconds: float) -> None:
        """Record one measured service time."""
        seconds = float(seconds)
        self._histogram().observe(seconds)
        if self._ewma is None:
            self._ewma = seconds
        else:
            self._ewma += ESTIMATOR_ALPHA * (seconds - self._ewma)

    def estimate(self) -> float:
        """Expected service time of the next batch: 0.0 before the first
        sample (consumers learn from observation), which seeds the EWMA
        directly."""
        return self._ewma if self._ewma is not None else 0.0


@dataclass
class AdmissionResult:
    """What admission did with one request."""

    admitted: bool
    #: set iff the request was dropped at admission (shed / rejected).
    status: RequestStatus | None = None


class BoundedRequestQueue:
    """One GPU's bounded FIFO with a full-queue reject and SLO shedding."""

    def __init__(self, gpu: int, config: AdmissionConfig | None = None) -> None:
        self.gpu = gpu
        self.config = config or AdmissionConfig()
        self.estimator = LatencyEstimator(gpu)
        self._queue: deque[Request] = deque()
        self.max_depth = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._queue)

    def peek(self) -> Request | None:
        """The request :meth:`pop` would return next, without removing it."""
        return self._queue[0] if self._queue else None

    def tightest_deadline(self) -> float:
        """Earliest deadline among the queued requests (the queue must not
        be empty); the micro-batcher reads it to decide when to flush."""
        return min(r.deadline for r in self._queue)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _predicted_wait(self) -> float:
        """Estimated queueing + service time for a request admitted now."""
        est = self.estimator.estimate()
        return (self.depth + 1) * est

    def _should_shed(self, request: Request, now: float) -> bool:
        if not self.config.shed_on_slo:
            return False
        predicted = self._predicted_wait()
        if predicted <= 0:
            return False  # no samples yet — admit and learn
        if predicted > request.remaining(now):
            return True
        # An empty queue sheds on the deadline alone: the estimate moves
        # only on served requests, so an SLO test there would shed for good
        # once a fault lifted the estimate past the SLO.
        return self.depth > 0 and predicted > self.config.slo_seconds

    def offer(self, request: Request, now: float) -> AdmissionResult:
        """Admit, shed, or reject ``request`` at time ``now``."""
        if request.expired(now) or self._should_shed(request, now):
            self._admission("shed").inc()
            return AdmissionResult(admitted=False, status=RequestStatus.SHED)
        if self.depth >= self.config.capacity:
            self._admission("rejected").inc()
            return AdmissionResult(admitted=False, status=RequestStatus.REJECTED)
        self._queue.append(request)
        self._admission("admitted").inc()
        self._note_depth()
        return AdmissionResult(admitted=True)

    def _admission(self, result: str) -> Counter:
        return get_registry().cached(
            "counter", "serve.admission", gpu=self.gpu, result=result
        )

    def _note_depth(self) -> None:
        depth = self.depth
        if depth > self.max_depth:
            self.max_depth = depth
        get_registry().cached("gauge", "serve.queue.depth", gpu=self.gpu).set(depth)

    def pop(self) -> Request | None:
        """Dequeue the next request."""
        request = self._queue.popleft() if self._queue else None
        get_registry().cached("gauge", "serve.queue.depth", gpu=self.gpu).set(
            self.depth
        )
        return request


class AdmissionController:
    """Per-GPU bounded queues behind one submission surface."""

    def __init__(self, num_gpus: int, config: AdmissionConfig | None = None):
        if num_gpus < 1:
            raise ValueError("need at least one GPU")
        self.config = config or AdmissionConfig()
        self.queues = [
            BoundedRequestQueue(g, self.config) for g in range(num_gpus)
        ]

    def queue(self, gpu: int) -> BoundedRequestQueue:
        return self.queues[gpu]

    def estimator(self, gpu: int) -> LatencyEstimator:
        return self.queues[gpu].estimator

    def submit(self, request: Request, now: float) -> AdmissionResult:
        if not 0 <= request.gpu < len(self.queues):
            raise ValueError(f"request targets unknown GPU {request.gpu}")
        return self.queues[request.gpu].offer(request, now)

    @property
    def max_depth(self) -> int:
        return max(q.max_depth for q in self.queues)
