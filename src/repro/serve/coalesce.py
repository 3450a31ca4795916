"""Cross-request coalescing: per-GPU micro-batching of admitted requests.

Under load, consecutive requests against the same destination GPU overlap
heavily on a skewed key distribution — the hot head of the Zipf curve is
in every batch.  Serving them one by one re-extracts the same keys over
and over.  A :class:`MicroBatcher` instead drains its GPU's bounded queue
in small groups under a batching policy (batch-size cap, bounded linger,
SLO-aware early flush), unions and deduplicates the member keys into
*one* extraction demand, prices it once through the shared
:func:`~repro.core.pipeline.price_demand` stage, and scatters the results
back so every member keeps its own deadline/hedging/latency accounting.

Coalescing is strictly opt-in (:attr:`BatchingMode.OFF` is the default):
when off, the soak drains the same queues with batches of one through
:meth:`~repro.serve.runtime.ServingRuntime.serve_request`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.serve.queueing import BoundedRequestQueue
from repro.serve.request import Request, Response

__all__ = [
    "BatchingMode",
    "CoalesceConfig",
    "CoalesceOutcome",
    "MicroBatcher",
    "coalesce_keys",
]


class BatchingMode(str, Enum):
    """Whether the serving loop coalesces queued requests."""

    OFF = "off"
    COALESCE = "coalesce"


@dataclass(frozen=True)
class CoalesceConfig:
    """Batching policy of one GPU's micro-batcher.

    Attributes:
        mode: :attr:`BatchingMode.OFF` disables coalescing outright.
        max_batch: most requests fused into one extraction; reaching it
            flushes immediately (no linger).
        linger_seconds: how long the oldest queued request may wait for
            company before the batch flushes anyway — or earlier, when the
            tightest member deadline minus the estimated service time
            would otherwise pass while lingering (dedup traded for
            deadline safety).
    """

    mode: BatchingMode = BatchingMode.OFF
    max_batch: int = 8
    linger_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max batch must be at least 1")
        if self.linger_seconds < 0:
            raise ValueError("linger must be non-negative")


def coalesce_keys(requests: list[Request]) -> tuple[np.ndarray, int, np.ndarray]:
    """Union + dedup of the member key sets: the batch's one dedup index.

    Returns ``(union, total, inverse)``.  ``union`` is the sorted unique
    key array extracted once for the whole batch; ``total`` counts the
    member keys before dedup (``total / len(union)`` is the batch's dedup
    ratio); ``inverse`` has one union position per member key, members in
    order, so ``union[inverse]`` is the concatenated member keys and
    ``values.take(inverse, axis=0)`` scatters the union's rows back to
    every member in one gather.
    """
    if not requests:
        return np.empty(0, dtype=np.int64), 0, np.empty(0, dtype=np.intp)
    concat = np.concatenate([np.asarray(r.keys, dtype=np.int64) for r in requests])
    union, inverse = np.unique(concat, return_inverse=True)
    return union, len(concat), inverse


@dataclass
class CoalesceOutcome:
    """What one coalesced service did, for the soak report and tests."""

    responses: list[Response] = field(default_factory=list)
    #: members actually fused into the shared extraction.  Expired-on-
    #: arrival members are dropped *before* extraction and are not
    #: counted here (they still appear in ``responses`` as EXPIRED).
    batch_size: int = 0
    #: unique keys actually extracted.
    union_size: int = 0
    #: member keys before dedup.
    total_keys: int = 0
    #: shared extraction price every member waited for.
    service_time: float = 0.0
    #: when the shared extraction finishes (the GPU is busy until then).
    completed_at: float = 0.0

    @property
    def dedup_ratio(self) -> float:
        """Keys saved by coalescing: total member keys per unique key."""
        return self.total_keys / self.union_size if self.union_size else 1.0


class MicroBatcher:
    """Drains one GPU's bounded queue in coalescable micro-batches.

    The batcher owns no threads and no clock: the serving loop asks
    :meth:`flush_at` when the next batch should form (given when the GPU
    frees up) and calls :meth:`take` at that instant.  That keeps the
    policy identical under the simulated-clock soak loop and any
    wall-clock serving loop.
    """

    def __init__(
        self,
        gpu: int,
        queue: BoundedRequestQueue,
        config: CoalesceConfig | None = None,
    ) -> None:
        self.gpu = gpu
        self.config = config or CoalesceConfig(mode=BatchingMode.COALESCE)
        self._queue = queue

    @property
    def pending(self) -> int:
        return self._queue.depth

    def flush_at(self, free_at: float) -> float | None:
        """When the next batch should be served, or None if nothing queued.

        A full batch (``max_batch`` queued) flushes as soon as the GPU is
        free; otherwise the oldest request lingers up to
        ``linger_seconds`` waiting for company, flushing earlier when the
        tightest member deadline (minus the estimated service time) would
        pass while waiting.
        """
        head = self._queue.peek()
        if head is None:
            return None
        target = head.arrival + self.config.linger_seconds
        if self._queue.depth >= self.config.max_batch or target <= free_at:
            # Full, or the head's linger is already over: no deadline can
            # pull the flush below ``free_at``.
            return free_at
        tightest = self._queue.tightest_deadline()
        if math.isfinite(tightest):
            estimate = self._queue.estimator.estimate()
            target = min(target, tightest - estimate)
        return max(free_at, target)

    def take(self, now: float) -> list[Request]:
        """Pop up to ``max_batch`` requests to fuse at time ``now``."""
        batch: list[Request] = []
        while len(batch) < self.config.max_batch:
            request = self._queue.pop(now)
            if request is None:
                break
            batch.append(request)
        return batch
