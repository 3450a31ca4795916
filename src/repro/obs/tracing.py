"""Lightweight wall-clock tracing: ``span()`` and ``timer()`` contexts.

``timer(name)`` measures a block with ``time.perf_counter`` and observes
the duration into the active registry's histogram ``name`` — the workhorse
for plan/execute/solve timings.  ``span(name)`` additionally buffers a
:class:`SpanRecord` (name, start, duration, attrs) on the registry, but
only when ``registry.tracing_enabled`` is set; with tracing off it is a
shared no-op object, so the default hot path never pays for trace
bookkeeping (the "no sink attached" fast path).

Wall-clock here is the *instrumentation's* clock; the simulator's modelled
seconds are untouched, so enabling metrics never perturbs simulated
timings.
"""

from __future__ import annotations

from time import perf_counter
from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import Histogram, MetricsRegistry, get_registry

__all__ = ["PIPELINE_STAGES", "SpanRecord", "span", "stage_timer", "timer"]

#: Cap on buffered spans per registry; beyond it spans are counted but
#: dropped, so a long-running process cannot leak memory through tracing.
MAX_BUFFERED_SPANS = 10_000


@dataclass
class SpanRecord:
    """One completed traced region."""

    name: str
    start: float
    duration: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def snapshot(self) -> dict[str, Any]:
        """JSON-able form of the span."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class _NoopContext:
    """Shared do-nothing context for disabled timers/spans."""

    __slots__ = ()

    def __enter__(self) -> "_NoopContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        """Accept and discard attributes (span API compatibility)."""


_NOOP = _NoopContext()


class _Timer:
    """Times a block into one histogram series (resolved up front)."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        self._histogram.observe(perf_counter() - self._start)


class _Span:
    """Times a block and buffers a :class:`SpanRecord` on the registry."""

    __slots__ = ("_registry", "_record")

    def __init__(self, registry: MetricsRegistry, name: str, attrs: dict[str, Any]):
        self._registry = registry
        self._record = SpanRecord(name=name, start=0.0, duration=0.0, attrs=attrs)

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span from inside the block."""
        self._record.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._record.start = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._record.duration = perf_counter() - self._record.start
        spans = self._registry.spans
        if len(spans) < MAX_BUFFERED_SPANS:
            spans.append(self._record)
        else:
            self._registry.counter("obs.spans.dropped").inc()


def timer(name: str, registry: MetricsRegistry | None = None, **labels: Any):
    """Context manager timing a block into histogram ``name``.

    No-op (not even a clock read) when the registry is disabled.
    """
    registry = registry or get_registry()
    if not registry.enabled:
        return _NOOP
    return _Timer(registry.cached("histogram", name, **labels))


#: The extraction pipeline's stage names, in execution order.  Each stage
#: times itself into ``pipeline.<stage>.seconds``; exporters and the
#: metrics summarizer use this list to render the per-stage breakdown.
#: ``prefetch`` runs ahead of the batch (the lookahead oracle staging
#: upcoming host misses); the remaining six serve the batch itself.
PIPELINE_STAGES = (
    "prefetch", "resolve", "reroute", "group", "dedicate", "price", "execute",
    "fanout",
)


def stage_timer(stage: str, registry: MetricsRegistry | None = None, **labels: Any):
    """Timer for one extraction-pipeline stage (``pipeline.<stage>.seconds``).

    The single naming point for per-stage observability: every consumer of
    :mod:`repro.core.pipeline` gets the same histogram names, so a stage's
    cost is comparable no matter which layer invoked it.
    """
    return timer(f"pipeline.{stage}.seconds", registry, **labels)


def span(name: str, registry: MetricsRegistry | None = None, **attrs: Any):
    """Context manager tracing a block into the registry's span buffer.

    No-op unless ``registry.tracing_enabled`` is set (tracing is the
    opt-in sink; metrics stay default-on).
    """
    registry = registry or get_registry()
    if not (registry.enabled and registry.tracing_enabled):
        return _NOOP
    return _Span(registry, name, attrs)
