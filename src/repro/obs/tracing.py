"""Lightweight wall-clock timing: the ``timer()`` context.

``timer(name)`` measures a block with ``time.perf_counter`` and observes
the duration into the active registry's histogram ``name`` — the workhorse
for plan/execute/solve timings.  On a disabled registry it is a shared
no-op object that does not even read the clock.

Wall-clock here is the *instrumentation's* clock; the simulator's modelled
seconds are untouched, so enabling metrics never perturbs simulated
timings.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.obs.metrics import Histogram, MetricsRegistry, get_registry

__all__ = ["PIPELINE_STAGES", "stage_timer", "timer"]

class _NoopContext:
    """Shared do-nothing context for disabled timers."""

    __slots__ = ()

    def __enter__(self) -> "_NoopContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


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
#: ``resolve`` … ``execute`` are the six per-extraction stages and never
#: nest; the last, ``fanout``, is the cluster front-end's enclosing stage:
#: it times a whole fanned-out request, node-side stages included.
PIPELINE_STAGES = (
    "resolve", "reroute", "group", "dedicate", "price", "execute", "fanout",
)


def stage_timer(stage: str, registry: MetricsRegistry | None = None, **labels: Any):
    """Timer for one extraction-pipeline stage (``pipeline.<stage>.seconds``).

    The single naming point for per-stage observability: every consumer of
    :mod:`repro.core.pipeline` gets the same histogram names, so a stage's
    cost is comparable no matter which layer invoked it.
    """
    return timer(f"pipeline.{stage}.seconds", registry, **labels)
