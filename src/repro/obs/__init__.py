"""Observability: metrics registry, timers, and exporters.

The instrumentation spine of the runtime (the accounting UGache's own
evaluation is built on — per-source hit splits, per-GPU extraction
timings, solver wall times).  Everything is process-local, stdlib-only
and default-on; see ``README.md``'s Observability section for how the
hot paths use it and how to capture an artifact with ``--metrics-out``.

Quick use::

    from repro.obs import get_registry, timer

    reg = get_registry()
    reg.counter("cache.lookup.keys", source="local").inc(128)
    with timer("solver.solve.seconds"):
        ...
    reg.snapshot()  # JSON-able document
"""

from repro.obs.export import load_metrics, summarize, write_json
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.tracing import PIPELINE_STAGES, stage_timer, timer

__all__ = [
    "BUCKET_BOUNDS",
    "PIPELINE_STAGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "load_metrics",
    "set_registry",
    "stage_timer",
    "summarize",
    "timer",
    "use_registry",
    "write_json",
]
