"""Observability: metrics registry, stage names, and exporters.

The instrumentation spine of the runtime (the accounting UGache's own
evaluation is built on — per-source hit splits, per-GPU extraction
timings, solver wall times).  Everything is process-local, stdlib-only
and default-on; see ``README.md``'s Observability section for how the
hot paths use it and how to capture an artifact with ``--metrics-out``.

Quick use::

    from repro.obs import get_registry

    reg = get_registry()
    reg.counter("cache.lookup.keys", source="local").inc(128)
    reg.histogram("solver.solve.seconds").observe(0.25)
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
from repro.obs.tracing import PIPELINE_STAGES

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
    "summarize",
    "use_registry",
    "write_json",
]
