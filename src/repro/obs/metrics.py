"""Process-local metrics: counters, gauges, histograms, and the registry.

Zero-dependency instrumentation for the runtime's hot paths.  A counter
or histogram update is one ``list.append`` onto the instrument's pending
log (0.2 µs, CPython 3.11 on a 2-core x86-64 VM; the locked ``+=`` it
replaced took 1.1 µs); every read folds the log in append order under the
instrument's lock, so totals are bit-identical to sequential ``+=`` and
exact under threads.  A disabled registry hands out shared no-op
instruments from :meth:`MetricsRegistry.counter` and friends, and the hot
path does no work at all.

Histograms use *fixed* log-scale buckets (half-decade steps spanning
1 ns .. 1 Ms) so two artifacts are always mergeable bucket-by-bucket and
export never needs per-histogram bucket negotiation.

The module keeps one process-local default registry.  Code that wants a
private capture (the CLI's ``--metrics-out``, the benchmark harness)
swaps its own registry in with :func:`use_registry` for the duration of a
run; instrumented modules always call :func:`get_registry` at record time
so the swap redirects them.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Half-decade log-scale bucket upper bounds: 1e-9, ~3.16e-9, 1e-8, … 1e6.
#: Fixed for every histogram so artifacts merge bucket-by-bucket.
BUCKET_BOUNDS: tuple[float, ...] = tuple(10.0 ** (e / 2.0) for e in range(-18, 13))

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


#: Pending updates an instrument holds: the update that fills its log folds
#: it, so memory stays bounded between reads.  The countdown is unlocked: a
#: decrement lost to a race moves when the fold runs, never what it counts.
FOLD_LENGTH = 1024


class Counter:
    """Monotonically increasing counter (e.g. lookups, bytes moved).

    ``inc`` appends to a pending log (atomic under the GIL, no lock);
    reading :attr:`value` folds the log under the instrument's lock with
    ``del log[:n]``, so appends that land during a fold are kept for the
    next one.
    """

    __slots__ = ("name", "labels", "_value", "_log", "_room", "_lock")
    kind = "counter"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._log: list[float] = []
        self._room = FOLD_LENGTH
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self._log.append(amount + 0.0)  # a bad amount raises here, not at the read
        self._room -= 1
        if self._room <= 0:
            self._fold()

    def _fold(self) -> float:
        with self._lock:
            log = self._log
            n = len(log)
            value = self._value
            for amount in log[:n]:
                value += amount
            del log[:n]
            self._value, self._room = value, FOLD_LENGTH
            return value

    #: The total of every update so far; a read folds.
    value = property(_fold)

    def snapshot(self) -> dict[str, Any]:
        """JSON-able state of this series."""
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """Last-value instrument (e.g. current hit rate, LP variable count).

    ``set`` is a single store (atomic under the GIL) but ``inc`` is a
    read-modify-write, so both share the per-instrument lock for a
    consistent thread-safety contract.
    """

    __slots__ = ("name", "labels", "value", "_lock")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the latest observed value."""
        with self._lock:
            self.value = float(value)

    def snapshot(self) -> dict[str, Any]:
        """JSON-able state of this series."""
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """Log-bucketed distribution (timings, batch sizes, byte volumes).

    Buckets are the fixed :data:`BUCKET_BOUNDS`; an extra overflow bucket
    catches anything above the last bound and observations ``<= 0`` land
    in the first bucket (they still count toward ``count``/``sum``).

    ``observe`` appends to a pending log as :meth:`Counter.inc` does; every
    read folds it under the lock, so ``count`` always matches the bucket
    totals of the same fold.
    """

    __slots__ = (
        "name", "labels", "_count", "_sum", "_min", "_max", "_buckets",
        "_log", "_room", "_lock",
    )
    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self._count, self._sum, self._min, self._max = 0, 0.0, float("inf"), float("-inf")
        self._buckets = [0] * (len(BUCKET_BOUNDS) + 1)
        self._log: list[float] = []
        self._room = FOLD_LENGTH
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._log.append(float(value))
        self._room -= 1
        if self._room <= 0:
            self._folded()

    def _folded(self) -> tuple[int, float, float, float, list[int]]:
        """Fold the pending log; ``(count, sum, min, max, buckets)`` of
        that one fold (``buckets`` is a copy)."""
        with self._lock:
            log = self._log
            n = len(log)
            total, lo, hi, buckets = self._sum, self._min, self._max, self._buckets
            for value in log[:n]:
                total += value
                lo, hi = min(lo, value), max(hi, value)  # keeps the first of equals
                buckets[bisect_left(BUCKET_BOUNDS, value)] += 1
            del log[:n]
            self._count += n
            self._sum, self._min, self._max = total, lo, hi
            self._room = FOLD_LENGTH
            return self._count, total, lo, hi, buckets.copy()

    # Each read folds first; ``bucket_counts`` is a copy.
    count = property(lambda self: self._folded()[0])
    sum = property(lambda self: self._folded()[1])
    min = property(lambda self: self._folded()[2])
    max = property(lambda self: self._folded()[3])
    bucket_counts = property(lambda self: self._folded()[4])

    def snapshot(self) -> dict[str, Any]:
        """JSON-able state of this series (sparse non-empty buckets)."""
        count, total, lo, hi, bucket_counts = self._folded()
        buckets = [
            [BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else None, n]
            for i, n in enumerate(bucket_counts)
            if n
        ]
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "count": count,
            "sum": total,
            "min": lo if count else None,
            "max": hi if count else None,
            "buckets": buckets,
        }


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Process-local collection of named, labelled instruments.

    Series are keyed by ``(name, sorted labels)``; asking twice for the
    same series returns the same object.  A disabled registry hands out
    shared no-op instruments so instrumented code needs no branching of
    its own.
    """

    def __init__(self, name: str = "default", enabled: bool = True) -> None:
        self.name = name
        self.enabled = enabled
        self._series: dict[tuple[str, str, LabelKey], Instrument] = {}
        self._lock = threading.Lock()
        self._handles: dict[Any, Any] = {}

    # ------------------------------------------------------------------
    # Series access
    # ------------------------------------------------------------------
    def _get(self, cls: type, name: str, labels: dict[str, Any]) -> Instrument:
        key = (cls.kind, name, _label_key(labels) if labels else ())
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.setdefault(key, cls(name, key[2]))
        return series

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create a counter series."""
        if not self.enabled:
            return _NOOP_COUNTER
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create a gauge series."""
        if not self.enabled:
            return _NOOP_GAUGE
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """Get or create a histogram series."""
        if not self.enabled:
            return _NOOP_HISTOGRAM
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    def handle(self, key: Any, factory: Callable[[], Any]) -> Any:
        """What ``factory()`` returned the first time ``key`` was asked for:
        hot paths look their instruments up once.  Per registry, so a swap
        redirects them; dropped by :meth:`reset`."""
        found = self._handles.get(key)
        if found is None:
            found = self._handles[key] = factory()
        return found

    def cached(self, kind: str, name: str, **labels: Any) -> Any:
        """``getattr(self, kind)(name, **labels)``, looked up once: the
        :meth:`handle` of a single series, for the paths hit per request."""
        key = (kind, name, tuple(labels.items())) if labels else (kind, name)
        found = self._handles.get(key)
        if found is None:
            found = self._handles[key] = getattr(self, kind)(name, **labels)
        return found

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def series(self) -> Iterator[Instrument]:
        """All series, sorted by (name, kind, labels) for stable export."""
        for key in sorted(self._series):
            yield self._series[key]

    def counter_values(self, name: str) -> dict[LabelKey, float]:
        """Current value of counter ``name`` under every label combination
        it has been given."""
        return {
            s.labels: s.value
            for s in self.series()
            if s.kind == "counter" and s.name == name
        }

    def value(self, name: str, **labels: Any) -> float | None:
        """Current value of a counter/gauge series, or None if absent."""
        for kind in ("counter", "gauge"):
            series = self._series.get((kind, name, _label_key(labels)))
            if series is not None:
                return series.value  # type: ignore[union-attr]
        return None

    def snapshot(self) -> dict[str, Any]:
        """One JSON-able document for the whole registry."""
        return {
            "schema": "repro.obs/v1",
            "registry": self.name,
            "metrics": [s.snapshot() for s in self.series()],
        }

    def reset(self) -> None:
        """Drop every series."""
        with self._lock:
            self._series.clear()
            self._handles.clear()


class _NoopCounter(Counter):
    """Discards updates; what a disabled registry hands out."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None


class _NoopGauge(Gauge):
    """Discards updates; what a disabled registry hands out."""

    __slots__ = ()

    def set(self, value: float) -> None:
        return None


class _NoopHistogram(Histogram):
    """Discards updates; what a disabled registry hands out."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


#: Shared no-op instruments handed out by disabled registries.
_NOOP_COUNTER = _NoopCounter("noop", ())
_NOOP_GAUGE = _NoopGauge("noop", ())
_NOOP_HISTOGRAM = _NoopHistogram("noop", ())

_default_registry = MetricsRegistry("global")
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The currently active process-local registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the active registry; returns the previous one."""
    global _default_registry
    with _registry_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


class use_registry:
    """Context manager: route all instrumentation into ``registry``.

    Re-entrant in the nesting sense (restores whatever was active on
    exit), which is how the CLI and benchmark harness capture one run
    into a private registry without disturbing the global one.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self._registry)
        return self._registry

    def __exit__(self, *exc_info: Any) -> None:
        assert self._previous is not None
        set_registry(self._previous)
