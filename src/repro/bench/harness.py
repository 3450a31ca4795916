"""Benchmark result containers and plain-text table rendering.

Every figure/table driver in :mod:`repro.bench.experiments` returns an
:class:`ExperimentResult` — a titled list of uniform row dicts — which the
``benchmarks/`` scripts render with :func:`render_table` so each bench
prints the same rows/series the paper reports.

:func:`run_with_metrics` is the observability entry point: it runs one
driver inside a private :class:`~repro.obs.MetricsRegistry` so everything
the hot paths record (cache hit splits, per-GPU extraction timings,
solver build/solve times, …) lands in one machine-readable artifact
instead of the global registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs import MetricsRegistry, use_registry, write_json
from repro.utils.stats import geometric_mean


@dataclass
class ExperimentResult:
    """A reproduced table/figure: title + uniform rows (+ free-form notes)."""

    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: registry snapshot attached by :func:`run_with_metrics` (else None)
    metrics: dict[str, Any] | None = None
    #: the experiment id: only its ``bench/report.SPECS`` entry sets it
    experiment: str = field(default="", init=False)

    def add(self, **row: Any) -> None:
        self.rows.append(row)

    def columns(self) -> list[str]:
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def series(self, key: str) -> list[Any]:
        return [row.get(key) for row in self.rows]


def _format_cell(value: Any) -> str:
    if value is None:
        return "✗"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(result: ExperimentResult) -> str:
    """Render an :class:`ExperimentResult` as an aligned text table."""
    lines = [f"== {result.experiment}: {result.title} =="]
    cols = result.columns()
    if cols:
        cells = [[_format_cell(row.get(c)) for c in cols] for row in result.rows]
        widths = [
            max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
            for i, c in enumerate(cols)
        ]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row_cells in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row_cells, widths)))
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def run_with_metrics(
    driver: Callable[..., ExperimentResult],
    *args: Any,
    metrics_out: str | Path | None = None,
    **kwargs: Any,
) -> ExperimentResult:
    """Run one experiment driver with instrumentation captured.

    The driver executes inside a fresh registry, so
    only this run's counters/timings are collected.  The snapshot is
    attached to ``result.metrics`` and, when ``metrics_out`` is given,
    also written as a JSON artifact.
    """
    registry = MetricsRegistry(getattr(driver, "__name__", "run"))
    with use_registry(registry):
        result = driver(*args, **kwargs)
    result.metrics = registry.snapshot()
    if metrics_out is not None:
        write_json(registry, metrics_out)
    return result


def speedup_summary(
    rows: list[dict[str, Any]], baseline_key: str, target_key: str
) -> dict[str, float]:
    """Geometric-mean and max speedup of target over baseline across rows.

    Rows with a missing side (unsupported configuration) are skipped, as
    the paper's averages do.
    """
    ratios = []
    for row in rows:
        base = row.get(baseline_key)
        target = row.get(target_key)
        if base is None or target is None or target <= 0:
            continue
        ratios.append(base / target)
    if not ratios:
        return {"geomean": float("nan"), "max": float("nan"), "count": 0}
    return {
        "geomean": geometric_mean(ratios),
        "max": max(ratios),
        "count": len(ratios),
    }
