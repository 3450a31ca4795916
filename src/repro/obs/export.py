"""Exporter and reader for metrics artifacts.

:func:`write_json` writes one document with ``schema``, ``registry`` and
``metrics`` (list of series snapshots) — the format ``--metrics-out``
produces and ``python -m repro metrics`` consumes; :func:`load_metrics`
reads it back; :func:`summarize` turns a loaded document into the terse
text report the CLI prints.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry

__all__ = ["load_metrics", "summarize", "write_json"]


def write_json(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write one registry snapshot as a single JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(registry.snapshot(), indent=2) + "\n")
    return path


def load_metrics(path: str | Path) -> dict[str, Any]:
    """Read a metrics artifact written by :func:`write_json`."""
    doc = json.loads(Path(path).read_text())
    if not (isinstance(doc, dict) and "metrics" in doc):
        raise ValueError(f"{path} is not a repro.obs metrics artifact")
    return doc


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.001:
        return f"{value:.3g}"
    return f"{value:.4g}"


def _stage_breakdown(metrics: list[dict[str, Any]]) -> list[str]:
    """Extraction-pipeline breakdown: seconds per stage, in stage order.

    The per-extraction stages share one total, so their percentages sum to
    100 %; the enclosing ``fanout`` stage already contains the node-side
    stages, so it prints on its own line, outside those shares.
    """
    from repro.obs.tracing import PIPELINE_STAGES

    totals = {
        stage: sum(
            m.get("sum", 0.0)
            for m in metrics
            if m.get("name") == f"pipeline.{stage}.seconds"
        )
        for stage in PIPELINE_STAGES
    }
    *stages, enclosing = PIPELINE_STAGES
    grand = sum(totals[stage] for stage in stages)
    if grand <= 0 and totals[enclosing] <= 0:
        return []
    lines = ["pipeline stage breakdown:"]
    for stage in stages:
        if totals[stage] > 0:
            lines.append(
                f"  {stage:10s} {_fmt(totals[stage])}s "
                f"({100 * totals[stage] / grand:.1f}%)"
            )
    if totals[enclosing] > 0:
        lines.append(
            f"  {enclosing:10s} {_fmt(totals[enclosing])}s "
            "(encloses the node-side stages; not in the shares)"
        )
    return lines


def summarize(doc: dict[str, Any]) -> str:
    """Terse text summary of a loaded metrics document.

    Counters and gauges print name/labels/value; histograms print
    count/mean/min/max; any ``pipeline.<stage>.seconds`` series are
    additionally rolled up into a per-stage breakdown (stages in
    :data:`~repro.obs.tracing.PIPELINE_STAGES` order).  This is what
    ``python -m repro metrics PATH`` shows.
    """
    lines = [f"metrics artifact: registry={doc.get('registry', '?')} "
             f"({len(doc.get('metrics', []))} series)"]
    lines += _stage_breakdown(doc.get("metrics", []))
    for m in doc.get("metrics", []):
        labels = m.get("labels") or {}
        label_text = (
            "{" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        name = f"{m['name']}{label_text}"
        if m.get("type") == "histogram":
            count = m.get("count", 0)
            mean = (m.get("sum", 0.0) / count) if count else 0.0
            lines.append(
                f"  {name:48s} count={count} mean={_fmt(mean)} "
                f"min={_fmt(m.get('min') or 0.0)} max={_fmt(m.get('max') or 0.0)}"
            )
        else:
            lines.append(f"  {name:48s} {_fmt(m.get('value', 0.0))}")
    return "\n".join(lines)
