"""ASCII charts for benchmark output (no plotting deps offline).

Two chart types cover the paper's figure styles:

* :func:`line_chart` — multi-series sweep plots (Figures 2, 12, 14, 15:
  metric vs cache ratio);
* :func:`bar_chart` — grouped comparison bars (Figures 4, 10, 11: one bar
  per system).

Benchmarks embed these under their tables so ``bench_output.txt`` shows
the *shape* of each figure, not just its numbers.
"""

from __future__ import annotations

import numpy as np

#: Marker per series, cycled.
_MARKERS = "ox+*#@%&"


def line_chart(
    x: list[float],
    series: dict[str, list[float]],
    x_label: str,
    y_label: str,
    width: int = 64,
    height: int = 12,
) -> str:
    """Plot several y-series over shared x values on a character grid."""
    if not x or not series:
        return "(no data)"
    for name, ys in series.items():
        if len(ys) != len(x):
            raise ValueError(f"series {name!r} length does not match x")
    xs = np.asarray(x, dtype=np.float64)
    all_y = np.concatenate(
        [np.asarray([v for v in ys if v is not None], dtype=np.float64)
         for ys in series.values()]
    )
    if all_y.size == 0:
        return "(no data)"
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, (name, ys) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for xv, yv in zip(xs, ys):
            if yv is None:
                continue
            col = int(round((xv - x_lo) / (x_hi - x_lo) * (width - 1)))
            row = int(round((yv - y_lo) / (y_hi - y_lo) * (height - 1)))
            grid[height - 1 - row][col] = marker

    lines = [f"{y_label} (top={_fmt(y_hi)}, bottom={_fmt(y_lo)})"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    footer = f" {x_label}: {_fmt(x_lo)} .. {_fmt(x_hi)}"
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}"
        for i, name in enumerate(series)
    )
    lines.append(f"{footer}   {legend}")
    return "\n".join(lines)


def bar_chart(
    values: dict[str, float | None],
    unit: str,
    width: int = 48,
) -> str:
    """Horizontal bars, one per labelled value (None renders as ✗)."""
    if not values:
        return "(no data)"
    present = [v for v in values.values() if v is not None]
    if not present:
        return "(no data)"
    peak = max(present)
    label_w = max(len(k) for k in values)
    lines = []
    for name, value in values.items():
        if value is None:
            lines.append(f"{name:>{label_w}} | ✗")
            continue
        filled = int(round(value / peak * width)) if peak > 0 else 0
        lines.append(
            f"{name:>{label_w}} |{'█' * filled}{' ' * (width - filled)} "
            f"{_fmt(value)}{unit}"
        )
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.3g}"
    return f"{value:.3f}".rstrip("0").rstrip(".")
