"""Regenerate ``coalesce_metrics_snapshot.json``: the series a soak emits.

One pinned coalescing soak (steady scenario at 2x load, so admission
sheds, members expire and hedge) runs under a private registry and the
registry's snapshot is kept: every counter and gauge in full, every
``serve.*`` histogram in full (they hold simulated seconds and sizes) and
the observation count of the rest (wall-clock stage timers).

The fixture was recorded at the commit *before* the serve path took its
instruments from ``MetricsRegistry.handle`` and counted member statuses
once per batch, so it is the per-call lookups' answer: caching a handle
may not add, drop, rename or change a series.

Run from the repo root::

    PYTHONPATH=src python tests/golden/generate_coalesce_metrics.py
"""

from __future__ import annotations

import json
import pathlib

GOLDEN_PATH = pathlib.Path(__file__).parent / "coalesce_metrics_snapshot.json"


def build() -> list[dict]:
    from repro.obs import MetricsRegistry, use_registry
    from repro.serve import BatchingMode, SoakConfig, run_soak

    registry = MetricsRegistry("pinned")
    with use_registry(registry):
        run_soak(
            SoakConfig.quick(
                scenario="steady", load=2.0, requests_per_gpu=60,
                batching=BatchingMode.COALESCE,
            )
        )
    series = registry.snapshot()["metrics"]
    return [
        s
        if s["type"] != "histogram" or s["name"].startswith("serve.")
        else {k: s[k] for k in ("name", "type", "labels", "count")}
        for s in series
    ]


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
