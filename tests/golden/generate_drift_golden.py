"""Regenerate the golden drift-adaptation fixture.

``drift_golden.json`` pins what the online adaptation loop does on the
seeded rotating-Zipf quick trace: the detector's full tape (per-check
Jaccard / rank-correlation scores and fire points), the adaptation event
sequence (detect → re-solve → swap, with each re-solve's source rung),
the landed-swap counters, and the adapt-*off* run of the same trace —
which must stay byte-identical to a harness with no adaptation layer at
all.

Only regenerate when an *intentional* behaviour change lands:

    PYTHONPATH=src python tests/golden/generate_drift_golden.py
"""

from __future__ import annotations

import json
import pathlib

from repro.dlr.drift import build_drift_schedule
from repro.serve import SoakConfig, run_soak

GOLDEN_PATH = pathlib.Path(__file__).parent / "drift_golden.json"


def _soak_record(drift: str) -> dict:
    cfg = SoakConfig.quick(scenario="steady", drift=drift, seed=0)
    return run_soak(cfg).to_dict()


def _schedule_record() -> dict:
    """Pin each scenario's change points and per-phase mass movement."""
    out = {}
    for name in ("rotating-head", "table-shift", "flash-crowd"):
        sched = build_drift_schedule(name, 3_000, seed=0)
        out[name] = {
            "transitions": list(sched.transitions),
            "phase_heads": [
                int(phase.pmf.argmax()) for phase in sched.phases
            ],
            "phase_head_mass": [
                float(phase.pmf.max()) for phase in sched.phases
            ],
        }
    return out


def build() -> dict:
    adapt_on = _soak_record("rotating-head+adapt")
    adapt_off = _soak_record("rotating-head")
    return {
        "version": 1,
        "schedules": _schedule_record(),
        "adapt_on": adapt_on,
        "adapt_off": adapt_off,
    }


def main() -> None:
    doc = build()
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
