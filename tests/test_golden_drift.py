"""Golden regression for the drift-adaptation loop.

``tests/golden/drift_golden.json`` pins the whole online loop on the
seeded rotating-Zipf quick trace: the detector tape (scores and fire
points), the detect → re-solve → swap event sequence, and the adapt-off
run of the same trace.  Any change to the estimator decay, detector
floors, warm-start rung, or swap guardrails shows up here first — and
must be a deliberate regeneration, not a drive-by.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

pytestmark = pytest.mark.drift


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_drift_golden", GOLDEN_DIR / "generate_drift_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads((GOLDEN_DIR / "drift_golden.json").read_text())


@pytest.fixture(scope="module")
def replayed() -> dict:
    # Round-trip through JSON so float representation matches the fixture.
    return json.loads(json.dumps(_load_generator().build(), sort_keys=True))


def test_schedules_are_pinned(golden, replayed):
    assert replayed["schedules"] == golden["schedules"]


@pytest.mark.parametrize("run", ["adapt_on", "adapt_off"])
def test_soak_reports_are_byte_identical(golden, replayed, run):
    pinned, got = golden[run], replayed[run]
    diverged = {
        key: {"pinned": pinned[key], "got": got.get(key, "<missing>")}
        for key in pinned
        if got.get(key, "<missing>") != pinned[key]
    }
    assert not diverged, f"{run} drift soak diverged from the pin: {diverged}"


def test_pinned_loop_exercised_every_stage(golden):
    """The fixture itself must witness the full loop — a regeneration
    that quietly stops detecting or swapping is a regression even if
    it is internally consistent."""
    on = golden["adapt_on"]["drift"]
    adapt = on["adapt"]
    assert adapt["drift_detections"] >= 1
    assert adapt["adapt_incremental_resolves"] >= 1
    assert adapt["adapt_swaps_landed"] >= 1
    assert adapt["adapt_rollbacks"] == 0
    kinds = [e["kind"] for e in adapt["adapt_events"]]
    assert kinds[:3] == ["detect", "resolve", "swap"]
    fires = [s for s in adapt["drift_tape"] if s["fired"]]
    assert len(fires) == adapt["drift_detections"]
    # adaptation pays: transition-window goodput beats adapt-off.
    assert (
        on["transition_goodput_ratio"]
        > golden["adapt_off"]["drift"]["transition_goodput_ratio"]
    )


def test_adapt_off_records_nothing(golden):
    off = golden["adapt_off"]
    assert "adapt" not in off["drift"]
    assert off["drift"]["drift_scenario"] == "rotating-head"
