"""Golden regression for the lookahead prefetch stage.

``tests/golden/prefetch_golden.json`` pins a seeded ``lookahead=4`` soak
run, its ``lookahead=0`` anchor, the oracle cacher's staging tape, and
the discrete event-sim pricing of a prefetched extraction.  The
``soak_off`` section is the equivalence claim of this layer: with
``--lookahead 0`` the serving runtime must keep producing byte-for-byte
the report the pre-prefetch code produced (the prefetch report fields
are constants when lookahead is 0).
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

pytestmark = [pytest.mark.serve, pytest.mark.prefetch]


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_prefetch_golden", GOLDEN_DIR / "generate_prefetch_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads((GOLDEN_DIR / "prefetch_golden.json").read_text())


@pytest.fixture(scope="module")
def replayed() -> dict:
    # Round-trip through JSON so float representation matches the fixture.
    return json.loads(json.dumps(_load_generator().build(), sort_keys=True))


@pytest.mark.parametrize(
    "section", ["cacher_tape", "soak_off", "soak_lookahead"]
)
def test_prefetch_matches_golden(golden, replayed, section):
    assert replayed[section] == golden[section], (
        f"{section} diverged from the pinned prefetch fixture"
    )


def test_lookahead_zero_is_the_pre_prefetch_anchor(golden):
    """Lookahead 0 must look exactly like the runtime before this layer."""
    off = golden["soak_off"]
    assert off["lookahead"] == 0
    assert off["prefetch_staged_keys"] == 0
    assert off["prefetch_hits"] == 0
    assert off["prefetch_hit_rate"] == 0.0
    assert off["prefetch_wasted_bytes"] == 0.0
    assert off["ok"]


def test_fixture_exercises_real_prefetching(golden):
    """The pin covers a lookahead run that actually beat the anchor."""
    on, off = golden["soak_lookahead"], golden["soak_off"]
    assert on["lookahead"] == 4
    assert on["prefetch_hits"] > 0
    # a quarter of the host misses is what the idle link time at load
    # 0.8 can stage
    assert on["prefetch_hit_rate"] > 0.2
    assert on["goodput_rps"] > off["goodput_rps"]
    # the offered trace is identical — only serving outcomes may differ
    assert on["requests"] == off["requests"]
    assert on["arrival_rate"] == off["arrival_rate"]
    assert on["baseline_service"] == off["baseline_service"]
    # staging tape: capacity pressure deferred some keys, hits landed
    tape = golden["cacher_tape"]
    assert any(s["deferred_keys"] > 0 for s in tape["steps"])
    assert tape["hits_total"] > 0
