"""Golden regression for the coalescing layer and the off-mode anchor.

``tests/golden/coalesce_golden.json`` pins the micro-batcher's flush
schedule, ``serve_batch``'s per-member scattering, and full soak reports
in both batching modes.  The ``soak_off`` section is the equivalence
claim of PR 5: with ``--batching off`` the serving runtime must keep
producing byte-for-byte the report the pre-coalescing code produced
(off mode reports no coalescing section).
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

pytestmark = pytest.mark.serve


def _load_generator(name="generate_coalesce_golden"):
    spec = importlib.util.spec_from_file_location(
        name, GOLDEN_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads((GOLDEN_DIR / "coalesce_golden.json").read_text())


@pytest.fixture(scope="module")
def replayed() -> dict:
    # Round-trip through JSON so float representation matches the fixture.
    return json.loads(json.dumps(_load_generator().build(), sort_keys=True))


@pytest.mark.parametrize(
    "section",
    [
        "serve_batch",
        "batcher_schedule",
        "expiry_accounting",
        "soak_off",
        "soak_coalesce",
    ],
)
def test_coalescing_matches_golden(golden, replayed, section):
    assert replayed[section] == golden[section], (
        f"{section} diverged from the pinned coalescing fixture"
    )


def test_off_mode_is_the_pre_coalescing_anchor(golden):
    """Off mode must look exactly like the runtime before this layer."""
    off = golden["soak_off"]
    assert "coalesce" not in off
    assert off["ok"]


def test_fixture_exercises_the_interesting_paths(golden):
    """The pin covers real coalescing, not degenerate batches."""
    on = golden["soak_coalesce"]["coalesce"]
    assert on["coalesced_batches"] > 0
    assert on["dedup_ratio"] > 1.0
    # serve_batch sections include a genuinely shared extraction...
    sizes = [
        rec["batch_size"]
        for plat in golden["serve_batch"].values()
        for rec in plat
    ]
    assert max(sizes) >= 3
    # ...and every batched member shares one completion time.
    for plat in golden["serve_batch"].values():
        for rec in plat:
            for resp in rec["responses"]:
                assert resp["completed_at"] == rec["completed_at"]
    # The schedule pin covers a full-batch immediate flush (pile-up) and
    # an SLO early flush tighter than the linger target.
    schedule = golden["batcher_schedule"]
    assert schedule[1]["flush_at"] == 0.25  # deadline 0.5 - estimate 0.25
    assert schedule[2]["flush_at"] == 0.15  # 3 queued = max_batch: no linger
    assert schedule[-1]["take_ids"] == [0, 1, 2]  # FIFO, capped at max_batch


def test_expired_members_not_counted_in_batch_size(golden):
    """Pin of the corrected accounting: an expired-on-arrival member is
    dropped before extraction and must not inflate batch_size (and hence
    soak mean_batch_size / dedup_ratio)."""
    rec = golden["expiry_accounting"]
    assert rec["statuses"] == ["expired", "ok"]
    assert rec["batch_size"] == 1


def test_metrics_snapshot_of_a_pinned_soak_is_unchanged():
    """Caching instrument handles (and counting member statuses once per
    batch) may not add, drop, rename or change a series: the fixture is
    the snapshot the per-call lookups produced."""
    golden = json.loads((GOLDEN_DIR / "coalesce_metrics_snapshot.json").read_text())
    replayed = json.loads(
        json.dumps(_load_generator("generate_coalesce_metrics").build())
    )
    assert replayed == golden
    names = {s["name"] for s in golden}
    assert {
        "serve.admission", "serve.queue.depth", "serve.batch.seconds",
        "serve.requests", "serve.latency.seconds", "serve.hedges",
        "serve.coalesce.linger.seconds", "extractor.plan.keys",
    } <= names
    statuses = {s["labels"].get("status") for s in golden if s["name"] == "serve.requests"}
    assert statuses == {"ok", "shed", "expired"}
