"""Every single-box fault drill is a soak row: the GPU, link and bit-rot
rows run through :class:`BoxSoak` and ``drive``, and the report's
``faults`` section gates recovery by the probe latency after the final
drain against a freshly filled, never-faulted cache holding the run's
final placement.

Node faults are cluster soaks (``tests/test_cluster.py``).  The solver
timeout and the interrupted refresh are drilled where they live:
``test_solver.py::test_timeout_falls_back_to_greedy_within_deadline``,
``test_refresher.py::test_interrupted_refresh_can_be_retried`` and
``test_serve_swap_soak.py::test_interrupted_refresh_leaves_old_generation``.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.faults.spec import FaultKind
from repro.obs import MetricsRegistry, load_metrics, use_registry
from repro.repair import CacheScrubber
from repro.serve import soak
from repro.serve.soak import (
    CLUSTER_SCENARIOS,
    DEFAULT_RECOVERY_TOLERANCE,
    SOAK_SCENARIOS,
    BoxSoak,
    FaultSection,
    SoakConfig,
    build_soak_plan,
    drive,
    render_soak_report,
)

pytestmark = pytest.mark.faults

ROWS = ("gpu-failure", "link-degradation", "link-partition", "bit-rot",
        "slow-leak-corruption")
ROT_ROWS = ("bit-rot", "slow-leak-corruption")


def _drive(**overrides):
    """A driven quick box soak at seed 0, under its own registry."""
    box = BoxSoak(SoakConfig.quick(seed=0, **overrides))
    with use_registry(MetricsRegistry("fault-soak")):
        report = drive(box)
    return box, report


@pytest.fixture(scope="module")
def driven():
    return {row: _drive(scenario=row) for row in ROWS}


@pytest.mark.parametrize("row", ROWS)
def test_the_row_is_ok_and_serves_every_row_exact(driven, row):
    box, report = driven[row]
    assert report.ok and report.integrity_failures == 0
    served = [r for r in box.runtime.responses if r.values is not None]
    assert served
    for r in served:
        assert np.array_equal(r.values, box.table[r.request.keys])
    assert report.faults.probe_ratio <= DEFAULT_RECOVERY_TOLERANCE


@pytest.mark.parametrize("row", ("gpu-failure", "link-partition"))
def test_a_lost_source_reroutes_its_keys(driven, row):
    assert driven[row][1].box.rerouted_keys > 0


@pytest.mark.parametrize("row", ROT_ROWS)
def test_the_rot_rows_detect_and_repair_rot(driven, row):
    box, report = driven[row]
    assert isinstance(box.runtime.read_guard, CacheScrubber)
    assert report.faults.bit_rot
    assert report.faults.rot_detected > 0 and report.faults.rot_repaired > 0
    # The swap at 0.6 scrubs inside its drain, so it verifies a
    # reconciled cache and lands (at seed 0 it rolled back on rot before).
    assert (report.box.swaps_landed, report.box.rollbacks) == (1, 0)


def test_only_a_rot_plan_carries_a_scrubber(driven):
    for row in ("gpu-failure", "link-degradation", "link-partition"):
        box, report = driven[row]
        assert box.runtime.read_guard is None
        assert not report.faults.bit_rot and report.faults.rot_detected == 0
    assert _drive(scenario="steady", requests_per_gpu=20)[1].faults is None


def test_every_row_builds_its_scaled_plan():
    for row in ROWS:
        plan = build_soak_plan(row, 2.0, seed=3)
        assert plan.name == row and len(plan) == 1
        (fault,) = plan.faults
        assert fault.clears_at <= 2.0 and fault.seed == 3
        if row in ROT_ROWS:
            assert fault.kind is FaultKind.BIT_ROT
            assert fault.rate == SOAK_SCENARIOS[row].faults[0].rate / 2.0


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown soak scenario"):
        build_soak_plan("power-outage", 1.0)


def test_the_rows_drill_one_box():
    for row in ROWS:
        assert row not in CLUSTER_SCENARIOS
        assert SOAK_SCENARIOS[row].platform == "server-a"
        assert all(f.node is None for f in SOAK_SCENARIOS[row].faults)
        with pytest.raises(ValueError, match="cluster soak supports"):
            SoakConfig.quick(scenario=row, nodes=3, replication=2)


def test_deterministic_across_runs(driven):
    assert _drive(scenario="link-partition")[1].to_dict() == (
        driven["link-partition"][1].to_dict()
    )


@pytest.fixture
def stuck_gpu(monkeypatch):
    """The ``gpu-failure`` row with a failure that never clears."""
    row = SOAK_SCENARIOS["gpu-failure"]
    (fault,) = row.faults
    monkeypatch.setitem(SOAK_SCENARIOS, "gpu-failure", row._replace(
        faults=(replace(fault, duration=math.inf),)
    ))


class TestRecoveryGate:
    def test_the_gate_reads_the_tolerance_and_the_rot_seen(self):
        def section(**values):
            return FaultSection(**{
                "probe_ratio": 1.0, "bit_rot": False, "rot_detected": 0,
                "rot_repaired": 0, **values,
            })

        assert section(probe_ratio=DEFAULT_RECOVERY_TOLERANCE).ok
        assert not section(probe_ratio=DEFAULT_RECOVERY_TOLERANCE + 1e-9).ok
        assert not section(bit_rot=True).ok
        assert section(bit_rot=True, rot_detected=1).ok
        assert section(probe_ratio=None).ok
        assert "unjudged" in section(probe_ratio=None).lines()[0]

    @pytest.mark.parametrize("row", ["dgx_a100_partial_failure", *ROWS])
    def test_a_recovered_row_reads_one_after_its_swap_landed(self, driven, row):
        """The baseline holds the placement the swap landed, so the swap's
        own latency change is not charged to the fault."""
        _, report = driven[row] if row in driven else _drive(scenario=row)
        assert report.box.swaps_landed >= 1
        assert report.faults.probe_ratio == 1.0

    def test_a_gpu_failure_that_never_clears_fails_it(self, stuck_gpu):
        _, report = _drive(scenario="gpu-failure")
        assert report.integrity_failures == 0
        assert report.faults.probe_ratio > DEFAULT_RECOVERY_TOLERANCE
        assert not report.ok

    def test_the_cli_exits_nonzero_when_it_fails(
        self, stuck_gpu, tmp_path, capsys
    ):
        path = tmp_path / "soak.json"
        assert main(["soak", "--quick", "--scenario", "gpu-failure",
                     "--json-out", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["faults"]["probe_ratio"] > DEFAULT_RECOVERY_TOLERANCE
        assert doc["ok"] is False

    def test_render_marks_a_run_that_never_recovers(self, stuck_gpu):
        _, report = _drive(scenario="gpu-failure")
        text = render_soak_report(report)
        assert "gpu-failure (FAIL)" in text
        assert f"(gate {DEFAULT_RECOVERY_TOLERANCE:.2f}x)" in text

    def test_a_drift_run_leaves_it_unjudged(self):
        _, report = _drive(scenario="gpu-failure", drift="rotating-head")
        assert report.faults.probe_ratio is None and report.faults.ok
        assert "probe_ratio" not in report.to_dict()["faults"]
        assert "unjudged" in render_soak_report(report)


class TestSoakCli:
    def test_single_row_smoke(self, capsys):
        assert main(["soak", "--quick", "--scenario", "gpu-failure"]) == 0
        out = capsys.readouterr().out
        assert "gpu-failure (PASS)" in out and "\n  faults " in out

    def test_the_default_soak_passes(self, capsys):
        """``python -m repro soak``: the default-size, eight-GPU
        partial-failure row, whose swap lands mid-run."""
        assert main(["soak", "--seed", "0"]) == 0
        assert "dgx_a100_partial_failure (PASS)" in capsys.readouterr().out

    def test_json_out_on_passing_run(self, tmp_path, capsys):
        path = tmp_path / "soak.json"
        assert main(["soak", "--quick", "--scenario", "gpu-failure",
                     "--json-out", str(path)]) == 0
        assert "gpu-failure (PASS)" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["ok"] is True
        assert doc["faults"]["probe_ratio"] <= DEFAULT_RECOVERY_TOLERANCE

    def test_metrics_artifact(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["soak", "--quick", "--scenario", "bit-rot",
                     "--metrics-out", str(path)]) == 0
        names = {m["name"] for m in load_metrics(path)["metrics"]}
        assert {"faults.injected", "faults.bit_rot.flips",
                "repair.scrub.scanned_slots"} <= names


@pytest.mark.xfail(
    strict=True,
    reason="the box repairs CORRUPT_SLOT-poisoned routes only through the "
    "scheduled swap (ROADMAP, 'The box repairs poisoned routes only by "
    "swapping')",
)
@pytest.mark.parametrize("row", ("corrupt-slot-storm", "dgx_a100_partial_failure"))
def test_poisoned_routes_are_repaired_without_a_swap(monkeypatch, row):
    monkeypatch.setattr(soak, "SWAP_AT", ())
    _, report = _drive(scenario=row)
    assert report.box.swaps_attempted == 0
    assert report.integrity_failures == 0
