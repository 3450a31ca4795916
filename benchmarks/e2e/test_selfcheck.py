"""Self-check of the end-to-end benchmark (``--smoke`` sizes, < 60 s).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not part of tier-1's ``testpaths``.  It checks the benchmark, not the
product: every catalogued metric is printed with its unit, the simulated
clock repeats exactly, a corrupted row is caught, and the tracer accounts
for the time it sees.
"""

from __future__ import annotations

import json
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]


def run(workload: str, *extra: str, seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--smoke", *extra],
        capture_output=True, text=True, timeout=120, check=False,
    )


def parse(done: subprocess.CompletedProcess) -> tuple[dict, dict, str]:
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    assert lines[-2].startswith("INFO ")
    return json.loads(lines[-2][5:]), json.loads(lines[-1]), done.stdout


@pytest.fixture(scope="module")
def smoke_runs() -> dict:
    """One untraced and one traced smoke run of every workload, two
    processes at a time (smoke timings mean nothing; the box has 2 cores)."""
    jobs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = pool.map(lambda job: run(job[0], "--trace", str(job[1])), jobs)
    runs: dict = {name: {} for name in WORKLOADS}
    for (name, trace), finished in zip(jobs, done):
        runs[name][trace] = parse(finished)
    return runs


def test_catalogue_matches_the_code():
    assert tuple(WORKLOADS) == workloads.WORKLOADS
    listed = {m["name"] for m in CATALOGUE["per_layer"]}
    for layer in tracing.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= listed


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(smoke_runs, name):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        _info, result, text = smoke_runs[name][trace]
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in CATALOGUE[kind]]
        for m in CATALOGUE[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert any(
                line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                for line in text.splitlines() if len(line.split()) >= 3
            ), f"{m['name']} is not printed with unit {m['unit']}"
    # The traced run prints the end-to-end table as well.
    for m in CATALOGUE["end_to_end"]:
        assert f" {m['name']} " in smoke_runs[name][1][2]
    # End-to-end metrics are never zero.
    assert all(v["value"] > 0 for v in smoke_runs[name][0][1]["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_simulated_results(smoke_runs, name):
    """Two fresh processes (one of them traced) agree on every simulated
    result and every count, exactly (the signature hashes all of them)."""
    assert smoke_runs[name][0][0]["signature"] == smoke_runs[name][1][0]["signature"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_different_seed_different_inputs(name):
    a, b, a2 = (workloads.generate(name, s, smoke=True) for s in (0, 1, 0))
    assert np.array_equal(a.keys, a2.keys) and np.array_equal(a.table, a2.table)
    assert np.array_equal(a.arrivals, a2.arrivals)
    assert not np.array_equal(a.keys, b.keys)
    assert not np.array_equal(a.table, b.table)
    assert not np.array_equal(a.pmf, b.pmf)
    if len(a.arrivals):
        assert not np.array_equal(a.arrivals, b.arrivals)


@pytest.mark.parametrize("name", ["extract_batch", "serve_closed"])
def test_a_corrupted_row_fails_the_command(name):
    done = run(name, "--trace", "0", "--corrupt-row")
    assert done.returncode != 0
    assert "CHECK FAILED" in done.stdout and "rows differ" in done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_add_up_to_each_op(smoke_runs, name):
    spans = [json.loads(line) for line in (HERE / "out" / f"{name}.spans.jsonl").open()]
    assert spans
    by_op: dict[int, list[float]] = {}
    for s in spans:
        total = by_op.setdefault(s["op"], [0.0, 0.0])
        total[0] += s["self"]
        if s["parent"] == -1:
            total[1] += s["end"] - s["start"]
    for op, (self_sum, duration) in by_op.items():
        assert self_sum == pytest.approx(duration, rel=0.01), f"op {op}"
    trace = json.loads((HERE / "out" / f"{name}.trace.json").read_text())
    assert len(trace["traceEvents"]) == len(spans)
    _info, result, _ = smoke_runs[name][1]
    assert result["metrics"]["trace.missing_targets"]["value"] == 0
    assert 0 <= result["metrics"]["trace.unattributed_share"]["value"] < 0.5


def test_every_wrap_target_fires_on_some_workload(smoke_runs):
    fired = set()
    for name in WORKLOADS:
        fired |= set(json.loads((HERE / "out" / f"{name}.fired.json").read_text()))
    targets = {qual for _, qual, _ in tracing.TARGETS}
    assert targets - fired == tracing.UNREACHED


def test_a_missing_target_is_reported_not_fatal():
    tracer = tracing.Tracer(
        (("repro.core.pipeline", "no_such_stage", "core.pipeline.other"),
         ("repro.no_such_module", "f", "core.cache"),
         ("repro.core.pipeline", "resolve", "core.pipeline.resolve"))
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install()
    try:
        assert tracer.missing == ["repro.core.pipeline.no_such_stage", "repro.no_such_module.f"]
        assert len(caught) == 2
        import repro.core.pipeline as pipeline

        assert hasattr(pipeline.resolve, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(pipeline.resolve, "__wrapped__")
