"""Shared helpers for the figure benches (``bench_figures.py``).

Every figure bench runs one experiment driver exactly once under
pytest-benchmark (the drivers are deterministic, minutes-scale sweeps — not
microbenchmarks) and prints the reproduced table/figure rows uncaptured so
they land in ``bench_output.txt``.

Passing ``--metrics-out PATH`` writes one ``repro.obs`` JSON metrics
artifact aggregated over every bench in the run (cache hit splits,
per-GPU extraction timings, solver build/solve times, …).  Passing
``--results-out PATH`` writes every driver's rows and notes as JSON, which
``tools/paper_claims.py`` summarizes and gates against ``BENCH_paper.json``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.bench.harness import ExperimentResult, render_table
from repro.obs import MetricsRegistry, use_registry, write_json


def pytest_addoption(parser):
    parser.addoption(
        "--metrics-out",
        action="store",
        default=None,
        metavar="PATH",
        help="write a JSON metrics artifact aggregated over the benches run",
    )
    parser.addoption(
        "--results-out",
        action="store",
        default=None,
        metavar="PATH",
        help="write every driver's rows and notes as one JSON document",
    )


@pytest.fixture(scope="session")
def _bench_results(request):
    """Every driver result of the session, exported at teardown."""
    results: dict[str, dict] = {}
    yield results
    path = request.config.getoption("--results-out")
    if path:
        with open(path, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)


@pytest.fixture(scope="session")
def _bench_metrics(request):
    """One registry for the whole bench session, exported at teardown."""
    registry = MetricsRegistry("benchmarks")
    yield registry
    path = request.config.getoption("--metrics-out")
    if path:
        write_json(registry, path)


@pytest.fixture
def run_experiment(benchmark, capsys, _bench_metrics, _bench_results):
    """Run an experiment driver once, print its table, return its result."""

    def runner(driver) -> ExperimentResult:
        start = time.perf_counter()
        with use_registry(_bench_metrics):
            result = benchmark.pedantic(driver, rounds=1, iterations=1)
        _bench_results[result.experiment] = {
            "rows": result.rows, "notes": result.notes,
            "seconds": time.perf_counter() - start,
        }
        with capsys.disabled():
            print()
            print(render_table(result))
        return result

    return runner
