"""Every paper claim of the figure table (``repro.bench.report.SPECS``).

One bench per experiment, id = its ``exp_id``: each runs the driver once,
prints its rows and asserts every claim predicate of its entry::

    python -m pytest benchmarks/bench_figures.py --results-out results.json
    python -m pytest benchmarks/bench_figures.py -k fig12
"""

import pytest

from repro.bench.report import SPECS


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.exp_id)
def bench_figure(spec, run_experiment):
    result = run_experiment(spec.run)
    assert spec.failures(result.rows) == [], spec.summary(result.rows)
