"""Regenerate ``soak_cluster.json``: the cluster soak anchor.

A soak with ``--nodes 3 --replication 2`` runs every node under the one
node lifecycle: a death drops the node's GPU caches, a heal refills them
in stages on idle link time, and scrubbers and read guards are always
on.  This script pins two CI-sized runs — the fault-free ``steady``
scenario and the ``node-kill`` chaos scenario — at seed 0, and the soak
has to keep producing them byte for byte.

Run from the repo root::

    PYTHONPATH=src python tests/golden/generate_cluster_golden.py

The golden test compares only the keys present in the fixture, so later
PRs may *add* report fields but never change the pinned ones.
"""

from __future__ import annotations

import json
import pathlib

SCENARIOS = ("steady", "node-kill")


def build() -> dict:
    from repro.obs import MetricsRegistry, use_registry
    from repro.serve.soak import SoakConfig, run_soak

    scenarios = {}
    for scenario in SCENARIOS:
        cfg = SoakConfig.quick(
            seed=0, scenario=scenario, nodes=3, replication=2
        )
        with use_registry(MetricsRegistry(f"golden-cluster-{scenario}")):
            report = run_soak(cfg)
        scenarios[scenario] = report.to_dict()
    return {"scenarios": scenarios}


if __name__ == "__main__":
    out = pathlib.Path(__file__).parent / "soak_cluster.json"
    out.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
