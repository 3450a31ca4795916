"""Golden regression: new layers leave the layers beneath untouched.

``tests/golden/soak_single_box.json`` pins two CI-sized single-box soak
runs (``steady`` and ``dgx_a100_partial_failure``) generated *before* the
cluster tier existed.  A ``--nodes 1 --replication 1`` soak — the
defaults — must keep producing byte-for-byte the same report.

``tests/golden/soak_cluster.json`` pins two CI-sized 3-node cluster soaks
(``steady`` and ``node-kill``), each under the one node lifecycle: a
dead node loses its GPU caches and refills them in stages once healed.
A cluster soak must keep reproducing them exactly.

In both fixtures only the keys present in the pin are compared, so later
layers may add report fields but never change a pinned one.  A report
carries a section only for a feature its run configured, so the
single-box pin has no cluster section and the cluster pin no box
section.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

pytestmark = [pytest.mark.serve, pytest.mark.cluster]


def _load_generator(name: str = "generate_soak_golden"):
    spec = importlib.util.spec_from_file_location(
        name, GOLDEN_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads((GOLDEN_DIR / "soak_single_box.json").read_text())


@pytest.fixture(scope="module")
def replayed() -> dict:
    # Round-trip through JSON so float representation matches the fixture.
    return json.loads(json.dumps(_load_generator().build(), sort_keys=True))


@pytest.mark.parametrize("scenario", ["steady", "dgx_a100_partial_failure"])
def test_single_box_soak_is_byte_identical(golden, replayed, scenario):
    pinned = golden["scenarios"][scenario]
    got = replayed["scenarios"][scenario]
    diverged = {
        key: {"pinned": pinned[key], "got": got.get(key, "<missing>")}
        for key in pinned
        if got.get(key, "<missing>") != pinned[key]
    }
    assert not diverged, (
        f"single-box {scenario} soak diverged from the pre-cluster pin: "
        f"{diverged}"
    )


def test_report_schema_is_versioned(replayed):
    for doc in replayed["scenarios"].values():
        assert doc["schema"] == "repro.soak/v2"


SECTIONS = {"box", "coalesce", "tiers", "drift", "cluster"}


def test_single_box_report_has_only_the_box_section(replayed, golden):
    """No cluster, tier, drift or coalescing numbers on a plain
    single-tier box run: the sections it did not configure are absent."""
    for scenario, doc in replayed["scenarios"].items():
        assert set(doc) == set(golden["scenarios"][scenario])
        assert SECTIONS & set(doc) == {"box"}
        assert doc["box"]["tenants"] == 1


@pytest.fixture(scope="module")
def cluster_golden() -> dict:
    return json.loads((GOLDEN_DIR / "soak_cluster.json").read_text())


@pytest.fixture(scope="module")
def cluster_replayed() -> dict:
    module = _load_generator("generate_cluster_golden")
    return json.loads(json.dumps(module.build(), sort_keys=True))


@pytest.mark.parametrize("scenario", ["steady", "node-kill"])
def test_cluster_soak_is_byte_identical(
    cluster_golden, cluster_replayed, scenario
):
    """The cluster soak reproduces its pin."""
    pinned = cluster_golden["scenarios"][scenario]
    got = cluster_replayed["scenarios"][scenario]
    diverged = {
        key: {"pinned": pinned[key], "got": got.get(key, "<missing>")}
        for key in pinned
        if got.get(key, "<missing>") != pinned[key]
    }
    assert not diverged, (
        f"cluster {scenario} soak diverged from the pin: {diverged}"
    )


@pytest.mark.repair
def test_cluster_report_has_only_the_cluster_section(
    cluster_replayed, cluster_golden
):
    """The cluster's box-less report has one section, and it counts the
    corrupt rows served (none: every node's read guard is on)."""
    for scenario, doc in cluster_replayed["scenarios"].items():
        assert set(doc) == set(cluster_golden["scenarios"][scenario])
        assert SECTIONS & set(doc) == {"cluster"}
        assert doc["cluster"]["corrupt_values_served"] == 0
