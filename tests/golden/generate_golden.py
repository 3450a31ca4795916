"""Regenerate the golden extraction-plan/price fixture.

The golden file (``extraction_golden.json``) pins the exact plans, prices
and gathered values the extraction pipeline produces on seeded workloads,
across every consumer of the plan→price sequence: the factored extractor,
the batch engine, the event-driven simulators, the serving runtime, and
the cache lookup path.  ``tests/test_golden_pipeline.py`` replays the same
scenarios and asserts byte-identical results, so a refactor of the hot
path cannot silently change what is planned or how it is priced.

It was first generated from the pre-pipeline implementation (PR 3), which
is what makes the pipeline refactor's equivalence claim meaningful.  Only
regenerate it when an *intentional* behaviour change lands:

    PYTHONPATH=src python tests/golden/generate_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.extractor import FactoredExtractor
from repro.core.policy import partition_policy
from repro.faults.spec import HealthView
from repro.hardware import server_a, server_c
from repro.serve.runtime import ServeConfig, ServingRuntime
from repro.sim.engine import simulate_batch
from repro.sim.event_sim import (
    simulate_factored_event_driven,
    simulate_hedged_extraction,
    simulate_naive_event_driven,
)
from repro.sim.mechanisms import Mechanism
from repro.utils.stats import zipf_pmf

GOLDEN_PATH = pathlib.Path(__file__).parent / "extraction_golden.json"

N, D = 2000, 8


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _plan_record(plan) -> dict:
    return {
        "dst": int(plan.dst),
        "batch_size": int(plan.batch_size),
        "rerouted_keys": int(plan.rerouted_keys),
        "failed_sources": [int(s) for s in plan.failed_sources],
        "groups": [
            {
                "source": int(g.source),
                "dedicated_cores": int(g.dedicated_cores),
                "positions": _digest(np.asarray(g.batch_positions, dtype=np.int64)),
                "keys": _digest(np.asarray(g.keys, dtype=np.int64)),
                "offsets": _digest(np.asarray(g.offsets, dtype=np.int64)),
            }
            for g in plan.groups
        ],
    }


def _report_record(report) -> dict:
    return {
        "time": report.time,
        "time_by_source": {str(k): v for k, v in sorted(report.time_by_source.items())},
        "volumes": {str(k): v for k, v in sorted(report.volumes.items())},
    }


def _scenarios():
    """(name, platform, health, exclude) tuples the golden file covers."""
    yield "a_healthy", server_a(), None, None
    yield "a_gpu1_down", server_a(), HealthView(down_gpus=frozenset({1})), None
    yield (
        "a_slow_link_excl3",
        server_a(),
        HealthView(link_factors=((((0, 2)), 0.5),)),
        frozenset({3}),
    )
    yield "c_healthy", server_c(), None, None
    yield "c_gpu2_down", server_c(), HealthView(down_gpus=frozenset({2})), None


def build() -> dict:
    doc: dict = {"version": 1, "scenarios": {}}
    for name, platform, health, exclude in _scenarios():
        rng = np.random.default_rng(1234)
        table = rng.standard_normal((N, D)).astype(np.float32)
        hotness = zipf_pmf(N, 1.2) * 1000.0
        placement = partition_policy(hotness, 200, platform.num_gpus)
        cache = MultiGpuEmbeddingCache(platform, table, placement)
        extractor = FactoredExtractor(cache)
        keys_per_gpu = [
            rng.integers(0, N, size=256) for _ in range(platform.num_gpus)
        ]

        record: dict = {"plans": [], "prices": [], "lookups": []}

        # Consumer 1: the extractor — plan, execute, price.
        demands = []
        for dst, keys in enumerate(keys_per_gpu):
            plan = extractor.plan(
                dst, keys, health=health, exclude_sources=exclude
            )
            values, demand = extractor.execute(plan)
            demands.append(demand)
            entry = _plan_record(plan)
            entry["values"] = _digest(values)
            record["plans"].append(entry)
            record["prices"].append(
                _report_record(extractor.price(dst, keys, health=health))
            )

        # Consumer 2: the batch engine, over the executed demands.
        batch = simulate_batch(
            platform, demands, mechanism=Mechanism.FACTORED, health=health
        )
        record["batch"] = {
            "time": batch.time,
            "per_gpu": [_report_record(r) for r in batch.per_gpu],
            "volume_split": batch.volume_split(),
        }

        # Consumer 3: the event-driven simulators (incl. the hedge racer).
        ev = simulate_factored_event_driven(platform, demands[0])
        nv = simulate_naive_event_driven(platform, demands[0], seed=7)
        hedged = simulate_hedged_extraction(
            platform, demands[0], hedge_issue_at=ev.total_time * 0.5
        )
        record["event_sim"] = {
            "factored": [ev.total_time, ev.chunks_processed, ev.events],
            "naive": [nv.total_time, nv.chunks_processed, nv.events],
            "hedged": [
                hedged.total_time,
                hedged.primary_time,
                hedged.hedge_time,
                hedged.winner,
            ],
        }

        # Consumer 4: the serving runtime (pricing + hedging per request).
        runtime = ServingRuntime(
            extractor,
            ServeConfig(hedge_enabled=True, hedge_headroom=1e6),
        )
        responses = []
        for dst, keys in enumerate(keys_per_gpu):
            request = runtime.make_request(dst, keys, now=0.0, deadline=10.0)
            # Sub-millisecond service times keep the serving hedge from
            # tripping even at huge headroom; the hedge race itself is
            # pinned by the event_sim section above.
            response = runtime.serve_request(request, now=0.0)
            responses.append(
                {
                    "status": response.status.value,
                    "service_time": response.service_time,
                    "hedged": response.hedged,
                    "hedge_won": response.hedge_won,
                    "rerouted_keys": response.rerouted_keys,
                    "values": _digest(response.values),
                }
            )
        record["serve"] = responses

        # Consumer 5: the cache's own lookup path (resolve + gather).
        for dst in (0, platform.num_gpus - 1):
            result = cache.lookup(dst, keys_per_gpu[dst])
            record["lookups"].append(
                {
                    "dst": dst,
                    "sources": _digest(
                        np.asarray(result.sources, dtype=np.int64)
                    ),
                    "values": _digest(result.values),
                    "volumes": {
                        str(k): v
                        for k, v in sorted(result.demand.volumes.items())
                    },
                }
            )

        doc["scenarios"][name] = record
    return doc


def main() -> None:
    doc = build()
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
