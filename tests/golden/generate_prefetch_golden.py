"""Regenerate the golden lookahead-prefetch fixture.

``prefetch_golden.json`` pins what the lookahead prefetch stage (the
oracle cacher) produces on seeded workloads: a full soak report with
``lookahead=4`` on the skewed quick trace, its ``lookahead=0`` anchor
(which must stay byte-identical to a runtime with no prefetcher at all),
and the oracle cacher's exact staging decisions on a scripted window.

Only regenerate when an *intentional* behaviour change lands:

    PYTHONPATH=src python tests/golden/generate_prefetch_golden.py
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.core.prefetch import OracleCacher, PrefetchConfig
from repro.hardware import server_a
from repro.hardware.platform import HOST
from repro.serve import SoakConfig, run_soak
from repro.utils.stats import zipf_pmf

GOLDEN_PATH = pathlib.Path(__file__).parent / "prefetch_golden.json"

N, D = 2000, 8


def _soak_record(**overrides) -> dict:
    cfg = SoakConfig.quick(
        scenario="steady", load=0.8, requests_per_gpu=60, **overrides
    )
    return run_soak(cfg).to_dict()


def _cacher_tape() -> dict:
    """The oracle's exact staging decisions on a scripted window."""
    rng = np.random.default_rng(21)
    platform = server_a()
    table = rng.standard_normal((N, D)).astype(np.float32)
    hotness = zipf_pmf(N, 1.2) * 1000.0
    placement = hot_replicate_warm_partition_policy(
        hotness, 250, platform.num_gpus, 0.5
    )
    cache = MultiGpuEmbeddingCache(platform, table, placement)
    # capacity below the window's host-miss count, so the tape pins both
    # the prefix admission and the deferred-keys accounting.
    cacher = OracleCacher(
        cache, PrefetchConfig(lookahead=2, capacity_entries=48)
    )
    batches = [rng.integers(0, N, size=96) for _ in range(4)]
    for keys in batches:
        cacher.announce(0, keys)
    steps = []
    for keys in batches:
        outcome = cacher.prefetch(0, idle_seconds=math.inf)
        host_keys = keys[cache.source_map[0][keys] == HOST]
        hits = int(cacher.stage_hits(0, host_keys).sum())
        cacher.advance(0)
        steps.append(
            {
                "staged_keys": outcome.staged_keys,
                "deferred_keys": outcome.deferred_keys,
                "host_keys": len(host_keys),
                "hits": hits,
                "occupancy_after_advance": cacher.buffer(0).occupancy,
            }
        )
    cacher.finalize()
    return {
        "steps": steps,
        "staged_total": cacher.staged_keys_total,
        "hits_total": cacher.hits_total,
        "hit_rate": cacher.hit_rate,
        "wasted_bytes": cacher.wasted_bytes_total,
    }


def build() -> dict:
    return {
        "version": 1,
        "cacher_tape": _cacher_tape(),
        "soak_off": _soak_record(),
        "soak_lookahead": _soak_record(lookahead=4),
    }


def main() -> None:
    doc = build()
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
