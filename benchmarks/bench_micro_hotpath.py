"""Microbenchmark: keys/sec through the key-resolution hot path.

Measures the vectorized :class:`~repro.core.location_table.LocationTable`
batch operations against an equivalent scalar probe loop, plus the
extraction pipeline's resolve, plan and execute stages end-to-end and the
coalescing layer's dedup + scatter, and writes the ``BENCH_hotpath.json``
artifact (per batch size: keys/sec per operation and the pipeline's
per-stage wall-clock breakdown).

Gates: the vectorized ``lookup_batch`` must be at least 10× the scalar
baseline at batch sizes ≥ 4096 — the speedup the vectorization refactor
exists to deliver — and ``plan_extraction`` must plan at least 20 M
keys/sec at batch 4096 (8.4 M before the one-sort segment index; 21-36 M
over three readings before per-route facts were remembered, 34-51 M over
ten since, on a box whose speed wanders by 1.7x: the floor is 0.6 x the
slowest of those ten), ``execute_plan`` must gather at least 33 M keys/sec
at batch 4096 (92-158 M over seven readings since the backing rows joined the
arena, 38-64 M beside them before; the floor stays far below the low
quartile) and beat the same stage
reading its rows the replaced way, a gather and a row scatter per group —
``tests/test_row_arena.py``'s oracle, re-measured beside it (20-39 M) — and
``coalesce_keys`` + the one-take scatter must move at least 10 M member
keys/sec on an 8 x 1024-key batch (about 47 M here; 20 M over the sorting
``np.unique`` index the keyspace marker replaced, and 5 M for the
per-member ``searchsorted`` scatter before that, both re-measured beside
it).  The
``write_path`` section records the refresh side — ``apply_diff_step``
entries/sec, ``remove_batch`` keys/sec, the §6.2 LP's assembly time
beside its HiGHS time and the location-table rebuild (``resolve_sources``
over the realized placement) beside the float argmin it replaced — and
gates three numbers: a 4096 + 4096-entry step (``RefreshConfig``'s
default) must move at least 1.5 M entries/sec (3.0-5.0 M here; 0.07 M for
the per-entry loop, whose double-free scan made a step quadratic),
``extract_batch``'s server-c LP must have at most 1,000 variables (about
620 per GPU orbit; 12,409 per GPU pair, which a platform that stops
qualifying for the orbit quotient would return to), and the server-c
100 k rebuild must be at least 3x the float argmin (about 6x here, by
rank per residue class).  Plan + execute of an 8,192-key Zipf batch on
server-c must be at least 1.09x the sorting planner and segment-scatter
gather it replaced (``tests/test_properties.py``'s oracle, timed beside
it): 0.8x the slowest of seven recorded ratios, 1.36-1.91x.  Locating a
healthy 8,192-key server-c batch through the cache's route map
(``reroute``) must be at least 1.1x the slot-table ``locate`` it replaced
on that path (1.45-1.49x over three readings: 0.75x the slowest).  A warm
512-key ``ClusterFrontend.serve(execute=True)`` on the cluster tests' mini
cluster must answer at least 1,000 requests/s, healthy and with one node
breaker-ejected (1,900-3,300 and 2,400-4,400 over six readings here:
about half the slowest, as the box's speed wanders).  A variable
count is deterministic, unlike a time floor; a speed-up over an oracle
timed in the same process is steadier than a rate.  The ``perf-smoke``
CI job runs exactly this file
(``pytest benchmarks/bench_micro_hotpath.py -m perf``).  Every row of the
artifact comes from one run, whose commit is written beside them
(``recorded_at``); ``tests/test_route_memo.py::TestRequestCallBudget`` is the
noise-free guard (Python calls per served request) beside these wall-clock
ones, and ``tests/test_write_path.py`` holds the same kind of guard for a step.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.evaluate import resolve_sources
from repro.core.extractor import FactoredExtractor
from repro.core.filler import apply_diff_step, fill_gpu
from repro.core.location_table import LocationTable
from repro.core.policy import partition_policy
from repro.core.solver import SolverConfig, solve_policy
from repro.hardware import server_a, server_c
from repro.obs import PIPELINE_STAGES, MetricsRegistry, use_registry
from repro.utils.stats import zipf_pmf

ARTIFACT = pathlib.Path(__file__).parents[1] / "BENCH_hotpath.json"

TABLE_ENTRIES = 100_000
BATCH_SIZES = (256, 1024, 4096, 16384)
MIN_SPEEDUP_AT_4096 = 10.0
MIN_PLAN_KEYS_PER_SEC_AT_4096 = 20e6
MIN_EXECUTE_KEYS_PER_SEC_AT_4096 = 33e6
COALESCE_SHAPES = ((2, 1024), (8, 1024), (8, 256))  # members x keys
MIN_COALESCE_MEMBER_KEYS_PER_SEC_AT_8X1024 = 10e6
# The generalized tier code on a one-tier chain may cost at most this
# much resolve+price throughput versus the pre-tier baseline path.
MAX_TIER_REGRESSION = 0.10
REFRESH_STEPS = (512, 4096)  # entries evicted and entries inserted per step
MIN_REFRESH_ENTRIES_PER_SEC_AT_4096 = 1.5e6
MAX_SERVER_C_LP_VARIABLES = 1_000
MIN_SERVER_C_REBUILD_SPEEDUP = 3.0
SORT_FREE_BATCH = 8192
MIN_SORT_FREE_SPEEDUP = 1.09
ROUTE_MAP_BATCH = 8192
MIN_ROUTE_MAP_SPEEDUP = 1.1
CLUSTER_KEYS = 512
CLUSTER_REQUESTS = 50  # per timed repeat
MIN_CLUSTER_SERVE_REQUESTS_PER_SEC = 1_000
#: (platform, entries, Zipf alpha, keys per batch, cache ratio): the LPs the
#: end-to-end benchmark's refresh_mixed and extract_batch workloads solve.
LP_SHAPES = (
    (server_a, 20_000, 1.1, 4 * 1024, 0.12),
    (server_c, 100_000, 1.2, 8192, 0.08),
)


def _recorded_at() -> str:
    """The commit every row of the artifact was measured at; ``-dirty`` means
    that commit plus the working tree on top of it (a PR being recorded)."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=ARTIFACT.parent, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _best_of(fn, repeats: int = 5) -> float:
    """Best-of-N wall time — robust to scheduler noise in CI."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _scalar_lookup(table: LocationTable, keys: np.ndarray) -> None:
    # The pre-vectorization hot path: one probe chain per Python call.
    for key in keys:
        table.get(int(key))


def _bench_location_table(rng) -> list[dict]:
    all_keys = rng.permutation(TABLE_ENTRIES).astype(np.int64)
    sources = rng.integers(0, 8, size=TABLE_ENTRIES)
    offsets = rng.integers(0, TABLE_ENTRIES, size=TABLE_ENTRIES)
    table = LocationTable(expected_entries=TABLE_ENTRIES, num_sources=8)
    table.insert_batch(all_keys, sources, offsets)

    rows = []
    for batch in BATCH_SIZES:
        keys = rng.integers(0, TABLE_ENTRIES, size=batch)
        vec = _best_of(lambda: table.lookup_batch(keys))
        scalar = _best_of(lambda: _scalar_lookup(table, keys), repeats=2)
        fresh = LocationTable(expected_entries=batch, num_sources=8)
        ins = _best_of(
            lambda: fresh.insert_batch(keys, sources[:batch], offsets[:batch]),
            repeats=2,
        )
        rows.append(
            {
                "batch_size": batch,
                "lookup_batch_keys_per_sec": batch / vec,
                "scalar_lookup_keys_per_sec": batch / scalar,
                "lookup_speedup": scalar / vec,
                "insert_batch_keys_per_sec": batch / ins,
            }
        )
    return rows


def _bench_pipeline(rng) -> list[dict]:
    from repro.core.pipeline import execute_plan, plan_extraction, resolve
    from tests.test_row_arena import _parent_rows  # needs the repo root on sys.path

    platform = server_c()
    table = rng.standard_normal((TABLE_ENTRIES, 16)).astype(np.float32)
    hotness = zipf_pmf(TABLE_ENTRIES, 1.2) * 1000.0
    placement = partition_policy(
        hotness, TABLE_ENTRIES // 10, platform.num_gpus
    )
    cache = MultiGpuEmbeddingCache(platform, table, placement)
    extractor = FactoredExtractor(cache)

    rows = []
    for batch in BATCH_SIZES:
        keys = rng.integers(0, TABLE_ENTRIES, size=batch)
        t_resolve = _best_of(lambda: resolve(cache, 0, keys))
        registry = MetricsRegistry("hotpath")
        with use_registry(registry):
            t_plan = _best_of(lambda: plan_extraction(cache, 0, keys))
            plan = extractor.plan(0, keys)  # the facade adds the legacy timers
            assert np.array_equal(execute_plan(cache, plan)[0], table[keys])
            assert np.array_equal(_parent_rows(cache, plan), table[keys])
            t_execute = _best_of(lambda: execute_plan(cache, plan), 20)
            # The same stage with only its rows read the replaced way.
            replaced = SimpleNamespace(take=lambda *_, **__: _parent_rows(cache, plan))
            with mock.patch.object(cache, "row_arena", replaced):
                t_oracle = _best_of(lambda: execute_plan(cache, plan), 20)
        metrics = registry.snapshot()["metrics"]
        stage_seconds = {
            stage: sum(
                m["sum"]
                for m in metrics
                if m["name"] == f"pipeline.{stage}.seconds"
            )
            for stage in PIPELINE_STAGES
        }
        rows.append(
            {
                "batch_size": batch,
                "resolve_keys_per_sec": batch / t_resolve,
                "plan_keys_per_sec": batch / t_plan,
                "execute_keys_per_sec": batch / t_execute,
                "oracle_execute_keys_per_sec": batch / t_oracle,
                "stage_seconds": stage_seconds,
            }
        )
    return rows


def _bench_sort_free_plan(rng) -> dict:
    """Plan + execute of one 8,192-key Zipf batch on server-c, beside the
    sorting planner and segment-scatter gather it replaced
    (``tests/test_properties.py``'s oracle), whose rows and demand it must
    equal."""
    from repro.core.pipeline import execute_plan, plan_extraction
    from tests.test_properties import _sorting_execute, _sorting_plan  # repo root on sys.path

    platform = server_c()
    table = rng.standard_normal((TABLE_ENTRIES, 32)).astype(np.float32)
    pmf = zipf_pmf(TABLE_ENTRIES, 1.2)
    cache = MultiGpuEmbeddingCache(
        platform, table, partition_policy(pmf * 1000.0, TABLE_ENTRIES // 12, 8)
    )
    keys = rng.choice(TABLE_ENTRIES, SORT_FREE_BATCH, p=pmf)

    def sort_free():
        plan = plan_extraction(cache, 0, keys)
        return execute_plan(cache, plan)

    def oracle():
        groups, _, _ = _sorting_plan(cache, 0, keys, None, frozenset())
        return _sorting_execute(cache, 0, len(keys), groups)

    with use_registry(MetricsRegistry("sort-free")):
        (values, demand), (want_values, want_demand) = sort_free(), oracle()
        assert np.array_equal(values, want_values) and np.array_equal(values, table[keys])
        assert list(demand.volumes.items()) == list(want_demand.volumes.items())
        t_new, t_oracle = _best_of(sort_free, 20), _best_of(oracle, 20)
    return {
        "platform": platform.name,
        "batch_size": SORT_FREE_BATCH,
        "plan_execute_keys_per_sec": SORT_FREE_BATCH / t_new,
        "oracle_plan_execute_keys_per_sec": SORT_FREE_BATCH / t_oracle,
        "speedup": t_oracle / t_new,
    }


def _bench_route_map(rng) -> dict:
    """A healthy 8,192-key Zipf batch on server-c located by the cache's route
    map (``reroute``: one ``take`` and one ``bincount``) beside the slot-table
    ``locate`` every healthy plan took before it (two gathers and their
    index arithmetic), and the whole plan."""
    from repro.core.pipeline import locate, plan_extraction, reroute, resolve

    platform = server_c()
    pmf = zipf_pmf(TABLE_ENTRIES, 1.2)
    cache = MultiGpuEmbeddingCache(
        platform, rng.standard_normal((TABLE_ENTRIES, 32)).astype(np.float32),
        partition_policy(pmf * 1000.0, TABLE_ENTRIES // 12, 8),
    )
    keys, sources = resolve(cache, 0, rng.choice(TABLE_ENTRIES, ROUTE_MAP_BATCH, p=pmf))
    with use_registry(MetricsRegistry("route-map")):
        (_, addresses, present, counts), rerouted, _ = reroute(cache, 0, keys, sources)
        _, want, want_present, want_counts = locate(cache, keys, sources)
        assert rerouted == 0 and np.array_equal(addresses, want)
        assert (present, counts) == (want_present, want_counts)
        t_routed = _best_of(lambda: reroute(cache, 0, keys, sources), 50)
        t_located = _best_of(lambda: locate(cache, keys, sources), 50)
        t_plan = _best_of(lambda: plan_extraction(cache, 0, keys), 50)
    return {
        "platform": platform.name,
        "batch_size": ROUTE_MAP_BATCH,
        "reroute_keys_per_sec": ROUTE_MAP_BATCH / t_routed,
        "locate_keys_per_sec": ROUTE_MAP_BATCH / t_located,
        "plan_keys_per_sec": ROUTE_MAP_BATCH / t_plan,
        "speedup": t_located / t_routed,
    }


def _bench_cluster_serve(rng) -> list[dict]:
    """Warm 512-key ``ClusterFrontend.serve(execute=True)`` requests per
    second on the cluster tests' 3-node mini cluster (replication 2),
    healthy and with node 1 ejected by its breaker, so that its keys are
    routed to their replica owners."""
    from tests.test_cluster import N_ENTRIES, _mini_cluster  # repo root on sys.path

    keys = rng.choice(N_ENTRIES, CLUSTER_KEYS, p=zipf_pmf(N_ENTRIES, 1.1))
    rows = []
    for ejected in ((), (1,)):
        frontend, table, _ = _mini_cluster()
        for node in ejected:
            for _ in range(frontend.config.breaker.failure_threshold):
                frontend.breakers.record(node, False, 0.0)
        assert frontend.breakers.excluded_sources(0.0) == set(ejected)

        def requests():
            for _ in range(CLUSTER_REQUESTS):
                resp = frontend.serve(keys, now=0.0, execute=True)
            return resp

        with use_registry(MetricsRegistry("cluster-serve")):
            resp = requests()  # warm: every ingress GPU's memo, the instruments
            assert resp.ok and np.array_equal(resp.values, table[keys])
            assert (resp.replica_keys > 0) == bool(ejected)
            seconds = _best_of(requests)
        rows.append(
            {
                "ejected_nodes": list(ejected),
                "keys": CLUSTER_KEYS,
                "requests_per_sec": CLUSTER_REQUESTS / seconds,
            }
        )
    return rows


def _bench_coalesce(rng) -> list[dict]:
    """Dedup + scatter of one coalesced batch, in member keys per second.

    Members draw Zipf keys from the table, so they overlap the way queued
    requests do.  The timed region is what ``serve_batch`` does around
    the shared extraction: ``coalesce_keys`` and handing every member its
    rows.  ``oracle_*`` is the same scatter over the sorting index the
    keyspace marker replaced, ``np.unique(concat, return_inverse=True)``;
    ``parent_*`` is the path before the shared index — ``np.unique``
    without the inverse, then a ``searchsorted`` and a fancy gather per
    member.  Both are timed in the same process on the same batch.
    """
    from types import SimpleNamespace

    from repro.serve import coalesce_keys

    table = rng.standard_normal((TABLE_ENTRIES, 16)).astype(np.float32)
    pmf = zipf_pmf(TABLE_ENTRIES, 1.2)
    hot = rng.permutation(TABLE_ENTRIES)  # hot rows scattered over the ids
    rows = []
    for members, size in COALESCE_SHAPES:
        requests = [
            SimpleNamespace(keys=hot[rng.choice(TABLE_ENTRIES, size, p=pmf)])
            for _ in range(members)
        ]
        union = coalesce_keys(requests, TABLE_ENTRIES)[0]
        values = table[union]  # the shared extraction's result

        def slices(inverse):
            buffer, stop, out = values.take(inverse, axis=0), 0, []
            for r in requests:
                start, stop = stop, stop + len(r.keys)
                out.append(buffer[start:stop])
            return out

        def scatter():
            return slices(coalesce_keys(requests, TABLE_ENTRIES)[2])

        def oracle_scatter():
            concat = np.concatenate([r.keys for r in requests])
            return slices(np.unique(concat, return_inverse=True)[1])

        def parent_scatter():
            parts = [np.ascontiguousarray(r.keys, dtype=np.int64) for r in requests]
            sorted_union = np.unique(np.concatenate(parts))
            return [values[np.searchsorted(sorted_union, p)] for p in parts]

        for new, oracle, old, r in zip(
            scatter(), oracle_scatter(), parent_scatter(), requests
        ):
            assert np.array_equal(new, oracle) and np.array_equal(new, old)
            assert np.array_equal(new, table[r.keys])
        total = members * size
        rows.append(
            {
                "members": members,
                "keys_per_member": size,
                "dedup_ratio": total / len(union),
                "coalesce_member_keys_per_sec": total / _best_of(scatter, 20),
                "oracle_coalesce_member_keys_per_sec": total
                / _best_of(oracle_scatter, 20),
                "parent_coalesce_member_keys_per_sec": total
                / _best_of(parent_scatter, 20),
            }
        )
    return rows


def _bench_tier_pricing(rng) -> list[dict]:
    """Resolve + price one batch 4096 across 1/2/3-deep backing chains.

    The ``baseline`` row is the pre-tier platform (no explicit chain) —
    byte-identical to the seed's hot path, as the golden fixtures pin.
    The 1-tier row runs the *generalized* code on an explicit one-tier
    chain and must stay within ``MAX_TIER_REGRESSION`` of that baseline:
    the refactor may not tax single-tier users.  Deeper chains pay only
    O(#tiers) bookkeeping, never O(keys).
    """
    from repro.core.pipeline import plan_extraction, price_demand
    from repro.hardware.platform import (
        TIER_KINDS,
        MemoryTier,
        dram_tier,
        ssd_tier,
        with_tiers,
    )

    base = server_c()
    dim = 16
    entry_bytes = dim * 4
    table = rng.standard_normal((TABLE_ENTRIES, dim)).astype(np.float32)
    hotness = zipf_pmf(TABLE_ENTRIES, 1.2) * 1000.0
    placement = partition_policy(hotness, TABLE_ENTRIES // 10, base.num_gpus)
    total = TABLE_ENTRIES * entry_bytes
    chains = [
        ("baseline", None),
        ("dram", (dram_tier(total, base.pcie_bandwidth),)),
        ("dram+ssd", (dram_tier(total // 2, base.pcie_bandwidth), ssd_tier(total))),
        (
            "dram+cxl+ssd",
            (
                dram_tier(total // 4, base.pcie_bandwidth),
                MemoryTier("cxl", total // 2, *TIER_KINDS["cxl"]),
                ssd_tier(total),
            ),
        ),
    ]
    batch = 4096
    keys = rng.integers(0, TABLE_ENTRIES, size=batch)
    rows = []
    for label, tiers in chains:
        platform = base if tiers is None else with_tiers(base, tiers)
        cache = MultiGpuEmbeddingCache(
            platform,
            table,
            placement,
            tier_hotness=hotness if platform.num_tiers > 1 else None,
        )

        def resolve_and_price():
            plan = plan_extraction(cache, 0, keys)
            return price_demand(platform, plan.demand(cache.entry_bytes))

        report = resolve_and_price()
        elapsed = _best_of(resolve_and_price)
        rows.append(
            {
                "chain": label,
                "num_tiers": platform.num_tiers,
                "batch_size": batch,
                "resolve_price_keys_per_sec": batch / elapsed,
                "est_batch_seconds": float(report.time),
            }
        )
    return rows


def _bench_write_path(rng) -> dict:
    """The refresh side: one store step, one hashtable delete, one LP build,
    one location-table rebuild.

    A step evicts and inserts ``step`` entries each on a 100 k x 32 store
    (timed there and back, so every repeat starts from the same store);
    ``remove_batch`` deletes 4096 of 20 k keys from a fresh table each
    repeat; LP assembly is ``solve_policy`` with ``milp`` answering from
    its first (real) solve, i.e. everything but the solve, and ``highs_s``
    is that first solve.  The rebuild is ``resolve_sources`` over that LP's
    realized placement, timed beside the float-argmin resolve it replaced
    (``tests/test_evaluate.py``'s oracle), whose output it must equal.
    """
    import scipy.optimize

    from tests.test_evaluate import _argmin_resolve_sources  # repo root on sys.path

    table = rng.standard_normal((TABLE_ENTRIES, 32)).astype(np.float32)
    ids = rng.permutation(TABLE_ENTRIES)
    capacity = TABLE_ENTRIES // 5
    store = fill_gpu(0, table, ids[:capacity], capacity)
    steps = []
    for step in REFRESH_STEPS:
        out, back = np.sort(ids[:step]), np.sort(ids[capacity : capacity + step])

        def there_and_back():
            apply_diff_step(store, table, out, back)
            apply_diff_step(store, table, back, out)

        steps.append(
            {
                "step_entries": step,
                "entries_per_sec": 4 * step / _best_of(there_and_back),
            }
        )

    keys = ids[:capacity].astype(np.int64)
    zeros = np.zeros(capacity, dtype=np.int64)
    timings = []
    for _ in range(5):
        fresh = LocationTable(expected_entries=capacity)
        fresh.insert_batch(keys, zeros, np.arange(capacity))
        start = time.perf_counter()
        assert fresh.remove_batch(keys[:4096]) == 4096
        timings.append(time.perf_counter() - start)
    remove = {"batch_size": 4096, "remove_batch_keys_per_sec": 4096 / min(timings)}

    config = SolverConfig(time_limit=10.0, coarse_block_frac=0.02)
    lps, rebuilds = [], []
    real_milp = scipy.optimize.milp
    for make_platform, entries, alpha, batch_keys, ratio in LP_SHAPES:
        platform = make_platform()
        hotness = zipf_pmf(entries, alpha)[rng.permutation(entries)] * batch_keys
        args = (platform, hotness, int(ratio * entries), 128, config)
        answer, highs = [], []

        def solve_once(*a, **kw):  # same LP every call, so same answer
            if not answer:
                start = time.perf_counter()
                answer.append(real_milp(*a, **kw))
                highs.append(time.perf_counter() - start)
            return answer[0]

        scipy.optimize.milp = solve_once
        try:
            policy = solve_policy(*args)
            assembly = _best_of(lambda: solve_policy(*args), repeats=3)
        finally:
            scipy.optimize.milp = real_milp
        lps.append(
            {
                "platform": platform.name,
                "blocks": policy.blocks.num_blocks,
                "variables": policy.num_variables,
                "constraints": policy.num_constraints,
                "lp_assembly_ms": assembly * 1e3,
                "highs_s": highs[0],
            }
        )
        placement = policy.realize()
        assert (
            resolve_sources(platform, placement).tobytes()
            == _argmin_resolve_sources(platform, placement).tobytes()
        )
        rebuild = _best_of(lambda: resolve_sources(platform, placement))
        oracle = _best_of(lambda: _argmin_resolve_sources(platform, placement))
        rebuilds.append(
            {
                "platform": platform.name,
                "entries": entries,
                "rebuild_ms": rebuild * 1e3,
                "oracle_rebuild_ms": oracle * 1e3,
                "rebuild_speedup": oracle / rebuild,
            }
        )
    return {
        "apply_diff_step": steps,
        "remove_batch": remove,
        "lp_assembly": lps,
        "location_table_rebuild": rebuilds,
    }


@pytest.mark.perf
def bench_micro_hotpath():
    rng = np.random.default_rng(0)
    location_rows = _bench_location_table(rng)
    pipeline_rows = _bench_pipeline(rng)
    tier_rows = _bench_tier_pricing(rng)
    coalesce_rows = _bench_coalesce(rng)
    write_path = _bench_write_path(rng)
    sort_free = _bench_sort_free_plan(rng)
    route_map = _bench_route_map(rng)
    cluster_rows = _bench_cluster_serve(rng)
    doc = {
        "recorded_at": _recorded_at(),
        "table_entries": TABLE_ENTRIES,
        "min_speedup_at_4096": MIN_SPEEDUP_AT_4096,
        "min_plan_keys_per_sec_at_4096": MIN_PLAN_KEYS_PER_SEC_AT_4096,
        "min_execute_keys_per_sec_at_4096": MIN_EXECUTE_KEYS_PER_SEC_AT_4096,
        "max_tier_regression": MAX_TIER_REGRESSION,
        "min_coalesce_member_keys_per_sec_at_8x1024": (
            MIN_COALESCE_MEMBER_KEYS_PER_SEC_AT_8X1024
        ),
        "min_refresh_entries_per_sec_at_4096": MIN_REFRESH_ENTRIES_PER_SEC_AT_4096,
        "max_server_c_lp_variables": MAX_SERVER_C_LP_VARIABLES,
        "min_server_c_rebuild_speedup": MIN_SERVER_C_REBUILD_SPEEDUP,
        "min_sort_free_speedup": MIN_SORT_FREE_SPEEDUP,
        "min_route_map_speedup": MIN_ROUTE_MAP_SPEEDUP,
        "min_cluster_serve_requests_per_sec": MIN_CLUSTER_SERVE_REQUESTS_PER_SEC,
        "location_table": location_rows,
        "pipeline": pipeline_rows,
        "tier_pricing": tier_rows,
        "coalesce": coalesce_rows,
        "write_path": write_path,
        "sort_free_plan": sort_free,
        "route_map": route_map,
        "cluster_serve": cluster_rows,
    }
    ARTIFACT.write_text(json.dumps(doc, indent=1) + "\n")
    for row in location_rows:
        print(
            f"batch {row['batch_size']:>6}: lookup_batch "
            f"{row['lookup_batch_keys_per_sec'] / 1e6:.1f} M keys/s, "
            f"scalar {row['scalar_lookup_keys_per_sec'] / 1e3:.1f} K keys/s "
            f"({row['lookup_speedup']:.0f}x)"
        )
    for row in location_rows:
        if row["batch_size"] >= 4096:
            assert row["lookup_speedup"] >= MIN_SPEEDUP_AT_4096, (
                f"vectorized lookup_batch only {row['lookup_speedup']:.1f}x "
                f"scalar at batch {row['batch_size']}"
            )
    for row in pipeline_rows:
        print(
            f"batch {row['batch_size']:>6}: plan "
            f"{row['plan_keys_per_sec'] / 1e6:.1f} M keys/s, resolve "
            f"{row['resolve_keys_per_sec'] / 1e6:.0f} M keys/s, execute "
            f"{row['execute_keys_per_sec'] / 1e6:.1f} M keys/s (per-group "
            f"oracle {row['oracle_execute_keys_per_sec'] / 1e6:.1f} M)"
        )
        assert row["resolve_keys_per_sec"] > row["plan_keys_per_sec"] > 0
        if row["batch_size"] == 4096:
            assert row["plan_keys_per_sec"] >= MIN_PLAN_KEYS_PER_SEC_AT_4096, (
                f"plan_extraction only {row['plan_keys_per_sec'] / 1e6:.1f} M "
                f"keys/s at batch 4096"
            )
            assert row["execute_keys_per_sec"] >= MIN_EXECUTE_KEYS_PER_SEC_AT_4096, (
                f"execute_plan only {row['execute_keys_per_sec'] / 1e6:.1f} M "
                f"keys/s at batch 4096"
            )
            assert row["execute_keys_per_sec"] > row["oracle_execute_keys_per_sec"]
    for row in tier_rows:
        print(
            f"chain {row['chain']:>12} ({row['num_tiers']} tier"
            f"{'s' if row['num_tiers'] > 1 else ''}): resolve+price "
            f"{row['resolve_price_keys_per_sec'] / 1e6:.2f} M keys/s, "
            f"est batch {row['est_batch_seconds'] * 1e6:.1f} us"
        )
        assert row["resolve_price_keys_per_sec"] > 0
        assert row["est_batch_seconds"] > 0
    by_chain = {row["chain"]: row for row in tier_rows}
    baseline = by_chain["baseline"]["resolve_price_keys_per_sec"]
    single = by_chain["dram"]["resolve_price_keys_per_sec"]
    assert single >= (1.0 - MAX_TIER_REGRESSION) * baseline, (
        f"single-tier resolve+price regressed "
        f"{(1.0 - single / baseline) * 100:.1f}% vs the pre-tier baseline "
        f"(budget {MAX_TIER_REGRESSION * 100:.0f}%)"
    )
    # Deeper chains shift bytes to slower tiers: the priced batch time
    # must reflect that, not just stay flat.
    assert (
        by_chain["dram+ssd"]["est_batch_seconds"]
        > by_chain["dram"]["est_batch_seconds"]
    )
    for row in coalesce_rows:
        shape = (row["members"], row["keys_per_member"])
        rate = row["coalesce_member_keys_per_sec"]
        print(
            f"coalesce {shape[0]} x {shape[1]:>4} (dedup "
            f"{row['dedup_ratio']:.2f}): {rate / 1e6:.1f} M member keys/s, "
            f"np.unique oracle "
            f"{row['oracle_coalesce_member_keys_per_sec'] / 1e6:.1f} M, "
            f"parent {row['parent_coalesce_member_keys_per_sec'] / 1e6:.1f} M"
        )
        if shape == (8, 1024):
            assert rate >= MIN_COALESCE_MEMBER_KEYS_PER_SEC_AT_8X1024, (
                f"coalesce_keys + scatter only {rate / 1e6:.1f} M member "
                f"keys/s at 8 x 1024"
            )
    for row in write_path["apply_diff_step"]:
        rate = row["entries_per_sec"]
        print(
            f"refresh step {row['step_entries']:>4} + {row['step_entries']:>4}: "
            f"{rate / 1e6:.2f} M entries/s"
        )
        if row["step_entries"] == 4096:
            assert rate >= MIN_REFRESH_ENTRIES_PER_SEC_AT_4096, (
                f"apply_diff_step only {rate / 1e6:.2f} M entries/s at 4096"
            )
    print(
        "remove_batch 4096: "
        f"{write_path['remove_batch']['remove_batch_keys_per_sec'] / 1e6:.2f} M keys/s"
    )
    for row in write_path["lp_assembly"]:
        print(
            f"LP assembly {row['platform']} ({row['blocks']} blocks, "
            f"{row['variables']} variables): {row['lp_assembly_ms']:.1f} ms, "
            f"HiGHS {row['highs_s'] * 1e3:.1f} ms"
        )
        if row["platform"] == "server-c":
            assert row["variables"] <= MAX_SERVER_C_LP_VARIABLES, (
                f"server-c policy LP has {row['variables']} variables: the "
                "orbit quotient no longer applies"
            )
    for row in write_path["location_table_rebuild"]:
        print(
            f"location table rebuild {row['platform']} {row['entries']}: "
            f"{row['rebuild_ms']:.1f} ms, float argmin "
            f"{row['oracle_rebuild_ms']:.1f} ms ({row['rebuild_speedup']:.1f}x)"
        )
        if row["platform"] == "server-c":
            assert row["rebuild_speedup"] >= MIN_SERVER_C_REBUILD_SPEEDUP, (
                f"resolve_sources only {row['rebuild_speedup']:.1f}x the float "
                "argmin on server-c"
            )
    print(
        f"plan + execute {sort_free['batch_size']} on {sort_free['platform']}: "
        f"{sort_free['plan_execute_keys_per_sec'] / 1e6:.1f} M keys/s, sorting "
        f"planner {sort_free['oracle_plan_execute_keys_per_sec'] / 1e6:.1f} M "
        f"({sort_free['speedup']:.2f}x)"
    )
    assert sort_free["speedup"] >= MIN_SORT_FREE_SPEEDUP, (
        f"sort-free plan + execute only {sort_free['speedup']:.2f}x the sorting "
        "planner on server-c"
    )
    print(
        f"route map {route_map['batch_size']} on {route_map['platform']}: reroute "
        f"{route_map['reroute_keys_per_sec'] / 1e6:.1f} M keys/s, slot-table locate "
        f"{route_map['locate_keys_per_sec'] / 1e6:.1f} M ({route_map['speedup']:.2f}x), "
        f"plan {route_map['plan_keys_per_sec'] / 1e6:.1f} M"
    )
    assert route_map["speedup"] >= MIN_ROUTE_MAP_SPEEDUP, (
        f"route-map reroute only {route_map['speedup']:.2f}x the slot-table "
        "locate on server-c"
    )
    for row in cluster_rows:
        rate = row["requests_per_sec"]
        print(
            f"cluster serve {row['keys']} keys, ejected {row['ejected_nodes']}: "
            f"{rate:.0f} requests/s"
        )
        assert rate >= MIN_CLUSTER_SERVE_REQUESTS_PER_SEC, (
            f"ClusterFrontend.serve only {rate:.0f} requests/s with nodes "
            f"{row['ejected_nodes']} ejected"
        )
