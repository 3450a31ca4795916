"""Property-based tests (hypothesis) on core data structures and invariants."""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.blocks import build_blocks
from repro.core.evaluate import hit_rates, resolve_sources
from repro.core.policy import partition_policy, replication_policy
from repro.core.pipeline import apply_health
from repro.faults.spec import HealthView
from repro.hardware.memory import SlotArena
from repro.hardware.platform import (
    HOST,
    dgx2,
    pcie_only,
    server_a,
    server_a_tiered,
    server_b,
    server_c,
)
from repro.sim.congestion import solve_congested_extraction
from repro.sim.event_sim import simulate_factored_event_driven
from repro.sim.mechanisms import GpuDemand, factored_extraction, factored_terms
from repro.sim.trace import trace_factored
from repro.utils.stats import zipf_pmf

PLATFORM_A = server_a()
PLATFORM_C = server_c()

hotness_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=8, max_value=400),
    elements=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)


@st.composite
def nonzero_hotness(draw):
    hot = draw(hotness_arrays)
    if hot.sum() == 0:
        hot[0] = 1.0
    return hot


class TestBlockingProperties:
    @given(hot=nonzero_hotness(), num_gpus=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_blocks_partition_entries_exactly(self, hot, num_gpus):
        blocks = build_blocks(hot, num_gpus)
        assert blocks.sizes.sum() == len(hot)
        assert len(np.unique(blocks.order)) == len(hot)
        assert blocks.hotness_sum.sum() == pytest.approx(hot.sum(), rel=1e-9)

    @given(hot=nonzero_hotness())
    @settings(max_examples=40, deadline=None)
    def test_blocks_monotone_in_hotness(self, hot):
        blocks = build_blocks(hot, 4)
        means = blocks.hotness_sum / blocks.sizes
        assert (np.diff(means) <= 1e-9).all()


class TestPolicyProperties:
    @given(
        hot=nonzero_hotness(),
        capacity=st.integers(0, 500),
        num_gpus=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_replication_within_capacity(self, hot, capacity, num_gpus):
        placement = replication_policy(hot, capacity, num_gpus)
        placement.validate_capacity(capacity)
        assert placement.num_gpus == num_gpus

    @given(
        hot=nonzero_hotness(),
        capacity=st.integers(0, 500),
        num_gpus=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_no_duplicates_across_gpus(self, hot, capacity, num_gpus):
        placement = partition_policy(hot, capacity, num_gpus)
        placement.validate_capacity(capacity)
        all_ids = np.concatenate(placement.per_gpu)
        assert len(np.unique(all_ids)) == len(all_ids)

    @given(hot=nonzero_hotness(), capacity=st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_partition_covers_at_least_replication(self, hot, capacity):
        rep = replication_policy(hot, capacity, 4)
        part = partition_policy(hot, capacity, 4)
        assert part.distinct_cached() >= rep.distinct_cached()


class TestResolutionProperties:
    @given(hot=nonzero_hotness(), capacity=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_hit_rates_always_sum_to_one(self, hot, capacity):
        placement = partition_policy(hot, capacity, 4)
        hits = hit_rates(PLATFORM_A, placement, hot)
        assert hits.local + hits.remote + hits.host == pytest.approx(1.0)

    @given(hot=nonzero_hotness(), capacity=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_sources_are_valid(self, hot, capacity):
        placement = partition_policy(hot, capacity, 4)
        srcs = resolve_sources(PLATFORM_A, placement)
        mat = placement.storage_matrix()
        for g in range(4):
            unique = np.unique(srcs[g])
            for s in unique:
                assert s == HOST or 0 <= s < 4
            # Any GPU source actually stores the entries mapped to it.
            for s in unique:
                if s == HOST:
                    continue
                entries = np.flatnonzero(srcs[g] == s)
                assert mat[s, entries].all()


class TestSimulationProperties:
    volumes = st.dictionaries(
        keys=st.sampled_from([0, 1, 2, 3, HOST]),
        values=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=5,
    )

    @given(volumes=volumes)
    @settings(max_examples=80, deadline=None)
    def test_factored_time_nonnegative_and_finite(self, volumes):
        demand = GpuDemand(dst=0, volumes=volumes)
        report = factored_extraction(PLATFORM_A, demand)
        assert report.time >= 0.0
        assert np.isfinite(report.time)

    @given(volumes=volumes, scale=st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_factored_time_monotone_in_volume(self, volumes, scale):
        base = factored_extraction(PLATFORM_A, GpuDemand(dst=0, volumes=volumes))
        bigger = factored_extraction(
            PLATFORM_A,
            GpuDemand(dst=0, volumes={k: v * (1 + scale) for k, v in volumes.items()}),
        )
        assert bigger.time >= base.time - 1e-15

    @given(
        vols=st.lists(st.floats(min_value=1.0, max_value=1e9), min_size=1, max_size=4)
    )
    @settings(max_examples=60, deadline=None)
    def test_congestion_never_faster_than_ideal(self, vols):
        sources = list(range(len(vols)))
        peaks = {s: 50e9 for s in sources}
        out = solve_congested_extraction(
            dict(zip(sources, vols)), peaks, 1e9, 80
        )
        ideal = sum(vols) / (80 * 1e9)  # all cores at full per-core rate
        assert out.total_time >= ideal * 0.999


#: Every modelled platform, each with the health it is priced under: one
#: entry is server A seen through a degraded view (a dead peer, a halved
#: link, half the PCIe bandwidth).
MODELLED_PLATFORMS = [
    (platform, None)
    for platform in (
        server_a(), server_b(), server_c(), dgx2(), pcie_only(), server_a_tiered()
    )
] + [(
    PLATFORM_A,
    HealthView(
        down_gpus=frozenset({2}), link_factors=(((0, 1), 0.5),), host_factor=0.5
    ),
)]
EVENT_CHUNK = 64 * 1024


@st.composite
def gpu0_demands(draw):
    """GPU 0's demand on a drawn platform, degraded by its health view."""
    base, health = draw(st.sampled_from(MODELLED_PLATFORMS))
    sources = [0] + [
        src
        for src in (*range(1, base.num_gpus), *base.backing_ids)
        if base.bandwidth(0, src) > 0
    ]
    local = st.one_of(st.just(0.0), st.floats(1.0, 200e6))
    remote = st.one_of(st.just(0.0), st.floats(1.0, 20e6))
    volumes = {src: draw(local if src == 0 else remote) for src in sources}
    platform, (demand,), _ = apply_health(
        base, [GpuDemand(dst=0, volumes=volumes)], health
    )
    return platform, demand


class TestOneTimeModel:
    """The Gantt trace, the price and the event simulator tell one time.

    The event-driven bounds are derived, not tuned.  A group's chunks run
    at ``r = min(per_core, bandwidth / busy)`` per core, so its chunk time
    is ``tau = chunk / r``: its last round ends up to one chunk from the
    fluid finish, and the padding's last chunk adds up to one more to the
    batch.  The price credits a group ``rate`` on ``busy`` cores, which
    exceeds ``busy * r`` by the fraction of a core the link's tolerance
    rounds away; that ``volume / (busy * r) - volume / rate`` is added.
    """

    @given(case=gpu0_demands())
    @example(case=(server_a_tiered(), GpuDemand(
        dst=0, volumes={0: 400e6, 1: 20e6, HOST: 5e6, -2: 5e6}
    )))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_trace_price_and_event_simulation_agree(self, case):
        platform, demand = case
        price = factored_extraction(platform, demand)
        makespan = trace_factored(platform, demand).makespan
        assert makespan == pytest.approx(price.time, rel=1e-12, abs=0.0)

        per_core, _, _, terms = factored_terms(platform, 0, tuple(demand.volumes))
        tau = {0: EVENT_CHUNK / per_core} if demand.volume(0) > 0 else {}
        credit = {}
        for src, rate, _, _, busy in terms:
            volume = demand.volume(src)
            if volume <= 0:
                continue
            r = min(per_core, platform.bandwidth(0, src) / busy)
            tau[src] = EVENT_CHUNK / r
            credit[src] = volume / (busy * r) - volume / rate
            # The group alone: zeroing the other volumes keeps its terms.
            alone = {s: volume if s == src else 0.0 for s in demand.volumes}
            group = simulate_factored_event_driven(
                platform, GpuDemand(0, alone), EVENT_CHUNK
            ).total_time
            assert abs(group - price.time_by_source[src]) <= tau[src] + credit[src]

        event = simulate_factored_event_driven(platform, demand, EVENT_CHUNK)
        bound = 2 * max(tau.values(), default=0.0) + max(credit.values(), default=0.0)
        assert abs(event.total_time - price.time) <= bound


class TestArenaProperties:
    @given(ops=st.lists(st.booleans(), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_arena_accounting_invariant(self, ops):
        arena = SlotArena(capacity_bytes=20 * 8, slot_bytes=8)
        live: list[int] = []
        for do_alloc in ops:
            if do_alloc and arena.free_slots > 0:
                live.append(arena.allocate())
            elif live:
                arena.free(live.pop())
            assert arena.used_slots == len(live)
            assert arena.used_slots + arena.free_slots == 20
            assert len(set(live)) == len(live)


class TestStatsProperties:
    @given(
        n=st.integers(2, 500),
        alpha=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_zipf_valid_distribution(self, n, alpha):
        pmf = zipf_pmf(n, alpha)
        assert pmf.sum() == pytest.approx(1.0)
        assert (pmf > 0).all()
        assert (np.diff(pmf) <= 1e-15).all()


# ----------------------------------------------------------------------
# Cross-request coalescing (PR 5): shared read-only cache stack so each
# hypothesis example only pays for planning, not cache construction.
# ----------------------------------------------------------------------
import functools
from types import SimpleNamespace

from repro.core.pipeline import plan_extraction, price_demand
from repro.serve import coalesce_keys

CACHE_N = 600
ENTRY_BYTES = 4 * 8  # float32 * D=8


@functools.lru_cache(maxsize=1)
def _coalesce_stack():
    from repro.core.cache import MultiGpuEmbeddingCache
    from repro.core.policy import hot_replicate_warm_partition_policy

    rng = np.random.default_rng(0)
    table = rng.standard_normal((CACHE_N, 8)).astype(np.float32)
    hot = zipf_pmf(CACHE_N, 1.1) * 1000.0
    placement = hot_replicate_warm_partition_policy(
        hot, CACHE_N // 8, PLATFORM_A.num_gpus, 0.5
    )
    return MultiGpuEmbeddingCache(PLATFORM_A, table, placement)


member_key_lists = st.lists(
    hnp.arrays(
        dtype=np.int64,
        shape=st.integers(min_value=1, max_value=80),
        elements=st.integers(0, CACHE_N - 1),
    ),
    min_size=1,
    max_size=4,
)


class TestCoalesceProperties:
    @given(members=member_key_lists)
    @settings(max_examples=40, deadline=None)
    def test_dedup_never_drops_a_key(self, members):
        requests = [SimpleNamespace(keys=m) for m in members]
        union, total, _ = coalesce_keys(requests, CACHE_N)
        assert total == sum(len(m) for m in members)
        assert len(np.unique(union)) == len(union)
        for m in members:
            assert np.isin(m, union).all()
        # ...and nothing invented: every union key came from a member.
        assert np.isin(union, np.concatenate(members)).all()

    @given(members=member_key_lists)
    @settings(max_examples=25, deadline=None)
    def test_coalesced_pricing_conserves_demand(self, members):
        """Every unique key is priced exactly once, on exactly one source."""
        cache = _coalesce_stack()
        requests = [SimpleNamespace(keys=m) for m in members]
        union, _, _ = coalesce_keys(requests, CACHE_N)
        plan = plan_extraction(cache, 0, union)
        group_keys = np.concatenate([g.keys for g in plan.groups])
        # The groups partition the union: same multiset, no duplicates.
        assert len(group_keys) == len(union)
        assert np.array_equal(np.sort(group_keys), union)
        demand = plan.demand(ENTRY_BYTES)
        assert sum(demand.volumes.values()) == pytest.approx(
            len(union) * ENTRY_BYTES
        )

    @given(members=member_key_lists)
    @settings(max_examples=20, deadline=None)
    def test_member_latency_never_below_solo_lower_bound(self, members):
        """Shared extraction time dominates each member's solo price.

        A member's coalesced latency is wait + shared_time, and the
        member's keys are a subset of the union, so per-source demand can
        only grow — pricing is monotone in volume (see
        TestSimulationProperties), hence coalescing never beats the
        member's own un-coalesced extraction time.
        """
        cache = _coalesce_stack()
        requests = [SimpleNamespace(keys=m) for m in members]
        union, _, _ = coalesce_keys(requests, CACHE_N)
        union_plan = plan_extraction(cache, 0, union)
        union_demand = union_plan.demand(ENTRY_BYTES)
        shared = price_demand(PLATFORM_A, union_demand).time
        for m in members:
            solo_plan = plan_extraction(cache, 0, np.unique(m))
            solo_demand = solo_plan.demand(ENTRY_BYTES)
            for src, vol in solo_demand.volumes.items():
                assert vol <= union_demand.volumes.get(src, 0.0) + 1e-9
            assert shared >= price_demand(PLATFORM_A, solo_demand).time - 1e-12

    @given(
        keys=hnp.arrays(
            dtype=np.int64,
            shape=st.integers(min_value=1, max_value=200),
            elements=st.integers(0, CACHE_N - 1),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_resolve_reroute_conserves_keys(self, keys):
        """resolve → reroute → group neither drops nor duplicates keys."""
        cache = _coalesce_stack()
        plan = plan_extraction(cache, 1, keys)
        assert plan.batch_size == len(keys)
        assert plan.rerouted_keys == 0  # healthy cache: nothing moved
        positions = np.concatenate([g.batch_positions for g in plan.groups])
        assert np.array_equal(np.sort(positions), np.arange(len(keys)))
        for g in plan.groups:
            assert np.array_equal(g.keys, keys[g.batch_positions])
            assert g.source == HOST or 0 <= g.source < PLATFORM_A.num_gpus


# ----------------------------------------------------------------------
# The segmented plan against a brute-force oracle
# ----------------------------------------------------------------------
from dataclasses import replace

from repro.core import pipeline
from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.policy import Placement, hot_replicate_warm_partition_policy
from repro.faults.degrade import degraded_platform
from repro.faults.spec import HealthView
from repro.hardware.platform import (
    MemoryTier, gbps, server_a_tiered, server_b, with_tiers,
)
from repro.obs import MetricsRegistry, get_registry, use_registry

PLAN_N = 240
PLAN_DIM = 4


def _server_a_tiered_half_dram():
    """``server_a_tiered()`` with its DRAM tier cut to half the plan table,
    so a batch reads both of its tiers."""
    platform = server_a_tiered()
    dram, ssd = platform.tiers
    half = replace(dram, capacity_bytes=PLAN_N // 2 * PLAN_DIM * 4)
    return with_tiers(platform, (half, ssd))


def _plan_cache(kind: str, seed: int, empty: bool = False) -> MultiGpuEmbeddingCache:
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((PLAN_N, PLAN_DIM)).astype(np.float32)
    hot = rng.permutation(zipf_pmf(PLAN_N, 1.1)) * 1000.0
    row = PLAN_DIM * 4
    platform = {
        "a": server_a,
        "b": server_b,  # DGX-1: some GPU pairs have no link
        "c": server_c,
        "tiered": lambda: with_tiers(server_a(), (
            MemoryTier("dram", 60 * row, gbps(16)),
            MemoryTier("cxl", 60 * row, gbps(12), 1e-6),
            MemoryTier("ssd", PLAN_N * row, gbps(6), 100e-6),
        )),
        "a-tiered": _server_a_tiered_half_dram,
    }[kind]()
    placement = hot_replicate_warm_partition_policy(
        hot, PLAN_N // 10, platform.num_gpus, 0.5
    )
    if empty:
        placement = Placement(num_entries=PLAN_N, per_gpu=tuple(
            np.empty(0, dtype=np.int64) for _ in platform.gpu_ids
        ))
    return MultiGpuEmbeddingCache(
        platform, table, placement,
        tier_hotness=hot if platform.num_tiers > 1 else None,
    )


def _oracle_plan(cache, dst, keys, health, exclude):
    """The planner as it was before the segment index, kept as the
    reference: one full-batch ``sources == g`` pass per GPU to validate,
    one ``np.flatnonzero(sources == s)`` per ``np.unique`` source to
    group.  Records the same counters into the active registry."""
    reg = get_registry()
    platform = cache.platform
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    sources = cache.source_map[dst][keys]
    corrupt_mask = ~platform.valid_source_mask(sources)
    bad = corrupt_mask.copy()
    n_corrupt, n_stale, failed = int(bad.sum()), 0, set()
    for g in platform.gpu_ids:
        idx = np.flatnonzero(sources == g)
        if not len(idx):
            continue
        if g != dst and g in exclude:
            bad[idx] = True
        elif g != dst and not platform.is_connected(dst, g):
            bad[idx] = True
            n_corrupt += len(idx)
            failed.add(g)
        elif health is not None and not health.source_usable(dst, g):
            bad[idx] = True
            failed.add(g)
        else:
            stale = cache.store(g).offset_of[keys[idx]] < 0
            if stale.any():
                bad[idx[stale]] = True
                n_stale += int(stale.sum())
                failed.add(g)
    for g in platform.gpu_ids:
        if (cache.store(g).offset_of[keys[corrupt_mask]] >= 0).any():
            failed.add(g)
    rerouted = int(bad.sum())
    if rerouted:
        bad_idx = np.flatnonzero(bad)
        replacements = pipeline.find_replicas(cache, dst, keys[bad_idx], health, exclude)
        sources = sources.copy()
        sources[bad_idx] = replacements
        to_backing = int(platform.backing_mask(replacements).sum())
        reg.counter("faults.rerouted_keys", dst=dst).inc(rerouted)
        reg.counter("faults.rerouted_keys_to", target="host").inc(to_backing)
        reg.counter("faults.rerouted_keys_to", target="replica").inc(rerouted - to_backing)
        if n_corrupt:
            reg.counter("faults.corrupt_reads").inc(n_corrupt)
        if n_stale:
            reg.counter("faults.stale_reads").inc(n_stale)
    present = tuple(int(s) for s in np.unique(sources))
    priced = platform if health is None else degraded_platform(platform, health)
    dedication = pipeline.dedicate(priced, dst, present)
    groups = []
    for src in present:
        positions = np.flatnonzero(sources == src)
        offsets = (
            np.empty(0, dtype=np.int64) if platform.is_backing(src)
            else cache.store(src).offset_of[keys[positions]]
        )
        cores = platform.gpu.num_cores if src == dst else dedication.get(src, 1)
        label = pipeline.source_class(src, dst, platform)
        reg.counter("extractor.plan.keys", source=label).inc(len(positions))
        reg.histogram("extractor.plan.dedicated_cores", source=label).observe(cores)
        groups.append((src, positions, keys[positions], offsets, cores))
    groups.sort(key=lambda group: group[0] == dst)  # stable: local goes last
    return groups, rerouted, tuple(sorted(failed))


def _plan_counters(reg: MetricsRegistry, *also: str) -> dict:
    return {
        (s.name, s.labels): s.value if s.kind == "counter" else (s.count, s.sum)
        for s in reg.series()
        if s.name.startswith(("faults.", "extractor.plan.", *also))
    }


@st.composite
def plan_scenarios(draw, empty_arena=st.just(False)):
    """A cache (possibly with a damaged map, or with no slots at all), a
    batch and a health view."""
    cache = _plan_cache(
        draw(st.sampled_from(["a", "b", "c", "tiered"])), draw(st.integers(0, 50)),
        empty=draw(empty_arena),
    )
    platform = cache.platform
    G = platform.num_gpus
    gpus = st.integers(0, G - 1)
    dst = draw(gpus)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    row = cache.source_map[dst]
    # corrupt ids (outside both ranges) and misroutes (a GPU that may not
    # hold the entry, or — on DGX-1 — may not even be linked to dst)
    for _ in range(draw(st.integers(0, 3))):
        wrong = draw(st.sampled_from([G, 999, -platform.num_tiers - 1, -40]) | gpus)
        cache.set_sources(dst, rng.integers(0, PLAN_N, size=draw(st.integers(1, 12))), wrong)
    # stale slots: evicted behind the location map's back
    for _ in range(draw(st.integers(0, 2))):
        store = cache.store(draw(gpus))
        held = store.cached_entries()
        with cache.writing():
            for entry in rng.choice(held, size=min(len(held), 5), replace=False):
                store.evict_many([int(entry)])
    pool = np.arange(PLAN_N)
    if draw(st.booleans()):  # a batch that reads one source only
        pool = np.flatnonzero(row == row[rng.integers(0, PLAN_N)])
    size = draw(st.sampled_from([500, 33, 2, 1, 0]))
    keys = pool[rng.integers(0, len(pool), size=size)]
    health = None
    if draw(st.booleans()):
        links = draw(st.lists(
            st.tuples(st.tuples(st.just(dst), gpus), st.sampled_from([0.0, 0.5])),
            max_size=3,
        ))
        health = HealthView(
            down_gpus=draw(st.frozensets(gpus, max_size=2)),
            link_factors=tuple(links),
            host_factor=draw(st.sampled_from([1.0, 0.5])),
        )
    exclude = draw(st.frozensets(gpus, max_size=2))
    return cache, dst, keys, health, exclude


class TestSegmentedPlanProperties:
    @given(scenario=plan_scenarios())
    @settings(max_examples=120, deadline=None)
    def test_plan_equals_brute_force_oracle(self, scenario):
        cache, dst, keys, health, exclude = scenario
        want_reg, got_reg = MetricsRegistry("oracle"), MetricsRegistry("plan")
        with use_registry(want_reg):
            want_groups, want_rerouted, want_failed = _oracle_plan(
                cache, dst, keys, health, exclude
            )
        with use_registry(got_reg):
            plan = pipeline.plan_extraction(cache, dst, keys, health, exclude)
        assert plan.batch_size == len(keys)
        assert plan.rerouted_keys == want_rerouted
        assert plan.failed_sources == want_failed
        assert [g.source for g in plan.groups] == [g[0] for g in want_groups]
        for got, (_, positions, group_keys, offsets, cores) in zip(plan.groups, want_groups):
            for have, want in (
                (got.batch_positions, positions),
                (got.keys, group_keys),
                (got.offsets, offsets),
            ):
                assert have.dtype == want.dtype
                assert np.array_equal(have, want)
            assert got.dedicated_cores == cores
        assert _plan_counters(got_reg) == _plan_counters(want_reg)
        # ...and the plan still gathers the right rows.
        values, _ = pipeline.execute_plan(cache, plan)
        assert np.array_equal(values, cache.host_table[keys])


# ----------------------------------------------------------------------
# The sort-free plan against the sorting planner it replaced
# ----------------------------------------------------------------------
def _segment(cache, keys, sources):
    """Sort a batch by source once: ``(present, segments)`` — the sources
    present (ascending) and per present source ``(source, positions, keys,
    offsets)``, positions ascending, the arrays views of one sorted copy;
    ``offsets`` are the keys' slots on a GPU source (negative: not held)."""
    if not len(sources):
        return (), []
    # A stable integer argsort is a radix sort, one pass per key byte, so
    # sort one byte wide first.  Run-start ids strictly ascending means the
    # result *is* the wide stable sort; an id that does not fit a byte (a
    # corrupt one) aliases, so its runs interleave with another's (44 and
    # 300) or land out of place (200, -200), and the wide sort runs.
    for sort_key in (sources.astype(np.int8), sources):
        order = sort_key.argsort(kind="stable")
        by_source = sources.take(order)
        cuts = ((by_source[1:] != by_source[:-1]).nonzero()[0] + 1).tolist()
        starts = [0, *cuts]
        ids = by_source[starts].tolist()
        if all(a < b for a, b in zip(ids, ids[1:])):
            break
    by_keys, num_gpus = keys.take(order), cache.platform.num_gpus
    return tuple(ids), [
        (src, order[a:b], segment_keys := by_keys[a:b],
         cache.store(src).offset_of.take(segment_keys) if 0 <= src < num_gpus
         else np.empty(0, dtype=np.int64))
        for src, a, b in zip(ids, starts, [*cuts, len(order)])
    ]


def _sorting_plan(cache, dst, keys, health, exclude):
    """``plan_extraction`` as it was before the slot table: ``_segment``'s
    sort, a verdict and a stale check per segment, a second sort after a
    reroute, one ``SourceGroup`` per segment.  Returns ``(groups, rerouted,
    failed)`` and counts into the active registry as the planner does."""
    reg, platform = get_registry(), cache.platform
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    sources = cache.source_map[dst][keys]
    present, segments = _segment(cache, keys, sources)
    verdicts = {
        src: pipeline._verdict(platform, dst, src, health, exclude)
        for src in (*platform.backing_ids, *platform.gpu_ids)
    }
    bad, failed, n_corrupt, n_stale = [], set(), 0, 0
    for src, positions, _, offsets in segments:
        verdict = verdicts.get(src, "corrupt")
        if verdict == pipeline._HELD:
            if len(offsets) and offsets.min() < 0:
                stale = offsets < 0
                bad.append(positions[stale])
                n_stale += int(stale.sum())
                failed.add(src)
        elif verdict != pipeline._BACKING:
            bad.append(positions)
            if verdict in (pipeline._UNLINKED, "corrupt"):
                n_corrupt += len(positions)
            if verdict in (pipeline._UNLINKED, pipeline._UNUSABLE):
                failed.add(src)
    rerouted = 0
    if bad:
        corrupt = [seg[2] for seg in segments if seg[0] not in verdicts]
        if corrupt:
            corrupt_keys = np.concatenate(corrupt)
            for g in platform.gpu_ids:
                if (cache.store(g).offset_of[corrupt_keys] >= 0).any():
                    failed.add(g)
        bad_idx = np.concatenate(bad)
        replacements = pipeline.find_replicas(cache, dst, keys[bad_idx], health, exclude)
        sources = sources.copy()
        sources[bad_idx] = replacements
        present, segments = _segment(cache, keys, sources)
        rerouted = len(bad_idx)
        to_backing = int(platform.backing_mask(replacements).sum())
        reg.counter("faults.rerouted_keys", dst=dst).inc(rerouted)
        reg.counter("faults.rerouted_keys_to", target="host").inc(to_backing)
        reg.counter("faults.rerouted_keys_to", target="replica").inc(rerouted - to_backing)
        if n_corrupt:
            reg.counter("faults.corrupt_reads").inc(n_corrupt)
        if n_stale:
            reg.counter("faults.stale_reads").inc(n_stale)
    priced = platform if health is None else degraded_platform(platform, health)
    dedication = pipeline.dedicate(priced, dst, present)
    groups = []
    for segment in segments:
        src = segment[0]
        cores = platform.gpu.num_cores if src == dst else dedication.get(src, 1)
        label = pipeline.source_class(src, dst, platform)
        reg.counter("extractor.plan.keys", source=label).inc(len(segment[2]))
        reg.histogram("extractor.plan.dedicated_cores", source=label).observe(cores)
        groups.append(pipeline.SourceGroup(*segment, cores))
    if dst in present:
        groups.append(groups.pop(present.index(dst)))
    return tuple(groups), rerouted, tuple(sorted(failed))


def _sorting_execute(cache, dst, num_rows, groups):
    """``execute_plan`` as it was: every GPU group's offsets scattered into
    one address per batch position, one ``take``, then each backing group's
    rows, read from the host table (the ground truth), written over its
    positions."""
    reg = get_registry()
    slots = np.zeros(num_rows, dtype=np.int64)
    cached = [g for g in groups if g.source >= 0]
    for g in cached:
        slots[g.batch_positions] = g.offsets + cache.slot_base[g.source]
    if cached:
        values = cache.row_arena.take(slots, axis=0)
    else:
        values = np.empty((num_rows, cache.dim), dtype=cache.row_arena.dtype)
    volumes = {}
    for g in groups:
        if g.source < 0:
            values[g.batch_positions] = cache.host_table[g.keys]
        sent = len(g.keys) * cache.entry_bytes
        volumes[g.source] = float(sent)
        label = pipeline.source_class(g.source, dst, cache.platform)
        reg.counter("extractor.execute.bytes", source=label).inc(sent)
    return values, GpuDemand(dst=dst, volumes=volumes)


def _assert_equals_the_sorting_planner(cache, dst, keys, health, exclude):
    want_reg, got_reg = MetricsRegistry("sorting"), MetricsRegistry("sort-free")
    with use_registry(want_reg):
        groups, rerouted, failed = _sorting_plan(cache, dst, keys, health, exclude)
        want_values, want_demand = _sorting_execute(cache, dst, len(keys), groups)
    with use_registry(got_reg):
        plan = pipeline.plan_extraction(cache, dst, keys, health, exclude)
        values, demand = pipeline.execute_plan(cache, plan)
    assert values.dtype == want_values.dtype
    assert values.tobytes() == want_values.tobytes()
    for got in (demand, plan.demand(cache.entry_bytes)):
        assert got.dst == want_demand.dst
        _same_floats(got.volumes, want_demand.volumes)
    assert (plan.rerouted_keys, plan.failed_sources) == (rerouted, failed)
    assert _plan_counters(got_reg, "extractor.execute.") == _plan_counters(
        want_reg, "extractor.execute."
    )
    assert len(plan.groups) == len(groups)
    for got_group, want_group in zip(plan.groups, groups):
        for have, want in zip(got_group, want_group):
            assert type(have) is type(want)
            if isinstance(want, np.ndarray):
                assert have.dtype == want.dtype and np.array_equal(have, want)
            else:
                assert have == want


class TestSortFreePlanAgainstTheSortingPlan:
    @given(scenario=plan_scenarios(empty_arena=st.booleans()))
    @settings(max_examples=150, deadline=None)
    def test_plan_and_execute_equal_the_sorting_planner(self, scenario):
        _assert_equals_the_sorting_planner(*scenario)

    @pytest.mark.parametrize("dst", [0, 5])
    def test_every_fault_in_one_batch(self, dst):
        """DGX-1: a route over a missing link, corrupt ids both ways, a
        stale slot, a down GPU and an excluded one, all in one batch."""
        cache = _plan_cache("b", 3)
        unlinked = next(g for g in range(8) if not cache.platform.is_connected(dst, g))
        for cells, wrong in ((slice(0, 6), unlinked), (slice(6, 9), 0x4000 + dst), (slice(9, 12), -40)):
            cache.set_sources(dst, np.arange(PLAN_N)[cells], wrong)
        stale = next(g for g in range(8) if g != dst and len(cache.store(g).cached_entries()))
        entry = int(cache.store(stale).cached_entries()[0])
        cache.set_sources(dst, entry, stale)
        with cache.writing():
            cache.store(stale).evict_many([entry])
        keys = np.concatenate([np.arange(PLAN_N), [entry] * 3])
        health = HealthView(down_gpus=frozenset({(dst + 1) % 8}))
        for exclude in (frozenset(), frozenset({(dst + 2) % 8})):
            _assert_equals_the_sorting_planner(cache, dst, keys, health, exclude)


class TestOneAddressSpace:
    @given(scenario=plan_scenarios(empty_arena=st.booleans()))
    @settings(max_examples=120, deadline=None)
    def test_every_gathered_address_is_its_sources_row(self, scenario):
        """Down GPUs, corrupt ids, misroutes and stale GPU slots: every
        address the plan gathers lies in its source's block of the row
        arena, and the rows are the table's."""
        cache, dst, keys, health, exclude = scenario
        plan = pipeline.plan_extraction(cache, dst, keys, health, exclude)
        shifted = plan.sources.astype(np.int64) + cache.platform.num_tiers
        ends = np.append(cache.address_base[1:], len(cache.row_arena))
        assert (plan.addresses >= cache.address_base[shifted]).all()
        assert (plan.addresses < ends[shifted]).all()
        values, _ = pipeline.execute_plan(cache, plan)
        want = cache.host_table[keys]
        assert values.dtype == want.dtype and values.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# The integrity check's one locate per destination against the scans it
# replaced
# ----------------------------------------------------------------------
def _oracle_route_scan(cache):
    """The route half of ``verify_integrity`` as it was: a valid-id mask, a
    compare with the backing home, and one holder scan per (destination,
    GPU)."""
    problems = []
    G = cache.platform.num_gpus
    chain = cache.tier_chain
    for dst in range(G):
        srcs = cache.source_map[dst]
        bad = ~cache.platform.valid_source_mask(srcs)
        if bad.any():
            problems.append(f"GPU {dst}: {int(bad.sum())} out-of-range source ids")
        if chain is not None:
            stale = (srcs < 0) & (srcs != chain.home)
            if stale.any():
                problems.append(
                    f"GPU {dst}: {int(stale.sum())} backing routes point "
                    "at a tier that is not the entry's home"
                )
        for g in range(G):
            pointed = np.flatnonzero(srcs == g)
            missing = pointed[cache.store(g).offset_of[pointed] < 0]
            if len(missing):
                problems.append(
                    f"GPU {dst}: {len(missing)} entries routed to GPU {g} "
                    "which does not hold them"
                )
    return problems


def _unheld(cache, gpu, count):
    return np.flatnonzero(cache.store(gpu).offset_of < 0)[:count]


def _off_home(cache, count):
    """``count`` entries and, for each, a tier that is not its home."""
    home = cache.tier_chain.home
    entries = np.flatnonzero(home == -1)[:count]
    return entries, np.full(count, -2, dtype=home.dtype)


class TestRouteCheck:
    @given(scenario=plan_scenarios(empty_arena=st.booleans()))
    @settings(max_examples=150, deadline=None)
    def test_route_check_equals_the_scans_it_replaced(self, scenario):
        """Corrupt ids both ways, misroutes, stale GPU slots, empty arenas
        on servers a/b/c and the 3-tier chain: the same violations, in the
        same order, with the same counts."""
        cache = scenario[0]
        assert cache.verify_integrity() == _oracle_route_scan(cache)

    def test_corrupt_ids_are_counted(self):
        cache = _plan_cache("a", 2)
        cache.set_sources(3, [5, 6, 7], 999)
        assert cache.verify_integrity() == ["GPU 3: 3 out-of-range source ids"]

    def test_a_route_to_a_gpu_that_does_not_hold_the_entry(self):
        cache = _plan_cache("c", 2)
        cache.set_sources(1, _unheld(cache, 6, 4), 6)
        assert cache.verify_integrity() == [
            "GPU 1: 4 entries routed to GPU 6 which does not hold them"
        ]

    def test_a_backing_route_off_the_home_tier(self):
        cache = _plan_cache("tiered", 2)
        entries, wrong = _off_home(cache, 5)
        cache.set_sources(2, entries, wrong)
        assert cache.verify_integrity() == [
            "GPU 2: 5 backing routes point at a tier that is not the entry's home"
        ]

    def test_all_three_route_faults_in_one_destination(self):
        cache = _plan_cache("tiered", 3)
        entries, wrong = _off_home(cache, 3)
        cache.set_sources(0, entries, wrong)
        misrouted = np.setdiff1d(_unheld(cache, 2, 40), entries)[:4]
        cache.set_sources(0, misrouted, 2)
        corrupt = np.setdiff1d(np.arange(PLAN_N), np.r_[entries, misrouted])[:2]
        cache.set_sources(0, corrupt, 0x4000)
        assert cache.verify_integrity() == [
            "GPU 0: 2 out-of-range source ids",
            "GPU 0: 3 backing routes point at a tier that is not the entry's home",
            "GPU 0: 4 entries routed to GPU 2 which does not hold them",
        ]

    def test_the_location_table_is_read_only(self):
        cache = _plan_cache("a", 2)
        with pytest.raises(ValueError, match="read-only"):
            cache.source_map[0, 0] = 1

    def test_a_route_map_its_writers_did_not_keep(self):
        """Two entries that trade slots, rows and checksums behind the
        store's back leave their readers' routes on the old rows: only the
        route check sees it, counting per destination."""
        cache = _plan_cache("c", 2)
        store = cache.store(3)
        pair = store.cached_entries()[:2]
        slots = store.offset_of[pair]
        store.data[slots] = store.data[slots[::-1]]
        store.checksums[slots] = store.checksums[slots[::-1]]
        store.offset_of[pair] = slots[::-1]
        readers = (cache.source_map[:, pair] == 3).sum(axis=1)
        assert readers.any()
        assert cache.verify_integrity() == [
            f"GPU {dst}: {n} route map cells disagree"
            for dst, n in enumerate(readers.tolist()) if n
        ]

    def test_two_entries_on_one_slot(self):
        cache = _plan_cache("a", 4)
        store = cache.store(2)
        first, second = store.cached_entries()[:2]
        store.offset_of[second] = store.offset_of[first]
        # its readers' routes follow the slot, so only the slot is wrong
        cache.set_sources(np.flatnonzero(cache.source_map[:, second] == 2), second, 2)
        assert cache.verify_integrity() == [
            "GPU 2: duplicate slot assignments",
            "GPU 2: cached values diverge from host table",
            "GPU 2: stored checksums diverge from the table",
        ]

    def test_a_stored_checksum_that_left_the_table_on_a_gpu(self):
        cache = _plan_cache("a", 4)
        store = cache.store(1)
        store.checksums[store.offset_of[store.cached_entries()[3]]] ^= 1
        assert cache.verify_integrity() == [
            "GPU 1: stored checksums diverge from the table"
        ]

    def test_a_stored_checksum_that_left_the_table_on_a_tier(self):
        cache = _plan_cache("tiered", 4)
        store = cache.tier_chain.stores[1]
        store.checksums[store.offset_of[store.cached_entries()[0]]] ^= 1
        assert cache.verify_integrity() == [
            "tier cxl: stored checksums diverge from the table"
        ]


# ----------------------------------------------------------------------
# What the pipeline remembers per route, against the parent's per-request
# algorithms and against itself with nothing remembered
# ----------------------------------------------------------------------
from repro.core.refresher import RefreshConfig, Refresher
from repro.sim.mechanisms import Mechanism, core_dedication


def _oracle_execute(cache, plan):
    """``execute_plan`` as it was: a scatter per group, then the demand
    rebuilt from the plan (it is now filled in by the same loop)."""
    values = np.empty((plan.batch_size, cache.dim), dtype=cache.store(0).data.dtype)
    for group in plan.groups:
        if cache.platform.is_backing(group.source):
            rows = cache.host_table[group.keys]
        else:
            rows = cache.store(group.source).data.take(group.offsets, axis=0)
        values[group.batch_positions] = rows
    return values, plan.demand(cache.entry_bytes)


def _oracle_factored(platform, demand, local_padding=True):
    """``factored_extraction`` as it was: every term derived per request."""
    gpu = platform.gpu
    dedication = core_dedication(platform, demand.dst, list(demand.volumes))
    time_by_source, cores_by_source = {}, {}
    busy_core_seconds = slowest_group = 0.0
    remote = [s for s, v in demand.volumes.items() if s != demand.dst and v > 0]
    for src in remote + ([HOST] if demand.volume(HOST) > 0 else []):
        if src in time_by_source:
            continue
        vol = demand.volume(src)
        if vol <= 0:
            continue
        cores = dedication.get(src, 1)
        rate = min(cores * gpu.per_core_bandwidth, platform.bandwidth(demand.dst, src))
        group_time = vol / rate + platform.tier_latency(src)
        time_by_source[src] = group_time
        cores_by_source[src] = cores
        busy = min(cores, platform.tolerance(demand.dst, src))
        busy_core_seconds += busy * group_time
        slowest_group = max(slowest_group, group_time)
    local_vol = demand.volume(demand.dst)
    local_core_seconds = local_vol / gpu.per_core_bandwidth
    if local_padding:
        total = max(
            slowest_group, (busy_core_seconds + local_core_seconds) / gpu.num_cores
        )
    else:
        total = slowest_group + local_vol / gpu.local_bandwidth
    if local_vol > 0:
        time_by_source[demand.dst] = local_core_seconds / gpu.num_cores
        cores_by_source[demand.dst] = gpu.num_cores
    return float(total), time_by_source, cores_by_source


def _same_floats(got: dict, want: dict) -> None:
    """Equal keys in equal order, bit-equal values of equal type."""
    assert list(got) == list(want)
    for key in want:
        assert type(got[key]) is type(want[key])
        assert got[key] == want[key]


def _report_fields(report):
    return (
        report.dst, report.mechanism, report.time, type(report.time),
        list(report.time_by_source.items()), list(report.cores_by_source.items()),
        list(report.volumes.items()),
    )


PRICED_PLATFORMS = {
    "a": server_a(),
    "b": server_b(),
    "c": server_c(),
    "tiered": with_tiers(server_a(), (
        MemoryTier("dram", 1 << 20, gbps(16)),
        MemoryTier("cxl", 1 << 20, gbps(12), 1e-6),
        MemoryTier("ssd", 1 << 30, gbps(6), 100e-6),
    )),
}


@st.composite
def health_views(draw, num_gpus: int, dst: int):
    gpus = st.integers(0, num_gpus - 1)
    return HealthView(
        down_gpus=draw(st.frozensets(gpus, max_size=2)),
        link_factors=tuple(draw(st.lists(
            st.tuples(st.tuples(st.just(dst), gpus), st.sampled_from([0.0, 0.25, 0.5])),
            max_size=3,
        ))),
        host_factor=draw(st.sampled_from([1.0, 0.5])),
    )


@st.composite
def priced_demands(draw):
    """A platform (shared across examples, so its memo is warm), maybe seen
    through a health view, and a demand over its sources in any order."""
    platform = PRICED_PLATFORMS[draw(st.sampled_from(sorted(PRICED_PLATFORMS)))]
    dst = draw(st.integers(0, platform.num_gpus - 1))
    sources = draw(st.lists(
        st.sampled_from([*platform.gpu_ids, *platform.backing_ids]),
        max_size=7, unique=True,
    ))
    volume = st.sampled_from([0.0, 0, 128, 4096.0, 3.3e5, 7e7])
    demand = GpuDemand(dst=dst, volumes={s: draw(volume) for s in sources})
    if draw(st.booleans()):
        platform = degraded_platform(
            platform, draw(health_views(platform.num_gpus, dst))
        )
    return platform, demand, draw(st.booleans())


def _whole_plan(cache, dst, keys, health, exclude):
    """Everything a request gets from the pipeline, and what it counted."""
    reg = MetricsRegistry("route")
    with use_registry(reg):
        plan = pipeline.plan_extraction(cache, dst, keys, health, exclude)
        values, demand = pipeline.execute_plan(cache, plan)
        report = pipeline.price_demand(cache.platform, demand, health)
    return plan, values, demand, report, _plan_counters(reg)


def _assert_same_plan(got, want) -> None:
    (plan, values, demand, report, counters) = got
    (want_plan, want_values, want_demand, want_report, want_counters) = want
    for name in ("dst", "rerouted_keys", "failed_sources", "per_source"):
        assert getattr(plan, name) == getattr(want_plan, name)
    for name in ("keys", "sources", "slots", "addresses"):
        have, expected = getattr(plan, name), getattr(want_plan, name)
        assert have.dtype == expected.dtype and np.array_equal(have, expected)
    assert len(plan.groups) == len(want_plan.groups)
    for group, want_group in zip(plan.groups, want_plan.groups):
        for have, expected in zip(group, want_group):
            if isinstance(expected, np.ndarray):
                assert have.dtype == expected.dtype and np.array_equal(have, expected)
            else:
                assert have == expected and type(have) is type(expected)
    assert values.dtype == want_values.dtype and np.array_equal(values, want_values)
    assert (demand.dst, list(demand.volumes.items())) == (
        want_demand.dst, list(want_demand.volumes.items())
    )
    assert _report_fields(report) == _report_fields(want_report)
    assert counters == want_counters


class TestRouteMemoProperties:
    @given(scenario=plan_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_execute_equals_the_parents_execute(self, scenario):
        cache, dst, keys, health, exclude = scenario
        plan = pipeline.plan_extraction(cache, dst, keys, health, exclude)
        want_values, want_demand = _oracle_execute(cache, plan)
        values, demand = pipeline.execute_plan(cache, plan)
        assert values.dtype == want_values.dtype
        assert np.array_equal(values, want_values)
        assert demand.dst == want_demand.dst
        _same_floats(demand.volumes, want_demand.volumes)

    @given(priced=priced_demands())
    @settings(max_examples=300, deadline=None)
    def test_factored_extraction_equals_the_per_request_oracle(self, priced):
        platform, demand, local_padding = priced
        try:
            want_time, want_by_source, want_cores = _oracle_factored(
                platform, demand, local_padding
            )
        except ZeroDivisionError:  # bytes routed over a dead link
            with pytest.raises(ZeroDivisionError):
                factored_extraction(platform, demand, local_padding)
            return
        for _ in range(2):  # the second call is served from the memo
            report = factored_extraction(platform, demand, local_padding)
            assert (report.dst, report.mechanism) == (demand.dst, Mechanism.FACTORED)
            assert type(report.time) is float and report.time == want_time
            _same_floats(report.time_by_source, want_by_source)
            _same_floats(report.cores_by_source, want_cores)
            assert list(report.volumes.items()) == list(demand.volumes.items())

    @given(
        kind=st.sampled_from(["a", "b", "c", "tiered"]),
        seed=st.integers(0, 50),
        steps=st.lists(st.integers(0, 2**16), min_size=2, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_warm_memo_is_never_stale(self, kind, seed, steps, data):
        """Whatever happens between two batches — faults, breakers, a new
        placement, a refresh step, a rotten slot — a warm memo answers
        exactly as an empty one does, and the route map is rebuilt."""
        cache = _plan_cache(kind, seed)
        platform = cache.platform
        G = platform.num_gpus
        gpus = st.integers(0, G - 1)
        refresh = None  # a refresh in flight, advanced a step at a time
        damaged = False  # the Refresher assumes an intact cache: none after damage
        for step in steps:
            rng = np.random.default_rng(step)
            event = data.draw(st.sampled_from([
                "none", "none", "placement", "refresh", "stale", "corrupt",
            ]))
            if event == "placement":
                hot = rng.permutation(zipf_pmf(PLAN_N, 1.1)) * 1000.0
                cache.replace_placement(hot_replicate_warm_partition_policy(
                    hot, PLAN_N // 10, G, 0.5
                ))
                refresh, damaged = None, False
            elif event == "refresh" and not damaged:
                if refresh is None:
                    hot = rng.permutation(zipf_pmf(PLAN_N, 1.1)) * 1000.0
                    refresh = Refresher(
                        cache, RefreshConfig(update_batch_entries=7)
                    ).refresh_steps(hot_replicate_warm_partition_policy(
                        hot, PLAN_N // 10, G, 0.5
                    ))
                if next(refresh, None) is None:
                    refresh = None
            elif event == "stale":
                refresh, damaged = None, True
                store = cache.store(data.draw(gpus))
                held = store.cached_entries()
                with cache.writing():
                    for entry in rng.choice(held, size=min(len(held), 5), replace=False):
                        store.evict_many([int(entry)])
            elif event == "corrupt":
                refresh, damaged = None, True
                wrong = data.draw(st.sampled_from([G, 300, 44, 200, -200]) | gpus)
                cache.set_sources(data.draw(gpus), rng.integers(0, PLAN_N, size=6), wrong)
            dst = data.draw(gpus)
            keys = rng.integers(0, PLAN_N, size=data.draw(st.sampled_from([300, 40, 3, 0])))
            health = data.draw(st.none() | health_views(G, dst))
            exclude = data.draw(st.frozensets(gpus, max_size=2))
            args = (cache, dst, keys, health, exclude)
            warm = _whole_plan(*args)
            remembered = dict(platform.memo)
            platform.memo.clear()
            try:
                cold = _whole_plan(*args)
            finally:
                platform.memo.clear()
                platform.memo.update(remembered)
            _assert_same_plan(warm, cold)
            assert np.array_equal(warm[1], cache.host_table[keys])
            assert np.array_equal(cache.routes, _oracle_routes(cache))


def _oracle_routes(cache):
    """The route map rebuilt from scratch, one source at a time: per (GPU,
    entry) its source's first arena row plus its slot there, −1 where that
    source does not hold it or the id names no source."""
    T = cache.platform.num_tiers
    routes = np.full(cache.source_map.shape, -1)
    for src in (*cache.platform.backing_ids, *cache.platform.gpu_ids):
        dsts, entries = np.nonzero(cache.source_map == src)
        slots = cache.slot_table[src + T, entries]
        routes[dsts, entries] = np.where(slots >= 0, cache.address_base[src + T] + slots, -1)
    return routes


class TestRouteMapWriters:
    @given(
        kind=st.sampled_from(["a", "b", "tiered"]),
        seed=st.integers(0, 50),
        events=st.lists(st.sampled_from([
            "refresh", "rollback", "quarantine", "repair", "corrupt", "drop",
            "restage", "evict", "placement",
        ]), min_size=1, max_size=6),
        picks=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_writer_keeps_the_route_map_exact(self, kind, seed, events, picks):
        """Refresh steps and a rollback, scrub quarantine and repair,
        injector corruption, a node drop and its restage, entries evicted
        behind the map's back and inserted again, a new placement, in any
        order: after every write the route map is the one rebuilt from
        scratch."""
        from repro.cluster.node import CacheNode
        from repro.core.filler import OutOfDeviceMemory
        from repro.faults.injector import FaultInjector
        from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
        from repro.repair import CacheScrubber, StagedRecovery

        cache = _plan_cache(kind, seed)
        G = cache.platform.num_gpus
        node = SimpleNamespace(cache=cache, platform=cache.platform, node_id=0)
        scrubber, lost, evicted, damaged = CacheScrubber(cache), None, None, False
        hot = zipf_pmf(PLAN_N, 1.1) * 1000.0

        def exact():
            assert np.array_equal(cache.routes, _oracle_routes(cache))

        def policy(per_gpu):
            return hot_replicate_warm_partition_policy(
                np.random.default_rng(picks.randrange(2**16)).permutation(hot),
                per_gpu, G, 0.5,
            )

        for event in events:
            clean = not damaged and evicted is None and lost is None
            if event == "placement":
                cache.replace_placement(policy(PLAN_N // 10))
                scrubber, lost, evicted, damaged = CacheScrubber(cache), None, None, False
            elif event in ("refresh", "rollback") and clean:
                # A rollback: more entries than the arenas hold, found mid-way.
                target = policy(PLAN_N // 10 + (8 if event == "rollback" else 0))
                steps = Refresher(cache, RefreshConfig(update_batch_entries=9))
                with pytest.raises(OutOfDeviceMemory) if event == "rollback" else (
                    contextlib.nullcontext()
                ):
                    for _ in steps.refresh_steps(target):
                        exact()
            elif event == "quarantine":
                dst = picks.randrange(G)
                held = np.isin(cache.source_map[dst], range(G)) & (_oracle_routes(cache)[dst] >= 0)
                keys = np.flatnonzero(held)[:3]
                if len(keys):  # rot the replica dst reads, then serve it
                    store = cache.store(int(cache.source_map[dst, keys[0]]))
                    store.data[store.offset_of[keys[0]]].view(np.uint8)[0] ^= 0x10
                    values, _ = pipeline.execute_plan(
                        cache, pipeline.plan_extraction(cache, dst, keys)
                    )
                    assert scrubber.guard_read(dst, keys, values)[1] >= 1
                    damaged = True
            elif event == "repair":
                scrubber.scrub_all()
            elif event == "corrupt":
                FaultInjector(FaultPlan(faults=(FaultSpec(
                    FaultKind.CORRUPT_SLOT, severity=0.2, gpu=picks.randrange(G),
                ),), seed=picks.randrange(99)), cache=cache).advance(0.0)
                damaged = True
            elif event == "drop" and clean:
                lost = CacheNode.drop_gpu_caches(node)
            elif event == "restage" and lost is not None and not damaged and evicted is None:
                StagedRecovery(node, lost, hot).grant(picks.random() * 1e-5)
                lost = None
            elif event == "evict" and evicted is None:
                store = cache.store(picks.randrange(G))
                evicted = store, store.cached_entries()[:3]
                with cache.writing():
                    store.evict_many(evicted[1])
            exact()
        # Close what the events left open: the repairs, the evicted entries'
        # return (to the same routes), the restage.
        scrubber.scrub_all()
        exact()
        if evicted is not None:
            store, entries = evicted
            with cache.writing():
                store.insert_many(entries, cache.host_table[entries])
            exact()
        if lost is not None:
            StagedRecovery(node, lost, hot).finish()
            exact()


# ----------------------------------------------------------------------
# A plan and its price split the cores one way
# ----------------------------------------------------------------------
class TestPlanAndPriceShareOneSplit:
    @given(
        kind=st.sampled_from(["a", "c", "a-tiered"]),
        seed=st.integers(0, 50),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_cores_equal_the_price_cores(self, kind, seed, data):
        """Each group of a plan runs on the cores its price bills: the
        dedicated cores per non-local source, every core for the local
        group — with or without faults and open breakers."""
        cache = _plan_cache(kind, seed)
        platform = cache.platform
        G = platform.num_gpus
        gpus = st.integers(0, G - 1)
        for _ in range(data.draw(st.integers(1, 3))):
            dst = data.draw(gpus)
            rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
            keys = rng.integers(0, PLAN_N, size=data.draw(st.sampled_from([300, 40, 3])))
            health = data.draw(st.none() | health_views(G, dst))
            exclude = data.draw(st.frozensets(gpus, max_size=2))
            plan = pipeline.plan_extraction(cache, dst, keys, health, exclude)
            report = pipeline.price_demand(
                platform, plan.demand(cache.entry_bytes), health
            )
            split = [(src, cores) for src, _, cores in plan.per_source]
            assert split == list(report.cores_by_source.items())
            assert all(c == platform.gpu.num_cores for s, c in split if s == dst)
