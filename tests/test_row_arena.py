"""One address space for the cache: every source's rows, backing tiers
included, a block of one row arena.

``fill_all`` allocates every source's rows as one array and ``execute_plan``
and ``lookup`` turn a batch's ``(source, offset)`` pairs into rows with one
``take``.  What they replaced is kept here as the reference —
``execute_plan``'s gather and row scatter per group over separately read
``store.data`` (:func:`_parent_rows`) and ``lookup``'s mask pass per source
(:func:`_parent_lookup`), each backing group read from the host table, the
ground truth — and must agree bit for bit
on rows, demand and counters, on caches that are mid-refresh, unequally
sized, partly excluded and carrying a rotten slot.  The aliasing the fast
path rests on (``store.data`` *is* the arena slice) is checked after every
writer the repo has.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import CacheNode
from repro.core import pipeline
from repro.core.cache import LookupResult, MultiGpuEmbeddingCache
from repro.core.evaluate import demand_from_keys
from repro.core.extractor import FactoredExtractor
from repro.core.policy import Placement, partition_policy
from repro.core.refresher import RefreshConfig, Refresher
from repro.faults.spec import HealthView
from repro.hardware.platform import (
    MemoryTier, gbps, server_a, server_b, server_c, with_tiers,
)
from repro.obs import MetricsRegistry, get_registry, use_registry
from repro.repair import CacheScrubber, StagedRecovery
from repro.sim.mechanisms import GpuDemand
from repro.utils.stats import zipf_pmf

N, DIM = 240, 4
ROW = DIM * 4
PLATFORMS = {
    "a": server_a,
    "b": server_b,  # DGX-1: some GPU pairs have no link
    "c": server_c,
    "tiered": lambda: with_tiers(server_a(), (
        MemoryTier("dram", 60 * ROW, gbps(16)),
        MemoryTier("cxl", 60 * ROW, gbps(12), 1e-6),
        MemoryTier("ssd", 2 * N * ROW, gbps(6), 100e-6),  # float64 rows fit too
    )),
}


# ----------------------------------------------------------------------
# The replaced paths, kept as the reference
# ----------------------------------------------------------------------
def _parent_rows(cache, plan):
    """The rows of ``execute_plan`` as it was: per group one ``take`` from
    that GPU's own ``data`` and one row scatter into the batch.  (The micro
    benchmark times this beside the arena path.)"""
    values = np.empty((plan.batch_size, cache.dim), dtype=cache.host_table.dtype)
    for group in plan.groups:
        if group.source < 0:
            rows = cache.host_table.take(group.keys, axis=0)
        else:
            rows = cache.store(group.source).data.take(group.offsets, axis=0)
        values[group.batch_positions] = rows
    return values


def _parent_execute(cache, plan):
    """``execute_plan`` as it was: those rows, the demand, the bytes sent."""
    reg = get_registry()
    volumes = {}
    for group in plan.groups:
        sent = len(group.keys) * cache.entry_bytes
        volumes[group.source] = float(sent)
        label = pipeline.source_class(group.source, plan.dst, cache.platform)
        reg.counter("extractor.execute.bytes", source=label).inc(sent)
    return _parent_rows(cache, plan), GpuDemand(dst=plan.dst, volumes=volumes)


def _parent_lookup(cache, dst, keys):
    """``cache.lookup`` as it was: a mask pass over the batch per source,
    each GPU's rows through ``GpuCacheStore.read``."""
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    sources = cache.source_map[dst][keys]
    values = np.empty((len(keys), cache.dim), dtype=cache.host_table.dtype)
    host_mask = sources < 0
    for src in cache.platform.backing_ids:
        mask = sources == src
        if mask.any():
            values[mask] = cache.host_table[keys[mask]]
    for gpu in cache.platform.gpu_ids:
        mask = sources == gpu
        if mask.any():
            values[mask] = cache.store(gpu).read(keys[mask])
    demand = demand_from_keys(
        cache.platform, cache.source_map, dst, keys, cache.entry_bytes
    )
    reg = get_registry()
    local, host = int((sources == dst).sum()), int(host_mask.sum())
    reg.counter("cache.lookup.calls").inc()
    reg.counter("cache.lookup.keys", source="local").inc(local)
    reg.counter("cache.lookup.keys", source="remote").inc(len(keys) - local - host)
    reg.counter("cache.lookup.keys", source="host").inc(host)
    return LookupResult(values=values, demand=demand, sources=sources)


def _counters(reg: MetricsRegistry, prefix: str) -> dict:
    return {
        (s.name, s.labels): s.value for s in reg.series() if s.name.startswith(prefix)
    }


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Bit equality (a flipped bit can make a NaN, which ``==`` disowns)."""
    return (
        got.dtype == want.dtype and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    )


def _same_demand(got: GpuDemand, want: GpuDemand) -> None:
    assert got.dst == want.dst
    assert list(got.volumes.items()) == list(want.volumes.items())
    assert all(type(v) is float for v in got.volumes.values())


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _random_placement(rng, sizes) -> Placement:
    return Placement(num_entries=N, per_gpu=tuple(
        rng.choice(N, size=size, replace=False) for size in sizes
    ))


@st.composite
def arena_scenarios(draw):
    """A cache with unequal per-GPU capacities (some empty), maybe caught
    mid-refresh, maybe with one rotten slot; a batch with repeats; a health
    view and excluded sources."""
    platform = PLATFORMS[draw(st.sampled_from(sorted(PLATFORMS)))]()
    G = platform.num_gpus
    gpus = st.integers(0, G - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    table = rng.standard_normal((N, DIM)).astype(np.float32)
    sizes = [draw(st.sampled_from([0, 1, 7, 30, 60])) for _ in range(G)]
    cache = MultiGpuEmbeddingCache(
        platform, table, _random_placement(rng, sizes),
        tier_hotness=rng.permutation(zipf_pmf(N, 1.1)) if platform.num_tiers > 1 else None,
    )
    if draw(st.booleans()):  # stop a refresh part-way
        steps = Refresher(cache, RefreshConfig(update_batch_entries=7)).refresh_steps(
            _random_placement(rng, sizes)
        )
        for _ in range(draw(st.integers(1, 4))):
            next(steps, None)
    rotten = None
    holders = [g for g in range(G) if len(cache.store(g).cached_entries())]
    if holders and draw(st.booleans()):
        gpu = draw(st.sampled_from(holders))
        store = cache.store(gpu)
        entry = int(rng.choice(store.cached_entries()))
        store.data[store.offset_of[entry]].view(np.uint8)[draw(st.integers(0, ROW - 1))] ^= 0x10
        rotten = (gpu, entry)
    dst = draw(gpus)
    keys = rng.integers(0, N, size=draw(st.sampled_from([600, 33, 2, 0])))
    health = None
    if draw(st.booleans()):
        health = HealthView(
            down_gpus=draw(st.frozensets(gpus, max_size=2)),
            link_factors=tuple(draw(st.lists(
                st.tuples(st.tuples(st.just(dst), gpus), st.sampled_from([0.0, 0.5])),
                max_size=2,
            ))),
        )
    exclude = draw(st.frozensets(gpus, max_size=2))
    return cache, dst, keys, health, exclude, rotten


class TestArenaAgainstTheParent:
    @given(scenario=arena_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_execute_equals_the_per_group_gather(self, scenario):
        cache, dst, keys, health, exclude, rotten = scenario
        plan = pipeline.plan_extraction(cache, dst, keys, health, exclude)
        want_reg, got_reg = MetricsRegistry("parent"), MetricsRegistry("arena")
        with use_registry(want_reg):
            want_values, want_demand = _parent_execute(cache, plan)
        with use_registry(got_reg):
            values, demand = pipeline.execute_plan(cache, plan)
        assert _same_bits(values, want_values)
        _same_demand(demand, want_demand)
        bytes_sent = _counters(got_reg, "extractor.execute.bytes")
        assert bytes_sent == _counters(want_reg, "extractor.execute.bytes")
        assert sum(bytes_sent.values()) == len(keys) * cache.entry_bytes
        # A rotten slot is seen through the replica the plan names, only.
        seen = np.zeros(len(keys), dtype=bool)
        for group in plan.groups:
            if rotten is not None and group.source == rotten[0]:
                seen[group.batch_positions[group.keys == rotten[1]]] = True
        wrong = (values.view(np.uint32) != cache.host_table[keys].view(np.uint32)).any(axis=1)
        assert np.array_equal(wrong, seen)

    @given(scenario=arena_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_lookup_equals_the_per_source_masks(self, scenario):
        cache, dst, keys, _, _, _ = scenario
        want_reg, got_reg = MetricsRegistry("parent"), MetricsRegistry("arena")
        with use_registry(want_reg):
            want = _parent_lookup(cache, dst, keys)
        with use_registry(got_reg):
            got = cache.lookup(dst, keys)
        assert _same_bits(got.values, want.values)
        assert got.sources.dtype == want.sources.dtype
        assert np.array_equal(got.sources, want.sources)
        _same_demand(got.demand, want.demand)
        assert _counters(got_reg, "cache.lookup.") == _counters(want_reg, "cache.lookup.")

    @pytest.mark.parametrize("kind", ["a", "tiered"])
    def test_lookup_demand_is_the_key_pass_demand(self, kind, rng):
        """Counted once from the routed sources, the demand equals
        ``demand_from_keys`` in its dict order too: GPUs ascending, then the
        backing chain."""
        platform = PLATFORMS[kind]()
        cache = MultiGpuEmbeddingCache(
            platform, rng.standard_normal((N, DIM)).astype(np.float32),
            _random_placement(rng, [30] * platform.num_gpus),
            tier_hotness=zipf_pmf(N, 1.1) if platform.num_tiers > 1 else None,
        )
        for dst in platform.gpu_ids:
            for keys in (rng.integers(0, N, size=400), np.arange(0)):
                want = demand_from_keys(platform, cache.source_map, dst, keys, cache.entry_bytes)
                _same_demand(cache.lookup(dst, keys).demand, want)
                assert len(want.volumes) > platform.num_tiers or not len(keys)


# ----------------------------------------------------------------------
# Edges: nothing cached, nothing asked
# ----------------------------------------------------------------------
def _rows_three_ways(cache, dst, keys):
    """``extract``, ``execute_plan`` and ``lookup`` on one batch."""
    extractor = FactoredExtractor(cache)
    batches = [keys if g == dst else keys[:0] for g in range(cache.platform.num_gpus)]
    plan = extractor.plan(dst, keys)
    return (
        extractor.extract(batches)[0][dst],
        pipeline.execute_plan(cache, plan)[0],
        cache.lookup(dst, keys).values,
    )


class TestEdges:
    @pytest.mark.parametrize("kind", ["a", "tiered"])
    @pytest.mark.parametrize("capacity", [None, 0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_cache_with_no_slots_serves_from_backing(self, kind, capacity, dtype, rng):
        platform = PLATFORMS[kind]()
        table = rng.standard_normal((N, DIM)).astype(dtype)
        empty = Placement(num_entries=N, per_gpu=tuple(
            np.empty(0, dtype=np.int64) for _ in platform.gpu_ids
        ))
        cache = MultiGpuEmbeddingCache(
            platform, table, empty, capacity_entries=capacity,
            tier_hotness=zipf_pmf(N, 1.1) if platform.num_tiers > 1 else None,
        )
        # No GPU rows: the arena is the backing blocks alone.
        tiers = [] if cache.tier_chain is None else cache.tier_chain.stores
        backing = sum(len(s.data) for s in tiers) if tiers else N
        assert cache.row_arena.shape == (backing, DIM)
        assert cache.slot_base == [backing] * (platform.num_gpus + 1)
        for keys in (rng.integers(0, N, size=50), np.empty(0, dtype=np.int64)):
            for values in _rows_three_ways(cache, 1, keys):
                assert values.dtype == dtype
                assert _same_bits(values, table[keys])
        assert cache.verify_integrity() == []

    def test_an_all_backing_plan_over_emptied_stores(self, rng):
        table = rng.standard_normal((N, DIM)).astype(np.float32)
        platform = server_a()
        cache = MultiGpuEmbeddingCache(
            platform, table, partition_policy(zipf_pmf(N, 1.2), 20, 4), capacity_entries=25
        )
        with cache.writing():
            for g in platform.gpu_ids:
                cache.store(g).evict_many(cache.store(g).cached_entries())
        cache.refresh_source_map()
        keys = rng.integers(0, N, size=64)
        plan = pipeline.plan_extraction(cache, 0, keys)
        assert [g.source for g in plan.groups] == [-1]
        for values in _rows_three_ways(cache, 0, keys):
            assert _same_bits(values, table[keys])

    def test_empty_batch_on_a_full_cache(self, platform_a, small_table, skewed_hotness):
        cache = MultiGpuEmbeddingCache(
            platform_a, small_table, partition_policy(skewed_hotness, 100, 4)
        )
        for values in _rows_three_ways(cache, 0, np.empty(0, dtype=np.int64)):
            assert values.shape == (0, small_table.shape[1])
            assert values.dtype == small_table.dtype


# ----------------------------------------------------------------------
# The aliasing invariant, after every writer
# ----------------------------------------------------------------------
def _assert_one_arena(cache) -> None:
    """Backing blocks first, then the GPUs' (``address_base`` in source
    order), every store a view of its block and its slot table row, and a
    single tier's block a copy of the table behind the identity row."""
    arena, base, T = cache.row_arena, cache.slot_base, cache.platform.num_tiers
    assert base[-1] == len(arena)
    assert cache.address_base[T:].tolist() == base[:-1]
    assert cache.slot_table.shape == (T + cache.platform.num_gpus, cache.num_entries)
    tiers = [] if cache.tier_chain is None else cache.tier_chain.stores
    starts = cache.address_base.tolist()
    ends = [*starts[1:], len(arena)]
    for store in (*(cache.store(g) for g in cache.platform.gpu_ids), *tiers):
        row = store.gpu + T
        data = store.data
        assert len(data) == ends[row] - starts[row]
        if len(data):
            assert data.base is arena
            assert np.shares_memory(data, arena[starts[row] : ends[row]])
        assert store.offset_of.base is cache.slot_cells
        assert np.shares_memory(store.offset_of, cache.slot_table[row])
    if not tiers:
        n = cache.num_entries
        assert cache.address_base[0] == 0 and base[0] == n
        assert np.array_equal(cache.slot_table[0], np.arange(n))
        assert _same_bits(arena[:n], cache.host_table)
        assert not np.shares_memory(arena, cache.host_table)
    assert cache.slot_cells[-1] == 0  # the sentinel corrupt ids read
    assert cache.verify_integrity() == []
    rng = np.random.default_rng(7)
    for dst in cache.platform.gpu_ids:
        keys = rng.integers(0, cache.num_entries, size=300)
        for values in _rows_three_ways(cache, dst, keys):
            assert _same_bits(values, cache.host_table[keys])


def _hot(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(zipf_pmf(n, 1.2)) * 1000.0


@pytest.fixture
def cache(platform_a, small_table):
    from repro.core.policy import hot_replicate_warm_partition_policy as policy

    return MultiGpuEmbeddingCache(
        platform_a, small_table, policy(_hot(0, 2000), 200, 4, 0.5),
        capacity_entries=220,
    )


class TestAliasingInvariant:
    def test_replace_placement_swaps_arena_and_bases_together(self, cache):
        before = cache.row_arena
        cache.replace_placement(partition_policy(_hot(1, 2000), 150, 4))
        assert cache.row_arena is not before
        _assert_one_arena(cache)

    def test_refresh_there_and_back(self, cache):
        from repro.core.policy import hot_replicate_warm_partition_policy as policy

        arena, a = cache.row_arena, cache.placement
        b = policy(_hot(2, 2000), 200, 4, 0.3)
        refresher = Refresher(cache, RefreshConfig(update_batch_entries=64))
        for target in (b, a):
            assert refresher.refresh(target).triggered
            assert cache.row_arena is arena  # written in place, never refilled
            _assert_one_arena(cache)

    def test_node_death_and_burst_restage(self, platform_a, small_table):
        """A death empties the stores in place; the drain's one-shot
        ``finish()`` refills them in place."""
        hotness = _hot(3, 2000)
        node = CacheNode(
            node_id=0, platform=platform_a, table=small_table, hotness=hotness,
            member_mask=np.ones(2000, dtype=bool), capacity_entries=250,
        )
        lost = node.drop_gpu_caches()
        _assert_one_arena(node.cache)
        assert StagedRecovery(node, lost, hotness).finish().bytes > 0
        _assert_one_arena(node.cache)

    def test_staged_recovery(self, cache, monkeypatch):
        from repro.repair import restage

        monkeypatch.setattr(restage, "CHUNK_ENTRIES", 64)
        node = SimpleNamespace(cache=cache, node_id=0)
        lost = cache.placement
        with cache.writing():
            for g in cache.platform.gpu_ids:
                cache.store(g).evict_many(cache.store(g).cached_entries())
        cache.refresh_source_map()
        recovery = StagedRecovery(node, lost, _hot(0, 2000))
        recovery.grant(recovery._block_cost(recovery._blocks[0]) * 3)
        _assert_one_arena(cache)  # part-way
        recovery.finish()
        _assert_one_arena(cache)

    def test_scrub_repair_writes_the_arena(self, cache):
        store = cache.store(2)
        entry = int(store.cached_entries()[5])
        slot = int(store.offset_of[entry])
        store.data[slot].view(np.uint8)[3] ^= 0x40
        address = cache.slot_base[2] + slot
        assert not np.array_equal(cache.row_arena[address], cache.host_table[entry])
        tick = CacheScrubber(cache).scrub_all()
        assert (tick.mismatches, tick.repaired) == (1, 1)
        assert np.array_equal(cache.row_arena[address], cache.host_table[entry])
        _assert_one_arena(cache)

    def test_a_rebound_store_is_reported(self, cache):
        store = cache.store(1)
        store.data = store.data.copy()  # writes would land here, reads would not
        assert cache.verify_integrity() == [
            "GPU 1: store data is not its row arena slice"
        ]

    def test_a_rebound_slot_map_is_reported(self, cache):
        store = cache.store(2)
        store.offset_of = store.offset_of.copy()
        assert cache.verify_integrity() == [
            "GPU 2: store offset_of is not its slot table row"
        ]

    def test_a_rebound_tier_store_is_reported(self, rng):
        platform = PLATFORMS["tiered"]()
        table = rng.standard_normal((N, DIM)).astype(np.float32)
        cache = MultiGpuEmbeddingCache(
            platform, table, _random_placement(rng, [30] * 4),
            tier_hotness=zipf_pmf(N, 1.1),
        )
        _assert_one_arena(cache)
        dram, cxl = cache.tier_chain.stores[:2]
        dram.data = dram.data.copy()
        cxl.offset_of = cxl.offset_of.copy()
        assert cache.verify_integrity() == [
            "tier dram: store data is not its row arena slice",
            "tier cxl: store offset_of is not its slot table row",
        ]

    @pytest.mark.parametrize("kind", ["a", "tiered"])
    def test_a_rotten_backing_row_is_reported(self, kind, rng):
        platform = PLATFORMS[kind]()
        table = rng.standard_normal((N, DIM)).astype(np.float32)
        cache = MultiGpuEmbeddingCache(
            platform, table, _random_placement(rng, [30] * platform.num_gpus),
            tier_hotness=zipf_pmf(N, 1.1) if platform.num_tiers > 1 else None,
        )
        entry = int(np.flatnonzero(cache.source_map[0] < 0)[0])
        src = int(cache.source_map[0, entry])
        address = cache.address_base[src + platform.num_tiers] + cache.slot_table[
            src + platform.num_tiers, entry
        ]
        cache.row_arena[address].view(np.uint8)[1] ^= 0x08
        name = platform.tier_of(src).name
        problems = cache.verify_integrity()
        assert any(p.startswith(f"tier {name}: ") and "diverge" in p for p in problems)
        assert not _same_bits(cache.lookup(0, np.array([entry])).values, table[[entry]])

    def test_a_single_tier_row_that_is_not_the_identity_is_reported(self, cache):
        row = cache.slot_table[0]
        row[[3, 4]] = row[[4, 3]]
        # the host readers' routes follow the row, so only the row is wrong
        dsts, at = (cache.source_map[:, [3, 4]] == -1).nonzero()
        cache.set_sources(dsts, np.array([3, 4])[at], -1)
        name = cache.platform.tiers[0].name
        assert cache.verify_integrity() == [
            f"tier {name}: slot table row is not the identity"
        ]

    def test_a_stale_slot_raises_the_stores_key_error(self, cache):
        store = cache.store(0)
        entry = int(np.flatnonzero(cache.source_map[0] == 0)[0])
        with cache.writing():
            store.evict_many([entry])
        keys = np.array([entry, entry + 1])
        with pytest.raises(KeyError) as from_store:
            store.read(keys[:1])
        with pytest.raises(KeyError) as from_lookup:
            cache.lookup(0, keys)
        assert from_lookup.value.args == from_store.value.args


# ----------------------------------------------------------------------
# Keys outside the table
# ----------------------------------------------------------------------
class TestKeysOutOfRange:
    """Key −1 once wrapped to entry N − 1 and was served as that entry's row;
    every entry point now raises the ``KeyError`` ``host_gather`` does."""

    BAD = ([-1, 5], [5, 2000], [-(2**62)])

    @pytest.mark.parametrize("keys", BAD)
    def test_the_extractor(self, cache, keys):
        extractor = FactoredExtractor(cache)
        with pytest.raises(KeyError):
            extractor.plan(0, np.array(keys))
        with pytest.raises(KeyError):
            cache.lookup(0, np.array(keys))
        with pytest.raises(KeyError):
            cache.host_gather(np.array(keys))

    @pytest.mark.parametrize("keys", BAD)
    def test_the_serving_runtime(self, cache, keys):
        from repro.serve import ServingRuntime

        runtime = ServingRuntime(FactoredExtractor(cache))
        with pytest.raises(KeyError):
            runtime.serve_request(runtime.make_request(0, np.array(keys), now=0.0), 0.0)

    @pytest.mark.parametrize("keys", BAD)
    def test_a_cache_node(self, platform_a, small_table, keys):
        node = CacheNode(
            node_id=0, platform=platform_a, table=small_table, hotness=_hot(3, 2000),
            member_mask=np.ones(2000, dtype=bool), capacity_entries=250,
        )
        with pytest.raises(KeyError):
            node.serve(np.array(keys))

    @pytest.mark.parametrize("keys", [*BAD, [*range(60), 2000]])
    def test_the_cluster_front_end_moves_nothing(self, platform_a, small_table, keys):
        """The front-end checks the range before routing: no node is
        admitted, so no ingress pointer moves, no breaker records and no
        plan is made (a dense owner table's ``take`` would otherwise wrap
        key −1 onto entry N − 1's owners)."""
        from repro.cluster import ClusterConfig, ClusterFrontend

        config = ClusterConfig(nodes=3, replication=2)
        placement = ClusterFrontend.build_placement(config)
        owners = placement.owners_for(np.arange(2000))
        nodes = [
            CacheNode(
                node_id=n, platform=platform_a, table=small_table, hotness=_hot(3, 2000),
                member_mask=(owners == n).any(axis=1), capacity_entries=250,
            )
            for n in range(3)
        ]
        frontend = ClusterFrontend(nodes, config, 1.0, placement=placement)
        frontend.breakers.record = lambda *a: pytest.fail("a breaker recorded")
        reg = MetricsRegistry("bad-keys")
        with use_registry(reg), pytest.raises(KeyError):
            frontend.serve(np.array(keys), now=0.0, execute=True)
        assert [n._next_gpu for n in nodes] == [0, 0, 0]
        assert reg.value("extractor.plan.calls") is None

    def test_the_edges_of_the_range_are_served(self, cache):
        keys = np.array([0, cache.num_entries - 1])
        values, _ = FactoredExtractor(cache).extract([keys, keys[:0], keys[:0], keys[:0]])
        assert _same_bits(values[0], cache.host_table[keys])


# ----------------------------------------------------------------------
# Cost: Python-level calls of one 9-group execute
# ----------------------------------------------------------------------
class TestExecuteCallBudget:
    def test_one_take_for_nine_groups(self, platform_c, rng, count_calls):
        n = 20_000
        table = rng.standard_normal((n, 4)).astype(np.float32)
        hotness = np.arange(n, 0, -1, dtype=np.float64)
        cache = MultiGpuEmbeddingCache(
            platform_c, table, partition_policy(hotness, n // 10, 8)
        )
        counts = {}
        # A fresh registry: no instrument's pending log is near its inline
        # fold, whatever earlier tests recorded.
        with use_registry(MetricsRegistry("budget")):
            for size in (1024, 8192):
                plan = pipeline.plan_extraction(cache, 0, rng.integers(0, n, size=size))
                assert len(plan.groups) == 9  # 8 GPUs + host
                pipeline.execute_plan(cache, plan)  # warm: instruments, labels
                counts[size] = count_calls(lambda: pipeline.execute_plan(cache, plan))
        assert counts[1024] == counts[8192]
        # 89 with a take, a scatter and a store lookup per group; 74 with an
        # address scatter per group; 66 with the plan's addresses; 60 with
        # context-free stage timing and append-instruments.
        assert counts[1024] <= 60
