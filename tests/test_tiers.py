"""Backing-tier chains: parsing, waterfall placement, the TierChain,
cache integration, and single-tier byte-identity."""

import numpy as np
import pytest

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.core.solver import SolverConfig, solve_policy
from repro.core.tiers import (
    TierCapacityError,
    TierChain,
    TierIntegrityError,
    assign_backing_tiers,
    tier_capacity_entries,
)
from repro.hardware.platform import (
    GB,
    GIB,
    HOST,
    PRESETS,
    TIER_KINDS,
    MemoryTier,
    dram_tier,
    gbps,
    parse_capacity,
    parse_tier_spec,
    server_a,
    server_a_tiered,
    server_c,
    ssd_tier,
    with_tiers,
)
from repro.utils.stats import zipf_pmf

pytestmark = pytest.mark.tiers


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
def test_parse_capacity_units():
    assert parse_capacity("8GB") == 8 * GB
    assert parse_capacity("1TiB") == 1024**4
    assert parse_capacity("512kb") == 512_000
    assert parse_capacity("0.5GB") == 500_000_000
    with pytest.raises(ValueError):
        parse_capacity("8parsecs")
    with pytest.raises(ValueError):
        parse_capacity("GB")


def test_parse_tier_spec_defaults_and_overrides():
    tiers = parse_tier_spec("dram:8GB,ssd:1TB", pcie_bandwidth=gbps(20))
    assert [t.name for t in tiers] == ["dram", "ssd"]
    assert tiers[0].bandwidth == gbps(20)  # DRAM inherits the PCIe pipe
    assert tiers[0].latency_s == 0.0
    assert tiers[1].capacity_bytes == 1000 * GB
    assert tiers[1].latency_s == pytest.approx(100e-6)
    # kind:capacity:GB/s:lat_us overrides both defaults
    (custom,) = parse_tier_spec("ssd:1GB:12:250")
    assert custom.bandwidth == gbps(12)
    assert custom.latency_s == pytest.approx(250e-6)
    with pytest.raises(ValueError):
        parse_tier_spec("tape:1TB")
    with pytest.raises(ValueError):
        parse_tier_spec("dram")


# ----------------------------------------------------------------------
# Platform presets and helpers
# ----------------------------------------------------------------------
def test_every_classic_preset_is_single_tier():
    for name, factory in PRESETS.items():
        platform = factory()
        assert platform.num_tiers == 1, name
        assert platform.tiers[0].name == "dram"
        assert platform.backing_ids == [HOST]
        assert platform.is_backing(HOST)
        assert not platform.is_backing(0)
        assert platform.tier_latency(HOST) == 0.0


def test_tiered_presets_shape():
    a = server_a_tiered()
    assert [t.name for t in a.tiers] == ["dram", "ssd"]
    assert a.backing_ids == [-1, -2]
    base = server_c()
    c = with_tiers(
        base,
        (
            dram_tier(128 * GIB, bandwidth=base.pcie_bandwidth),
            MemoryTier("cxl", 512 * GIB, *TIER_KINDS["cxl"]),
            ssd_tier(2_000 * GB),
        ),
    )
    assert [t.name for t in c.tiers] == ["dram", "cxl", "ssd"]
    assert c.is_backing(-3) and not c.is_backing(-4)
    # deeper tiers really are slower per byte
    costs = [c.cost_per_byte(0, s) for s in c.backing_ids]
    assert costs == sorted(costs)


def test_sources_for_matches_pre_tier_order_on_every_preset():
    """Satellite regression: the cost-derived ordering reproduces the
    historical hardcoded ``[dst, *peers, HOST]`` on all classic presets."""
    for name, factory in PRESETS.items():
        platform = factory()
        for dst in range(platform.num_gpus):
            expected = [dst, *platform.topology.peers(dst), HOST]
            assert platform.sources_for(dst) == expected, (name, dst)


def test_sources_for_sorts_backing_chain_by_cost():
    base = server_a()
    # Chain declared out of cost order: ssd (slow) before dram (fast).
    shuffled = with_tiers(
        base,
        (
            ssd_tier(1000 * GB),
            dram_tier(8 * GB, bandwidth=base.pcie_bandwidth),
        ),
    )
    order = shuffled.sources_for(0)
    backing = [s for s in order if shuffled.is_backing(s)]
    assert backing == [-2, -1]  # dram (tier 1 here) straightened first


# ----------------------------------------------------------------------
# Waterfall assignment
# ----------------------------------------------------------------------
def _chain_tiers(cap0: int, cap1: int, entry_bytes: int):
    return (
        MemoryTier("dram", cap0 * entry_bytes, gbps(16)),
        MemoryTier("ssd", cap1 * entry_bytes, gbps(6), latency_s=100e-6),
    )


def test_waterfall_sends_hottest_to_fastest_tier():
    n, eb = 100, 16
    hotness = np.arange(n, dtype=np.float64)  # entry 99 hottest
    home = assign_backing_tiers(_chain_tiers(10, n, eb), n, eb, hotness)
    hottest = np.argsort(-hotness)[:10]
    assert (home[hottest] == -1).all()
    assert (home == -1).sum() == 10
    assert (home == -2).sum() == n - 10


def test_waterfall_without_hotness_is_id_order():
    n, eb = 20, 8
    home = assign_backing_tiers(_chain_tiers(5, n, eb), n, eb)
    assert (home[:5] == -1).all() and (home[5:] == -2).all()


def test_waterfall_rejects_undersized_chain():
    n, eb = 50, 8
    with pytest.raises(TierCapacityError):
        assign_backing_tiers(_chain_tiers(10, 20, eb), n, eb)


def test_tier_capacity_entries_bounds():
    t = MemoryTier("dram", 100, gbps(16))
    assert tier_capacity_entries(t, 8, 1000) == 12
    assert tier_capacity_entries(t, 8, 5) == 5
    with pytest.raises(ValueError):
        tier_capacity_entries(t, 0, 5)


# ----------------------------------------------------------------------
# TierChain
# ----------------------------------------------------------------------
@pytest.fixture
def chain():
    rng = np.random.default_rng(7)
    table = rng.standard_normal((64, 4)).astype(np.float32)
    hotness = rng.uniform(size=64)
    tiers = _chain_tiers(16, 64, table.shape[1] * table.itemsize)
    return TierChain(tiers, table, hotness), table, hotness


def test_chain_builds_verified_partition(chain):
    c, table, _ = chain
    assert c.verify() == []
    assert c.resident_count(-1) == 16
    assert c.resident_count(-2) == 48
    assert sum(c.shares().values()) == pytest.approx(1.0)
    for src in c.backing_ids:
        keys = np.flatnonzero(c.home == src)[:4]
        np.testing.assert_array_equal(c.stores[-src - 1].read(keys), table[keys])


# ----------------------------------------------------------------------
# Cache integration
# ----------------------------------------------------------------------
def _tiered_stack(seed=0, n=400, dim=8, dram_entries=100):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((n, dim)).astype(np.float32)
    eb = dim * 4
    base = server_a()
    platform = with_tiers(
        base,
        (
            MemoryTier("dram", dram_entries * eb, base.pcie_bandwidth),
            MemoryTier("ssd", n * eb, gbps(6), latency_s=100e-6),
        ),
    )
    hotness = zipf_pmf(n, 1.05) * 1000
    placement = hot_replicate_warm_partition_policy(
        hotness, n // 10, platform.num_gpus, 0.5
    )
    cache = MultiGpuEmbeddingCache(
        platform, table, placement, tier_hotness=hotness
    )
    return platform, table, hotness, cache


def test_tiered_cache_lookup_is_bit_exact():
    platform, table, _, cache = _tiered_stack()
    rng = np.random.default_rng(1)
    for gpu in range(platform.num_gpus):
        keys = rng.integers(0, len(table), size=256)
        result = cache.lookup(gpu, keys)
        np.testing.assert_array_equal(result.values, table[keys])
        # every miss routes to a valid tier, never a corrupt id
        assert platform.valid_source_mask(result.sources).all()
    assert cache.verify_integrity() == []


def test_tiered_cache_backing_surface():
    platform, table, _, cache = _tiered_stack()
    keys = np.arange(50)
    homes = cache.backing_home(keys)
    assert set(np.unique(homes)) <= {-1, -2}
    shares = cache.backing_shares()
    assert set(shares) == {-1, -2}
    assert sum(shares.values()) == pytest.approx(1.0)
    for src in (-1, -2):
        mine = keys[homes == src]
        if len(mine):
            np.testing.assert_array_equal(
                cache.tier_chain.stores[-src - 1].read(mine), table[mine]
            )


def test_a_stale_backing_route_raises_in_execute_and_lookup():
    """A backing key routed to a tier that does not hold it reads slot −1 of
    that tier's row: planning raises before any gather, and so does
    ``lookup``; no rows come back."""
    from repro.core import pipeline
    from repro.core.extractor import FactoredExtractor

    platform, _, _, cache = _tiered_stack()
    ssd_resident = int(np.flatnonzero(cache.tier_chain.home == -2)[0])
    dst = next(g for g in platform.gpu_ids if cache.source_map[g, ssd_resident] == -2)
    cache.set_sources(dst, ssd_resident, -1)  # DRAM does not hold it
    keys = np.array([0, ssd_resident, 1])
    assert cache.slot_table[platform.num_tiers - 1, ssd_resident] == -1
    got = []
    with pytest.raises(TierIntegrityError, match="dram"):
        got.append(pipeline.execute_plan(cache, pipeline.plan_extraction(cache, dst, keys)))
    with pytest.raises(TierIntegrityError, match="dram"):
        got.append(FactoredExtractor(cache).extract(
            [keys if g == dst else keys[:0] for g in platform.gpu_ids]
        ))
    with pytest.raises(TierIntegrityError, match="dram"):
        got.append(cache.lookup(dst, keys))
    assert got == []
    assert any("not the entry's home" in p for p in cache.verify_integrity())


def test_single_tier_platform_has_no_chain_and_same_sources():
    """Byte-identity anchor: an explicit 1-tier chain equals the default."""
    rng = np.random.default_rng(3)
    table = rng.standard_normal((200, 4)).astype(np.float32)
    hotness = zipf_pmf(200, 1.1) * 100
    placement = hot_replicate_warm_partition_policy(hotness, 20, 4, 0.5)
    base = server_a()
    explicit = with_tiers(
        base, (dram_tier(base.host_memory_bytes, bandwidth=base.pcie_bandwidth),)
    )
    c0 = MultiGpuEmbeddingCache(base, table, placement)
    c1 = MultiGpuEmbeddingCache(explicit, table, placement)
    assert c0.tier_chain is None and c1.tier_chain is None
    np.testing.assert_array_equal(
        c0.backing_home(np.arange(200)), np.full(200, HOST)
    )
    assert c0.backing_shares() == {HOST: 1.0}
    for gpu in range(4):
        r0 = c0.lookup(gpu, np.arange(200))
        r1 = c1.lookup(gpu, np.arange(200))
        np.testing.assert_array_equal(r0.sources, r1.sources)
        np.testing.assert_array_equal(r0.values, r1.values)


# ----------------------------------------------------------------------
# Solver on a tiered platform
# ----------------------------------------------------------------------
def test_solver_respects_backing_homes_on_tiered_platform():
    platform, table, hotness, _ = _tiered_stack(n=300, dram_entries=80)
    eb = table.shape[1] * table.itemsize
    solved = solve_policy(
        platform, hotness, 30, eb, SolverConfig(coarse_block_frac=0.05)
    )
    assert np.isfinite(solved.est_time) and solved.est_time > 0
    placement = solved.realize()
    cache = MultiGpuEmbeddingCache(
        platform, table, placement, tier_hotness=hotness
    )
    result = cache.lookup(0, np.arange(len(table)))
    np.testing.assert_array_equal(result.values, table)
    assert cache.verify_integrity() == []


def test_solver_single_tier_unchanged_by_tier_generalization():
    """The multi-tier bounds only exist when the chain is deeper than 1:
    a single-tier solve must build the exact same LP as before."""
    platform = server_a()
    n = 300
    hotness = zipf_pmf(n, 1.1) * 1000
    a = solve_policy(platform, hotness, 30, 64,
                     SolverConfig(coarse_block_frac=0.05))
    explicit = with_tiers(
        platform,
        (dram_tier(platform.host_memory_bytes,
                   bandwidth=platform.pcie_bandwidth),),
    )
    b = solve_policy(explicit, hotness, 30, 64,
                     SolverConfig(coarse_block_frac=0.05))
    assert a.est_time == pytest.approx(b.est_time, rel=0, abs=0)
    assert a.num_variables == b.num_variables
