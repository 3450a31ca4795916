"""Placement evaluation: source resolution, hit rates, demands.

:func:`resolve_sources` rebuilds the location table by rank order per
residue class; the per-destination float score matrix and argmin it
replaced is kept here verbatim (:func:`_argmin_resolve_sources`) as the
oracle it must match byte for byte.  The micro benchmark times it beside
the rebuild.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.evaluate import (
    _balance_hot_assignments,
    demand_from_keys,
    evaluate_placement,
    expected_demands,
    hit_rates,
    resolve_sources,
)
from repro.core.policy import (
    Placement,
    partition_policy,
    replication_policy,
)
from repro.faults.degrade import DegradedPlatform
from repro.faults.spec import HealthView
from repro.hardware.platform import (
    HOST,
    SOURCE_DTYPE,
    dgx2,
    pcie_only,
    server_a,
    server_a_tiered,
    server_b,
    server_c,
    single_gpu,
)
from repro.sim.mechanisms import Mechanism
from repro.utils.stats import zipf_pmf

HOT = zipf_pmf(500, 1.2) * 2000
ENTRY_BYTES = 64


# ----------------------------------------------------------------------
# The float-argmin resolve, kept as the oracle
# ----------------------------------------------------------------------
def _argmin_resolve_sources(platform, placement, hotness=None, backing=None):
    """``resolve_sources`` as it was: per destination a ``(G, N)`` float
    score matrix of every holder's rotated cost, and its argmin."""
    if placement.num_gpus != platform.num_gpus:
        raise ValueError(
            f"placement has {placement.num_gpus} GPUs, platform {platform.num_gpus}"
        )
    n = placement.num_entries
    mat = placement.storage_matrix()
    ids = np.arange(n)
    if backing is None:
        fallback = np.full(n, HOST, dtype=SOURCE_DTYPE)
    else:
        backing = np.ascontiguousarray(backing, dtype=SOURCE_DTYPE)
        if backing.shape != (n,):
            raise ValueError("backing home map must cover the entry universe")
        fallback = backing
    out = np.tile(fallback, (platform.num_gpus, 1))
    for i in platform.gpu_ids:
        # Score matrix: per candidate source j, the per-byte cost with a
        # tiny per-entry rotation for tie-breaking; inf when unusable.
        scores = np.full((platform.num_gpus, n), np.inf)
        for j in platform.gpu_ids:
            if j == i:
                continue
            cost = platform.cost_per_byte(i, j)
            if not np.isfinite(cost):
                continue
            tie_break = 1.0 + 1e-9 * ((ids + i + j) % platform.num_gpus)
            scores[j] = np.where(mat[j], cost * tie_break, np.inf)
        best = np.argmin(scores, axis=0)
        best_score = scores[best, ids]
        out[i] = np.where(np.isfinite(best_score), best, fallback)
        out[i][mat[i]] = i
    if hotness is not None:
        _balance_hot_assignments(platform, mat, out, np.asarray(hotness))
    return out


def _slowed(base, links):
    """``base`` with each ``(dst, src)`` link's bandwidth cut by ``rel``."""
    factors = tuple(((dst, src), 1.0 - rel) for dst, src, rel in links)
    return DegradedPlatform(base, HealthView(link_factors=factors))


#: Every platform shape the rebuild must reproduce: the paper's three, the
#: extension boxes, a downed GPU (inf cost to it) and links slowed by a few
#: 1e-9 relative, so that two cost classes differ by less than the rotation
#: (up to (G-1)·1e-9) and rotation ties interleave the classes.
ORACLE_PLATFORMS = {
    "server-a": server_a,
    "server-b": server_b,
    "server-c": server_c,
    "dgx2": dgx2,
    **{f"pcie-only-{g}": (lambda g=g: pcie_only(g)) for g in range(2, 9)},
    "single-gpu": single_gpu,
    "server-a-tiered": server_a_tiered,
    "server-a-down": lambda: DegradedPlatform(
        server_a(), HealthView(down_gpus=frozenset({2}))
    ),
    "server-c-down": lambda: DegradedPlatform(
        server_c(), HealthView(down_gpus=frozenset({0, 5}))
    ),
    "server-a-slowed": lambda: _slowed(server_a(), [(0, 1, 2e-9), (3, 2, 5e-9)]),
    "server-c-slowed": lambda: _slowed(
        server_c(), [(1, 0, 3e-9), (1, 4, 6.5e-9), (6, 7, 1e-9)]
    ),
    "dgx2-slowed": lambda: _slowed(dgx2(), [(0, 9, 4e-9), (9, 0, 1.2e-8)]),
}


class TestResolveSources:
    def test_local_preferred(self, platform_a):
        placement = replication_policy(HOT, 50, 4)
        srcs = resolve_sources(platform_a, placement)
        for g in range(4):
            assert (srcs[g][:50] == g).all()

    def test_uncached_goes_to_host(self, platform_a):
        placement = replication_policy(HOT, 50, 4)
        srcs = resolve_sources(platform_a, placement)
        assert (srcs[0][50:] == HOST).all()

    def test_partition_reads_remote_holder(self, platform_a):
        placement = partition_policy(HOT, 50, 4)
        srcs = resolve_sources(platform_a, placement)
        mat = placement.storage_matrix()
        for g in range(4):
            cached_somewhere = mat.any(axis=0)
            mask = cached_somewhere & ~mat[g]
            # Non-local cached entries are read from their holder, not host.
            assert (srcs[g][mask] != HOST).all()
            # And the chosen source actually stores the entry.
            for e in np.flatnonzero(mask)[:20]:
                assert mat[srcs[g][e], e]

    def test_unconnected_holder_falls_back_to_host(self, platform_b):
        # Entry cached only on GPU 5; GPU 0 cannot reach it on DGX-1.
        per_gpu = [np.empty(0, dtype=np.int64)] * 8
        per_gpu[5] = np.array([7])
        placement = Placement(num_entries=500, per_gpu=tuple(per_gpu))
        srcs = resolve_sources(platform_b, placement)
        assert srcs[0][7] == HOST
        assert srcs[4][7] == 5  # same quad: reachable

    def test_equal_cost_holders_rotated(self, platform_c):
        # All 7 remote GPUs hold the same entries: readers spread load.
        ids = np.arange(100)
        per_gpu = tuple(ids for _ in range(8))
        placement = Placement(num_entries=500, per_gpu=per_gpu)
        # Remove local copies for GPU 0 to force remote reads.
        per_gpu = (np.empty(0, dtype=np.int64),) + tuple(ids for _ in range(7))
        placement = Placement(num_entries=500, per_gpu=per_gpu)
        srcs = resolve_sources(platform_c, placement)[0][:100]
        assert len(np.unique(srcs)) > 1

    def test_gpu_count_mismatch_rejected(self, platform_a):
        placement = replication_policy(HOT, 10, 8)
        with pytest.raises(ValueError):
            resolve_sources(platform_a, placement)


class TestResolveSourcesOracle:
    """The rank-order rebuild equals the float argmin in dtype and bytes."""

    @given(
        name=st.sampled_from(sorted(ORACLE_PLATFORMS)),
        num_entries=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        balance=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_argmin(self, name, num_entries, seed, balance):
        platform = ORACLE_PLATFORMS[name]()
        rng = np.random.default_rng(seed)
        per_gpu = tuple(
            np.flatnonzero(rng.random(num_entries) < rng.uniform(0.0, 1.0))
            for _ in platform.gpu_ids
        )
        placement = Placement(num_entries=num_entries, per_gpu=per_gpu)
        backing = None
        if platform.num_tiers > 1:
            # Random homes over the whole backing chain: -1, -2, ...
            backing = -1 - rng.integers(0, platform.num_tiers, num_entries)
        hotness = rng.zipf(1.5, num_entries).astype(np.float64) if balance else None
        want = _argmin_resolve_sources(platform, placement, hotness, backing)
        got = resolve_sources(platform, placement, hotness, backing)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(
        name=st.sampled_from(sorted(ORACLE_PLATFORMS)),
        num_entries=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_cache_routes_the_oracle_map(self, name, num_entries, seed):
        """A cache over the placement routes every (GPU, entry) to the arena
        row of the argmin oracle's source, homes from its own tier chain."""
        platform = ORACLE_PLATFORMS[name]()
        rng = np.random.default_rng(seed)
        per_gpu = tuple(
            np.flatnonzero(rng.random(num_entries) < rng.uniform(0.0, 1.0))
            for _ in platform.gpu_ids
        )
        placement = Placement(num_entries=num_entries, per_gpu=per_gpu)
        cache = MultiGpuEmbeddingCache(
            platform, rng.standard_normal((num_entries, 2)).astype(np.float32),
            placement, tier_hotness=rng.random(num_entries) if platform.num_tiers > 1 else None,
        )
        backing = None if cache.tier_chain is None else cache.tier_chain.home
        want = _argmin_resolve_sources(platform, placement, None, backing)
        shifted = want.astype(np.int64) + platform.num_tiers
        rows = cache.address_base[shifted] + cache.slot_table[shifted, np.arange(num_entries)]
        assert cache.source_map.tobytes() == want.tobytes()
        assert np.array_equal(cache.routes, rows) and (rows >= 0).all()

    @pytest.mark.parametrize("name", ["server-a-slowed", "server-c-slowed", "dgx2-slowed"])
    def test_slowed_classes_within_the_rotation(self, name):
        # The fixture's point: a slowed link's cost sits above the healthy
        # peers' by less than 1e-8 relative, so it is not simply last.
        platform = ORACLE_PLATFORMS[name]()
        costs = {
            platform.cost_per_byte(i, j)
            for i in platform.gpu_ids
            for j in platform.gpu_ids
            if i != j and np.isfinite(platform.cost_per_byte(i, j))
        }
        cheapest, runner_up = sorted(costs)[:2]
        assert 0 < runner_up / cheapest - 1 < 1e-8


class TestHitRates:
    def test_replication_has_no_remote(self, platform_a):
        hits = hit_rates(platform_a, replication_policy(HOT, 100, 4), HOT)
        assert hits.remote == 0.0
        assert hits.local + hits.host == pytest.approx(1.0)

    def test_partition_local_is_global_over_gpus(self, platform_c):
        hits = hit_rates(platform_c, partition_policy(HOT, 50, 8), HOT)
        assert hits.local == pytest.approx(hits.global_hit / 8, rel=0.15)

    def test_empty_cache_all_host(self, platform_a):
        hits = hit_rates(platform_a, Placement(500, ((),) * 4), HOT)
        assert hits.host == pytest.approx(1.0)

    def test_splits_sum_to_one(self, platform_b):
        hits = hit_rates(platform_b, partition_policy(HOT, 30, 8), HOT)
        assert hits.local + hits.remote + hits.host == pytest.approx(1.0)


class TestExpectedDemands:
    def test_volumes_match_hotness_mass(self, platform_a):
        placement = replication_policy(HOT, 100, 4)
        demands = expected_demands(platform_a, placement, HOT, ENTRY_BYTES)
        total = sum(d.total_bytes for d in demands)
        assert total == pytest.approx(4 * HOT.sum() * ENTRY_BYTES)

    def test_local_volume_is_cached_mass(self, platform_a):
        placement = replication_policy(HOT, 100, 4)
        demands = expected_demands(platform_a, placement, HOT, ENTRY_BYTES)
        expected_local = HOT[:100].sum() * ENTRY_BYTES
        assert demands[0].volume(0) == pytest.approx(expected_local)

    def test_hotness_length_checked(self, platform_a):
        placement = replication_policy(HOT, 10, 4)
        with pytest.raises(ValueError):
            expected_demands(platform_a, placement, HOT[:-1], ENTRY_BYTES)


class TestDemandFromKeys:
    def test_counts_duplicates(self, platform_a):
        placement = replication_policy(HOT, 100, 4)
        srcs = resolve_sources(platform_a, placement)
        keys = np.array([0, 0, 0, 499])
        demand = demand_from_keys(platform_a, srcs, 0, keys, ENTRY_BYTES)
        assert demand.volume(0) == 3 * ENTRY_BYTES
        assert demand.volume(HOST) == 1 * ENTRY_BYTES

    def test_empty_batch(self, platform_a):
        placement = replication_policy(HOT, 100, 4)
        srcs = resolve_sources(platform_a, placement)
        demand = demand_from_keys(
            platform_a, srcs, 0, np.empty(0, dtype=np.int64), ENTRY_BYTES
        )
        assert demand.total_bytes == 0.0


class TestEvaluatePlacement:
    def test_more_cache_never_slower(self, platform_c):
        small = evaluate_placement(
            platform_c, replication_policy(HOT, 20, 8), HOT, ENTRY_BYTES
        ).time
        large = evaluate_placement(
            platform_c, replication_policy(HOT, 200, 8), HOT, ENTRY_BYTES
        ).time
        assert large <= small

    def test_mechanism_affects_time(self, platform_c):
        placement = partition_policy(HOT, 50, 8)
        fem = evaluate_placement(
            platform_c, placement, HOT, ENTRY_BYTES, Mechanism.FACTORED
        ).time
        naive = evaluate_placement(
            platform_c, placement, HOT, ENTRY_BYTES, Mechanism.PEER_NAIVE
        ).time
        assert fem < naive
