"""Property-based invariants of the backing-tier chain (hypothesis), plus
real-thread stress of tiered reads against concurrent refresher writes.

The invariants pinned here are the ones ``TierChain.verify`` checks
structurally:

* **partition** — no entry is ever resident in two backing tiers;
* **capacity** — per-tier entry counts stay within the byte budgets,
  including while a refresher mutates the GPU stores concurrently.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.core.refresher import RefreshConfig, Refresher
from repro.core.tiers import TierChain
from repro.hardware.platform import MemoryTier, gbps, server_a, with_tiers
from repro.utils.stats import zipf_pmf

pytestmark = pytest.mark.tiers

ENTRY_DIM = 4
ENTRY_BYTES = ENTRY_DIM * 4


def _tiers(caps_entries):
    """A chain with the given per-tier capacities, fastest first."""
    bandwidths = [gbps(16), gbps(12), gbps(6)]
    latencies = [0.0, 1e-6, 100e-6]
    names = ["dram", "cxl", "ssd"]
    return tuple(
        MemoryTier(names[i], cap * ENTRY_BYTES, bandwidths[i], latencies[i])
        for i, cap in enumerate(caps_entries)
    )


@st.composite
def chain_setups(draw):
    """(table, hotness, tiers) where the chain can hold the universe."""
    n = draw(st.integers(min_value=8, max_value=120))
    depth = draw(st.integers(min_value=2, max_value=3))
    caps = [draw(st.integers(min_value=1, max_value=n)) for _ in range(depth - 1)]
    caps.append(n)  # terminal tier always absorbs the remainder
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((n, ENTRY_DIM)).astype(np.float32)
    hotness = rng.uniform(size=n)
    return table, hotness, _tiers(caps)


class TestChainInvariants:
    @given(setup=chain_setups())
    @settings(max_examples=40, deadline=None)
    def test_every_entry_homed_exactly_once(self, setup):
        table, hotness, tiers = setup
        chain = TierChain(tiers, table, hotness)
        resident = np.zeros(len(table), dtype=int)
        for store in chain.stores:
            resident[store.cached_entries()] += 1
        assert (resident == 1).all()
        assert chain.verify() == []


@pytest.mark.concurrency
def test_capacity_and_integrity_hold_under_concurrent_refresher_writes():
    """Tiered lookups racing refresher placement swaps: neither side may
    break the chain's partition/capacity/integrity invariants or the GPU
    stores'."""
    n = 600
    rng = np.random.default_rng(11)
    table = rng.standard_normal((n, ENTRY_DIM)).astype(np.float32)
    base = server_a()
    platform = with_tiers(
        base,
        (
            MemoryTier("dram", (n // 4) * ENTRY_BYTES, base.pcie_bandwidth),
            MemoryTier("ssd", n * ENTRY_BYTES, gbps(6), latency_s=100e-6),
        ),
    )
    hot_a = zipf_pmf(n, 1.2) * 1000
    hot_b = hot_a[::-1].copy()
    place_a = hot_replicate_warm_partition_policy(
        hot_a, n // 8, platform.num_gpus, 0.5
    )
    place_b = hot_replicate_warm_partition_policy(
        hot_b, n // 8, platform.num_gpus, 0.5
    )
    cache = MultiGpuEmbeddingCache(platform, table, place_a, tier_hotness=hot_a)
    refresher = Refresher(cache, RefreshConfig(update_batch_entries=64))
    errors: list[BaseException] = []
    start = threading.Barrier(2)

    def refresh_loop():
        try:
            start.wait()
            for i in range(6):
                refresher.refresh(place_b if i % 2 == 0 else place_a)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def read_loop():
        try:
            start.wait()
            keys = np.arange(n)
            for gpu in range(4):
                result = cache.lookup(gpu % platform.num_gpus, keys)
                np.testing.assert_array_equal(result.values, table)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=refresh_loop),
        threading.Thread(target=read_loop),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert cache.verify_integrity() == []
    chain = cache.tier_chain
    for src in chain.backing_ids:
        assert chain.resident_count(src) <= chain.capacity_entries(src)
    np.testing.assert_array_equal(
        cache.lookup(0, np.arange(n)).values, table
    )
