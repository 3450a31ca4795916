"""Self-healing layer: anti-entropy scrubbing and staged recovery.

The invariants pinned here are the repair subsystem's contract:

* the per-entry checksum detects any single-byte change;
* scrub + repair converges to zero corrupt slots under any seeded
  corruption schedule, and the caches verify clean afterwards;
* a quarantined slot is never served (its routes park at HOST until the
  repair lands);
* staged recovery re-stages every lost ``(gpu, entry)`` pair exactly
  once, in non-increasing hotness block order;
* the front-end routes by the refills in flight on the nodes it can
  reach, and by nothing once they finish.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.checksum import row_checksums
from repro.core.policy import Placement, hot_replicate_warm_partition_policy
from repro.faults.injector import FaultInjector
from repro.faults.spec import HEALTHY, FaultKind, FaultPlan, FaultSpec
from repro.hardware.platform import HOST, server_a, server_b
from repro.repair import CacheScrubber, StagedRecovery
from repro.repair import restage
from repro.utils.rng import make_rng
from repro.utils.stats import zipf_pmf

pytestmark = [pytest.mark.faults, pytest.mark.repair]

N, D = 2000, 8


def _stack(seed: int = 0, capacity: int = 400):
    platform = server_a()
    rng = make_rng(seed)
    table = rng.standard_normal((N, D)).astype(np.float32)
    hotness = zipf_pmf(N, 1.2) * 1000.0
    placement = hot_replicate_warm_partition_policy(
        hotness, capacity, platform.num_gpus, 0.5
    )
    cache = MultiGpuEmbeddingCache(platform, table, placement)
    return platform, table, hotness, cache


def _flip_bytes(cache, schedule_seed: int, flips: int) -> int:
    """Silently corrupt ``flips`` seeded bytes across cached slots.

    Mirrors what the BIT_ROT injector does: mutate ``store.data`` under
    the write lock and leave the stored checksums stale.  Returns how
    many flips actually landed (a draw can hit an empty store).
    """
    rng = make_rng(schedule_seed + 4242)
    landed = 0
    with cache.writing():
        for _ in range(flips):
            gpu = int(rng.integers(cache.platform.num_gpus))
            store = cache.store(gpu)
            cached = store.cached_entries()
            if len(cached) == 0:
                continue
            entry = int(cached[rng.integers(len(cached))])
            slot = int(store.offset_of[entry])
            row = store.data[slot].view(np.uint8)
            pos = int(rng.integers(len(row)))
            row[pos] ^= np.uint8(1 << int(rng.integers(8)))
            landed += 1
    return landed


def _drop_all(cache):
    """Evict every cached entry (arenas survive) and rebuild routing."""
    lost = cache.placement
    with cache.writing():
        for g in range(cache.platform.num_gpus):
            store = cache.store(g)
            for entry in store.cached_entries():
                store.evict_many([int(entry)])
    cache.refresh_source_map()
    return lost


class TestChecksum:
    @given(
        pos=st.integers(min_value=0, max_value=4 * D - 1),
        bit=st.integers(min_value=0, max_value=7),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_detects_any_single_byte_flip(self, pos, bit, seed):
        row = make_rng(seed).standard_normal((1, D)).astype(np.float32)
        before = row_checksums(row)[0]
        flipped = row.copy()
        flipped.view(np.uint8)[0, pos] ^= np.uint8(1 << bit)
        assert row_checksums(flipped)[0] != before


class TestScrubConvergence:
    @given(
        schedule_seed=st.integers(min_value=0, max_value=2**16),
        flips=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=10, deadline=None)
    def test_ticks_converge_to_zero_corrupt_slots(self, schedule_seed, flips):
        _platform, table, _hotness, cache = _stack()
        _flip_bytes(cache, schedule_seed, flips)
        scrubber = CacheScrubber(cache)
        # The default scan budget covers a whole store per tick, so one
        # round-robin lap scans everything; a second lap repairs any
        # rot the first quarantined late.
        for _ in range(2 * cache.platform.num_gpus):
            scrubber.tick()
        assert scrubber.quarantine_depth == 0
        assert scrubber.scrub_all().mismatches == 0
        assert cache.verify_integrity() == []
        keys = make_rng(schedule_seed).integers(0, N, size=500)
        for gpu in range(cache.platform.num_gpus):
            assert np.array_equal(cache.lookup(gpu, keys).values, table[keys])

    def test_scrub_all_is_a_full_reconciliation(self):
        _platform, _table, _hotness, cache = _stack()
        landed = _flip_bytes(cache, 7, 10)
        assert landed > 0
        scrubber = CacheScrubber(cache)
        tick = scrubber.scrub_all()
        assert tick.mismatches > 0
        assert tick.repaired == tick.mismatches
        assert cache.verify_integrity() == []


class TestQuarantine:
    def _rotten_routed_slot(self, cache):
        """Corrupt one slot some destination actually routes to."""
        for gpu in range(cache.platform.num_gpus):
            store = cache.store(gpu)
            for entry in store.cached_entries():
                dsts = np.flatnonzero(cache.source_map[:, entry] == gpu)
                if len(dsts) == 0:
                    continue
                slot = int(store.offset_of[entry])
                with cache.writing():
                    store.data[slot].view(np.uint8)[0] ^= np.uint8(0x40)
                return gpu, int(entry), dsts
        pytest.fail("no routed cached slot found")

    def test_quarantined_slot_is_never_served(self, monkeypatch):
        from repro.repair import scrub

        _platform, table, _hotness, cache = _stack()
        gpu, entry, dsts = self._rotten_routed_slot(cache)
        # Repair budget zero: the slot stays quarantined indefinitely.
        monkeypatch.setattr(scrub, "REPAIR_BYTES_PER_TICK", 0)
        scrubber = CacheScrubber(cache)
        for _ in range(cache.platform.num_gpus):
            scrubber.tick()
        assert scrubber.quarantine_depth >= 1
        keys = np.array([entry], dtype=np.int64)
        for dst in dsts:
            result = cache.lookup(int(dst), keys)
            assert int(result.sources[0]) != gpu
            assert np.array_equal(result.values, table[keys])

    def test_repair_restores_routes_and_bytes(self):
        _platform, table, _hotness, cache = _stack()
        gpu, entry, dsts = self._rotten_routed_slot(cache)
        scrubber = CacheScrubber(cache)
        for _ in range(cache.platform.num_gpus):
            scrubber.tick()
        assert scrubber.quarantine_depth == 0
        store = cache.store(gpu)
        slot = int(store.offset_of[entry])
        assert np.array_equal(store.data[slot], table[entry])
        assert (cache.source_map[dsts, entry] == gpu).all()
        assert cache.verify_integrity() == []

    def test_a_repair_never_copies_over_a_missing_link(self):
        """DGX-1: GPU 5 and GPU 0 share no link, so a rotten replica on 5
        is repaired from a linked peer or the host table, never from 0."""
        platform = server_b()
        table = make_rng(1).standard_normal((N, D)).astype(np.float32)
        per_gpu = tuple(np.arange(64) for _ in platform.gpu_ids)  # all replicated
        cache = MultiGpuEmbeddingCache(platform, table, Placement(N, per_gpu))
        assert not platform.is_connected(5, 0)
        store = cache.store(5)
        with cache.writing():
            store.data[store.offset_of[7]].view(np.uint8)[0] ^= 0x10
        tick = CacheScrubber(cache).scrub_all()
        assert (tick.mismatches, tick.repaired) == (1, 1)
        assert np.array_equal(store.data[store.offset_of[7]], table[7])
        assert cache.verify_integrity() == []

    def test_read_guard_patches_in_flight(self):
        _platform, table, _hotness, cache = _stack()
        gpu, entry, dsts = self._rotten_routed_slot(cache)
        scrubber = CacheScrubber(cache)
        dst = int(dsts[0])
        keys = np.array([entry], dtype=np.int64)
        values = cache.lookup(dst, keys).values
        assert not np.array_equal(values, table[keys])  # rot reached us
        values, patched = scrubber.guard_read(dst, keys, values)
        assert patched == 1
        assert np.array_equal(values, table[keys])
        assert scrubber.quarantine_depth >= 1
        # ...and the rotten source is off the routing table.
        assert int(cache.source_map[dst, entry]) == HOST


class TestStagedRecovery:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        chunk=st.integers(min_value=16, max_value=512),
    )
    @settings(max_examples=10, deadline=None)
    def test_exactly_once_in_hotness_order(self, seed, chunk):
        _platform, _table, hotness, cache = _stack(seed=seed)
        lost = _drop_all(cache)
        node = SimpleNamespace(cache=cache, node_id=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(restage, "CHUNK_ENTRIES", chunk)
            rec = StagedRecovery(node, lost, hotness)
        while not rec.done:
            assert rec.grant(float("inf")).blocks > 0
        # Exactly once: the staged multiset equals the lost multiset.
        staged = np.concatenate(rec.staged_log)
        lost_flat = np.concatenate(lost.per_gpu)
        assert sorted(staged.tolist()) == sorted(lost_flat.tolist())
        # Hotness order: the flattened stage sequence never heats up.
        h = hotness[staged]
        assert (h[1:] <= h[:-1] + 1e-12).all()
        # The stores hold the lost placement again.
        for g, ids in enumerate(lost.per_gpu):
            assert set(cache.store(g).cached_entries().tolist()) == set(
                ids.tolist()
            )
        assert rec.restaged_keys(lost_flat).all()
        assert cache.verify_integrity() == []

    def test_zero_budget_stages_nothing(self):
        _platform, _table, hotness, cache = _stack()
        lost = _drop_all(cache)
        rec = StagedRecovery(
            SimpleNamespace(cache=cache, node_id=0), lost, hotness
        )
        assert rec.grant(0.0).blocks == 0
        assert not rec.done
        with pytest.raises(ValueError):
            rec.grant(-1.0)
        assert rec.finish().entries == sum(len(i) for i in lost.per_gpu)
        assert rec.done

    def test_remaining_placement_is_the_unstaged_tail(self, monkeypatch):
        _platform, _table, hotness, cache = _stack()
        lost = _drop_all(cache)
        monkeypatch.setattr(restage, "CHUNK_ENTRIES", 64)
        rec = StagedRecovery(
            SimpleNamespace(cache=cache, node_id=0), lost, hotness
        )
        # Stage exactly one block, then ask for the remainder.
        first_cost = rec._block_cost(rec._blocks[0])
        assert rec.grant(first_cost).blocks == 1
        rem = rec.remaining_placement()
        staged = set(np.concatenate(rec.staged_log).tolist())
        rem_flat = set(np.concatenate(rem.per_gpu).tolist())
        lost_flat = [int(e) for ids in lost.per_gpu for e in ids]
        assert rem_flat.isdisjoint(set() if not staged else staged) or (
            # an entry staged on one GPU may remain lost on another
            len(rem_flat) + len(staged) >= len(set(lost_flat))
        )
        assert sum(len(i) for i in rem.per_gpu) == rec.remaining_entries


class TestNodeLifecycle:
    def test_the_refill_map_follows_heal_partition_and_finish(self):
        """A healed node's plan is in ``frontend.refilling`` while it is
        reachable and refilling: absent while partitioned mid-refill, gone
        once the refill is done, and the map is empty after ``finish``."""
        from repro.cluster.soak import ClusterSoak
        from repro.serve.soak import SoakConfig

        soak = ClusterSoak(SoakConfig.quick(
            seed=0, scenario="steady", nodes=3, replication=2
        ))
        lifecycle, frontend = soak.lifecycle, soak.frontend
        down = lambda *n: replace(HEALTHY, down_nodes=frozenset(n))  # noqa: E731
        cut = replace(HEALTHY, partitioned_nodes=frozenset({1}))

        lifecycle.step(0.0, HEALTHY, idle_seconds=0.0)
        assert frontend.refilling == {}
        lifecycle.step(1.0, down(1), idle_seconds=0.0)
        assert frontend.refilling == {}
        lifecycle.step(2.0, HEALTHY, idle_seconds=0.0)
        (plan,) = frontend.refilling.values()
        assert list(frontend.refilling) == [1] and not plan.done
        lifecycle.step(3.0, cut, idle_seconds=0.0)
        assert frontend.refilling == {}
        lifecycle.step(4.0, HEALTHY, idle_seconds=0.0)
        assert frontend.refilling == {1: plan}
        lifecycle.step(5.0, HEALTHY, idle_seconds=1e9)
        assert plan.done and frontend.refilling == {}

        lifecycle.step(6.0, down(2), idle_seconds=0.0)
        lifecycle.step(7.0, HEALTHY, idle_seconds=0.0)
        assert list(frontend.refilling) == [2]
        lifecycle.finish(8.0)
        assert frontend.refilling == {}
        assert lifecycle.recovery_windows == [(2.0, 5.0), (7.0, 8.0)]

    def test_heal_storm_transitions_as_recorded(self):
        """The one lifecycle object walks the heal-storm soak's staggered
        deaths as recorded (quick, 3 nodes, R=2, seed 0, open loop; times
        as fractions of the run): node 1 refills from its first heal until
        it dies again, node 2 and node 1's second refill until the end of
        the drain."""
        from repro.cluster.soak import ClusterSoak
        from repro.serve.soak import SoakConfig, drive

        soak = ClusterSoak(SoakConfig.quick(
            seed=0, scenario="heal-storm", nodes=3, replication=2
        ))
        report = drive(soak)
        lifecycle = soak.lifecycle
        assert report.ok
        windows = lifecycle.recovery_windows
        # node 1's first refill (cut short by its second death), then the
        # two refills the drain finished: node 2's and node 1's second
        assert [round(a / soak.duration, 3) for a, _ in windows] == [
            0.402, 0.600, 0.806,
        ]
        assert round(windows[0][1] / soak.duration, 3) == 0.651
        assert [b for _, b in windows[1:]] == [soak.sim_end] * 2
        assert lifecycle.restage_blocks == report.cluster.restage_blocks == 13
        assert soak.frontend.refilling == {}


class TestBitRotFault:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.BIT_ROT, 0.0, 1.0)  # no rate
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.BIT_ROT, 0.0, float("inf"), rate=1.0)
        FaultSpec(FaultKind.BIT_ROT, 0.0, 1.0, rate=1.0)  # fine

    def test_cadence_independent_schedule(self):
        """Coarse and fine advance() cadences realize identical rot."""
        plan = FaultPlan(
            faults=(FaultSpec(FaultKind.BIT_ROT, 0.0, 10.0, rate=3.0),),
            seed=5,
            name="rot",
        )
        caches = []
        for cadence in (np.linspace(0.0, 10.0, 41), np.array([10.0])):
            _platform, _table, _hotness, cache = _stack(seed=3)
            injector = FaultInjector(plan, cache=cache)
            for now in cadence:
                injector.advance(float(now))
            caches.append(cache)
        a, b = caches
        for g in range(a.platform.num_gpus):
            sa, sb = a.store(g), b.store(g)
            cached = sa.cached_entries()
            assert np.array_equal(cached, sb.cached_entries())
            # Compare occupied rows only (vacant arena slots are
            # np.empty garbage), as raw bytes: a flip can mint a NaN,
            # and NaN != NaN under float comparison.
            assert np.array_equal(
                sa.data[sa.offset_of[cached]].view(np.uint8),
                sb.data[sb.offset_of[cached]].view(np.uint8),
            )

    def test_rot_is_silent_until_scrubbed(self):
        plan = FaultPlan(
            faults=(FaultSpec(FaultKind.BIT_ROT, 0.0, 5.0, rate=4.0),),
            seed=1,
            name="rot",
        )
        _platform, _table, _hotness, cache = _stack()
        FaultInjector(plan, cache=cache).advance(5.0)
        violations = cache.verify_integrity()
        assert violations  # the full scan sees the rot...
        scrubber = CacheScrubber(cache)
        scrubber.scrub_all()
        assert cache.verify_integrity() == []  # ...and the scrubber heals it


class TestSampledVerify:
    def test_sample_one_catches_corruption(self):
        _platform, _table, _hotness, cache = _stack()
        assert cache.verify_integrity() == []
        assert _flip_bytes(cache, 11, 5) > 0
        assert cache.verify_integrity()


class TestSoakConfigRepair:
    def test_closed_loop_cluster_is_legal_now(self):
        from repro.serve.soak import SoakConfig

        cfg = SoakConfig.quick(nodes=3, replication=2, closed_loop=True)
        assert cfg.closed_loop and cfg.nodes == 3


@pytest.mark.concurrency
class TestScrubberConcurrency:
    def test_scrubber_vs_corruptor_vs_readers(self):
        """Real threads: a corruptor flips bytes, the scrub loop ticks,
        readers serve through the guard — nobody sees a corrupt value,
        and the final reconciliation comes back clean."""
        _platform, table, _hotness, cache = _stack()
        scrubber = CacheScrubber(cache)
        stop = threading.Event()
        errors: list[BaseException] = []

        def corruptor():
            try:
                i = 0
                while not stop.is_set():
                    _flip_bytes(cache, 1000 + i, 2)
                    i += 1
                    # Yield the lock: an unthrottled writer starves the
                    # readers and the test never finishes its laps.
                    time.sleep(0.001)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def scrub_loop():
            try:
                while not stop.is_set():
                    scrubber.tick()
                    time.sleep(0.001)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def reader(seed):
            def run():
                try:
                    rng = make_rng(seed)
                    gpu = seed % cache.platform.num_gpus
                    for _ in range(40):
                        keys = rng.integers(0, N, size=128)
                        values = cache.lookup(gpu, keys).values
                        values, _n = scrubber.guard_read(gpu, keys, values)
                        assert np.array_equal(values, table[keys])
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)
            return run

        threads = [
            threading.Thread(target=corruptor),
            threading.Thread(target=scrub_loop),
            *[threading.Thread(target=reader(s)) for s in range(4)],
        ]
        for t in threads:
            t.start()
        for t in threads[2:]:
            t.join()
        stop.set()
        for t in threads[:2]:
            t.join()
        assert not errors, errors[0]
        scrubber.scrub_all()
        assert cache.verify_integrity() == []
