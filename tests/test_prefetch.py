"""Lookahead prefetching: window, staging buffer, oracle cacher, soak."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.extractor import FactoredExtractor
from repro.core.pipeline import shift_staged_demand
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.core.prefetch import (
    LookaheadWindow,
    OracleCacher,
    PrefetchConfig,
    StagingBuffer,
)
from repro.hardware.platform import HOST, server_a
from repro.obs import MetricsRegistry, use_registry
from repro.obs.tracing import PIPELINE_STAGES
from repro.serve import ServingRuntime, SoakConfig, run_soak
from repro.sim.mechanisms import GpuDemand
from repro.utils.rng import make_rng
from repro.utils.stats import zipf_pmf

pytestmark = [pytest.mark.serve, pytest.mark.prefetch]

N, D = 1200, 8


def _stack(replicate=0.5):
    platform = server_a()
    rng = make_rng(0)
    table = rng.standard_normal((N, D)).astype(np.float32)
    hotness = zipf_pmf(N, 1.1) * 1000
    placement = hot_replicate_warm_partition_policy(
        hotness, N // 8, platform.num_gpus, replicate
    )
    cache = MultiGpuEmbeddingCache(platform, table, placement)
    return platform, table, cache, FactoredExtractor(cache)


def _keys(n=256, seed=1):
    return make_rng(seed).integers(0, N, size=n)


class TestPrefetchConfig:
    def test_defaults(self):
        cfg = PrefetchConfig()
        assert cfg.lookahead == 4
        assert cfg.capacity_entries == 4096

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            PrefetchConfig(lookahead=-1)
        with pytest.raises(ValueError):
            PrefetchConfig(capacity_entries=0)

    def test_prefetch_stage_registered(self):
        assert "prefetch" in PIPELINE_STAGES


class TestLookaheadWindow:
    def test_window_exposes_at_most_k_batches(self):
        w = LookaheadWindow(2)
        for s in range(5):
            w.push(_keys(seed=s))
        assert len(w.window()) == 2
        assert len(w) == 5

    def test_union_is_unique_in_first_need_order(self):
        w = LookaheadWindow(3)
        w.push(np.array([5, 3, 5]))
        w.push(np.array([3, 7]))
        union = w.union()
        assert union.tolist() == [5, 3, 7]

    def test_advance_slides_fifo(self):
        w = LookaheadWindow(1)
        first, second = _keys(seed=1), _keys(seed=2)
        w.push(first)
        w.push(second)
        assert np.array_equal(w.advance(), first)
        assert np.array_equal(w.window()[0], second)
        w.advance()
        assert w.advance() is None

    def test_empty_union(self):
        assert LookaheadWindow(4).union().size == 0


class TestStagingBuffer:
    def _buffer(self, capacity=8):
        return StagingBuffer(0, N, capacity, entry_bytes=32)

    def test_stage_admits_prefix_up_to_capacity(self):
        buf = self._buffer(capacity=3)
        admitted = buf.stage(np.array([1, 2, 3, 4, 5]))
        assert admitted.tolist() == [1, 2, 3]
        assert buf.occupancy == 3
        assert buf.free == 0

    def test_hits_marked_and_counted(self):
        buf = self._buffer()
        buf.stage(np.array([1, 2]))
        mask = buf.record_hits(np.array([2, 9]))
        assert mask.tolist() == [True, False]
        assert buf.hits == 1

    def test_eviction_counts_unread_as_waste(self):
        buf = self._buffer()
        buf.stage(np.array([1, 2]))
        buf.record_hits(np.array([1]))
        evicted = buf.drain()
        assert evicted == 2
        # only the never-read entry (2) is waste
        assert buf.wasted_bytes == 32.0
        assert buf.occupancy == 0

    @given(
        batches=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=N - 1),
                min_size=1,
                max_size=40,
                unique=True,
            ),
            min_size=1,
            max_size=12,
        ),
        capacity=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, batches, capacity):
        buf = StagingBuffer(0, N, capacity, entry_bytes=8)
        for batch in batches:
            keys = np.array(batch, dtype=np.int64)
            fresh = keys[~buf.staged_mask(keys)]
            buf.stage(fresh)
            assert 0 <= buf.occupancy <= capacity


class TestOracleCacher:
    def _cacher(self, lookahead=3, capacity=4096):
        _platform, _table, cache, _ex = _stack()
        return cache, OracleCacher(
            cache,
            PrefetchConfig(lookahead=lookahead, capacity_entries=capacity),
        )

    def test_staged_keys_are_upcoming_host_misses(self):
        cache, cacher = self._cacher()
        batches = [_keys(seed=s) for s in range(3)]
        for keys in batches:
            cacher.announce(0, keys)
        cacher.prefetch(0, idle_seconds=math.inf)
        window_keys = np.unique(np.concatenate(batches))
        staged = np.flatnonzero(cacher.buffer(0)._staged)
        # prefetched keys are a subset of the lookahead window's keys...
        assert np.isin(staged, window_keys).all()
        # ...and every one of them resolves to HOST for this GPU.
        assert (cache.source_map[0][staged] == HOST).all()

    @given(
        seeds=st.lists(st.integers(0, 50), min_size=1, max_size=6),
        lookahead=st.integers(1, 4),
        capacity=st.integers(1, 64),
    )
    @settings(max_examples=30, deadline=None)
    def test_prefetched_subset_of_window_and_bounded(
        self, seeds, lookahead, capacity
    ):
        _platform, _table, cache, _ex = _stack()
        cacher = OracleCacher(
            cache,
            PrefetchConfig(lookahead=lookahead, capacity_entries=capacity),
        )
        batches = [_keys(seed=s) for s in seeds]
        for keys in batches:
            cacher.announce(0, keys)
        cacher.prefetch(0, idle_seconds=math.inf)
        allowed = np.unique(np.concatenate(batches[:lookahead]))
        staged = np.flatnonzero(cacher.buffer(0)._staged)
        assert np.isin(staged, allowed).all()
        assert cacher.buffer(0).occupancy <= capacity

    def test_zero_idle_stages_nothing(self):
        _cache, cacher = self._cacher()
        cacher.announce(0, _keys(seed=1))
        outcome = cacher.prefetch(0, idle_seconds=0.0)
        assert outcome.staged_keys == 0
        assert outcome.cost_seconds == 0.0
        assert outcome.deferred_keys > 0

    def test_idle_budget_caps_staging(self):
        _cache, cacher = self._cacher()
        cacher.announce(0, _keys(n=512, seed=1))
        unbounded = cacher.prefetch(0, idle_seconds=math.inf).staged_keys
        _cache2, cacher2 = self._cacher()
        cacher2.announce(0, _keys(n=512, seed=1))
        tiny = cacher2._per_entry_cost(0) * 3
        bounded = cacher2.prefetch(0, idle_seconds=tiny).staged_keys
        assert bounded <= 3 < unbounded

    def test_overlap_never_exceeds_cost_or_idle(self):
        _cache, cacher = self._cacher()
        cacher.announce(0, _keys(seed=1))
        idle = 1e-7
        out = cacher.prefetch(0, idle_seconds=idle)
        assert out.overlapped_seconds <= min(idle, out.cost_seconds) + 1e-18
        assert out.critical_seconds == pytest.approx(
            max(0.0, out.cost_seconds - out.overlapped_seconds)
        )

    def test_hits_and_hit_rate(self):
        cache, cacher = self._cacher()
        keys = _keys(seed=1)
        cacher.announce(0, keys)
        cacher.prefetch(0, idle_seconds=math.inf)
        host_keys = keys[cache.source_map[0][keys] == HOST]
        mask = cacher.stage_hits(0, host_keys)
        assert mask.all()
        assert cacher.hits_total == len(host_keys)
        assert cacher.hit_rate == pytest.approx(1.0)

    def test_advance_evicts_outside_remaining_window(self):
        _cache, cacher = self._cacher(lookahead=1)
        cacher.announce(0, np.array([1, 2, 3]))
        cacher.announce(0, np.array([3, 4]))
        cacher.prefetch(0, idle_seconds=math.inf)
        cacher.advance(0)
        staged = np.flatnonzero(cacher.buffer(0)._staged)
        # only keys the remaining window still needs survive
        assert np.isin(staged, [3, 4]).all()

    def test_finalize_drains_everything(self):
        _cache, cacher = self._cacher()
        cacher.announce(0, _keys(seed=1))
        out = cacher.prefetch(0, idle_seconds=math.inf)
        cacher.finalize()
        assert cacher.buffer(0).occupancy == 0
        assert cacher.wasted_bytes_total == out.staged_bytes

    def test_lookahead_zero_is_inert(self):
        _cache, cacher = self._cacher(lookahead=0)
        cacher.announce(0, _keys(seed=1))
        out = cacher.prefetch(0, idle_seconds=math.inf)
        assert out.staged_keys == 0
        assert cacher.staged_keys_total == 0

    def test_rejects_negative_idle(self):
        _cache, cacher = self._cacher()
        with pytest.raises(ValueError):
            cacher.prefetch(0, idle_seconds=-1.0)

    def test_prefetch_metrics_emitted(self):
        registry = MetricsRegistry("prefetch-test")
        with use_registry(registry):
            _cache, cacher = self._cacher()
            cacher.announce(0, _keys(seed=1))
            out = cacher.prefetch(0, idle_seconds=math.inf)
        assert out.staged_keys > 0
        assert (
            registry.counter("serve.prefetch.staged_keys", gpu=0).value
            == out.staged_keys
        )
        assert registry.histogram("pipeline.prefetch.seconds").count == 1


class TestShiftStagedDemand:
    def test_moves_host_bytes_to_local(self):
        demand = GpuDemand(dst=0, volumes={HOST: 100.0, 0: 50.0})
        shifted = shift_staged_demand(demand, 40.0)
        assert shifted.volumes[HOST] == 60.0
        assert shifted.volumes[0] == 90.0
        assert shifted.total_bytes == demand.total_bytes

    def test_clamps_to_available_host_volume(self):
        demand = GpuDemand(dst=0, volumes={HOST: 100.0})
        shifted = shift_staged_demand(demand, 1000.0)
        assert HOST not in shifted.volumes
        assert shifted.volumes[0] == 100.0

    def test_noop_without_staging_or_host(self):
        demand = GpuDemand(dst=0, volumes={HOST: 100.0})
        assert shift_staged_demand(demand, 0.0) is demand
        local_only = GpuDemand(dst=0, volumes={0: 10.0})
        assert shift_staged_demand(local_only, 64.0) is local_only


class TestRuntimePrefetchIntegration:
    def test_staged_hits_make_service_faster(self):
        _platform, _table, cache, extractor = _stack()
        keys = _keys(seed=1)
        baseline = ServingRuntime(extractor)
        req = baseline.make_request(0, keys, now=0.0)
        slow = baseline.serve_request(req, now=0.0)

        cacher = OracleCacher(cache, PrefetchConfig(lookahead=2))
        runtime = ServingRuntime(extractor, prefetcher=cacher)
        cacher.announce(0, keys)
        cacher.prefetch(0, idle_seconds=math.inf)
        req2 = runtime.make_request(0, keys, now=0.0)
        fast = runtime.serve_request(req2, now=0.0)
        assert fast.prefetch_hits > 0
        assert fast.service_time < slow.service_time
        assert np.array_equal(fast.values, slow.values)

    def test_no_prefetcher_reports_zero_hits(self):
        _platform, _table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        response = runtime.serve_request(
            runtime.make_request(0, _keys(seed=1), now=0.0), now=0.0
        )
        assert response.prefetch_hits == 0

    def test_runtime_retires_window_per_request(self):
        _platform, _table, cache, extractor = _stack()
        cacher = OracleCacher(cache, PrefetchConfig(lookahead=2))
        runtime = ServingRuntime(extractor, prefetcher=cacher)
        for s in range(3):
            cacher.announce(0, _keys(seed=s))
        runtime.serve_request(
            runtime.make_request(0, _keys(seed=0), now=0.0), now=0.0
        )
        assert len(cacher.window(0)) == 2


class TestSoakLookahead:
    CFG = dict(scenario="steady", load=0.8, requests_per_gpu=60)

    def test_lookahead_zero_matches_no_prefetch_path_exactly(self):
        off = run_soak(SoakConfig.quick(**self.CFG))
        zero = run_soak(SoakConfig.quick(**self.CFG, lookahead=0))
        assert off.to_dict() == zero.to_dict()

    def test_lookahead_beats_no_lookahead_on_skewed_trace(self):
        base = SoakConfig.quick(**self.CFG)
        r0 = run_soak(base)
        r4 = run_soak(replace(base, lookahead=4))
        # same offered trace...
        assert r4.requests == r0.requests
        assert r4.arrival_rate == r0.arrival_rate
        # ...strictly better serving
        assert r4.goodput_rps > r0.goodput_rps
        assert r4.prefetch_hit_rate > r0.prefetch_hit_rate == 0.0
        assert r4.prefetch_hits > 0

    def test_report_carries_prefetch_fields(self):
        report = run_soak(
            SoakConfig.quick(**self.CFG, lookahead=2, prefetch_capacity=512)
        )
        doc = report.to_dict()
        assert doc["lookahead"] == 2
        assert doc["prefetch_staged_keys"] > 0
        assert 0.0 <= doc["prefetch_hit_rate"] <= 1.0
        assert doc["prefetch_overlap_seconds"] >= 0.0

    def test_closed_loop_rejects_lookahead(self):
        with pytest.raises(ValueError, match="open-loop"):
            SoakConfig(closed_loop=True, lookahead=2)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            SoakConfig(lookahead=-1)
        with pytest.raises(ValueError):
            SoakConfig(prefetch_capacity=0)
