"""What the extraction pipeline remembers per route, and what it must not.

The hypothesis oracles (warm memo == empty memo, the parent's per-request
``execute_plan`` and ``factored_extraction``) live in ``test_properties.py``
next to the segmented-plan oracle; this file holds the pointed cases.
"""

import sys

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.extractor import FactoredExtractor
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.faults.degrade import DegradedPlatform, degraded_platform
from repro.faults.spec import HealthView
from repro.hardware.platform import HOST, MEMO_LIMIT, SOURCE_DTYPE, remember, server_a
from repro.obs import MetricsRegistry, use_registry
from repro.serve import BreakerBoard, ServingRuntime
from repro.utils.concurrency import ReadWriteLock
from repro.utils.stats import zipf_pmf
from tests.test_properties import _segment

N, DIM = 4000, 32


@pytest.fixture
def cache():
    rng = np.random.default_rng(7)
    platform = server_a()
    table = rng.standard_normal((N, DIM)).astype(np.float32)
    hotness = rng.permutation(zipf_pmf(N, 1.1)) * 1000.0
    placement = hot_replicate_warm_partition_policy(
        hotness, N // 8, platform.num_gpus, 0.5
    )
    return MultiGpuEmbeddingCache(platform, table, placement)


def _keys(seed=1, size=256):
    return np.random.default_rng(seed).integers(0, N, size=size)


class TestSegment:
    """The sorting planner's segmenter (the oracle in ``test_properties.py``):
    one byte-wide sort, accepted only when it *is* the wide stable sort."""

    @pytest.mark.parametrize(
        "rotten",
        [
            (),  # every id legitimate
            (44, 300),  # alias to one byte value and interleave
            (200,),  # wraps negative: sorts first
            (-200,),  # wraps positive: sorts last
            (300,),  # aliases 44, which is absent: one clean run, out of place
            (44, 300, 200, -200),
        ],
    )
    def test_equals_the_wide_stable_sort(self, cache, rotten):
        rng = np.random.default_rng(len(rotten))
        keys = _keys(size=300)
        sources = cache.source_map[0][keys].copy()
        for wrong in rotten:
            sources[rng.integers(0, len(keys), size=25)] = wrong
        present, segments = _segment(cache, keys, sources)
        want = sources.argsort(kind="stable")
        assert present == tuple(np.unique(sources).tolist())
        assert [segment[0] for segment in segments] == list(present)
        stop = 0
        for src, positions, segment_keys, offsets in segments:
            start, stop = stop, stop + len(positions)
            assert positions.dtype == want.dtype
            assert np.array_equal(positions, want[start:stop])
            assert np.array_equal(positions, np.flatnonzero(sources == src))
            assert np.array_equal(segment_keys, keys[positions])
            if 0 <= src < cache.platform.num_gpus:
                assert np.array_equal(offsets, cache.store(src).offset_of[segment_keys])
            else:
                assert len(offsets) == 0
        assert stop == len(keys)

    def test_empty_batch(self, cache):
        assert _segment(
            cache, np.empty(0, dtype=np.int64), np.empty(0, dtype=SOURCE_DTYPE)
        ) == ((), [])


def _arrays_in(value, seen=None):
    """Every ndarray reachable from a remembered answer (views' memos too)."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, DegradedPlatform):
        return _arrays_in(value.memo, seen)
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (list, tuple, set, frozenset)):
        return [found for item in value for found in _arrays_in(item, seen)]
    return []


class TestWhatIsRemembered:
    def test_same_route_healthy_degraded_healthy(self, cache):
        """Three right answers from one warm memo: health is part of the key."""
        platform, keys = cache.platform, _keys()
        slow = HealthView(link_factors=(((0, 1), 0.25),))
        answers = []
        for health in (None, slow, None, slow):
            plan = pipeline.plan_extraction(cache, 0, keys, health)
            _, demand = pipeline.execute_plan(cache, plan)
            report = pipeline.price_demand(platform, demand, health)
            cores = {g.source: g.dedicated_cores for g in plan.groups}
            answers.append((cores, report.time, report.time_by_source))
        healthy, degraded, healthy_again, degraded_again = answers
        assert healthy == healthy_again and degraded == degraded_again
        assert degraded[0][1] < healthy[0][1]  # the slow link gets fewer cores
        assert degraded[2][1] > healthy[2][1]  # and its group takes longer
        # and the fresh-platform answers agree with the warm ones
        fresh = MultiGpuEmbeddingCache(server_a(), cache.host_table, cache.placement)
        plan = pipeline.plan_extraction(fresh, 0, keys, slow)
        _, demand = pipeline.execute_plan(fresh, plan)
        assert pipeline.price_demand(fresh.platform, demand, slow).time == degraded[1]

    def test_one_view_per_health_value_with_its_own_memo(self):
        platform = server_a()
        down = HealthView(down_gpus=frozenset({1}))
        view = degraded_platform(platform, down)
        assert degraded_platform(platform, HealthView(down_gpus=frozenset({1}))) is view
        assert degraded_platform(view, down) is view  # re-degrading re-bases
        assert degraded_platform(platform, HealthView(down_gpus=frozenset({2}))) is not view
        assert view.memo is not platform.memo
        view.tolerance(0, 2), view.bandwidth(0, 1), platform.tolerance(0, 1)
        assert ("tolerance", 0, 2) in view.memo
        assert ("tolerance", 0, 2) not in platform.memo
        assert view.tolerance(0, 1) == 0 and platform.tolerance(0, 1) > 0

    def test_nothing_remembered_derives_from_cache_contents(self, cache):
        platform = cache.platform
        slow = HealthView(host_factor=0.5, down_gpus=frozenset({3}))
        for dst in platform.gpu_ids:
            for health in (None, slow):
                for exclude in (frozenset(), frozenset({2})):
                    plan = pipeline.plan_extraction(cache, dst, _keys(dst), health, exclude)
                    _, demand = pipeline.execute_plan(cache, plan)
                    pipeline.price_demand(platform, demand, health)
        kinds = {key[0] for key in platform.memo}
        assert {"verdicts", "dedication", "source_class", "factored", "degraded"} <= kinds
        assert _arrays_in(platform.memo) == []

    def test_memo_is_bounded_first_in_first_out(self):
        memo = {}
        for i in range(MEMO_LIMIT + 50):
            assert remember(memo, ("route", i), i) == i
        assert len(memo) == MEMO_LIMIT
        assert ("route", 49) not in memo and ("route", 50) in memo
        assert ("route", MEMO_LIMIT + 49) in memo

    def test_stale_slot_is_still_caught_on_a_warm_route(self, cache):
        keys = _keys()
        warm = pipeline.plan_extraction(cache, 0, keys)
        assert warm.rerouted_keys == 0
        peer = next(g for g in warm.groups if g.source not in (0, HOST))
        with cache.writing():  # evicted behind the location map's back
            cache.store(peer.source).evict_many([int(peer.keys[0])])
        plan = pipeline.plan_extraction(cache, 0, keys)
        assert plan.rerouted_keys == int((peer.keys == peer.keys[0]).sum())
        assert plan.failed_sources == (peer.source,)
        values, _ = pipeline.execute_plan(cache, plan)
        assert np.array_equal(values, cache.host_table[keys])


class TestGlue:
    def test_closed_breakers_share_one_empty_answer(self):
        board = BreakerBoard([0, 1, 2, 3])
        assert board.excluded_sources(0.0) == frozenset()
        assert board.excluded_sources(0.0) is board.excluded_sources(1.0)
        for _ in range(board.config.failure_threshold):
            board.record(2, ok=False, now=0.0)
        assert board.excluded_sources(0.1) == frozenset({2})

    def test_lock_guards_are_plain_shared_objects(self):
        lock = ReadWriteLock()
        assert lock.read_locked() is lock.read_locked()
        with lock.read_locked() as held, lock.read_locked():
            assert held is lock
            with pytest.raises(RuntimeError):
                lock.acquire_write()  # no upgrade while reading
        with lock.write_locked(), lock.write_locked(), lock.read_locked():
            pass
        with pytest.raises(RuntimeError):
            lock.release_read()  # every hold above was released

    def test_cached_series_is_the_series(self):
        reg = MetricsRegistry("t")
        assert reg.cached("counter", "a.b", gpu=1) is reg.counter("a.b", gpu=1)
        assert reg.cached("counter", "a.b", gpu=1) is not reg.cached("counter", "a.b", gpu=2)
        reg.cached("histogram", "t.seconds").observe(0.5)
        reg.cached("histogram", "t.seconds").observe(0.5)
        assert reg.cached("histogram", "t.seconds").count == 2
        reg.reset()
        assert reg.cached("histogram", "t.seconds").count == 0


class TestRequestCallBudget:
    """A deterministic guard for the fixed per-request cost: Python ``call``
    events (as ``benchmarks/e2e/run.py::count_python_calls`` counts them) of
    one warm 256-key request: 150 with context-free stage timing and
    append-instruments, 188 before them with the sort-free plan, 194 with
    the sorting one, 346 before per-route facts were remembered.  The
    ceiling is the count plus about 10 %."""

    CEILING = 165

    def test_one_warm_request(self, cache):
        runtime = ServingRuntime(FactoredExtractor(cache))
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        def one_request(seed):
            request = runtime.make_request(0, _keys(seed), now=0.0)
            assert runtime.submit(request, 0.0) is None
            return runtime.poll(0, 0.0)

        with use_registry(MetricsRegistry("budget")):
            assert one_request(1).ok  # warm: memo, instruments
            keys = _keys(2)
            sys.setprofile(profiler)
            try:
                request = runtime.make_request(0, keys, now=0.0)
                runtime.submit(request, 0.0)
                response = runtime.poll(0, 0.0)
            finally:
                sys.setprofile(None)
        assert np.array_equal(response.values, cache.host_table[keys])
        assert len({g for g in cache.source_map[0][keys]}) == 5  # all five sources
        assert calls <= self.CEILING, calls
