"""Cross-request coalescing: micro-batcher policy, serve_batch semantics."""

import functools
import math
from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.extractor import FactoredExtractor
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.hardware.platform import server_a
from repro.obs import MetricsRegistry, use_registry
from repro.serve import (
    BatchingMode,
    CoalesceConfig,
    MicroBatcher,
    RequestStatus,
    ServingRuntime,
    SoakConfig,
    coalesce_keys,
    run_soak,
)
from repro.serve.queueing import AdmissionConfig, BoundedRequestQueue
from repro.serve.request import Request
from repro.sim.event_sim import simulate_factored_event_driven
from repro.sim.mechanisms import GpuDemand
from repro.utils.rng import make_rng
from repro.utils.stats import zipf_pmf

pytestmark = pytest.mark.serve

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


class TestCoalesceConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            CoalesceConfig(max_batch=0)
        with pytest.raises(ValueError):
            CoalesceConfig(linger_seconds=-1.0)

    def test_off_is_default(self):
        assert CoalesceConfig().mode is BatchingMode.OFF


class TestCoalesceKeys:
    def test_union_covers_every_member_key(self):
        _platform, _table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        requests = [
            runtime.make_request(0, _keys(seed=s), now=0.0) for s in range(4)
        ]
        union, total, _ = coalesce_keys(requests, N)
        assert total == sum(len(r.keys) for r in requests)
        assert len(np.unique(union)) == len(union)
        for r in requests:
            assert np.isin(r.keys, union).all()

    def test_empty_batch(self):
        union, total, inverse = coalesce_keys([], N)
        assert len(union) == 0 and total == 0 and len(inverse) == 0


class TestMicroBatcher:
    def _queue(self, capacity=16):
        from repro.serve.queueing import AdmissionConfig

        return BoundedRequestQueue(0, AdmissionConfig(capacity=capacity))

    def _request(self, runtime_like, rid, arrival, deadline=math.inf):
        from repro.serve.request import Request

        return Request(
            request_id=rid,
            gpu=0,
            keys=_keys(seed=rid),
            arrival=arrival,
            deadline=deadline,
        )

    def test_empty_queue_never_flushes(self):
        batcher = MicroBatcher(0, self._queue(), CoalesceConfig(max_batch=4))
        assert batcher.flush_at(0.0) is None

    def test_full_batch_flushes_as_soon_as_gpu_is_free(self):
        queue = self._queue()
        batcher = MicroBatcher(
            0, queue, CoalesceConfig(max_batch=2, linger_seconds=5.0)
        )
        queue.offer(self._request(None, 1, 0.0), 0.0)
        queue.offer(self._request(None, 2, 0.1), 0.1)
        assert batcher.flush_at(0.3) == 0.3  # no linger once full

    def test_partial_batch_lingers_for_company(self):
        queue = self._queue()
        batcher = MicroBatcher(
            0, queue, CoalesceConfig(max_batch=4, linger_seconds=2.0)
        )
        queue.offer(self._request(None, 1, 1.0), 1.0)
        assert batcher.flush_at(0.0) == 3.0  # arrival + linger

    def test_slo_early_flush_beats_linger(self):
        queue = self._queue()
        batcher = MicroBatcher(
            0, queue, CoalesceConfig(max_batch=4, linger_seconds=10.0)
        )
        queue.offer(self._request(None, 1, 0.0, deadline=2.0), 0.0)
        queue.estimator.observe(0.5)
        # tightest deadline (2.0) minus estimate (0.5) < arrival + linger.
        assert batcher.flush_at(0.0) == pytest.approx(1.5)

    @staticmethod
    def _old_flush_at(batcher, queue, free_at):
        """``flush_at`` as it was before the O(1) exit: the oracle."""
        head = queue.peek()
        if head is None:
            return None
        if queue.depth >= batcher.config.max_batch:
            return free_at
        target = head.arrival + batcher.config.linger_seconds
        tightest = min(r.deadline for r in queue._queue)
        if math.isfinite(tightest):
            target = min(target, tightest - queue.estimator.estimate())
        return max(free_at, target)

    @given(
        tape=st.lists(
            st.tuples(
                st.floats(0.0, 2.0),  # gap since the previous arrival
                st.one_of(st.just(math.inf), st.floats(0.01, 5.0)),  # budget
            ),
            max_size=7,
        ),
        free_at=st.floats(0.0, 15.0),
        linger=st.floats(0.0, 5.0),
        max_batch=st.integers(1, 8),
        observed=st.lists(st.floats(0.01, 3.0), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_flush_instants_equal_the_old_formula(
        self, tape, free_at, linger, max_batch, observed
    ):
        queue = BoundedRequestQueue(
            0, AdmissionConfig(capacity=16, shed_on_slo=False)
        )
        for seconds in observed:
            queue.estimator.observe(seconds)
        batcher = MicroBatcher(
            0,
            queue,
            CoalesceConfig(max_batch=max_batch, linger_seconds=linger),
        )
        now = 0.0
        for rid, (gap, budget) in enumerate(tape):
            now += gap
            queue.offer(self._request(None, rid, now, deadline=now + budget), now)
        assert queue.depth == len(tape)
        assert batcher.flush_at(free_at) == self._old_flush_at(
            batcher, queue, free_at
        )

    def test_take_respects_max_batch_and_fifo(self):
        queue = self._queue()
        batcher = MicroBatcher(0, queue, CoalesceConfig(max_batch=2))
        for i in range(3):
            queue.offer(self._request(None, i + 1, 0.0), 0.0)
        batch = batcher.take(1.0)
        assert [r.request_id for r in batch] == [1, 2]
        assert queue.depth == 1


class TestServeBatch:
    def test_members_get_exact_scattered_values(self):
        _platform, table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        requests = [
            runtime.make_request(0, _keys(seed=s), now=0.0) for s in range(3)
        ]
        outcome = runtime.serve_batch(requests, now=0.0)
        assert outcome.batch_size == 3
        assert outcome.union_size <= outcome.total_keys
        assert len(outcome.responses) == 3
        for response in outcome.responses:
            assert response.ok
            assert response.coalesced == 3
            assert response.service_time == outcome.service_time
            assert np.array_equal(response.values, table[response.request.keys])

    def test_pricing_is_shared_once(self):
        """Every member completes at the shared extraction's finish."""
        _platform, _table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        requests = [
            runtime.make_request(1, _keys(seed=s), now=2.0) for s in range(4)
        ]
        outcome = runtime.serve_batch(requests, now=2.0)
        for response in outcome.responses:
            assert response.completed_at == pytest.approx(outcome.completed_at)

    def test_dedup_ratio_reflects_overlap(self):
        _platform, _table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        keys = _keys(seed=7)
        # identical key sets: the union is one request's unique keys, so
        # the ratio is 4× the single-request duplication factor.
        requests = [runtime.make_request(0, keys, now=0.0) for _ in range(4)]
        outcome = runtime.serve_batch(requests, now=0.0)
        expected = 4 * len(keys) / len(np.unique(keys))
        assert outcome.dedup_ratio == pytest.approx(expected)

    def test_expired_members_dropped_without_extraction(self):
        _platform, _table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        dead = runtime.make_request(0, _keys(seed=1), now=0.0, deadline=1.0)
        live = runtime.make_request(0, _keys(seed=2), now=0.0)
        outcome = runtime.serve_batch([dead, live], now=5.0)
        statuses = {r.request.request_id: r.status for r in outcome.responses}
        assert statuses[dead.request_id] is RequestStatus.EXPIRED
        assert statuses[live.request_id] is RequestStatus.OK
        # the survivor was served alone.
        assert [r for r in outcome.responses if r.ok][0].coalesced == 1

    def test_batch_size_counts_only_extracted_members(self):
        # Regression: expired-on-arrival members were counted in
        # batch_size despite being dropped before extraction, inflating
        # the soak report's mean_batch_size over batches that did less
        # work than advertised.
        _platform, _table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        dead = runtime.make_request(0, _keys(seed=1), now=0.0, deadline=1.0)
        live = runtime.make_request(0, _keys(seed=2), now=0.0)
        outcome = runtime.serve_batch([dead, live], now=5.0)
        assert outcome.batch_size == 1
        assert outcome.union_size == len(np.unique(live.keys))

    def test_all_expired_batch_has_zero_size(self):
        _platform, _table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        requests = [
            runtime.make_request(0, _keys(seed=s), now=0.0, deadline=1.0)
            for s in range(3)
        ]
        outcome = runtime.serve_batch(requests, now=5.0)
        assert outcome.batch_size == 0

    def test_mixed_gpus_rejected(self):
        _platform, _table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        requests = [
            runtime.make_request(0, _keys(seed=1), now=0.0),
            runtime.make_request(1, _keys(seed=2), now=0.0),
        ]
        with pytest.raises(ValueError):
            runtime.serve_batch(requests, now=0.0)

    @pytest.mark.parametrize("stray_expired", [False, True])
    def test_mixed_gpus_rejected_before_any_side_effect(self, stray_expired):
        """The batch is validated whole, first: an expired member ahead of
        the stray one used to be finished (response, counter) before the
        raise, and an *expired* stray passed silently."""
        _platform, _table, _cache, extractor = _stack()
        registry = MetricsRegistry("mixed")
        with use_registry(registry):
            runtime = ServingRuntime(extractor)
            requests = [
                runtime.make_request(0, _keys(seed=1), now=0.0, deadline=1.0),
                runtime.make_request(0, _keys(seed=2), now=0.0),
                runtime.make_request(
                    1, _keys(seed=3), now=0.0,
                    deadline=1.0 if stray_expired else math.inf,
                ),
            ]
            with pytest.raises(ValueError, match="one GPU"):
                runtime.serve_batch(requests, now=5.0)
        assert runtime.responses == []
        assert registry.snapshot()["metrics"] == []

    def test_all_expired_batch_is_cheap(self):
        _platform, _table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        requests = [
            runtime.make_request(0, _keys(seed=s), now=0.0, deadline=1.0)
            for s in range(3)
        ]
        outcome = runtime.serve_batch(requests, now=5.0)
        assert outcome.union_size == 0
        assert outcome.service_time == 0.0
        assert all(
            r.status is RequestStatus.EXPIRED for r in outcome.responses
        )

    def test_deadline_hedge_still_per_request(self):
        """A member with a tight deadline hedges; relaxed members do not."""
        _platform, _table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        probe = runtime.serve_batch(
            [runtime.make_request(0, _keys(seed=9), now=0.0)], now=0.0
        )
        shared = probe.service_time
        tight = runtime.make_request(
            0, _keys(seed=1), now=0.0, deadline=shared * 0.5
        )
        loose = runtime.make_request(0, _keys(seed=2), now=0.0)
        outcome = runtime.serve_batch([tight, loose], now=0.0)
        hedged = {r.request.request_id: r.hedged for r in outcome.responses}
        assert hedged[tight.request_id]
        assert not hedged[loose.request_id]

    def test_batch_metrics_recorded(self):
        _platform, _table, _cache, extractor = _stack()
        registry = MetricsRegistry("coalesce-test")
        with use_registry(registry):
            runtime = ServingRuntime(extractor)
            requests = [
                runtime.make_request(0, _keys(seed=s), now=0.0)
                for s in range(3)
            ]
            runtime.serve_batch(requests, now=0.0)
        sizes = registry.histogram("serve.coalesce.batch_size")
        assert sizes.count == 1 and sizes.sum == 3
        assert registry.histogram("serve.coalesce.dedup_ratio").count == 1
        assert registry.histogram("serve.coalesce.linger.seconds").count == 3


@functools.lru_cache(maxsize=1)
def _shared_stack():
    """Read-only stack shared by the hypothesis examples below."""
    return _stack()


#: 0..80 keys per member: duplicates inside and across members are the
#: norm on a 1200-entry table, and a zero-key member is allowed.
member_keys = st.lists(
    hnp.arrays(np.int64, st.integers(0, 80), elements=st.integers(0, N - 1)),
    min_size=1,
    max_size=6,
)


class TestCoalesceIndex:
    """One dedup index per batch: ``union[inverse]`` is every member's keys."""

    @given(members=member_keys, as_list=st.integers(0, 5), empty=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_union_sorted_unique_and_inverse_rebuilds_members(
        self, members, as_list, empty
    ):
        """The sort-free index equals ``np.unique(concat, return_inverse=True)``
        in values and dtypes, keyless and list members included."""
        if empty:
            members = [np.empty(0, dtype=np.int64), *members]
        requests = [SimpleNamespace(keys=m) for m in members]
        if as_list < len(members):  # a member that never was an ndarray
            requests[as_list] = SimpleNamespace(keys=members[as_list].tolist())
        union, total, inverse = coalesce_keys(requests, N)
        concat = np.concatenate(members)
        want_union, want_inverse = np.unique(concat, return_inverse=True)
        assert union.dtype == want_union.dtype == np.int64
        assert inverse.dtype == want_inverse.dtype == np.intp
        assert np.array_equal(union, want_union)  # sorted, unique
        assert np.array_equal(inverse, want_inverse)
        assert total == len(concat)
        assert np.array_equal(union[inverse], concat)

    @pytest.mark.parametrize("bad", [N, -1])
    def test_a_key_off_the_table_raises(self, bad):
        requests = [
            SimpleNamespace(keys=np.array([0, 5])), SimpleNamespace(keys=[3, bad])
        ]
        with pytest.raises(KeyError, match="key out of range"):
            coalesce_keys(requests, N)

    def test_serve_batch_refuses_a_bad_key_before_planning(self):
        _platform, _table, _cache, extractor = _shared_stack()
        registry = MetricsRegistry("bad-key")
        with use_registry(registry):
            runtime = ServingRuntime(extractor)
            requests = [
                runtime.make_request(0, _keys(seed=1), now=0.0),
                runtime.make_request(0, np.array([2, N]), now=0.0),
            ]
            with pytest.raises(KeyError, match="key out of range"):
                runtime.serve_batch(requests, now=0.0)
        assert not [
            s.name for s in registry.series() if s.name.startswith("extractor.plan")
        ]

    @given(
        members=member_keys,
        fates=st.lists(
            st.sampled_from(["loose", "expired", "tight"]), min_size=6, max_size=6
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_member_gets_its_own_rows(self, members, fates):
        """Bit-exact rows per member, whatever the neighbours' fate: dropped
        before the union (expired), served from the one-take buffer, or
        served by a winning host hedge (tight deadline)."""
        _platform, table, _cache, extractor = _shared_stack()
        runtime = ServingRuntime(extractor)
        now = 5.0
        deadline = {"loose": math.inf, "expired": 1.0, "tight": now + 1e-12}
        requests = [
            runtime.make_request(0, keys, now=0.0, deadline=deadline[fate])
            for keys, fate in zip(members, fates)
        ]
        if not any(len(r.keys) for r in requests if not r.expired(now)):
            return  # nothing to extract: the all-expired tests cover it
        outcome = runtime.serve_batch(requests, now=now)
        # Expired-on-arrival members answer first, then the fused ones.
        assert [r.request.request_id for r in outcome.responses] == [
            r.request_id
            for r in sorted(requests, key=lambda r: not r.expired(now))
        ]
        for response in outcome.responses:
            if response.request.expired(now):
                assert response.values is None and not response.ok
            else:
                assert response.values.dtype == table.dtype
                assert np.array_equal(
                    response.values, table[response.request.keys]
                )

    def test_expired_and_hedge_winning_members_beside_sliced_ones(self):
        _platform, table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        now = 5.0
        small = _keys(n=8, seed=3)

        def batch(tight_deadline):
            return [
                runtime.make_request(0, _keys(seed=1), now=0.0, deadline=1.0),
                runtime.make_request(0, _keys(seed=2), now=0.0),
                runtime.make_request(0, small, now=0.0, deadline=tight_deadline),
                runtime.make_request(0, _keys(seed=2), now=0.0),
            ]

        shared = runtime.serve_batch(batch(math.inf), now=now).service_time
        # A deadline the shared extraction cannot make, but the member's
        # own 8-key host gather can: the hedge wins.
        requests = batch(now + 0.9 * shared)
        outcome = runtime.serve_batch(requests, now=now)
        dead, first, hedged, second = outcome.responses
        assert dead.status is RequestStatus.EXPIRED and dead.values is None
        assert hedged.hedge_won and hedged.ok
        assert outcome.batch_size == 3
        for response in (first, hedged, second):
            assert np.array_equal(response.values, table[response.request.keys])
        # Sliced members share one buffer, disjointly; the hedge winner's
        # rows came from the host gather instead.
        assert first.values.base is second.values.base is not None
        assert not np.shares_memory(first.values, second.values)
        assert not np.shares_memory(hedged.values, first.values.base)
        assert first.values.flags.c_contiguous


class TestServeBatchCallBudget:
    """Per-member work is a slice and a Response, not a lookup and a gather."""

    def _batch(self, runtime, members):
        return [
            runtime.make_request(0, _keys(n=1024, seed=s), now=0.0)
            for s in range(members)
        ]

    def test_calls_per_eight_member_batch(self, count_calls):
        _platform, _table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        counts = {}
        # A fresh registry: no instrument's pending log is near its inline
        # fold, whatever earlier tests recorded.
        with use_registry(MetricsRegistry("budget")):
            runtime.serve_batch(self._batch(runtime, 8), now=0.0)  # warm
            for members in (1, 8):
                batch = self._batch(runtime, members)
                counts[members] = count_calls(
                    lambda: runtime.serve_batch(batch, now=0.0)
                )
        # 887 and 41 per extra member before the shared index (a
        # searchsorted, a fancy gather and three registry lookups each);
        # 722 and 17 with it; 407 and 15 with context-free stage timing and
        # append-instruments.
        assert counts[8] <= 428
        assert (counts[8] - counts[1]) / 7 <= 15

    def test_searchsorted_not_reached(self, monkeypatch):
        _platform, table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        requests = self._batch(runtime, 8)

        def forbidden(*args, **kwargs):
            raise AssertionError("np.searchsorted reached from serve_batch")

        monkeypatch.setattr(np, "searchsorted", forbidden)
        outcome = runtime.serve_batch(requests, now=0.0)
        for response in outcome.responses:
            assert np.array_equal(response.values, table[response.request.keys])


class TestCoalescedEventSim:
    def test_union_never_slower_than_sequential_members(self):
        """Conservation, against independent (discrete) physics: one shared
        extraction of the union never exceeds its members served in turn."""
        platform = server_a()
        entry = 128.0
        members = [
            GpuDemand(dst=0, volumes={0: 50 * entry, 1: 30 * entry, -1: 20 * entry}),
            GpuDemand(dst=0, volumes={0: 40 * entry, 2: 25 * entry}),
        ]
        # overlapping unions shrink the union volume below the member sum.
        union = GpuDemand(
            dst=0, volumes={0: 70 * entry, 1: 30 * entry, 2: 25 * entry, -1: 20 * entry}
        )
        union_time = simulate_factored_event_driven(platform, union).total_time
        solo_times = [
            simulate_factored_event_driven(platform, member).total_time
            for member in members
        ]
        assert 0 < union_time <= sum(solo_times) + 1e-12

    def test_mismatched_destination_rejected(self):
        """The claim is per destination, and only ever asked per destination:
        a batch whose members name two GPUs is refused before any union."""
        _platform, _table, _cache, extractor = _stack()
        runtime = ServingRuntime(extractor)
        requests = [
            runtime.make_request(gpu, _keys(seed=gpu), now=0.0) for gpu in (0, 1)
        ]
        with pytest.raises(ValueError, match="one GPU"):
            runtime.serve_batch(requests, now=0.0)
        assert runtime.responses == []


class TestSoakCoalescing:
    def test_quick_soak_coalesce_beats_dedup_floor(self):
        report = run_soak(
            SoakConfig.quick(
                scenario="steady", load=2.0, batching=BatchingMode.COALESCE
            )
        )
        assert report.ok
        assert report.coalesce.coalesced_batches > 0
        assert report.coalesce.mean_batch_size > 1.0
        assert report.coalesce.dedup_ratio > 1.5

    def test_coalesced_goodput_not_worse_than_off(self):
        off = run_soak(SoakConfig.quick(scenario="steady", load=2.0))
        on = run_soak(
            SoakConfig.quick(
                scenario="steady", load=2.0, batching=BatchingMode.COALESCE
            )
        )
        assert on.goodput_rps >= off.goodput_rps

    def test_off_mode_reports_no_coalescing(self):
        report = run_soak(SoakConfig.quick(scenario="steady"))
        assert report.coalesce is None
        assert "coalesce" not in report.to_dict()

    def test_a_plain_string_mode_coalesces(self):
        cfg = SoakConfig.quick(scenario="steady", load=2.0, batching="coalesce")
        assert cfg.batching is BatchingMode.COALESCE
        report = run_soak(cfg)
        assert report.coalesce is not None
        assert "coalesce" in report.to_dict()

    def test_closed_loop_rejects_coalescing(self):
        with pytest.raises(ValueError):
            SoakConfig.quick(closed_loop=True, batching=BatchingMode.COALESCE)
