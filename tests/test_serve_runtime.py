"""ServingRuntime: admission → degraded planning → hedging → breakers."""

import numpy as np
import pytest

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.extractor import FactoredExtractor
from repro.core.pipeline import apply_health
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
from repro.hardware.platform import server_a
from repro.obs import MetricsRegistry, use_registry
from repro.serve import (
    AdmissionConfig,
    BreakerConfig,
    QueuePolicy,
    RequestStatus,
    ServeConfig,
    ServingRuntime,
)
from repro.sim.event_sim import simulate_hedged_extraction
from repro.sim.mechanisms import GpuDemand
from repro.utils.rng import make_rng
from repro.utils.stats import zipf_pmf

pytestmark = pytest.mark.serve

N, D = 1200, 8


def _stack(plan=None, replicate=0.5):
    platform = server_a()
    rng = make_rng(0)
    table = rng.standard_normal((N, D)).astype(np.float32)
    hotness = zipf_pmf(N, 1.1) * 1000
    placement = hot_replicate_warm_partition_policy(
        hotness, N // 8, platform.num_gpus, replicate
    )
    cache = MultiGpuEmbeddingCache(platform, table, placement)
    injector = FaultInjector(plan, cache=cache) if plan is not None else None
    extractor = FactoredExtractor(cache)
    return platform, table, cache, extractor, injector


def _keys(n=256, seed=1):
    return make_rng(seed).integers(0, N, size=n)


class TestServeRequest:
    def test_healthy_request_is_exact_and_ok(self):
        _platform, table, _cache, extractor, _inj = _stack()
        runtime = ServingRuntime(extractor)
        keys = _keys()
        request = runtime.make_request(0, keys, now=0.0)
        response = runtime.serve_request(request, now=0.0)
        assert response.ok
        assert response.service_time > 0
        assert np.array_equal(response.values, table[keys])

    def test_expired_request_is_dropped_without_work(self):
        _platform, _table, _cache, extractor, _inj = _stack()
        runtime = ServingRuntime(extractor)
        request = runtime.make_request(0, _keys(), now=0.0, deadline=1.0)
        response = runtime.serve_request(request, now=2.0)
        assert response.status is RequestStatus.EXPIRED
        assert response.values is None

    def test_submit_then_poll_round_trip(self):
        _platform, table, _cache, extractor, _inj = _stack()
        runtime = ServingRuntime(extractor)
        keys = _keys()
        assert runtime.submit(runtime.make_request(0, keys, 0.0), 0.0) is None
        response = runtime.poll(0, now=0.0)
        assert response.ok
        assert np.array_equal(response.values, table[keys])
        assert runtime.poll(0, now=0.0) is None

    def test_full_queue_reject_policy_surfaces_response(self):
        _platform, _table, _cache, extractor, _inj = _stack()
        runtime = ServingRuntime(
            extractor,
            config=ServeConfig(
                admission=AdmissionConfig(
                    capacity=1, policy=QueuePolicy.REJECT
                )
            ),
        )
        assert runtime.submit(runtime.make_request(0, _keys(), 0.0), 0.0) is None
        rejected = runtime.submit(runtime.make_request(0, _keys(), 0.0), 0.0)
        assert rejected is not None
        assert rejected.status is RequestStatus.REJECTED


class TestHedging:
    def _degraded_link_stack(self):
        # GPU 1's outbound link loses 99% of its bandwidth: any plan that
        # reads from it is slow enough that the host hedge wins the race.
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    FaultKind.LINK_DEGRADATION,
                    onset=0.0,
                    severity=0.99,
                    link=(0, 1),
                ),
            )
        )
        return _stack(plan=plan, replicate=0.0)

    def _remote_keys(self, cache, dst=0, src=1, n=192):
        owned = cache.placement.per_gpu[src]
        mask = cache.source_map[dst][owned] == src
        keys = owned[mask][:n]
        assert len(keys) > 0
        return keys

    def test_hedge_issued_and_wins_under_degraded_link(self):
        _platform, table, cache, extractor, injector = self._degraded_link_stack()
        runtime = ServingRuntime(
            extractor,
            config=ServeConfig(hedge_enabled=True, hedge_headroom=1.25),
            injector=injector,
        )
        keys = self._remote_keys(cache)
        request = runtime.make_request(0, keys, now=0.0, deadline=1e-6)
        response = runtime.serve_request(request, now=0.0)
        assert response.hedged
        assert response.hedge_won
        assert np.array_equal(response.values, table[keys])

    def test_no_hedge_without_deadline_pressure(self):
        _platform, _table, _cache, extractor, _inj = _stack()
        runtime = ServingRuntime(extractor)
        request = runtime.make_request(0, _keys(), now=0.0)  # best-effort
        response = runtime.serve_request(request, now=0.0)
        assert not response.hedged

    def test_hedge_disabled_by_config(self):
        _platform, _table, cache, extractor, injector = self._degraded_link_stack()
        runtime = ServingRuntime(
            extractor,
            config=ServeConfig(hedge_enabled=False),
            injector=injector,
        )
        keys = self._remote_keys(cache)
        request = runtime.make_request(0, keys, now=0.0, deadline=1e-6)
        assert not runtime.serve_request(request, now=0.0).hedged

    def test_event_sim_prices_the_same_race(self):
        platform, _table, cache, _extractor, _inj = self._degraded_link_stack()
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    FaultKind.LINK_DEGRADATION,
                    onset=0.0,
                    severity=0.99,
                    link=(0, 1),
                ),
            )
        )
        keys = self._remote_keys(cache)
        volume = float(len(keys) * cache.entry_bytes)
        demand = GpuDemand(dst=0, volumes={1: volume})
        platform, _, _ = apply_health(platform, [demand], plan.health_at(0.0))
        result = simulate_hedged_extraction(platform, demand)
        assert result.winner == "hedge"
        assert result.total_time == result.hedge_time < result.primary_time
        # issuing the hedge later shifts its completion by exactly the delay
        delayed = simulate_hedged_extraction(platform, demand, hedge_issue_at=1e9)
        assert delayed.winner == "primary"
        with pytest.raises(ValueError):
            simulate_hedged_extraction(platform, demand, hedge_issue_at=-1.0)


class TestBreakerIntegration:
    def _failed_gpu_runtime(self, **cfg_kwargs):
        plan = FaultPlan(
            faults=(FaultSpec(FaultKind.GPU_FAILURE, onset=0.0, gpu=1),)
        )
        _platform, table, cache, extractor, injector = _stack(
            plan=plan, replicate=0.0
        )
        config = ServeConfig(
            breaker=BreakerConfig(failure_threshold=2, cooldown_seconds=100.0),
            **cfg_kwargs,
        )
        return table, cache, ServingRuntime(extractor, config=config, injector=injector)

    def test_dead_source_trips_breaker_then_plans_exclude_it(self):
        table, cache, runtime = self._failed_gpu_runtime()
        owned = cache.placement.per_gpu[1]
        keys = owned[cache.source_map[0][owned] == 1][:128]
        for i in range(2):
            request = runtime.make_request(0, keys, now=float(i))
            response = runtime.serve_request(request, now=float(i))
            assert response.ok  # degraded mode reroutes, never fails
            assert response.rerouted_keys > 0
            assert np.array_equal(response.values, table[keys])
        assert runtime.breakers.excluded_sources(2.0) == frozenset({1})
        # with the breaker open, the plan never touches source 1 at all
        plan = runtime._extractor.plan(
            0, keys, exclude_sources=runtime.breakers.excluded_sources(2.0)
        )
        assert all(g.source != 1 for g in plan.groups)

    def test_healthy_sources_record_successes(self):
        registry = MetricsRegistry("t")
        with use_registry(registry):
            _platform, _table, _cache, extractor, _inj = _stack()
            runtime = ServingRuntime(extractor)
            request = runtime.make_request(0, _keys(), now=0.0)
            runtime.serve_request(request, now=0.0)
            states = [b.state for b in runtime.breakers]
        assert all(s.value == "closed" for s in states)
        assert registry.value("serve.requests", status="ok") == 1.0

    def test_source_timeout_counts_as_failure(self):
        # an absurdly tight per-source budget: every non-local group
        # "times out" and trips its breaker without any injected fault.
        _platform, _table, _cache, extractor, _inj = _stack()
        runtime = ServingRuntime(
            extractor,
            config=ServeConfig(
                breaker=BreakerConfig(failure_threshold=1, cooldown_seconds=1e9),
                source_timeout_seconds=1e-30,
            ),
        )
        request = runtime.make_request(0, _keys(), now=0.0)
        runtime.serve_request(request, now=0.0)
        assert runtime.breakers.excluded_sources(0.1)
