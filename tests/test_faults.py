"""Fault model, degraded platform, injector, and degraded-mode extraction."""

import contextlib

import numpy as np
import pytest

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.extractor import FactoredExtractor
from repro.core.policy import hot_replicate_warm_partition_policy, partition_policy
from repro.faults import (
    CORRUPT_SOURCE_BASE,
    DegradedPlatform,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    HealthView,
    degraded_platform,
    reroute_demand,
)
from repro.hardware.platform import HOST, server_a, server_b
from repro.obs import MetricsRegistry, use_registry
from repro.sim.engine import simulate_batch
from repro.sim.event_sim import simulate_factored_event_driven
from repro.sim.mechanisms import GpuDemand

N, D = 2000, 8


class TestFaultSpec:
    def test_active_window(self):
        spec = FaultSpec(FaultKind.GPU_FAILURE, onset=2.0, duration=3.0, gpu=1)
        assert not spec.active_at(1.9)
        assert spec.active_at(2.0)
        assert spec.active_at(4.9)
        assert not spec.active_at(5.0)
        assert spec.clears_at == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.GPU_FAILURE)  # needs a gpu
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_PARTITION)  # needs a link
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_PARTITION, link=(1, 1))
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.HOST_STALL, severity=0.0)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.HOST_STALL, duration=0.0)


class TestFaultPlanHealth:
    def test_empty_plan_is_healthy(self):
        assert FaultPlan().health_at(0.0).healthy

    def test_gpu_failure_flattens(self):
        plan = FaultPlan(
            faults=(FaultSpec(FaultKind.GPU_FAILURE, onset=1.0, duration=2.0, gpu=2),)
        )
        assert plan.health_at(0.5).healthy
        health = plan.health_at(1.5)
        assert not health.gpu_ok(2)
        assert health.link_factor(0, 2) == 0.0
        assert plan.health_at(3.0).healthy

    def test_link_faults_compose_via_min(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(FaultKind.LINK_DEGRADATION, severity=0.5, link=(0, 1)),
                FaultSpec(FaultKind.LINK_DEGRADATION, severity=0.8, link=(1, 0)),
            )
        )
        health = plan.health_at(0.0)
        # Symmetric application; overlapping factors take the minimum.
        assert health.link_factor(0, 1) == pytest.approx(0.2)
        assert health.link_factor(1, 0) == pytest.approx(0.2)
        assert health.link_factor(0, 2) == 1.0

    def test_host_never_fully_partitions(self):
        plan = FaultPlan(faults=(FaultSpec(FaultKind.HOST_STALL, severity=1.0),))
        health = plan.health_at(0.0)
        assert 0 < health.host_factor < 1
        assert health.source_usable(0, HOST)

    def test_downed_gpu_still_reaches_host(self):
        # The replacement worker serves the dead GPU's batch from DRAM.
        plan = FaultPlan(faults=(FaultSpec(FaultKind.GPU_FAILURE, gpu=0),))
        assert plan.health_at(0.0).link_factor(0, HOST) == 1.0

    def test_last_clear_time(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(FaultKind.HOST_STALL, onset=1.0, duration=2.0, severity=0.5),
                FaultSpec(FaultKind.GPU_FAILURE, onset=2.0, duration=5.0, gpu=0),
            )
        )
        assert max(f.clears_at for f in plan.faults) == 7.0


class TestDegradedPlatform:
    def test_healthy_view_is_identity(self):
        platform = server_a()
        assert degraded_platform(platform, HealthView()) is platform

    def test_bandwidth_scales_with_link_factor(self):
        platform = server_a()
        health = HealthView(link_factors=(((0, 1), 0.5),))
        degraded = degraded_platform(platform, health)
        assert degraded.bandwidth(0, 1) == pytest.approx(
            0.5 * platform.bandwidth(0, 1)
        )
        assert degraded.bandwidth(0, 2) == platform.bandwidth(0, 2)
        assert degraded.tolerance(0, 1) <= platform.tolerance(0, 1)

    def test_down_gpu_vanishes_from_sources(self):
        platform = server_a()
        health = HealthView(down_gpus=frozenset({1}))
        degraded = degraded_platform(platform, health)
        assert 1 not in degraded.sources_for(0)
        assert not degraded.is_connected(0, 1)
        assert degraded.cost_per_byte(0, 1) == float("inf")

    def test_delegates_structure(self):
        degraded = DegradedPlatform(server_a(), HealthView(down_gpus=frozenset({1})))
        assert degraded.num_gpus == 4
        assert degraded.gpu.num_cores == server_a().gpu.num_cores

    def test_nested_wrap_unwraps_base(self):
        platform = server_a()
        once = degraded_platform(platform, HealthView(down_gpus=frozenset({1})))
        twice = degraded_platform(once, HealthView(down_gpus=frozenset({2})))
        assert twice is degraded_platform(platform, HealthView(down_gpus=frozenset({2})))
        assert 1 in twice.sources_for(0)  # only the new view applies


class TestRerouteDemand:
    def test_dead_source_volume_moves_to_host(self):
        platform = server_a()
        demand = GpuDemand(dst=0, volumes={0: 100.0, 1: 50.0, HOST: 10.0})
        health = HealthView(down_gpus=frozenset({1}))
        rerouted = reroute_demand(demand, platform, health)
        assert 1 not in rerouted.volumes
        assert rerouted.volumes[HOST] == pytest.approx(60.0)
        assert rerouted.volumes[0] == pytest.approx(100.0)

    def test_downed_dst_loses_local_copies(self):
        platform = server_a()
        demand = GpuDemand(dst=1, volumes={1: 100.0, 0: 20.0})
        health = HealthView(down_gpus=frozenset({1}))
        rerouted = reroute_demand(demand, platform, health)
        assert rerouted.volumes == {HOST: pytest.approx(120.0)}


class TestInjector:
    def test_corrupt_slot_realized_once(self, platform_a, small_table, skewed_hotness):
        placement = partition_policy(skewed_hotness, 200, 4)
        cache = MultiGpuEmbeddingCache(platform_a, small_table, placement)
        plan = FaultPlan(
            faults=(
                FaultSpec(FaultKind.CORRUPT_SLOT, onset=1.0, severity=0.1, gpu=1),
            ),
            seed=3,
        )
        injector = FaultInjector(plan, cache=cache)
        reg = MetricsRegistry("t")
        with use_registry(reg):
            injector.advance(0.0)
            before = cache.source_map.copy()
            assert np.array_equal(cache.source_map, before)
            injector.advance(1.0)
            corrupted = int(np.sum(cache.source_map >= CORRUPT_SOURCE_BASE))
            assert corrupted > 0
            poisoned = cache.source_map.copy()
            injector.advance(1.5)  # one-shot: advancing again changes nothing
            assert np.array_equal(cache.source_map, poisoned)
        assert reg.value("faults.corrupted_slots") == corrupted

    def test_corruption_is_written_under_the_write_lock(
        self, platform_a, small_table, skewed_hotness, monkeypatch
    ):
        """Every poisoned id lands inside one of the cache's writer sections,
        as bit-rot's flips do, and its route reads −1."""
        cache = MultiGpuEmbeddingCache(
            platform_a, small_table, partition_policy(skewed_hotness, 200, 4)
        )
        lock, start = cache._rwlock, cache.source_map.copy()
        inside = np.zeros(start.shape, dtype=bool)
        write_locked = lock.write_locked

        @contextlib.contextmanager
        def recorded():
            with write_locked():
                before = cache.source_map.copy()
                yield
                inside[...] |= before != cache.source_map

        monkeypatch.setattr(lock, "write_locked", recorded)
        plan = FaultPlan(
            faults=(FaultSpec(FaultKind.CORRUPT_SLOT, severity=0.1, gpu=1),), seed=3
        )
        FaultInjector(plan, cache=cache).advance(0.0)
        changed = cache.source_map != start
        assert changed.any() and not (changed & ~inside).any()
        assert (cache.routes[changed] == -1).all()
        assert not [p for p in cache.verify_integrity() if "route map" in p]

    def test_corruption_is_deterministic(self, platform_a, small_table, skewed_hotness):
        placement = partition_policy(skewed_hotness, 200, 4)
        maps = []
        for _ in range(2):
            cache = MultiGpuEmbeddingCache(platform_a, small_table, placement)
            plan = FaultPlan(
                faults=(
                    FaultSpec(FaultKind.CORRUPT_SLOT, severity=0.1, gpu=2, seed=5),
                ),
                seed=9,
            )
            FaultInjector(plan, cache=cache).advance(0.0)
            maps.append(cache.source_map.copy())
        assert np.array_equal(maps[0], maps[1])


class TestSimulatorsUnderFaults:
    def test_simulate_batch_prices_gpu_failure(self):
        platform = server_a()
        demands = [
            GpuDemand(dst=i, volumes={i: 1e6, (i + 1) % 4: 5e5}) for i in range(4)
        ]
        plan = FaultPlan(faults=(FaultSpec(FaultKind.GPU_FAILURE, gpu=1),))
        healthy = simulate_batch(platform, demands)
        faulted = simulate_batch(platform, demands, health=plan.health_at(0.0))
        assert faulted.time > healthy.time  # host path is slower
        cleared_at = max(f.clears_at for f in plan.faults)
        cleared = simulate_batch(platform, demands, health=plan.health_at(cleared_at))
        assert cleared.time == pytest.approx(healthy.time)

    def test_event_sim_accepts_fault_plan(self):
        from repro.core.pipeline import apply_health

        platform = server_a()
        demand = GpuDemand(dst=0, volumes={0: 2e6, 1: 1e6})
        plan = FaultPlan(
            faults=(FaultSpec(FaultKind.LINK_PARTITION, link=(0, 1)),)
        )
        healthy = simulate_factored_event_driven(platform, demand)
        degraded, (rerouted,), _ = apply_health(platform, [demand], plan.health_at(0.0))
        faulted = simulate_factored_event_driven(degraded, rerouted)
        assert faulted.total_time > healthy.total_time

    def test_unconnected_pair_still_rejected_when_healthy(self):
        platform = server_b()  # DGX-1: (0, 5) not NVLink-connected
        bad = GpuDemand(dst=0, volumes={5: 1e6})
        with pytest.raises(ValueError):
            simulate_batch(platform, [bad])

    def test_unconnected_read_is_rejected_from_a_warm_memo(self):
        """The readable sources per destination are remembered; the error,
        and what passes, stay as they were."""
        platform = server_b()
        fine = GpuDemand(dst=0, volumes={0: 1e6, 1: 1e6, HOST: 1e6, 5: 0.0})
        for _ in range(2):  # cold memo, then warm
            simulate_batch(platform, [fine])
            with pytest.raises(
                ValueError, match="^GPU 0 cannot extract from unconnected GPU 5$"
            ):
                simulate_batch(platform, [GpuDemand(dst=0, volumes={5: 1e6})])
        assert ("readable", 0) in platform.memo


@pytest.mark.faults
class TestDegradedExtractionAcceptance:
    """ISSUE acceptance: GPU failure mid-run, the batch loop completes."""

    def test_gpu_failure_midrun_reroutes_and_recovers(self, rng):
        platform = server_a()
        table = rng.standard_normal((N, D)).astype(np.float32)
        hotness = np.sort(rng.pareto(1.2, N) + 1e-6)[::-1]
        placement = hot_replicate_warm_partition_policy(hotness, 300, 4, 0.5)
        cache = MultiGpuEmbeddingCache(platform, table, placement)
        plan = FaultPlan(
            faults=(FaultSpec(FaultKind.GPU_FAILURE, onset=3.0, duration=4.0, gpu=1),)
        )
        injector = FaultInjector(plan, cache=cache)
        extractor = FactoredExtractor(cache)

        reg = MetricsRegistry("t")
        times = []
        with use_registry(reg):
            for t in range(10):
                health = injector.advance(float(t))
                keys = [rng.integers(0, N, size=256) for _ in range(4)]
                # No exception escapes the extractor during the outage.
                values, report = extractor.extract(keys, health=health)
                for got, want in zip(values, keys):
                    assert np.array_equal(got, table[want])
                times.append(report.time)

        rerouted = sum(
            s.value
            for s in reg.series()
            if s.kind == "counter" and s.name == "faults.rerouted_keys"
        )
        assert rerouted > 0
        # Degraded while down, recovered after the fault clears.
        baseline = np.mean(times[:3])
        during = np.mean(times[3:7])
        after = np.mean(times[7:])
        assert during > baseline
        assert after == pytest.approx(baseline, rel=0.05)

    def test_corrupt_slots_reroute_to_host(self, rng):
        platform = server_a()
        table = rng.standard_normal((N, D)).astype(np.float32)
        hotness = np.sort(rng.pareto(1.2, N) + 1e-6)[::-1]
        placement = partition_policy(hotness, 300, 4)
        cache = MultiGpuEmbeddingCache(platform, table, placement)
        plan = FaultPlan(
            faults=(FaultSpec(FaultKind.CORRUPT_SLOT, severity=0.2, gpu=2),)
        )
        injector = FaultInjector(plan, cache=cache)
        extractor = FactoredExtractor(cache)
        reg = MetricsRegistry("t")
        with use_registry(reg):
            health = injector.advance(0.0)
            keys = [np.arange(N // 2) for _ in range(4)]
            values, _ = extractor.extract(keys, health=health)
            for got, want in zip(values, keys):
                assert np.array_equal(got, table[want])
            assert reg.value("faults.corrupt_reads") > 0


class TestDegradedPlatformPassthrough:
    """Every public attribute of the wrapped platform stays reachable."""

    #: behaviour DegradedPlatform intentionally overrides (fault-scaled).
    OVERRIDDEN = {
        "bandwidth",
        "peak_pair_bandwidth",
        "tolerance",
        "cost_per_byte",
        "is_connected",
        "sources_for",
    }

    @pytest.mark.parametrize("factory", [server_a, server_b])
    def test_every_public_attribute_resolves(self, factory):
        base = factory()
        degraded = DegradedPlatform(base, HealthView(down_gpus=frozenset({1})))
        public = [n for n in dir(base) if not n.startswith("_")]
        assert public, "platform should expose a public surface"
        for name in public:
            got = getattr(degraded, name)  # must never raise
            if name in self.OVERRIDDEN:
                continue
            want = getattr(base, name)
            if callable(want):
                # delegated bound methods are the base's own
                assert got == want, name
            else:
                assert got is want or got == want, name

    def test_wrapper_extras_do_not_shadow(self):
        base = server_a()
        degraded = DegradedPlatform(base, HealthView(host_factor=0.5))
        assert degraded.memo == {} and degraded.memo is not base.memo
        # a delegated method is actually usable, not just resolvable
        assert degraded.sources_for(0)
        assert degraded.gpu_ids == base.gpu_ids

    def test_unknown_attribute_still_raises(self):
        degraded = DegradedPlatform(server_a(), HealthView(host_factor=0.5))
        with pytest.raises(AttributeError):
            degraded.no_such_attribute
