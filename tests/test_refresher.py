"""Background cache Refresher (§7.2) — functional and timeline."""

import numpy as np
import pytest

from repro.core import refresher as refresher_module
from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.policy import partition_policy, replication_policy
from repro.core.refresher import (
    RefreshConfig,
    Refresher,
    simulate_refresh_timeline,
)

N, D = 2000, 8


@pytest.fixture
def cache(platform_a, small_table, skewed_hotness):
    placement = replication_policy(skewed_hotness, 200, 4)
    return MultiGpuEmbeddingCache(platform_a, small_table, placement)


class TestRefreshTrigger:
    def test_triggers_on_improvement(self, cache):
        refresher = Refresher(cache)
        assert refresher.should_refresh(current_time=1.0, candidate_time=0.5)

    def test_skips_marginal_improvement(self, cache):
        refresher = Refresher(cache)
        assert not refresher.should_refresh(current_time=1.0, candidate_time=0.99)

    def test_skips_zero_candidate(self, cache):
        refresher = Refresher(cache)
        assert not refresher.should_refresh(1.0, 0.0)


class TestFunctionalRefresh:
    def test_refresh_to_new_placement(self, cache, small_table, skewed_hotness, rng):
        refresher = Refresher(cache, RefreshConfig(update_batch_entries=64))
        new_placement = partition_policy(skewed_hotness, 200, 4)
        outcome = refresher.refresh(new_placement)
        assert outcome.triggered
        assert outcome.entries_moved > 0
        # Lookups are exact after the refresh.
        keys = rng.integers(0, N, size=500)
        for gpu in range(4):
            assert np.array_equal(cache.lookup(gpu, keys).values, small_table[keys])
        assert cache.placement.replication_factor() == pytest.approx(1.0)

    def test_noop_refresh(self, cache):
        refresher = Refresher(cache)
        outcome = refresher.refresh(cache.placement)
        assert not outcome.triggered
        assert outcome.entries_moved == 0

    def test_lookups_correct_at_every_step(
        self, cache, small_table, skewed_hotness, rng
    ):
        """§7.2's consistency: no lookup may see a dangling slot mid-refresh."""
        refresher = Refresher(cache, RefreshConfig(update_batch_entries=32))
        new_placement = partition_policy(skewed_hotness, 200, 4)
        keys = rng.integers(0, N, size=200)
        steps = 0
        for _outcome in refresher.refresh_steps(new_placement):
            for gpu in range(4):
                result = cache.lookup(gpu, keys)
                assert np.array_equal(result.values, small_table[keys])
            steps += 1
        assert steps > 2  # actually exercised interleaving

    def test_lookups_correct_at_every_step_on_a_tier_chain(
        self, platform_a, small_table, skewed_hotness, rng
    ):
        """An entry evicted mid-refresh falls back to the tier it is homed
        on — it used to be routed to host DRAM wherever it lived, and the
        gather of an SSD-homed row from DRAM raised."""
        from repro.hardware.platform import MemoryTier, gbps, with_tiers

        row = small_table[0].nbytes
        tiered = with_tiers(platform_a, (
            MemoryTier("dram", 300 * row, gbps(16)),
            MemoryTier("ssd", N * row, gbps(6), 100e-6),
        ))
        cache = MultiGpuEmbeddingCache(
            tiered, small_table, replication_policy(skewed_hotness, 200, 4),
            tier_hotness=skewed_hotness[::-1].copy(),  # the cached head is SSD-homed
        )
        keys = rng.integers(0, N, size=400)
        refresher = Refresher(cache, RefreshConfig(update_batch_entries=32))
        for _outcome in refresher.refresh_steps(partition_policy(skewed_hotness, 200, 4)):
            for gpu in range(4):
                assert np.array_equal(cache.lookup(gpu, keys).values, small_table[keys])
        cache.check_integrity()

    def test_capacity_never_exceeded_mid_refresh(
        self, cache, skewed_hotness
    ):
        refresher = Refresher(cache, RefreshConfig(update_batch_entries=16))
        new_placement = partition_policy(skewed_hotness, 200, 4)
        for _ in refresher.refresh_steps(new_placement):
            for gpu in range(4):
                assert cache.store(gpu).arena.used_slots <= 200

    def test_refresh_estimated_duration(self, cache, skewed_hotness, monkeypatch):
        monkeypatch.setattr(refresher_module, "ENTRIES_PER_SECOND", 1000.0)
        refresher = Refresher(cache)
        outcome = refresher.refresh(partition_policy(skewed_hotness, 200, 4))
        expected = 10.0 + outcome.entries_moved / 1000.0
        assert outcome.estimated_duration == pytest.approx(expected)


class TestRefreshConfigValidation:
    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            RefreshConfig(update_batch_entries=0)

    # The model's other numbers are module constants: the config takes
    # none of them, and each sits in the range its check used to enforce.
    def test_rejects_bad_impact(self):
        with pytest.raises(TypeError):
            RefreshConfig(foreground_impact=1.0)
        assert 0 <= refresher_module.FOREGROUND_IMPACT < 1

    def test_rejects_bad_trigger(self):
        with pytest.raises(TypeError):
            RefreshConfig(trigger_ratio=0.9)
        assert refresher_module.TRIGGER_RATIO >= 1

    def test_rejects_bad_throughput(self):
        with pytest.raises(TypeError):
            RefreshConfig(entries_per_second=0)
        assert refresher_module.ENTRIES_PER_SECOND > 0


class TestTimeline:
    def test_latency_elevated_only_inside_windows(self):
        timeline = simulate_refresh_timeline(
            baseline_latency=2e-3,
            total_duration=200.0,
            refresh_starts=(40.0, 150.0),
            entries_to_move=1_000_000,
        )
        assert len(timeline.refresh_windows) == 2
        before = timeline.mean_latency(0, 39)
        during = timeline.mean_latency(41, 45)
        after = timeline.mean_latency(70, 100)
        assert before == pytest.approx(2e-3)
        assert during == pytest.approx(2.2e-3)
        assert after == pytest.approx(2e-3)

    def test_impact_bounded_at_config(self, monkeypatch):
        monkeypatch.setattr(refresher_module, "FOREGROUND_IMPACT", 0.08)
        timeline = simulate_refresh_timeline(2e-3, 100.0, (10.0,), 500_000)
        assert timeline.latencies.max() <= 2e-3 * 1.08 + 1e-12

    def test_window_duration_scales_with_entries(self, monkeypatch):
        monkeypatch.setattr(refresher_module, "SOLVE_SECONDS", 5.0)
        monkeypatch.setattr(refresher_module, "ENTRIES_PER_SECOND", 100_000)
        t = simulate_refresh_timeline(1e-3, 100.0, (0.0,), 1_000_000)
        start, stop = t.refresh_windows[0]
        assert stop - start == pytest.approx(5.0 + 10.0)

    def test_window_clamped_to_duration(self):
        t = simulate_refresh_timeline(1e-3, 50.0, (45.0,), 10_000_000)
        assert t.refresh_windows[0][1] == 50.0


class TestTriggerEdgeCases:
    """Satellite coverage: worse candidates and degenerate hotness."""

    def test_worse_solve_does_not_trigger(self, cache):
        refresher = Refresher(cache)
        # The fresh solve came back *worse* than what is deployed.
        assert not refresher.should_refresh(current_time=1.0, candidate_time=1.4)

    def test_equal_solve_does_not_trigger(self, cache):
        refresher = Refresher(cache)
        assert not refresher.should_refresh(current_time=1.0, candidate_time=1.0)

    def test_all_zero_hotness_refresh_is_safe(self, cache, small_table, rng):
        from repro.core.policy import hot_replicate_warm_partition_policy

        hotness = np.zeros(N)
        new_placement = hot_replicate_warm_partition_policy(hotness, 200, 4, 0.5)
        outcome = Refresher(cache, RefreshConfig(update_batch_entries=64)).refresh(
            new_placement
        )
        assert outcome.triggered
        keys = rng.integers(0, N, size=300)
        for gpu in range(4):
            assert np.array_equal(cache.lookup(gpu, keys).values, small_table[keys])
        cache.check_integrity()


def _fail_step(monkeypatch, at):
    """Make the ``at``-th ``apply_diff_step`` call raise, after ``at - 1``
    refresh steps have landed."""
    real_apply = refresher_module.apply_diff_step
    calls = {"n": 0}

    def apply(store, table, evict, insert):
        calls["n"] += 1
        if calls["n"] == at:
            raise RuntimeError(f"refresh step {at} failed")
        real_apply(store, table, evict, insert)

    monkeypatch.setattr(refresher_module, "apply_diff_step", apply)


class TestTransactionalRollback:
    """A refresh step that raises leaves the cache bit-identical."""

    def _snapshot(self, cache, rng):
        probe = rng.integers(0, N, size=300)
        return (
            cache.source_map.copy(),
            probe,
            [cache.lookup(g, probe).values.copy() for g in range(4)],
        )

    def test_interrupt_rolls_back_bit_identical(
        self, cache, skewed_hotness, rng, monkeypatch
    ):
        from repro.obs import MetricsRegistry, use_registry

        pre_map, probe, pre_values = self._snapshot(cache, rng)
        refresher = Refresher(cache, RefreshConfig(update_batch_entries=32))
        _fail_step(monkeypatch, at=5)  # four steps land first

        reg = MetricsRegistry("t")
        with use_registry(reg):
            with pytest.raises(RuntimeError, match="step 5 failed"):
                for _ in refresher.refresh_steps(partition_policy(skewed_hotness, 200, 4)):
                    pass
        monkeypatch.undo()
        # The observable cache state is exactly the pre-refresh state.
        assert np.array_equal(cache.source_map, pre_map)
        for gpu in range(4):
            assert np.array_equal(cache.lookup(gpu, probe).values, pre_values[gpu])
        cache.check_integrity()
        assert reg.value("refresher.rollbacks") == 1

    def test_midstep_exception_rolls_back_and_propagates(
        self, cache, skewed_hotness, rng, monkeypatch
    ):
        pre_map, probe, pre_values = self._snapshot(cache, rng)
        _fail_step(monkeypatch, at=3)
        refresher = Refresher(cache, RefreshConfig(update_batch_entries=32))
        with pytest.raises(RuntimeError, match="step 3 failed"):
            refresher.refresh(partition_policy(skewed_hotness, 200, 4))
        monkeypatch.undo()
        assert np.array_equal(cache.source_map, pre_map)
        for gpu in range(4):
            assert np.array_equal(cache.lookup(gpu, probe).values, pre_values[gpu])
        cache.check_integrity()

    def test_interrupted_refresh_can_be_retried(
        self, cache, skewed_hotness, monkeypatch
    ):
        refresher = Refresher(cache, RefreshConfig(update_batch_entries=32))
        target = partition_policy(skewed_hotness, 200, 4)
        _fail_step(monkeypatch, at=3)
        with pytest.raises(RuntimeError):
            refresher.refresh(target)
        monkeypatch.undo()
        second = refresher.refresh(target)
        assert second.triggered and second.entries_moved > 0
        assert cache.placement.replication_factor() == pytest.approx(1.0)


class TestDoubleFaultRollback:
    """A failure raised *during rollback* must still restore the cache.

    The undo-log replay is itself made of ``apply_diff_step`` calls; if
    one of those dies (the double fault), the refresher abandons the
    replay and rebuilds the stores wholesale from the host table — the
    location state is restored and integrity verified either way.
    """

    def test_midstep_crash_with_poisoned_rollback(
        self, cache, skewed_hotness, rng, monkeypatch
    ):
        """A step raises, and so does every replay of the undo log."""
        from repro.obs import MetricsRegistry, use_registry

        pre_map = cache.source_map.copy()
        probe = rng.integers(0, N, size=300)
        pre_values = [cache.lookup(g, probe).values.copy() for g in range(4)]

        real_apply = refresher_module.apply_diff_step
        calls = {"n": 0}

        def dying_apply(store, table, evict, insert):
            calls["n"] += 1
            if calls["n"] >= 3:  # 3rd forward step and every replay after
                raise RuntimeError("simulated cascading crash")
            real_apply(store, table, evict, insert)

        monkeypatch.setattr(refresher_module, "apply_diff_step", dying_apply)
        refresher = Refresher(cache, RefreshConfig(update_batch_entries=32))
        reg = MetricsRegistry("t")
        with use_registry(reg), pytest.raises(RuntimeError, match="cascading"):
            refresher.refresh(partition_policy(skewed_hotness, 200, 4))
        monkeypatch.undo()

        # despite the rollback replay dying, location state is restored...
        assert np.array_equal(cache.source_map, pre_map)
        # ...every lookup is bit-identical to the pre-refresh state...
        for gpu in range(4):
            assert np.array_equal(cache.lookup(gpu, probe).values, pre_values[gpu])
        # ...and integrity verification passes.
        assert cache.verify_integrity() == []
        assert reg.value("refresher.rollback.double_faults") == 1
