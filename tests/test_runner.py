"""Workload replay runner."""

import numpy as np
import pytest

from repro.bench.runner import ReplayStats, replay_workload
from repro.core.policy import partition_policy
from repro.sim.mechanisms import Mechanism
from repro.utils.stats import zipf_pmf

N, D = 2000, 8


def _batches(rng, probs, num_gpus=4, batch=200):
    while True:
        yield [rng.choice(N, size=batch, p=probs) for _ in range(num_gpus)]


@pytest.fixture
def probs():
    return zipf_pmf(N, 1.2)


@pytest.fixture
def placement(probs):
    return partition_policy(probs * 1000, 200, 4)


class TestReplayWorkload:
    def test_iteration_cap(self, platform_a, placement, probs, rng):
        stats = replay_workload(
            platform_a, placement, _batches(rng, probs), 32, max_iterations=5
        )
        assert stats.iterations == 5
        assert len(stats.times) == 5

    def test_fractions_sum_to_one(self, platform_a, placement, probs, rng):
        stats = replay_workload(
            platform_a, placement, _batches(rng, probs), 32, max_iterations=3
        )
        total = stats.local_fraction + stats.remote_fraction + stats.host_fraction
        assert total == pytest.approx(1.0)

    def test_percentiles_ordered(self, platform_a, placement, probs, rng):
        stats = replay_workload(
            platform_a, placement, _batches(rng, probs), 32, max_iterations=10
        )
        assert np.percentile(stats.times, 50) <= stats.p99_time
        assert stats.times.min() <= stats.mean_time <= stats.times.max()

    def test_mechanism_affects_replay(self, platform_a, placement, probs, rng):
        fem = replay_workload(
            platform_a, placement, _batches(np.random.default_rng(0), probs), 32,
            Mechanism.FACTORED, max_iterations=4,
        )
        naive = replay_workload(
            platform_a, placement, _batches(np.random.default_rng(0), probs), 32,
            Mechanism.PEER_NAIVE, max_iterations=4,
        )
        assert naive.mean_time > fem.mean_time

    def test_finite_stream(self, platform_a, placement, probs, rng):
        finite = [next(_batches(rng, probs)) for _ in range(3)]
        stats = replay_workload(platform_a, placement, finite, 32)
        assert stats.iterations == 3

    def test_empty_stream(self, platform_a, placement):
        stats = replay_workload(platform_a, placement, [], 32)
        assert stats.iterations == 0
        assert stats.mean_time == 0.0


class TestReplayStats:
    def test_empty_stats(self):
        stats = ReplayStats(
            iterations=0, times=np.array([]), local_fraction=0,
            remote_fraction=0, host_fraction=0,
        )
        assert stats.mean_time == 0.0
        assert stats.p99_time == 0.0
