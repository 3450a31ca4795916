"""Batch simulation engine and reports."""

import pytest

from repro.hardware.platform import HOST
from repro.sim.engine import BatchReport, readers_per_source, simulate_batch
from repro.sim.mechanisms import GpuDemand, Mechanism


def _partition_demands(platform, local=10e6, remote_each=2e6, host=1e6):
    demands = []
    for dst in platform.gpu_ids:
        vols = {dst: local, HOST: host}
        for src in platform.topology.peers(dst):
            vols[src] = remote_each
        demands.append(GpuDemand(dst=dst, volumes=vols))
    return demands


class TestSimulateBatch:
    def test_batch_time_is_max_over_gpus(self, platform_a):
        demands = _partition_demands(platform_a)
        report = simulate_batch(platform_a, demands, Mechanism.FACTORED)
        assert report.time == max(r.time for r in report.per_gpu)

    def test_all_mechanisms_run(self, platform_c):
        demands = _partition_demands(platform_c)
        for mech in Mechanism:
            report = simulate_batch(platform_c, demands, mech)
            assert report.time > 0
            assert report.mechanism is mech

    def test_factored_beats_naive(self, platform_a):
        demands = _partition_demands(platform_a, host=10e6)
        fem = simulate_batch(platform_a, demands, Mechanism.FACTORED)
        naive = simulate_batch(platform_a, demands, Mechanism.PEER_NAIVE)
        assert fem.time < naive.time

    def test_factored_beats_message(self, platform_c):
        demands = _partition_demands(platform_c)
        fem = simulate_batch(platform_c, demands, Mechanism.FACTORED)
        msg = simulate_batch(platform_c, demands, Mechanism.MESSAGE)
        assert fem.time < msg.time

    def test_rejects_unconnected_demand(self, platform_b):
        demands = [GpuDemand(dst=0, volumes={5: 1.0})]
        with pytest.raises(ValueError):
            simulate_batch(platform_b, demands, Mechanism.FACTORED)

    def test_empty_demands(self, platform_a):
        report = simulate_batch(platform_a, [], Mechanism.FACTORED)
        assert report.time == 0.0


class TestBatchReport:
    def _report(self, platform):
        return simulate_batch(platform, _partition_demands(platform), Mechanism.FACTORED)

    def test_access_split_sums_to_one(self, platform_a):
        split = self._report(platform_a).access_split()
        assert sum(split.values()) == pytest.approx(1.0)

    def test_volume_split_matches_demands(self, platform_a):
        report = self._report(platform_a)
        split = report.volume_split()
        assert split["local"] == pytest.approx(4 * 10e6)
        assert split["remote"] == pytest.approx(4 * 3 * 2e6)
        assert split["host"] == pytest.approx(4 * 1e6)

    def test_total_volume(self, platform_a):
        report = self._report(platform_a)
        assert report.total_volume() == pytest.approx(sum(report.volume_split().values()))

    def test_time_split_keys(self, platform_a):
        split = self._report(platform_a).time_split()
        assert set(split) == {"local", "remote", "host"}
        assert all(v >= 0 for v in split.values())

    def test_mean_gpu_time_le_batch_time(self, platform_a):
        report = self._report(platform_a)
        assert sum(r.time for r in report.per_gpu) / len(report.per_gpu) <= report.time

    def test_empty_report(self):
        report = BatchReport(mechanism=Mechanism.FACTORED, per_gpu=[])
        assert report.time == 0.0
        assert report.access_split() == {"local": 0.0, "remote": 0.0, "host": 0.0}


class TestReadersPerSource:
    def test_counts_remote_readers(self, platform_c):
        demands = _partition_demands(platform_c)
        readers = readers_per_source(demands)
        # Every GPU is read by the 7 others.
        assert all(readers[g] == 7 for g in platform_c.gpu_ids)

    def test_ignores_local_and_host(self, platform_a):
        demands = [GpuDemand(dst=0, volumes={0: 1.0, HOST: 1.0})]
        assert readers_per_source(demands) == {}

    def test_ignores_zero_volume(self, platform_a):
        demands = [GpuDemand(dst=0, volumes={1: 0.0})]
        assert readers_per_source(demands) == {}
