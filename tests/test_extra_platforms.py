"""Out-of-paper platforms: DGX-2 and PCIe-only boxes."""

import pytest

from repro.core.evaluate import evaluate_placement, hit_rates
from repro.core.policy import replication_policy
from repro.core.solver import SolverConfig, solve_policy
from repro.hardware.platform import HOST, dgx2, pcie_only
from repro.sim.mechanisms import Mechanism
from repro.utils.stats import zipf_pmf

FAST = SolverConfig(coarse_block_frac=0.05)


class TestDgx2:
    def test_shape(self):
        platform = dgx2()
        assert platform.num_gpus == 16
        assert platform.gpu.name == "V100-32GB"

    def test_fair_share_is_thin(self):
        platform = dgx2()
        # 150 GB/s outbound / 15 readers = 10 GB/s — thinner than PCIe.
        assert platform.bandwidth(0, 1) == pytest.approx(10e9)
        assert platform.bandwidth(0, 1) < platform.pcie_bandwidth

    def test_all_pairs_reachable(self):
        platform = dgx2()
        assert len(platform.sources_for(0)) == 1 + 15 + 1

    def test_solver_handles_16_gpus(self):
        platform = dgx2()
        hot = zipf_pmf(1000, 1.2) * 10_000
        solved = solve_policy(platform, hot, 60, 512, FAST)
        placement = solved.realize()
        placement.validate_capacity(60)
        # Thin remote shares push the solver to replicate heavily.
        assert placement.replication_factor() > 2.0


class TestPcieOnly:
    def test_only_local_and_host(self):
        platform = pcie_only()
        assert platform.sources_for(2) == [2, HOST]

    def test_remote_unreachable(self):
        platform = pcie_only()
        assert platform.bandwidth(0, 1) == 0.0
        assert platform.cost_per_byte(0, 1) == float("inf")
        assert not platform.is_connected(0, 1)

    def test_solver_degenerates_to_replication(self):
        platform = pcie_only()
        hot = zipf_pmf(1000, 1.2) * 10_000
        solved = solve_policy(platform, hot, 100, 512, FAST)
        placement = solved.realize()
        # Nothing to partition for: every GPU caches (almost) the same
        # hottest entries.
        assert placement.replication_factor() > 3.5
        rep = replication_policy(hot, 100, 4)
        ug_time = evaluate_placement(
            platform, placement, hot, 512, Mechanism.FACTORED
        ).time
        rep_time = evaluate_placement(
            platform, rep, hot, 512, Mechanism.FACTORED
        ).time
        assert ug_time == pytest.approx(rep_time, rel=0.05)

    def test_no_remote_hits_ever(self):
        platform = pcie_only()
        hot = zipf_pmf(500, 1.0) * 1000
        solved = solve_policy(platform, hot, 50, 512, FAST).realize()
        hits = hit_rates(platform, solved, hot)
        assert hits.remote == 0.0

    def test_gpu_count_configurable(self):
        platform = pcie_only(num_gpus=2)
        assert platform.num_gpus == 2
