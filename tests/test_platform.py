"""Platform model: bandwidths, tolerances, cost coefficients, presets."""

import pytest

from repro.hardware.platform import HOST


class TestPresets:
    def test_server_a_shape(self, platform_a):
        assert platform_a.num_gpus == 4
        assert platform_a.gpu.name == "V100-16GB"

    def test_server_b_shape(self, platform_b):
        assert platform_b.num_gpus == 8
        assert platform_b.gpu.name == "V100-32GB"

    def test_server_c_shape(self, platform_c):
        assert platform_c.num_gpus == 8
        assert platform_c.gpu.name == "A100-80GB"

    def test_single_gpu_sources(self, platform_1gpu):
        assert platform_1gpu.num_gpus == 1
        assert platform_1gpu.sources_for(0) == [0, HOST]


class TestBandwidth:
    def test_local_is_fastest(self, any_platform):
        local = any_platform.bandwidth(0, 0)
        for src in any_platform.sources_for(0):
            assert local >= any_platform.bandwidth(0, src)

    def test_host_is_pcie(self, platform_a):
        assert platform_a.bandwidth(0, HOST) == platform_a.pcie_bandwidth

    def test_hardwired_pair(self, platform_a):
        assert platform_a.bandwidth(0, 1) == pytest.approx(50e9)

    def test_switch_fair_share(self, platform_c):
        # 300 GB/s outbound shared among 7 potential readers.
        assert platform_c.bandwidth(0, 1) == pytest.approx(300e9 / 7)

    def test_switch_peak_pair_is_full_outbound(self, platform_c):
        assert platform_c.peak_pair_bandwidth(0, 1) == pytest.approx(300e9)

    def test_unconnected_pair_zero(self, platform_b):
        assert platform_b.bandwidth(0, 5) == 0.0

    def test_pcie_slower_than_nvlink(self, any_platform):
        remote = [s for s in any_platform.sources_for(0) if s not in (0, HOST)]
        for src in remote:
            assert any_platform.bandwidth(0, src) > any_platform.pcie_bandwidth


class TestSources:
    def test_dgx1_excludes_unconnected(self, platform_b):
        sources = platform_b.sources_for(0)
        assert 5 not in sources and 6 not in sources and 7 not in sources
        assert sources[0] == 0 and sources[-1] == HOST

    def test_switch_includes_all_peers(self, platform_c):
        assert len(platform_c.sources_for(3)) == 1 + 7 + 1

    def test_rejects_bad_gpu_id(self, platform_a):
        with pytest.raises(ValueError):
            platform_a.sources_for(4)


class TestTolerance:
    def test_local_tolerates_all_cores(self, any_platform):
        assert any_platform.tolerance(0, 0) == any_platform.gpu.num_cores

    def test_host_tolerates_few_cores(self, any_platform):
        # Figure 6: host extraction saturates below 10% of SMs.
        assert any_platform.tolerance(0, HOST) <= any_platform.gpu.num_cores * 0.1

    def test_remote_between_host_and_local(self, platform_a):
        host = platform_a.tolerance(0, HOST)
        remote = platform_a.tolerance(0, 1)
        local = platform_a.tolerance(0, 0)
        assert host < remote < local

    def test_unconnected_zero(self, platform_b):
        assert platform_b.tolerance(0, 5) == 0


class TestCostPerByte:
    def test_reciprocal_of_bandwidth(self, platform_a):
        assert platform_a.cost_per_byte(0, 1) == pytest.approx(1.0 / 50e9)

    def test_unconnected_infinite(self, platform_b):
        assert platform_b.cost_per_byte(0, 5) == float("inf")

    def test_host_cheapest_never(self, any_platform):
        # Host must never be cheaper than any connected source.
        for src in any_platform.sources_for(0):
            assert any_platform.cost_per_byte(0, HOST) >= any_platform.cost_per_byte(
                0, src
            ) or src == HOST
