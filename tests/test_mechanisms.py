"""Extraction mechanism timing models (§3.2 / §5.3)."""

import pytest

from repro.hardware.platform import HOST
from repro.sim.mechanisms import (
    GpuDemand,
    Mechanism,
    core_dedication,
    factored_extraction,
    message_extraction,
    naive_peer_extraction,
)


def _demand(dst, **volumes):
    vols = {}
    for key, val in volumes.items():
        src = HOST if key == "host" else int(key.lstrip("g"))
        vols[src] = val
    return GpuDemand(dst=dst, volumes=vols)


class TestGpuDemand:
    def test_total_bytes(self):
        d = _demand(0, g0=10.0, host=5.0)
        assert d.total_bytes == 15.0

    def test_rejects_negative_volume(self):
        with pytest.raises(ValueError):
            GpuDemand(dst=0, volumes={0: -1.0})


class TestCoreDedication:
    def test_host_gets_few_cores(self, platform_c):
        ded = core_dedication(platform_c, 0, [0, 1, HOST])
        assert 1 <= ded[HOST] <= platform_c.gpu.num_cores // 4

    def test_switch_equal_split(self, platform_c):
        ded = core_dedication(platform_c, 0, [0, 1, 2, 3, HOST])
        assert ded[1] == ded[2] == ded[3]

    def test_switch_split_is_per_peer_count(self, platform_c):
        # Claims stay at outbound/(N-1) even with few active sources.
        ded = core_dedication(platform_c, 0, [0, 1, HOST])
        expected = (platform_c.gpu.num_cores - ded[HOST]) // 7
        assert ded[1] == expected

    def test_hardwired_proportional_to_bandwidth(self, platform_b):
        # GPU0's peers: 3 (2 lanes), 4 (2 lanes), 1 (1 lane), 2 (1 lane).
        ded = core_dedication(platform_b, 0, [0, 1, 2, 3, 4, HOST])
        assert ded[3] > ded[1]
        assert ded[3] == pytest.approx(2 * ded[1], abs=2)

    def test_total_never_exceeds_cores(self, any_platform):
        sources = any_platform.sources_for(0)
        ded = core_dedication(any_platform, 0, sources)
        assert sum(ded.values()) <= any_platform.gpu.num_cores

    def test_local_not_in_dedication(self, platform_a):
        ded = core_dedication(platform_a, 0, [0, 1, HOST])
        assert 0 not in ded


class TestFactoredExtraction:
    def test_local_only_time(self, platform_c):
        vol = 65e6
        report = factored_extraction(platform_c, _demand(0, g0=vol))
        assert report.time == pytest.approx(vol / platform_c.gpu.local_bandwidth)

    def test_host_only_time(self, platform_a):
        vol = 16e6
        report = factored_extraction(platform_a, _demand(0, host=vol))
        # Dedicated host cores run the link at (close to) PCIe speed.
        assert report.time == pytest.approx(vol / platform_a.pcie_bandwidth, rel=0.3)

    def test_remote_runs_at_link_bandwidth(self, platform_a):
        vol = 50e6
        report = factored_extraction(platform_a, _demand(0, g1=vol))
        assert report.time == pytest.approx(vol / 50e9, rel=0.3)

    def test_padding_hides_local_work(self, platform_c):
        # Local work that fits in the ragged time is free with padding.
        remote_only = factored_extraction(platform_c, _demand(0, g1=40e6))
        with_local = factored_extraction(platform_c, _demand(0, g1=40e6, g0=1e6))
        assert with_local.time == pytest.approx(remote_only.time, rel=0.05)

    def test_no_padding_serializes_local(self, platform_c):
        padded = factored_extraction(platform_c, _demand(0, g1=40e6, g0=30e6))
        serial = factored_extraction(
            platform_c, _demand(0, g1=40e6, g0=30e6), local_padding=False
        )
        assert serial.time > padded.time

    def test_parallel_groups_beat_serial_sum(self, platform_a):
        d = _demand(0, g1=20e6, g2=20e6, g3=20e6)
        report = factored_extraction(platform_a, d)
        serial = sum(20e6 / 50e9 for _ in range(3))
        assert report.time < serial

    def test_work_conservation_bound(self, platform_c):
        # Enough local volume forces the work-conservation term.
        d = _demand(0, g0=650e6, g1=1e6)
        report = factored_extraction(platform_c, d)
        local_floor = 650e6 / platform_c.gpu.local_bandwidth
        assert report.time >= local_floor

    def test_mechanism_tag(self, platform_a):
        assert (
            factored_extraction(platform_a, _demand(0, g0=1.0)).mechanism
            is Mechanism.FACTORED
        )


class TestNaivePeer:
    def test_matches_factored_on_pure_local(self, platform_c):
        d = _demand(0, g0=65e6)
        naive = naive_peer_extraction(platform_c, d)
        fem = factored_extraction(platform_c, d)
        assert naive.time == pytest.approx(fem.time, rel=0.01)

    def test_slower_than_factored_under_congestion(self, platform_a):
        # Host + local mix: random dispatch stalls cores on PCIe.
        d = _demand(0, g0=50e6, g1=30e6, host=20e6)
        naive = naive_peer_extraction(platform_a, d)
        fem = factored_extraction(platform_a, d)
        assert naive.time > fem.time

    def test_congestion_loss_bounded_at_2x_per_link(self, platform_a):
        d = _demand(0, host=16e6)
        naive = naive_peer_extraction(platform_a, d)
        floor = 16e6 / platform_a.pcie_bandwidth
        assert floor <= naive.time <= 2.1 * floor

    def test_switch_collisions_hurt(self, platform_c):
        d = _demand(0, g1=40e6)
        alone = naive_peer_extraction(platform_c, d, readers_per_source={1: 1})
        crowded = naive_peer_extraction(platform_c, d, readers_per_source={1: 7})
        assert crowded.time > alone.time


class TestMessage:
    def _partition_demands(self, platform, per_gpu_vol=10e6):
        demands = []
        for dst in platform.gpu_ids:
            vols = {}
            for src in platform.gpu_ids:
                vols[src] = per_gpu_vol
            demands.append(GpuDemand(dst=dst, volumes=vols))
        return demands

    def test_all_gpus_report_same_time(self, platform_c):
        reports = message_extraction(platform_c, self._partition_demands(platform_c))
        times = {round(r.time, 9) for r in reports}
        assert len(times) == 1

    def test_slower_than_factored(self, platform_c):
        demands = self._partition_demands(platform_c)
        msg = message_extraction(platform_c, demands)[0].time
        fem = max(factored_extraction(platform_c, d).time for d in demands)
        assert msg > fem

    def test_unconnected_pairs_fall_back_to_pcie(self, platform_b):
        # GPU0 ← GPU5 is unconnected on DGX-1; message routing still works.
        demands = [GpuDemand(dst=0, volumes={5: 10e6})]
        report = message_extraction(platform_b, demands)[0]
        assert report.time >= 10e6 / platform_b.pcie_bandwidth

    def test_includes_stage_overheads(self, platform_c):
        report = message_extraction(platform_c, [GpuDemand(dst=0, volumes={1: 1.0})])[0]
        assert report.time >= 3 * 30e-6

    def test_empty_demands(self, platform_c):
        assert message_extraction(platform_c, []) == []

    def test_rejects_duplicate_dst(self, platform_c):
        demands = [GpuDemand(dst=0, volumes={1: 1.0})] * 2
        with pytest.raises(ValueError):
            message_extraction(platform_c, demands)


class TestReportAccessors:
    def test_volume_split(self, platform_a):
        report = factored_extraction(platform_a, _demand(1, g1=5.0, g2=3.0, host=2.0))
        assert report.volume_local() == 5.0
        assert report.volume_remote() == 3.0
        assert report.volume_host() == 2.0


class TestCoreDedicationMemo:
    """The §5.3 split is remembered per immutable platform, safely."""

    def test_returns_a_fresh_dict_each_call(self, platform_a):
        sources = [HOST, 1, 2, 0]
        first = core_dedication(platform_a, 0, sources)
        expected = dict(first)
        first[1] = -7
        first[99] = 1
        assert core_dedication(platform_a, 0, sources) == expected

    def test_source_order_is_part_of_the_key(self, platform_a):
        forward = core_dedication(platform_a, 0, [HOST, 1, 2])
        backward = core_dedication(platform_a, 0, [2, 1, HOST])
        assert forward == backward
        assert list(forward) != list(backward)  # dict order follows the input

    def test_tiered_copy_does_not_see_the_base_tables(self, platform_a):
        from repro.hardware.platform import MemoryTier, gbps, with_tiers

        core_dedication(platform_a, 0, [HOST, 1])
        assert platform_a.bandwidth(0, HOST) == platform_a.pcie_bandwidth
        slow = with_tiers(
            platform_a, (MemoryTier("dram", 1 << 30, gbps(1)),)
        )
        assert slow.bandwidth(0, HOST) == gbps(1)
        assert slow.tolerance(0, HOST) < platform_a.tolerance(0, HOST)
        assert (
            core_dedication(slow, 0, [HOST, 1])[HOST]
            < core_dedication(platform_a, 0, [HOST, 1])[HOST]
        )

    def test_degraded_view_is_never_memoized(self, platform_a):
        from repro.faults.degrade import degraded_platform
        from repro.faults.spec import HealthView

        sources = [HOST, 1, 2, 3]
        healthy = core_dedication(platform_a, 0, sources)
        half = degraded_platform(
            platform_a, HealthView(link_factors=(((0, 1), 0.25),))
        )
        degraded = core_dedication(half, 0, sources)
        assert degraded[1] < healthy[1]
        # ...and the base platform's tables are untouched by the view.
        assert core_dedication(platform_a, 0, sources) == healthy
        assert half.bandwidth(0, 1) == 0.25 * platform_a.bandwidth(0, 1)
        assert half.tolerance(0, 1) < platform_a.tolerance(0, 1)

    def test_out_of_range_gpu_still_raises_every_time(self, platform_a):
        for _ in range(2):
            with pytest.raises(ValueError):
                platform_a.bandwidth(0, 17)
            with pytest.raises(ValueError):
                platform_a.tolerance(9, 0)
