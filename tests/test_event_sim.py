"""Discrete event simulator vs the fluid/analytic models."""

import pytest

from repro.hardware.platform import HOST, server_a_tiered
from repro.sim.event_sim import (
    simulate_factored_event_driven,
    simulate_naive_event_driven,
)
from repro.sim.mechanisms import (
    GpuDemand,
    factored_extraction,
    naive_peer_extraction,
)

CHUNK = 16 * 1024


def _demand(local=40e6, g1=20e6, g2=10e6, host=5e6, ssd=0.0):
    vols = {}
    if local:
        vols[0] = local
    if g1:
        vols[1] = g1
    if g2:
        vols[2] = g2
    if host:
        vols[HOST] = host
    if ssd:
        vols[-2] = ssd  # server_a_tiered's second tier
    return GpuDemand(dst=0, volumes=vols)


class TestFactoredConvergence:
    @pytest.mark.parametrize(
        "volumes",
        [
            dict(local=40e6, g1=20e6, g2=10e6, host=5e6),
            dict(local=200e6, g1=5e6, g2=0.0, host=1e6),
            dict(local=0.0, g1=30e6, g2=30e6, host=0.0),
            dict(local=10e6, g1=0.0, g2=0.0, host=20e6),
            # each group pays its tier latency on its own cores, as priced
            pytest.param(dict(g2=0.0, ssd=0.5e6), id="server-a-tiered"),
        ],
    )
    def test_matches_analytic_on_hardwired(self, platform_a, volumes):
        platform = server_a_tiered() if "ssd" in volumes else platform_a
        demand = _demand(**volumes)
        event = simulate_factored_event_driven(platform, demand, CHUNK)
        analytic = factored_extraction(platform, demand)
        assert event.total_time == pytest.approx(analytic.time, rel=0.10)

    def test_matches_analytic_on_switch(self, platform_c):
        demand = _demand()
        event = simulate_factored_event_driven(platform_c, demand, CHUNK)
        analytic = factored_extraction(platform_c, demand)
        assert event.total_time == pytest.approx(analytic.time, rel=0.10)

    def test_smaller_chunks_converge_closer(self, platform_a):
        demand = _demand()
        analytic = factored_extraction(platform_a, demand).time
        coarse = simulate_factored_event_driven(platform_a, demand, 1024 * 1024)
        fine = simulate_factored_event_driven(platform_a, demand, 8 * 1024)
        assert abs(fine.total_time - analytic) <= abs(coarse.total_time - analytic) + 1e-9


class TestNaiveConvergence:
    def test_fluid_fixed_point_validated_on_hardwired(self, platform_a):
        """The §5 congestion model agrees with independent discrete dynamics."""
        demand = _demand()
        event = simulate_naive_event_driven(platform_a, demand, CHUNK)
        analytic = naive_peer_extraction(platform_a, demand)
        assert event.total_time == pytest.approx(analytic.time, rel=0.12)

    def test_agrees_on_switch_single_reader(self, platform_c):
        demand = _demand()
        readers = {1: 1, 2: 1}
        event = simulate_naive_event_driven(
            platform_c, demand, CHUNK, readers_per_source=readers
        )
        analytic = naive_peer_extraction(platform_c, demand, readers)
        assert event.total_time == pytest.approx(analytic.time, rel=0.25)

    def test_host_heavy_congestion(self, platform_a):
        demand = _demand(local=10e6, g1=0.0, g2=0.0, host=30e6)
        event = simulate_naive_event_driven(platform_a, demand, CHUNK)
        analytic = naive_peer_extraction(platform_a, demand)
        assert event.total_time == pytest.approx(analytic.time, rel=0.15)

    def test_dispatch_seed_is_noise_not_signal(self, platform_a):
        demand = _demand()
        a = simulate_naive_event_driven(platform_a, demand, CHUNK, seed=1)
        b = simulate_naive_event_driven(platform_a, demand, CHUNK, seed=2)
        assert a.total_time == pytest.approx(b.total_time, rel=0.10)


class TestMechanismOrdering:
    def test_factored_beats_naive_in_both_simulators(self, platform_a):
        demand = _demand(host=20e6)
        ev_f = simulate_factored_event_driven(platform_a, demand, CHUNK)
        ev_n = simulate_naive_event_driven(platform_a, demand, CHUNK)
        an_f = factored_extraction(platform_a, demand)
        an_n = naive_peer_extraction(platform_a, demand)
        assert ev_f.total_time < ev_n.total_time
        assert an_f.time < an_n.time


class TestEdgeCases:
    def test_empty_demand(self, platform_a):
        result = simulate_naive_event_driven(
            platform_a, GpuDemand(dst=0, volumes={}), CHUNK
        )
        assert result.total_time == 0.0
        assert result.chunks_processed == 0

    def test_unreachable_source_rejected(self, platform_b):
        demand = GpuDemand(dst=0, volumes={5: 1e6})
        with pytest.raises(ValueError, match="unreachable"):
            simulate_naive_event_driven(platform_b, demand, CHUNK)

    def test_chunk_accounting(self, platform_a):
        demand = _demand(local=1e6, g1=1e6, g2=0.0, host=0.0)
        result = simulate_factored_event_driven(platform_a, demand, 64 * 1024)
        expected = round(1e6 / (64 * 1024)) * 2
        assert result.chunks_processed == pytest.approx(expected, abs=2)
