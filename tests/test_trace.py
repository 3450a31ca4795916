"""Event-level extraction traces (Figure 8 as data)."""

import numpy as np
import pytest

from repro.hardware.platform import HOST, server_a_tiered
from repro.sim.mechanisms import GpuDemand, factored_extraction
from repro.sim.trace import trace_factored


def _demand(dst=0, local=30e6, g1=20e6, host=2e6):
    vols = {}
    if local:
        vols[dst] = local
    if g1 is not None:
        vols[1 if dst != 1 else 2] = g1
    if host:
        vols[HOST] = host
    return GpuDemand(dst=dst, volumes=vols)


class TestTraceStructure:
    def test_nonlocal_groups_start_at_zero(self, platform_a):
        trace = trace_factored(platform_a, _demand())
        for g in trace.groups:
            assert g.start == 0.0
            assert g.finish > 0.0

    def test_local_padding_starts_immediately(self, platform_a):
        trace = trace_factored(platform_a, _demand())
        assert trace.local_segments[0].start == 0.0

    def test_no_padding_local_waits(self, platform_a):
        trace = trace_factored(platform_a, _demand(), local_padding=False)
        last_group = max(g.finish for g in trace.groups)
        assert trace.local_segments[0].start == pytest.approx(last_group)

    def test_core_budget_never_exceeded(self, platform_a):
        trace = trace_factored(platform_a, _demand())
        # Sample instants: total active cores within budget.
        events = [g.finish for g in trace.groups] + [
            s.finish for s in trace.local_segments
        ]
        for t in np.linspace(0, max(events), 50):
            active = sum(
                g.cores for g in trace.groups if g.start <= t < g.finish
            )
            active += sum(
                s.cores for s in trace.local_segments if s.start <= t < s.finish
            )
            assert active <= platform_a.gpu.num_cores + 1e-9

    def test_local_work_conserved(self, platform_a):
        trace = trace_factored(platform_a, _demand(local=50e6))
        consumed = sum(
            s.cores * (s.finish - s.start) for s in trace.local_segments
        )
        needed = 50e6 / platform_a.gpu.per_core_bandwidth
        assert consumed == pytest.approx(needed, rel=1e-9)


class TestConsistencyWithAnalyticModel:
    @pytest.mark.parametrize("local", [0.0, 5e6, 80e6, 400e6])
    @pytest.mark.parametrize("host", [0.0, 3e6, 30e6])
    def test_makespan_matches_factored_extraction(self, platform_a, local, host):
        demand = _demand(local=local, host=host)
        trace = trace_factored(platform_a, demand)
        report = factored_extraction(platform_a, demand)
        assert trace.makespan == pytest.approx(report.time, rel=1e-6)

    def test_makespan_matches_on_switch(self, platform_c):
        demand = GpuDemand(
            dst=0, volumes={0: 100e6, 1: 10e6, 3: 12e6, HOST: 4e6}
        )
        trace = trace_factored(platform_c, demand)
        report = factored_extraction(platform_c, demand)
        assert trace.makespan == pytest.approx(report.time, rel=1e-6)

    @pytest.mark.parametrize("local", [0.0, 40e6, 400e6])
    @pytest.mark.parametrize("local_padding", [True, False])
    def test_makespan_matches_with_tier_latency(self, local, local_padding):
        """Each backing group finishes after its volume at its rate plus
        its tier's access latency (100 µs on the SSD), as it is billed."""
        platform = server_a_tiered()
        demand = GpuDemand(dst=0, volumes={0: local, 1: 20e6, -1: 5e6, -2: 5e6})
        trace = trace_factored(platform, demand, local_padding)
        report = factored_extraction(platform, demand, local_padding)
        assert trace.makespan == pytest.approx(report.time, rel=1e-6)

    def test_no_padding_matches_ablation(self, platform_a):
        demand = _demand(local=60e6)
        trace = trace_factored(platform_a, demand, local_padding=False)
        report = factored_extraction(platform_a, demand, local_padding=False)
        assert trace.makespan == pytest.approx(report.time, rel=1e-6)


class TestAccessors:
    def test_gantt_renders(self, platform_a):
        trace = trace_factored(platform_a, _demand())
        chart = trace.gantt()
        assert "host" in chart and "local" in chart and "█" in chart

    def test_empty_trace(self, platform_a):
        trace = trace_factored(platform_a, GpuDemand(dst=0, volumes={}))
        assert trace.makespan == 0.0
        assert trace.gantt() == "(empty trace)"
