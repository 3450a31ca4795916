"""Cross-component consistency: the same quantity computed two ways agrees.

Each test computes one observable through two independent code paths —
e.g. hit rates from the resolver vs volume splits from the simulator —
and asserts agreement.  These invariants are what keep the figure drivers
trustworthy: every figure mixes at least two of these components.
"""

import pytest

from repro.core.evaluate import (
    evaluate_placement,
    expected_demands,
    hit_rates,
    resolve_sources,
)
from repro.core.policy import partition_policy, replication_policy
from repro.core.solver import SolverConfig, solve_policy
from repro.hardware.platform import HOST
from repro.sim.engine import simulate_batch
from repro.sim.mechanisms import Mechanism
from repro.sim.trace import trace_factored
from repro.utils.stats import zipf_pmf

HOT = zipf_pmf(1500, 1.15) * 20_000
EB = 256


@pytest.fixture(params=["replication", "partition", "solved"])
def placement(request, any_platform):
    cap = 150
    if request.param == "replication":
        return replication_policy(HOT, cap, any_platform.num_gpus)
    if request.param == "partition":
        return partition_policy(HOT, cap, any_platform.num_gpus)
    return solve_policy(
        any_platform, HOT, cap, EB, SolverConfig(coarse_block_frac=0.05)
    ).realize()


class TestHitRatesVsVolumes:
    def test_access_split_matches_hit_rates(self, any_platform, placement):
        """Simulator volume split == resolver hit rates (same masses)."""
        hits = hit_rates(any_platform, placement, HOT)
        report = evaluate_placement(any_platform, placement, HOT, EB)
        split = report.access_split()
        assert split["local"] == pytest.approx(hits.local, abs=1e-9)
        assert split["remote"] == pytest.approx(hits.remote, abs=1e-9)
        assert split["host"] == pytest.approx(hits.host, abs=1e-9)

    def test_demand_volumes_match_source_map_mass(self, any_platform, placement):
        source_map = resolve_sources(any_platform, placement, HOT)
        demands = expected_demands(any_platform, placement, HOT, EB)
        for dst, demand in enumerate(demands):
            for src, volume in demand.volumes.items():
                mask = source_map[dst] == src
                assert volume == pytest.approx(HOT[mask].sum() * EB)


class TestTraceVsUtilization:
    def test_trace_busy_time_equals_volume_over_bandwidth(self, platform_a):
        placement = partition_policy(HOT, 150, 4)
        demands = expected_demands(platform_a, placement, HOT, EB)
        trace = trace_factored(platform_a, demands[0])
        for group in trace.groups:
            bw = min(
                group.cores * platform_a.gpu.per_core_bandwidth,
                platform_a.bandwidth(0, group.source),
            )
            # group.cores is the tolerance-clamped busy count; the rate is
            # set by the (possibly larger) dedicated count, so allow the
            # rounding gap between the two.
            assert group.finish - group.start == pytest.approx(group.volume / bw, rel=0.05)

    def test_every_source_in_demand_appears_in_trace(self, platform_a):
        placement = partition_policy(HOT, 150, 4)
        demand = expected_demands(platform_a, placement, HOT, EB)[0]
        trace = trace_factored(platform_a, demand)
        traced = {g.source for g in trace.groups}
        if trace.local_volume > 0:
            traced.add(0)
        expected = {s for s, v in demand.volumes.items() if v > 0}
        assert traced == expected


class TestSolverEstimateVsSimulator:
    @pytest.mark.parametrize("ratio", [0.05, 0.2])
    def test_estimate_brackets_simulation(self, any_platform, ratio):
        cap = int(ratio * len(HOT))
        solved = solve_policy(
            any_platform, HOT, cap, EB, SolverConfig(coarse_block_frac=0.005)
        )
        simulated = evaluate_placement(
            any_platform, solved.realize(), HOT, EB, Mechanism.FACTORED
        ).time
        # At tiny capacities the LP relaxation is genuinely loose for
        # ultra-hot single-entry blocks (the paper's binary MILP does not
        # face this); realization + load-balanced resolution keeps the
        # realized time within ~1.6x of the estimate even there, and the
        # two coincide at moderate capacity.
        assert simulated == pytest.approx(solved.est_time, rel=0.8)


class TestEngineVsPerGpuModels:
    def test_engine_factored_equals_direct_calls(self, platform_a):
        from repro.sim.mechanisms import GpuDemand, factored_extraction

        demands = [
            GpuDemand(dst=g, volumes={g: 5e6, (g + 1) % 4: 2e6, HOST: 1e6})
            for g in range(4)
        ]
        report = simulate_batch(platform_a, demands, Mechanism.FACTORED)
        for demand, gpu_report in zip(demands, report.per_gpu):
            direct = factored_extraction(platform_a, demand)
            assert gpu_report.time == pytest.approx(direct.time)

    def test_message_symmetry_across_gpus(self, platform_c):
        from repro.sim.mechanisms import GpuDemand

        demands = [
            GpuDemand(dst=g, volumes={(g + 1) % 8: 4e6}) for g in range(8)
        ]
        report = simulate_batch(platform_c, demands, Mechanism.MESSAGE)
        times = {round(r.time, 12) for r in report.per_gpu}
        assert len(times) == 1
