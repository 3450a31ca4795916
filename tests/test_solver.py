"""The MILP/LP cache-policy solver (§6.2-6.3)."""

import logging

import numpy as np
import pytest

from repro.core import solver as solver_module
from repro.core.evaluate import evaluate_placement, hit_rates
from repro.core.policy import partition_policy, replication_policy
from repro.core.solver import (
    PolicySolveTimeout,
    SolverConfig,
    dedication_ratios,
    gpu_symmetric,
    solve_policy,
    warm_start_policy,
)
from repro.faults.degrade import degraded_platform
from repro.faults.spec import HealthView
from repro.hardware.platform import (
    HOST,
    TIER_KINDS,
    MemoryTier,
    dgx2,
    dram_tier,
    pcie_only,
    server_a,
    server_b,
    server_c,
    ssd_tier,
    with_tiers,
)
from repro.obs import MetricsRegistry, use_registry
from repro.sim.mechanisms import Mechanism
from repro.utils.stats import zipf_pmf

ENTRY_BYTES = 512


@pytest.fixture
def hot1000():
    return zipf_pmf(1000, 1.2) * 5000


class TestDedicationRatios:
    def test_local_ratio_is_one(self, platform_c):
        assert dedication_ratios(platform_c, 0)[0] == 1.0

    def test_nonlocal_ratios_below_one(self, platform_a):
        ratios = dedication_ratios(platform_a, 0)
        for src, r in ratios.items():
            if src != 0:
                assert 0 < r < 1

    def test_covers_all_sources(self, platform_b):
        ratios = dedication_ratios(platform_b, 0)
        assert set(ratios) == set(platform_b.sources_for(0))


class TestSolveBasics:
    def test_solves_quickly_at_block_granularity(self, platform_a, hot1000):
        solved = solve_policy(platform_a, hot1000, 100, ENTRY_BYTES)
        assert solved.solve_seconds < 30
        assert solved.est_time > 0

    def test_capacity_respected_in_realization(self, platform_a, hot1000):
        solved = solve_policy(platform_a, hot1000, 100, ENTRY_BYTES)
        solved.realize().validate_capacity(100)

    def test_storage_fractions_bounded(self, platform_a, hot1000):
        solved = solve_policy(platform_a, hot1000, 100, ENTRY_BYTES)
        assert (solved.storage >= 0).all() and (solved.storage <= 1).all()

    def test_access_covers_every_block(self, platform_a, hot1000):
        solved = solve_policy(platform_a, hot1000, 100, ENTRY_BYTES)
        # Per destination GPU, access fractions sum to 1 per block.
        for i in range(platform_a.num_gpus):
            cols = [p for p, (dst, _src) in enumerate(solved.pairs) if dst == i]
            sums = solved.access[:, cols].sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-6)

    def test_per_gpu_capacities(self, platform_a, hot1000):
        caps = [50, 100, 150, 200]
        solved = solve_policy(platform_a, hot1000, caps, ENTRY_BYTES)
        placement = solved.realize()
        for gpu, cap in enumerate(caps):
            assert len(placement.per_gpu[gpu]) <= cap

    def test_zero_capacity_all_host(self, platform_a, hot1000):
        solved = solve_policy(platform_a, hot1000, 0, ENTRY_BYTES)
        placement = solved.realize()
        assert placement.distinct_cached() == 0
        # Estimated time equals pure-PCIe extraction.
        expected = hot1000.sum() * ENTRY_BYTES / platform_a.pcie_bandwidth
        assert solved.est_time == pytest.approx(expected, rel=0.1)

    def test_rejects_bad_args(self, platform_a, hot1000):
        with pytest.raises(ValueError):
            solve_policy(platform_a, hot1000, [1, 2], ENTRY_BYTES)
        with pytest.raises(ValueError):
            solve_policy(platform_a, hot1000, 10, 0)


class TestSolutionQuality:
    def test_beats_replication_and_partition(self, platform_c, hot1000):
        cap = 80
        solved = solve_policy(platform_c, hot1000, cap, ENTRY_BYTES)
        ug = evaluate_placement(
            platform_c, solved.realize(), hot1000, ENTRY_BYTES, Mechanism.FACTORED
        ).time
        rep = evaluate_placement(
            platform_c,
            replication_policy(hot1000, cap, 8),
            hot1000,
            ENTRY_BYTES,
            Mechanism.FACTORED,
        ).time
        part = evaluate_placement(
            platform_c,
            partition_policy(hot1000, cap, 8),
            hot1000,
            ENTRY_BYTES,
            Mechanism.FACTORED,
        ).time
        assert ug <= rep * 1.05
        assert ug <= part * 1.05

    def test_full_capacity_goes_all_local(self, platform_a, hot1000):
        solved = solve_policy(platform_a, hot1000, 1000, ENTRY_BYTES)
        hits = hit_rates(platform_a, solved.realize(), hot1000)
        assert hits.local > 0.99

    def test_low_capacity_behaves_like_partition(self, platform_c, hot1000):
        # §8.3: at tiny cache ratios the solved policy approaches partition.
        flat = zipf_pmf(1000, 0.4) * 5000  # low skew favours partition
        solved = solve_policy(platform_c, flat, 10, ENTRY_BYTES)
        placement = solved.realize()
        assert placement.replication_factor() < 2.0

    def test_high_skew_increases_replication(self, platform_c):
        cap = 120
        low = zipf_pmf(1000, 0.4) * 5000
        high = zipf_pmf(1000, 1.6) * 5000
        rep_low = solve_policy(platform_c, low, cap, ENTRY_BYTES).realize()
        rep_high = solve_policy(platform_c, high, cap, ENTRY_BYTES).realize()
        assert rep_high.replication_factor() > rep_low.replication_factor()

    def test_estimate_close_to_simulated(self, platform_c, hot1000):
        solved = solve_policy(platform_c, hot1000, 100, ENTRY_BYTES)
        simulated = evaluate_placement(
            platform_c, solved.realize(), hot1000, ENTRY_BYTES, Mechanism.FACTORED
        ).time
        # Realization rounds fractions; estimate within 2x brackets.
        assert simulated == pytest.approx(solved.est_time, rel=1.0)


class TestUnconnectedPairs:
    def test_dgx1_never_reads_unconnected(self, platform_b, hot1000):
        solved = solve_policy(platform_b, hot1000, 100, ENTRY_BYTES)
        for _p, (i, j) in enumerate(solved.pairs):
            if j != HOST:
                assert platform_b.is_connected(i, j)

    def test_dgx1_solves_and_beats_partition(self, platform_b, hot1000):
        cap = 80
        solved = solve_policy(platform_b, hot1000, cap, ENTRY_BYTES)
        ug = evaluate_placement(
            platform_b, solved.realize(), hot1000, ENTRY_BYTES, Mechanism.FACTORED
        ).time
        part = evaluate_placement(
            platform_b,
            partition_policy(hot1000, cap, 8),
            hot1000,
            ENTRY_BYTES,
            Mechanism.FACTORED,
        ).time
        assert ug <= part * 1.05


class TestIntegralMode:
    def test_small_instance_integral(self, platform_a):
        hot = zipf_pmf(60, 1.2) * 100
        config = SolverConfig(integral=True, coarse_block_frac=0.2)
        solved = solve_policy(platform_a, hot, 10, ENTRY_BYTES, config=config)
        # Binary storage: fractions are 0/1 up to solver tolerance.
        frac = solved.storage[(solved.storage > 1e-6) & (solved.storage < 1 - 1e-6)]
        assert frac.size == 0

    def test_integral_no_better_than_relaxation(self, platform_a):
        hot = zipf_pmf(60, 1.2) * 100
        relaxed = solve_policy(platform_a, hot, 10, ENTRY_BYTES)
        integral = solve_policy(
            platform_a, hot, 10, ENTRY_BYTES, config=SolverConfig(integral=True)
        )
        assert integral.est_time >= relaxed.est_time - 1e-12


class TestTimeLimit:
    @pytest.mark.parametrize("integral", [False, True])
    def test_a_real_highs_time_limit_raises_timeout(self, integral):
        # No injected fake: HiGHS itself stops at the budget.
        hot = zipf_pmf(1000, 1.1) * 1000
        config = SolverConfig(time_limit=1e-6, integral=integral, coarse_block_frac=0.05)
        with pytest.raises(PolicySolveTimeout, match="its 1e-06s budget"):
            solve_policy(server_b(), hot, 100, ENTRY_BYTES, config=config)


class TestSolvedPolicyAccessors:
    def test_access_volume_fractions_sum_to_one(self, platform_a, hot1000):
        solved = solve_policy(platform_a, hot1000, 100, ENTRY_BYTES)
        fractions = solved.access_volume_fractions(0)
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-6)

    def test_problem_size_reported(self, platform_a, hot1000):
        solved = solve_policy(platform_a, hot1000, 100, ENTRY_BYTES)
        assert solved.num_variables > 0
        assert solved.num_constraints > 0


def three_tier_a():
    n, eb = 1500, 128
    return with_tiers(server_a(), (
        dram_tier(n // 6 * eb), MemoryTier("cxl", n // 3 * eb, *TIER_KINDS["cxl"]),
        ssd_tier(n * eb)))


def trivial_group(monkeypatch):
    """Make every solve build the full LP, one orbit per GPU and pair."""
    monkeypatch.setattr(solver_module, "gpu_symmetric", lambda *args: False)


#: HOT from test_consistency_matrix and the parent's realized/estimate
#: ratios at 1 / 5 / 20 % cache ratio (before the orbit quotient).
MATRIX_HOT = zipf_pmf(1500, 1.15) * 20_000
PARENT_RATIOS = {"server-a": (1.00, 1.17, 1.00), "server-c": (1.02, 1.30, 1.00)}


class TestOrbitQuotient:
    @pytest.mark.parametrize("make, n, cap", [
        (server_a, 1500, 30), (server_a, 1500, 150), (server_c, 1500, 30),
        (server_c, 1500, 150), (dgx2, 32, 4), (pcie_only, 1500, 150),
        (three_tier_a, 1500, 30),
    ])
    def test_objective_matches_full_lp(self, make, n, cap, monkeypatch):
        platform = make()
        hot = (zipf_pmf(n, 1.1) * 4096)[np.random.default_rng(3).permutation(n)]
        config = SolverConfig(coarse_block_frac=0.05)
        quotient = solve_policy(platform, hot, cap, 128, config)
        trivial_group(monkeypatch)
        full = solve_policy(platform, hot, cap, 128, config)
        assert quotient.symmetric_read_cost is not None
        assert full.symmetric_read_cost is None
        assert quotient.num_variables < full.num_variables
        assert quotient.est_time == pytest.approx(full.est_time, rel=1e-7)
        # Expanded back to every GPU, one value per orbit.
        assert quotient.storage.shape == full.storage.shape
        assert quotient.access.shape == full.access.shape
        assert (quotient.storage == quotient.storage[:, :1]).all()

    @pytest.mark.parametrize("platform, symmetric", [
        (server_a(), True), (server_c(), True), (dgx2(), True),
        (pcie_only(), True), (three_tier_a(), True), (server_b(), False),
        (degraded_platform(server_c(), HealthView(down_gpus=frozenset({2}))), False),
        (degraded_platform(server_c(), HealthView(link_factors=(((0, 2), 0.5),))), False),
    ])
    def test_group_finder(self, platform, symmetric):
        G = platform.num_gpus
        pairs = [(i, j) for i in range(G) for j in platform.sources_for(i)]
        cost = np.array([platform.cost_per_byte(i, j) for i, j in pairs])
        ratio = np.array([dedication_ratios(platform, i)[j] for i, j in pairs])
        assert gpu_symmetric(platform, pairs, cost, ratio, [10] * G, False) is symmetric
        assert not gpu_symmetric(platform, pairs, cost, ratio, [10] * G, True)
        assert not gpu_symmetric(platform, pairs, cost, ratio, [10] * (G - 1) + [9], False)

    @pytest.mark.parametrize("case", [
        "server_b", "slow_link", "unequal_capacities", "integral"])
    def test_trivial_group_solves_the_full_lp(self, case, monkeypatch):
        platform, cap, config = server_a(), 150, SolverConfig(coarse_block_frac=0.05)
        if case == "server_b":
            platform = server_b()
        elif case == "slow_link":
            platform = degraded_platform(
                server_a(), HealthView(link_factors=(((0, 2), 0.5),)))
        elif case == "unequal_capacities":
            cap = [60, 120, 180, 240]
        else:
            config = SolverConfig(coarse_block_frac=0.2, integral=True)
        hot = (zipf_pmf(600, 1.1) * 4096)[np.random.default_rng(3).permutation(600)]
        natural = solve_policy(platform, hot, cap, 128, config)
        trivial_group(monkeypatch)
        full = solve_policy(platform, hot, cap, 128, config)
        assert natural.symmetric_read_cost is None
        assert natural.num_variables == full.num_variables
        assert natural.storage.tobytes() == full.storage.tobytes()
        assert natural.access.tobytes() == full.access.tobytes()
        for got, want in zip(natural.realize().per_gpu, full.realize().per_gpu):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("make", [server_a, server_c])
    def test_realization_matrix(self, make):
        platform = make()
        for ratio, parent in zip((0.01, 0.05, 0.2), PARENT_RATIOS[platform.name]):
            cap = int(ratio * len(MATRIX_HOT))
            solved = solve_policy(
                platform, MATRIX_HOT, cap, 256, SolverConfig(coarse_block_frac=0.005))
            realized = evaluate_placement(
                platform, solved.realize(), MATRIX_HOT, 256, Mechanism.FACTORED).time
            assert realized / solved.est_time <= max(parent, 1.10), ratio

    def test_warm_start_realizes_like_a_cold_solve(self, platform_c):
        hot = zipf_pmf(1500, 1.15) * 20_000
        drifted = hot[np.random.default_rng(7).permutation(hot.size)]
        cold_a = solve_policy(platform_c, hot, 75, 256)
        warm = warm_start_policy(platform_c, drifted, 75, 256, cold_a)
        cold = solve_policy(platform_c, drifted, 75, 256)
        assert warm.symmetric_read_cost == cold.symmetric_read_cost is not None
        for got, want in zip(warm.realize().per_gpu, cold.realize().per_gpu):
            assert np.array_equal(got, want)

    def test_metrics_and_log_fire_on_the_quotient(self, platform_c, caplog):
        reg = MetricsRegistry("t")
        with use_registry(reg), caplog.at_level(logging.DEBUG, "repro.core.solver"):
            solved = solve_policy(platform_c, zipf_pmf(1000, 1.2) * 5000, 100, 512)
        assert solved.symmetric_read_cost is not None
        assert reg.histogram("solver.build.seconds").count == 1
        assert reg.value("solver.num_blocks") == solved.blocks.num_blocks
        assert reg.value("solver.num_variables") == solved.num_variables
        assert reg.value("solver.num_constraints") == solved.num_constraints
        assert f"{solved.num_variables} vars" in caplog.text


class TestSolveChain:
    """Warm start, else a cold solve: the chain's only two rungs."""

    def test_cold_solve_reports_milp(self, platform_a, hot1000):
        from repro.core.solver import solve_policy_with_fallback

        outcome = solve_policy_with_fallback(
            platform_a, hot1000, 100, ENTRY_BYTES
        )
        assert outcome.source == "milp"
        assert outcome.solved is not None

    def test_a_failed_cold_solve_raises(self):
        # A real HiGHS time limit, no injected fake: nothing stands in.
        from repro.core.solver import solve_policy_with_fallback

        config = SolverConfig(time_limit=1e-6, coarse_block_frac=0.05)
        with pytest.raises(PolicySolveTimeout):
            solve_policy_with_fallback(
                server_b(), zipf_pmf(1000, 1.1) * 1000, 100, ENTRY_BYTES, config=config
            )

    def test_source_metrics_emitted(self, platform_a, hot1000):
        from repro.core.solver import solve_policy_with_fallback

        reg = MetricsRegistry("t")
        with use_registry(reg):
            cold = solve_policy_with_fallback(platform_a, hot1000, 100, ENTRY_BYTES)
            warm = solve_policy_with_fallback(
                platform_a, hot1000[::-1].copy(), 100, ENTRY_BYTES, warm=cold.solved
            )
        assert warm.source == "incremental"
        assert reg.value("solver.fallback.source", source="milp") == 1
        assert reg.value("solver.fallback.source", source="incremental") == 1


class TestLazySolverImport:
    """Serving and cluster code import the solver module for its config
    types; only an actual solve may load HiGHS."""

    def test_serving_imports_do_not_load_scipy_optimize(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "import repro.serve.runtime, repro.cluster\n"
            "assert 'scipy.optimize' not in sys.modules, 'loaded at import'\n"
            "import numpy as np\n"
            "from repro.core.solver import SolverConfig, solve_policy\n"
            "from repro.hardware.platform import server_a\n"
            "solved = solve_policy(server_a(), np.arange(200, 0, -1.0), 20, 32,\n"
            "                      SolverConfig(coarse_block_frac=0.1))\n"
            "assert solved.est_time > 0\n"
            "assert 'scipy.optimize' in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
