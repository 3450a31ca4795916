"""The MILP/LP cache-policy solver (§6.2-6.3)."""

import numpy as np
import pytest

from repro.core.evaluate import evaluate_placement, hit_rates
from repro.core.policy import partition_policy, replication_policy
from repro.core.solver import (
    PolicySolveError,
    SolverConfig,
    dedication_ratios,
    solve_policy,
)
from repro.hardware.platform import HOST
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


class TestSolvedPolicyAccessors:
    def test_access_volume_fractions_sum_to_one(self, platform_a, hot1000):
        solved = solve_policy(platform_a, hot1000, 100, ENTRY_BYTES)
        fractions = solved.access_volume_fractions(0)
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-6)

    def test_problem_size_reported(self, platform_a, hot1000):
        solved = solve_policy(platform_a, hot1000, 100, ENTRY_BYTES)
        assert solved.num_variables > 0
        assert solved.num_constraints > 0


class TestFallbackChain:
    """MILP → greedy → last-known-good, with deterministic injected clocks."""

    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        from repro.core.solver import clear_policy_cache

        clear_policy_cache()
        yield
        clear_policy_cache()

    @staticmethod
    def _timed_out(*_args, **_kwargs):
        from repro.core.solver import PolicySolveTimeout

        raise PolicySolveTimeout("injected timeout")

    def test_milp_success_is_remembered(self, platform_a, hot1000):
        from repro.core.solver import last_known_good, solve_policy_with_fallback

        outcome = solve_policy_with_fallback(
            platform_a, hot1000, 100, ENTRY_BYTES
        )
        assert outcome.source == "milp"
        assert outcome.solved is not None
        assert outcome.attempts == 1
        assert last_known_good(platform_a.name) is not None

    def test_timeout_falls_back_to_greedy_within_deadline(
        self, platform_a, hot1000
    ):
        from repro.core.solver import FallbackConfig, solve_policy_with_fallback
        from repro.utils.retry import RetryPolicy

        clock = {"now": 0.0}

        def fake_clock():
            clock["now"] += 0.01  # each inspection costs 10ms of fake time
            return clock["now"]

        outcome = solve_policy_with_fallback(
            platform_a,
            hot1000,
            100,
            ENTRY_BYTES,
            fallback=FallbackConfig(
                deadline_seconds=30.0, retry=RetryPolicy(max_attempts=3, base_delay=0.0)
            ),
            solve_fn=self._timed_out,
            clock=fake_clock,
            sleep=lambda s: None,
        )
        assert outcome.source == "greedy"
        assert outcome.attempts == 3
        assert outcome.elapsed < 30.0
        # The greedy placement is feasible and scored.
        assert outcome.placement.num_entries == len(hot1000)
        for ids in outcome.placement.per_gpu:
            assert len(ids) <= 100
        assert outcome.est_time > 0

    def test_cached_policy_wins_when_better_than_greedy(
        self, platform_a, hot1000
    ):
        from repro.core.solver import solve_policy_with_fallback

        # Seed the last-known-good registry with a real solve…
        good = solve_policy_with_fallback(platform_a, hot1000, 100, ENTRY_BYTES)
        assert good.source == "milp"
        # …then break the MILP: the cached optimum beats the greedy search.
        outcome = solve_policy_with_fallback(
            platform_a, hot1000, 100, ENTRY_BYTES, solve_fn=self._timed_out
        )
        assert outcome.source == "cached"
        assert outcome.est_time == pytest.approx(good.est_time)

    def test_incompatible_cache_is_ignored(self, platform_a, hot1000):
        from repro.core.solver import solve_policy_with_fallback

        solve_policy_with_fallback(platform_a, hot1000, 100, ENTRY_BYTES)
        # Different capacity ⇒ the remembered policy no longer applies.
        outcome = solve_policy_with_fallback(
            platform_a, hot1000, 120, ENTRY_BYTES, solve_fn=self._timed_out
        )
        assert outcome.source == "greedy"

    def test_every_rung_failing_raises(self, platform_a, hot1000, monkeypatch):
        from repro.core import solver
        from repro.core.solver import (
            FallbackConfig,
            PolicySolveError,
            solve_policy_with_fallback,
        )

        monkeypatch.setattr(solver, "GREEDY_FRACTIONS", ())
        with pytest.raises(PolicySolveError, match="every rung"):
            solve_policy_with_fallback(
                platform_a,
                hot1000,
                100,
                ENTRY_BYTES,
                fallback=FallbackConfig(use_cached=False),
                solve_fn=self._timed_out,
            )

    def test_expired_deadline_skips_milp(self, platform_a, hot1000):
        from repro.core.solver import FallbackConfig, solve_policy_with_fallback

        clock = {"now": 0.0}

        def fake_clock():
            return clock["now"]

        outcome = solve_policy_with_fallback(
            platform_a,
            hot1000,
            100,
            ENTRY_BYTES,
            fallback=FallbackConfig(deadline_seconds=0.0),
            solve_fn=lambda *a, **k: pytest.fail("must not solve past deadline"),
            clock=fake_clock,
            sleep=lambda s: None,
        )
        assert outcome.source == "greedy"

    def test_fallback_metrics_emitted(self, platform_a, hot1000):
        from repro.core.solver import solve_policy_with_fallback
        from repro.obs import MetricsRegistry, use_registry

        reg = MetricsRegistry("t")
        with use_registry(reg):
            solve_policy_with_fallback(
                platform_a, hot1000, 100, ENTRY_BYTES, solve_fn=self._timed_out
            )
        assert reg.value("solver.fallback.engaged") == 1
        assert reg.value("solver.fallback.source", source="greedy") == 1


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
