"""Logging helpers + the drift→refresh integration loop."""

import logging

import numpy as np

from repro.core.embedding_layer import EmbeddingLayerConfig, UGacheEmbeddingLayer
from repro.core.solver import SolverConfig
from repro.dlr.drift import build_drift_schedule
from repro.dlr.workload import DlrWorkload
from repro.utils.logging import get_logger


class TestLogging:
    def test_namespaced(self):
        assert get_logger("core.solver").name == "repro.core.solver"
        assert get_logger("").name == "repro"
        assert get_logger("repro.x").name == "repro.x"

    def test_null_handler_by_default(self):
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)

    def test_solver_logs_debug(self, platform_a, caplog):
        from repro.core.solver import solve_policy
        from repro.utils.stats import zipf_pmf

        with caplog.at_level(logging.DEBUG, logger="repro.core.solver"):
            solve_policy(
                platform_a,
                zipf_pmf(200, 1.0) * 100,
                20,
                64,
                SolverConfig(coarse_block_frac=0.1),
            )
        assert any("solved server-a" in rec.message for rec in caplog.records)


class TestDriftRefreshLoop:
    """The §7.2 operational loop: serve → drift → refresh → serve."""

    def test_week_of_drift_with_refreshes(self, platform_a, rng):
        schedule = build_drift_schedule("rotating-head", 1000, alpha=1.3, seed=2)
        batch_keys, gpus = 128, platform_a.num_gpus
        table = rng.standard_normal((len(schedule.phases[0].pmf), 8)).astype(np.float32)
        layer = UGacheEmbeddingLayer(
            platform_a,
            table,
            schedule.phases[0].pmf * batch_keys * gpus,
            EmbeddingLayerConfig(
                cache_ratio=0.1, solver=SolverConfig(coarse_block_frac=0.05)
            ),
        )
        refreshes = 0
        for phase in schedule.phases:
            # Serve a batch of the phase's traffic and verify correctness
            # against the table.
            batch = [
                rng.choice(len(phase.pmf), size=batch_keys, p=phase.pmf)
                for _ in range(gpus)
            ]
            values, report = layer.extract(batch)
            for v, keys in zip(values, batch):
                assert np.array_equal(v, table[keys])
            assert report.time > 0
            # Nightly: hand the phase's analytic hotness to the refresher.
            outcome = layer.refresh(phase.pmf * batch_keys * gpus)
            refreshes += int(outcome.triggered)
        # A rotated head must trigger at least one refresh across the run.
        assert refreshes >= 1

    def test_refresh_restores_hit_rate(self, platform_a, rng):
        base = DlrWorkload(
            table_sizes=(1000,), alpha=1.5, batch_size=256, num_gpus=4, seed=0
        )
        table = rng.standard_normal((1000, 8)).astype(np.float32)
        layer = UGacheEmbeddingLayer(
            platform_a,
            table,
            base.hotness(),
            EmbeddingLayerConfig(
                cache_ratio=0.08, solver=SolverConfig(coarse_block_frac=0.05)
            ),
        )
        from repro.core.evaluate import hit_rates

        drifted = DlrWorkload(
            table_sizes=(1000,), alpha=1.5, batch_size=256, num_gpus=4, seed=77
        )
        before = hit_rates(platform_a, layer.placement, drifted.hotness()).global_hit
        outcome = layer.refresh(drifted.hotness())
        after = hit_rates(platform_a, layer.placement, drifted.hotness()).global_hit
        assert outcome.triggered
        assert after > before
