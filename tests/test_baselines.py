"""Baseline systems of §8.1: policies, mechanisms, failure modes."""

import pytest

from repro.baselines import (
    GnnLabSystem,
    HpsSystem,
    PartUSystem,
    RepUSystem,
    SokSystem,
    SystemContext,
    UGacheSystem,
    UnsupportedConfiguration,
    WholeGraphSystem,
    evaluate_system,
)
from repro.core.solver import SolverConfig
from repro.sim.mechanisms import Mechanism
from repro.utils.stats import zipf_pmf

N = 2000


def _ctx(platform, kind="gnn", capacity=200, alpha=1.2, **kw):
    defaults = dict(
        platform=platform,
        hotness=zipf_pmf(N, alpha) * 30_000,
        entry_bytes=512,
        capacity_entries=capacity,
        kind=kind,
        batch_keys=30_000.0,
        dense_time=1e-3,
    )
    defaults.update(kw)
    return SystemContext(**defaults)


class TestGnnLab:
    def test_replication_placement(self, platform_c):
        placement = GnnLabSystem().plan(_ctx(platform_c))
        assert placement.replication_factor() == pytest.approx(8.0)

    def test_capacity_bonus_from_sampler_offload(self, platform_c):
        ctx = _ctx(platform_c, graph_bytes=512 * 50)
        system = GnnLabSystem()
        assert system.capacity(ctx) == ctx.capacity_entries + 50

    def test_queue_overhead_positive(self, platform_c):
        assert GnnLabSystem().per_iteration_overhead(_ctx(platform_c)) > 0

    def test_rejects_dlr(self, platform_c):
        with pytest.raises(UnsupportedConfiguration):
            evaluate_system(GnnLabSystem(), _ctx(platform_c, kind="dlr"))


class TestWholeGraph:
    def test_fails_when_table_too_big(self, platform_c):
        # ①: 8 × 100 entries < 2000-entry table.
        with pytest.raises(UnsupportedConfiguration, match="total GPU memory"):
            WholeGraphSystem().plan(_ctx(platform_c, capacity=100))

    def test_fails_on_unconnected_pairs(self, platform_b):
        # ②: DGX-1 has unconnected pairs.
        with pytest.raises(UnsupportedConfiguration, match="unconnected"):
            WholeGraphSystem().plan(_ctx(platform_b, capacity=2000))

    def test_partitions_entire_table(self, platform_c):
        placement = WholeGraphSystem().plan(_ctx(platform_c, capacity=300))
        assert placement.distinct_cached() == N
        assert placement.replication_factor() == pytest.approx(1.0)


class TestPartU:
    def test_partition_on_connected_platform(self, platform_c):
        placement = PartUSystem().plan(_ctx(platform_c, capacity=100))
        assert placement.replication_factor() == pytest.approx(1.0)
        assert placement.distinct_cached() == 800

    def test_clique_split_on_dgx1(self, platform_b):
        placement = PartUSystem().plan(_ctx(platform_b, capacity=100))
        # Two quads replicate each other's shards: factor ≈ 2.
        assert placement.replication_factor() == pytest.approx(2.0)

    def test_host_tier_keeps_cold_entries_off_gpu(self, platform_c):
        placement = PartUSystem().plan(_ctx(platform_c, capacity=100))
        assert placement.distinct_cached() < N


class TestRepUAndHps:
    def test_repu_replicates(self, platform_c):
        placement = RepUSystem().plan(_ctx(platform_c, capacity=100))
        assert placement.replication_factor() == pytest.approx(8.0)

    def test_hps_is_dlr_only(self, platform_c):
        with pytest.raises(UnsupportedConfiguration):
            evaluate_system(HpsSystem(), _ctx(platform_c, kind="gnn"))

    def test_hps_pays_lru_overhead(self, platform_c):
        ctx = _ctx(platform_c, kind="dlr")
        repu = evaluate_system(RepUSystem(), ctx)
        hps = evaluate_system(HpsSystem(), ctx)
        assert hps.overhead_time > 0
        assert hps.iteration_time > repu.iteration_time


class TestSok:
    def test_message_mechanism(self, platform_c):
        ctx = _ctx(platform_c, kind="dlr")
        assert SokSystem().mechanism(ctx) is Mechanism.MESSAGE

    def test_per_table_rounds_overhead(self, platform_c):
        few = _ctx(platform_c, kind="dlr", num_tables=2)
        many = _ctx(platform_c, kind="dlr", num_tables=100)
        sok = SokSystem()
        assert sok.per_iteration_overhead(many) > sok.per_iteration_overhead(few)

    def test_single_table_no_extra_rounds(self, platform_c):
        ctx = _ctx(platform_c, kind="dlr", num_tables=1)
        assert SokSystem().per_iteration_overhead(ctx) == 0.0


class TestUGache:
    def test_supports_both_kinds(self, platform_c):
        system = UGacheSystem(SolverConfig(coarse_block_frac=0.05))
        for kind in ("gnn", "dlr"):
            result = evaluate_system(system, _ctx(platform_c, kind=kind))
            assert result.extraction_time > 0

    def test_factored_mechanism(self, platform_c):
        assert UGacheSystem().mechanism(_ctx(platform_c)) is Mechanism.FACTORED

    def test_beats_heuristic_baselines(self, platform_c):
        ctx = _ctx(platform_c, capacity=150)
        ug = evaluate_system(UGacheSystem(SolverConfig(coarse_block_frac=0.05)), ctx)
        repu = evaluate_system(RepUSystem(), ctx)
        partu = evaluate_system(PartUSystem(), ctx)
        assert ug.extraction_time <= repu.extraction_time * 1.05
        assert ug.extraction_time <= partu.extraction_time * 1.05


class TestEvaluateSystem:
    def test_result_fields(self, platform_c):
        result = evaluate_system(RepUSystem(), _ctx(platform_c))
        assert result.system == "RepU"
        assert result.iteration_time == pytest.approx(
            result.extraction_time
            + result.overhead_time
            + result.dense_time
            + result.sampling_time
        )
        assert result.epoch_time(10) == pytest.approx(10 * result.iteration_time)

    def test_hit_rates_attached(self, platform_c):
        result = evaluate_system(RepUSystem(), _ctx(platform_c))
        total = result.hits.local + result.hits.remote + result.hits.host
        assert total == pytest.approx(1.0)
