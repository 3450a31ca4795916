"""Dataset stand-ins (Table 3) and the scaled-capacity rule."""

import numpy as np
import pytest

from repro.core.hotness import degree_hotness
from repro.datasets import (
    GNN_SPECS,
    all_dataset_summaries,
    build_gnn_dataset,
    cache_ratio_for,
    capacity_entries_for,
    dlr_spec,
)


class TestGnnSpecs:
    def test_table3_datasets_present(self):
        assert set(GNN_SPECS) == {"pa", "cf", "mag"}

    def test_mag_is_float16_768(self):
        spec = GNN_SPECS["mag"]
        assert spec.dim == 768
        assert spec.dtype == "float16"
        assert spec.entry_bytes == 1536

    def test_pa_cf_are_float32(self):
        assert GNN_SPECS["pa"].entry_bytes == 128 * 4
        assert GNN_SPECS["cf"].entry_bytes == 256 * 4

    def test_skew_ordering(self):
        # PA/MAG high skew, CF low skew — the Figure 14 contrast.
        assert GNN_SPECS["pa"].degree_alpha > GNN_SPECS["cf"].degree_alpha
        assert GNN_SPECS["mag"].degree_alpha > GNN_SPECS["cf"].degree_alpha

    def test_topology_budget_uses_paper_ratio(self):
        spec = GNN_SPECS["pa"]
        expected = spec.embedding_bytes * 12.8 / 53.0
        assert spec.topology_budget_bytes == pytest.approx(expected, rel=0.01)


class TestBuildGnnDataset:
    def test_build_and_memoize(self):
        a = build_gnn_dataset("pa")
        b = build_gnn_dataset("pa")
        assert a is b  # lru_cache

    def test_shapes_match_spec(self):
        ds = build_gnn_dataset("cf")
        assert ds.graph.num_nodes == GNN_SPECS["cf"].num_nodes
        assert len(ds.train_ids) == int(0.15 * 131_000)

    def test_train_ids_unique_sorted(self):
        ds = build_gnn_dataset("pa")
        assert (np.diff(ds.train_ids) > 0).all()

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            build_gnn_dataset("ogbn-products")

    def test_degree_hotness_normalized(self):
        ds = build_gnn_dataset("pa")
        assert degree_hotness(ds.graph.degrees()).sum() == pytest.approx(1.0)


class TestDlrSpecs:
    def test_cr_has_26_tables(self):
        assert dlr_spec("cr").num_tables == 26

    def test_syn_datasets(self):
        assert dlr_spec("syn-a").alpha == 1.2
        assert dlr_spec("syn-b").alpha == 1.4
        assert dlr_spec("syn-a").num_tables == 100
        assert dlr_spec("syn-a").num_entries == 800_000

    def test_criteo_sizes_heterogeneous(self):
        sizes = dlr_spec("cr").table_sizes
        assert max(sizes) > 100 * min(sizes)

    def test_workload_construction(self):
        wl = dlr_spec("syn-as").workload(batch_size=16, num_gpus=2)
        assert wl.num_entries == dlr_spec("syn-as").num_entries

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            dlr_spec("criteo-kaggle")


class TestCapacityRule:
    def test_mag_tight_on_v100(self, platform_a):
        # MAG barely fits: the host-bound regime of §8.2.
        assert cache_ratio_for(platform_a, GNN_SPECS["mag"]) < 0.05

    def test_bigger_gpu_bigger_ratio(self, platform_a, platform_c):
        for spec in GNN_SPECS.values():
            assert cache_ratio_for(platform_c, spec) > cache_ratio_for(
                platform_a, spec
            )

    def test_ratio_capped_at_one(self, platform_c, monkeypatch):
        from repro.datasets import registry

        monkeypatch.setattr(registry, "USABLE_GPU_FRACTION", 5.0)
        assert cache_ratio_for(platform_c, GNN_SPECS["pa"]) == 1.0

    def test_capacity_entries(self, platform_c):
        spec = GNN_SPECS["pa"]
        cap = capacity_entries_for(platform_c, spec)
        assert cap == int(cache_ratio_for(platform_c, spec) * spec.num_nodes)


class TestSummaries:
    def test_table3_rows(self):
        rows = {s.key for s in all_dataset_summaries()}
        assert rows == {"pa", "cf", "mag", "cr", "syn-a", "syn-b"}

    def test_reduced_variants_excluded(self):
        keys = {s.key for s in all_dataset_summaries()}
        assert "syn-as" not in keys and "syn-bs" not in keys

    def test_volumes_positive(self):
        for s in all_dataset_summaries():
            assert s.volume_bytes > 0
            assert 0 < s.scale < 0.01
