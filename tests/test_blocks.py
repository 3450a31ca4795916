"""Hotness blocking (§6.3, Figure 9)."""

import numpy as np
import pytest

from repro.core.blocks import (
    build_blocks,
    build_uniform_blocks,
    per_entry_blocks,
)
from repro.utils.stats import zipf_pmf


@pytest.fixture
def zipf_hotness():
    return zipf_pmf(10_000, 1.2) * 1000


class TestBuildBlocks:
    def test_blocks_partition_all_entries(self, zipf_hotness):
        blocks = build_blocks(zipf_hotness, num_gpus=8)
        assert blocks.sizes.sum() == len(zipf_hotness)
        assert len(np.unique(blocks.order)) == len(zipf_hotness)

    def test_block_count_stays_small(self, zipf_hotness):
        # §6.3: "UGache decreases E ... to less than one thousand".
        blocks = build_blocks(zipf_hotness, num_gpus=8)
        assert blocks.num_blocks < 1000

    def test_blocks_are_hotness_sorted(self, zipf_hotness):
        blocks = build_blocks(zipf_hotness, num_gpus=4)
        means = blocks.hotness_sum / blocks.sizes
        assert (np.diff(means) <= 1e-12).all()

    def test_coarse_cap_respected(self, zipf_hotness):
        frac = 0.005
        blocks = build_blocks(zipf_hotness, num_gpus=4, coarse_frac=frac)
        cap = int(np.ceil(frac * len(zipf_hotness)))
        # Allow +1 for rounding at level boundaries.
        assert blocks.sizes.max() <= cap + 1

    def test_levels_split_into_at_least_n_blocks(self):
        # One hotness level with many entries must yield >= num_gpus blocks.
        hot = np.ones(1000)
        blocks = build_blocks(hot, num_gpus=8, coarse_frac=1.0)
        assert blocks.num_blocks >= 8

    def test_hotness_sums_match(self, zipf_hotness):
        blocks = build_blocks(zipf_hotness, num_gpus=8)
        assert blocks.hotness_sum.sum() == pytest.approx(zipf_hotness.sum())

    def test_zero_hotness_entries_grouped(self):
        hot = np.concatenate([zipf_pmf(100, 1.0), np.zeros(900)])
        blocks = build_blocks(hot, num_gpus=4)
        assert blocks.sizes.sum() == 1000
        # Cold entries land in the final blocks.
        assert blocks.hotness_sum[-1] == 0.0

    def test_entries_accessor(self, zipf_hotness):
        blocks = build_blocks(zipf_hotness, num_gpus=4)
        first = blocks.entries(0)
        assert zipf_hotness[first].min() >= zipf_hotness[blocks.entries(1)].max() - 1e-12

    def test_block_of_inverse(self, zipf_hotness):
        blocks = build_blocks(zipf_hotness, num_gpus=4)
        inverse = blocks.block_of()
        for b in (0, blocks.num_blocks // 2, blocks.num_blocks - 1):
            assert (inverse[blocks.entries(b)] == b).all()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_blocks(np.array([]), 4)
        with pytest.raises(ValueError):
            build_blocks(np.array([-1.0]), 4)
        with pytest.raises(ValueError):
            build_blocks(np.ones(10), 0)
        with pytest.raises(ValueError):
            build_blocks(np.ones(10), 4, coarse_frac=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_hotness(self, bad):
        # Refused up front, not by HiGHS's input check on the block sums.
        hot = zipf_pmf(100, 1.0)
        hot[37] = bad
        with pytest.raises(ValueError, match="hotness must be finite"):
            build_blocks(hot, 4)


class TestUniformBlocks:
    def test_equal_sizes(self):
        blocks = build_uniform_blocks(zipf_pmf(1000, 1.0), 10)
        assert set(blocks.sizes) == {100}

    def test_single_block(self):
        blocks = build_uniform_blocks(zipf_pmf(100, 1.0), 1)
        assert blocks.num_blocks == 1

    def test_rejects_too_many(self):
        with pytest.raises(ValueError):
            build_uniform_blocks(np.ones(5), 6)


class TestPerEntryBlocks:
    def test_one_block_per_entry(self):
        hot = zipf_pmf(50, 1.0)
        blocks = per_entry_blocks(hot)
        assert blocks.num_blocks == 50
        assert (blocks.sizes == 1).all()

    def test_hotness_preserved(self):
        hot = zipf_pmf(50, 1.3)
        blocks = per_entry_blocks(hot)
        assert blocks.hotness_sum.sum() == pytest.approx(hot.sum())
