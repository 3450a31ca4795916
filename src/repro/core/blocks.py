"""Hotness blocking (§6.3, Figure 9): batch similar entries to shrink the MILP.

The per-entry MILP has ``O(E·G²)`` variables — intractable for real tables.
UGache groups entries with similar hotness into *blocks* and solves at
block granularity:

* levels are formed on a **log scale** (a 110→120 hotness difference is
  less meaningful than 10→20);
* a **coarse** cap bounds any block to a fixed fraction of all entries
  (default 0.5%), so the huge cold tail cannot collapse into one block;
* a **fine** split guarantees each level yields at least ``N`` (the GPU
  count) blocks, so low cache ratios can still place sub-level fractions.

The result is at most ~a thousand blocks regardless of table size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.arrays import hot_order, runs, sorted_unique


@dataclass(frozen=True)
class BlockSet:
    """Entries grouped into hotness blocks.

    Attributes:
        order: entry ids sorted by descending hotness; blocks are
            contiguous slices of this array.
        offsets: ``(num_blocks + 1,)`` slice boundaries into ``order``.
        hotness_sum: total hotness per block (the solver weight ``H_b``).
        num_entries: size of the entry universe.
    """

    order: np.ndarray
    offsets: np.ndarray
    hotness_sum: np.ndarray
    num_entries: int

    def __post_init__(self) -> None:
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.order):
            raise ValueError("offsets must span the full entry order")
        if (np.diff(self.offsets) <= 0).any():
            raise ValueError("blocks must be non-empty")

    @property
    def num_blocks(self) -> int:
        return len(self.offsets) - 1

    @property
    def sizes(self) -> np.ndarray:
        """Entries per block."""
        return np.diff(self.offsets)

    def entries(self, block: int) -> np.ndarray:
        """Entry ids of one block (hotness-descending order)."""
        return self.order[self.offsets[block] : self.offsets[block + 1]]

    def block_of(self) -> np.ndarray:
        """Inverse map: entry id → block index."""
        inverse = np.empty(self.num_entries, dtype=np.int64)
        inverse[self.order] = np.repeat(np.arange(self.num_blocks), self.sizes)
        return inverse


#: Log-level clamp: entries more than ``2**MAX_LEVELS`` colder than the
#: hottest share the bottom level.
MAX_LEVELS = 40


def build_blocks(
    hotness: np.ndarray,
    num_gpus: int,
    coarse_frac: float = 0.005,
) -> BlockSet:
    """Group entries into log-scale hotness blocks.

    Args:
        hotness: per-entry hotness (non-negative).
        num_gpus: minimum fine-grained blocks per level (the paper's ``N``).
        coarse_frac: coarse cap — no block exceeds this fraction of all
            entries (paper: 0.5%).

    Returns:
        A :class:`BlockSet` whose blocks are contiguous runs of the
        hotness-descending entry order, never mixing log levels.
    """
    hotness = np.asarray(hotness, dtype=np.float64)
    if hotness.ndim != 1 or hotness.size == 0:
        raise ValueError("hotness must be a non-empty 1-D array")
    if not np.isfinite(hotness).all():
        raise ValueError("hotness must be finite")
    if (hotness < 0).any():
        raise ValueError("hotness must be non-negative")
    if num_gpus <= 0:
        raise ValueError("num_gpus must be positive")
    if not 0 < coarse_frac <= 1:
        raise ValueError("coarse_frac must be in (0, 1]")

    n = hotness.size
    order = hot_order(hotness)
    sorted_hot = hotness[order]

    # Log-scale levels relative to the hottest entry.  Zero-hotness entries
    # (never accessed during profiling) form their own bottom level.
    hot_max = sorted_hot[0]
    levels = np.full(n, MAX_LEVELS, dtype=np.int64)
    positive = sorted_hot > 0
    if hot_max > 0:
        # log-difference form avoids overflow when hotness spans the full
        # float range (hot_max / tiny would overflow).
        log_gap = np.log2(hot_max) - np.log2(sorted_hot[positive])
        levels[positive] = np.clip(np.floor(log_gap), 0, MAX_LEVELS - 1).astype(
            np.int64
        )

    coarse_cap = max(1, int(np.ceil(coarse_frac * n)))
    # A level is a run of equal values along the sorted order.
    start = np.flatnonzero(np.diff(levels, prepend=-1))
    size = np.diff(start, append=n)
    # Fine split: at least num_gpus blocks per level, and respect the
    # coarse cap.  ceil division keeps pieces near-equal.
    pieces = np.minimum(np.maximum(num_gpus, -(-size // coarse_cap)), size)
    # Every level's ``np.linspace(start, stop, pieces + 1)`` at once, term
    # for term ``k·step + start`` (its last term rounds to ``stop``).
    level, k = runs(pieces + 1)
    bounds = k * (size / pieces)[level] + start[level]
    offsets = sorted_unique(bounds.round().astype(np.int64))
    # numpy's pairwise sum, per block: H_b feeds the LP, and reduceat
    # rounds differently.
    hotness_sums = [sorted_hot[lo:hi].sum() for lo, hi in zip(offsets[:-1], offsets[1:])]

    return BlockSet(
        order=order,
        offsets=offsets,
        hotness_sum=np.asarray(hotness_sums, dtype=np.float64),
        num_entries=n,
    )


def build_uniform_blocks(hotness: np.ndarray, num_blocks: int) -> BlockSet:
    """Linear-scale blocking ablation: equal-size blocks over the sorted order.

    Used by the blocking ablation benchmark to show why the paper's
    log-scale levels matter at low cache ratios.
    """
    hotness = np.asarray(hotness, dtype=np.float64)
    n = hotness.size
    if not 1 <= num_blocks <= n:
        raise ValueError(f"num_blocks must be in [1, {n}]")
    order = hot_order(hotness)
    bounds = np.linspace(0, n, num_blocks + 1).round().astype(np.int64)
    bounds = sorted_unique(bounds)
    sums = np.add.reduceat(hotness[order], bounds[:-1])
    return BlockSet(
        order=order,
        offsets=bounds,
        hotness_sum=sums,
        num_entries=n,
    )


def per_entry_blocks(hotness: np.ndarray) -> BlockSet:
    """One block per entry — the granularity of the 'optimal' reference.

    Only feasible for small universes (Figure 16 reduces the dataset for
    exactly this reason).
    """
    hotness = np.asarray(hotness, dtype=np.float64)
    n = hotness.size
    order = hot_order(hotness)
    return BlockSet(
        order=order,
        offsets=np.arange(n + 1, dtype=np.int64),
        hotness_sum=hotness[order].copy(),
        num_entries=n,
    )
