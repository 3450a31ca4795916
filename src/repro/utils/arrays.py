"""Array helpers shared by the placement paths."""

import numpy as np


def sorted_unique(ids) -> np.ndarray:
    """``np.unique(ids)`` for integer ids, as one sort plus an adjacent-
    difference mask: numpy 2's plain ``unique`` takes a hash path measured
    20-40x slower (368-488 us against 16 us for 2,400 ids).  A union of
    arrays is ``sorted_unique(np.concatenate(...))``."""
    ids = np.sort(np.ravel(ids))
    keep = np.empty(ids.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def runs(counts) -> tuple[np.ndarray, np.ndarray]:
    """Items laid out as runs of ``counts[r]`` each, end to end: every
    item's run and its index within that run."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


def hot_order(hotness) -> np.ndarray:
    """Entry ids by descending hotness, ties in id order: exactly
    ``np.argsort(-hotness, kind="stable")``.  Without an exact tie the order
    is unique, so numpy's default (SIMD) argsort gives it bit for bit at a
    fraction of the stable sort's cost; only a tie pays for the stable one."""
    negated = -np.asarray(hotness, dtype=np.float64)
    order = np.argsort(negated)
    ranked = negated[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(negated, kind="stable")
    return order
