"""Small statistics helpers used across workloads and benchmarks."""

from __future__ import annotations

import numpy as np


def zipf_pmf(n: int, alpha: float) -> np.ndarray:
    """Probability mass of a (finite-support) Zipf distribution over ranks 1..n.

    This is the access skew model the paper uses for the SYN-A/SYN-B DLR
    datasets (``alpha`` = 1.2 / 1.4) and the Figure 4 synthetic trace.
    ``alpha`` = 0 degenerates to the uniform distribution.
    """
    if n <= 0:
        raise ValueError(f"support size must be positive, got {n}")
    if alpha < 0:
        raise ValueError(f"zipf exponent must be non-negative, got {alpha}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-alpha
    return weights / weights.sum()


def normalize(weights: np.ndarray) -> np.ndarray:
    """Normalize non-negative weights into a probability vector."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise ValueError(f"expected 1-D weights, got shape {weights.shape}")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return weights / total


def geometric_mean(values) -> float:
    """Geometric mean, the paper's aggregation for 'average speedup' claims."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric mean of empty sequence")
    if (arr <= 0).any():
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.log(arr).mean()))


def coverage_curve(probabilities: np.ndarray) -> np.ndarray:
    """Cumulative probability covered by the top-k hottest items.

    ``coverage_curve(p)[k]`` is the hit rate of a size-``k`` cache holding
    the ``k`` most probable items — the quantity behind Figure 2(a).
    Index 0 is always 0 (empty cache).
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    ordered = np.sort(probabilities)[::-1]
    curve = np.concatenate([[0.0], np.cumsum(ordered)])
    # Floating-point drift in the running sum can push the tail above
    # 1.0 on large catalogs (~1e7 items), which downstream hit-rate math
    # would read as >100% hit rate; coverage is a probability, clamp it.
    return np.minimum(curve, 1.0)
