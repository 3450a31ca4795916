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


def geometric_mean(values) -> float:
    """Geometric mean, the paper's aggregation for 'average speedup' claims."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric mean of empty sequence")
    if (arr <= 0).any():
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.log(arr).mean()))
