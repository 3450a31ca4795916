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


def choice_cdf(p) -> np.ndarray:
    """The CDF ``Generator.choice(len(p), p=p)`` rebuilds on every call,
    built once for :func:`sample_cdf`.  ``p`` gets the checks ``choice``
    makes — finite, non-negative, summing to 1 within ``sqrt(eps)`` — so
    checking it only here loses none."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or not np.isfinite(p).all() or (p < 0).any():
        raise ValueError("probabilities must be finite and non-negative")
    if abs(p.sum() - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_cdf(cdf: np.ndarray, rng: np.random.Generator, size=None):
    """``rng.choice(len(cdf), size, p=p)`` for the ``p`` behind ``cdf``
    (numpy's own method): the same indices, and ``rng`` left at the same
    stream position."""
    return cdf.searchsorted(rng.random(size), side="right")


def geometric_mean(values) -> float:
    """Geometric mean, the paper's aggregation for 'average speedup' claims."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric mean of empty sequence")
    if (arr <= 0).any():
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.log(arr).mean()))
