"""Hotness metric (§6.1): per-entry access-frequency estimation.

Hotness of entry ``e`` is the expected number of times one GPU's batch
accesses ``e`` per iteration.  The solver multiplies it by per-byte access
cost to estimate extraction time, so the *scale* matters, not only the
ranking.

Two estimators mirror the paper's options:

* :class:`HotnessTracker` — counting of sampled requests (what
  :meth:`~repro.gnn.workload.GnnWorkload.presampled_hotness` profiles the
  first epoch with — GNNLab's pre-sampling — and what
  :class:`~repro.core.drift_adapt.StreamingHotnessEstimator` decays online);
* :func:`degree_hotness` — approximate GNN access frequency by vertex
  degree (PaGraph's estimator for graph workloads).
"""

from __future__ import annotations

import numpy as np


class HotnessTracker:
    """Streaming access counter over a fixed entry universe.

    ``record`` accepts raw key batches (duplicates count, as in the
    paper's extraction cost model); ``counts()`` and ``batches_recorded``
    are what a caller normalizes to expected accesses per batch.
    """

    def __init__(self, num_entries: int) -> None:
        if num_entries <= 0:
            raise ValueError("entry universe must be non-empty")
        self._counts = np.zeros(num_entries, dtype=np.float64)
        self._batches = 0

    @property
    def num_entries(self) -> int:
        return len(self._counts)

    @property
    def batches_recorded(self) -> int:
        return self._batches

    def record(self, keys: np.ndarray) -> None:
        """Account one batch of accesses (a 1-D integer key array)."""
        self._counts += self._batch_counts(keys)
        self._batches += 1

    def _batch_counts(self, keys: np.ndarray) -> np.ndarray:
        """One batch's access count per entry; raises on a key out of range."""
        keys = np.asarray(keys)
        if keys.size and (keys.min() < 0 or keys.max() >= self.num_entries):
            raise ValueError("keys out of range for this tracker")
        return np.bincount(keys, minlength=self.num_entries)

    def counts(self) -> np.ndarray:
        """Raw access counts (copy)."""
        return self._counts.copy()


def degree_hotness(degrees: np.ndarray) -> np.ndarray:
    """Degree-proportional hotness for GNN embeddings (§6.1).

    High-degree vertices are proportionally more likely to appear in
    sampled k-hop neighbourhoods; scaled to one expected access per batch
    in total.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    if (degrees < 0).any():
        raise ValueError("degrees must be non-negative")
    total = degrees.sum()
    if total <= 0:
        raise ValueError("graph has no edges; degree hotness undefined")
    return degrees / total
