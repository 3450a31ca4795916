"""Public embedding-layer facade (§4, §7.1).

:class:`UGacheEmbeddingLayer` is the object applications drop in place of
their framework's embedding layer.  Construction runs the full UGache
pipeline — hotness → blocking → MILP solve → placement realization → cache
fill — and ``lookup`` serves batches through the factored Extractor.

The framework wrappers in :mod:`repro.framework` adapt this class to
PyTorch-style and Keras-style calling conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.evaluate import HitRates, evaluate_placement, hit_rates
from repro.core.extractor import FactoredExtractor
from repro.core.policy import Placement
from repro.core.refresher import Refresher, RefreshOutcome
from repro.core.solver import SolvedPolicy, SolverConfig, solve_policy
from repro.hardware.platform import Platform
from repro.sim.engine import BatchReport
from repro.sim.mechanisms import Mechanism


@dataclass(frozen=True)
class EmbeddingLayerConfig:
    """Construction options for :class:`UGacheEmbeddingLayer`.

    Attributes:
        cache_ratio: per-GPU cache capacity as a fraction of all entries
            (the paper's sweep axis); mutually exclusive with
            ``capacity_entries``.
        capacity_entries: explicit per-GPU entry budget.
        solver: solver knobs (§6.3 blocking defaults).
    """

    cache_ratio: float | None = None
    capacity_entries: int | None = None
    solver: SolverConfig = SolverConfig()

    def resolve_capacity(self, num_entries: int) -> int:
        if (self.cache_ratio is None) == (self.capacity_entries is None):
            raise ValueError("set exactly one of cache_ratio / capacity_entries")
        if self.capacity_entries is not None:
            if self.capacity_entries < 0:
                raise ValueError("capacity must be non-negative")
            return self.capacity_entries
        if not 0 <= self.cache_ratio <= 1:
            raise ValueError("cache_ratio must be in [0, 1]")
        return int(self.cache_ratio * num_entries)


class UGacheEmbeddingLayer:
    """A unified multi-GPU embedding cache behind a lookup() interface."""

    def __init__(
        self,
        platform: Platform,
        table: np.ndarray,
        hotness: np.ndarray,
        config: EmbeddingLayerConfig,
    ) -> None:
        if table.ndim != 2:
            raise ValueError("embedding table must be (entries × dim)")
        if len(hotness) != table.shape[0]:
            raise ValueError("hotness must cover every table entry")
        self._platform = platform
        self._table = table
        self._hotness = np.asarray(hotness, dtype=np.float64)
        self._config = config
        capacity = config.resolve_capacity(table.shape[0])
        entry_bytes = table.shape[1] * table.itemsize

        self._policy: SolvedPolicy = solve_policy(
            platform,
            self._hotness,
            capacity,
            entry_bytes,
            config=config.solver,
        )
        placement = self._policy.realize()
        self._cache = MultiGpuEmbeddingCache(
            platform, table, placement, capacity_entries=capacity
        )
        self._extractor = FactoredExtractor(self._cache)
        self._refresher = Refresher(self._cache)
        self._capacity = capacity
        self._entry_bytes = entry_bytes

    # ------------------------------------------------------------------
    # Serving path
    # ------------------------------------------------------------------
    def lookup(self, gpu: int, keys: np.ndarray) -> np.ndarray:
        """Gather embeddings for one GPU's key batch (values only)."""
        return self._cache.lookup(gpu, keys).values

    def extract(
        self, keys_per_gpu: list[np.ndarray]
    ) -> tuple[list[np.ndarray], BatchReport]:
        """Data-parallel batch lookup with simulated factored timing."""
        return self._extractor.extract(keys_per_gpu)

    # ------------------------------------------------------------------
    # Introspection & maintenance
    # ------------------------------------------------------------------
    @property
    def platform(self) -> Platform:
        return self._platform

    @property
    def cache(self) -> MultiGpuEmbeddingCache:
        return self._cache

    @property
    def policy(self) -> SolvedPolicy:
        return self._policy

    @property
    def placement(self) -> Placement:
        return self._cache.placement

    def hit_rates(self) -> HitRates:
        """Expected local/remote/host access split under current hotness."""
        return hit_rates(self._platform, self._cache.placement, self._hotness)

    def expected_report(self, mechanism: Mechanism = Mechanism.FACTORED) -> BatchReport:
        """Expected per-iteration extraction report under current hotness."""
        return evaluate_placement(
            self._platform,
            self._cache.placement,
            self._hotness,
            self._entry_bytes,
            mechanism=mechanism,
        )

    def refresh(self, new_hotness: np.ndarray) -> RefreshOutcome:
        """Re-solve under drifted hotness and apply the diff if worthwhile."""
        new_hotness = np.asarray(new_hotness, dtype=np.float64)
        if new_hotness.shape != self._hotness.shape:
            raise ValueError("new hotness must cover the same entries")
        candidate = solve_policy(
            self._platform,
            new_hotness,
            self._capacity,
            self._entry_bytes,
            config=self._config.solver,
        )
        current_time = evaluate_placement(
            self._platform,
            self._cache.placement,
            new_hotness,
            self._entry_bytes,
        ).time
        if not self._refresher.should_refresh(current_time, candidate.est_time):
            return RefreshOutcome(triggered=False)
        outcome = self._refresher.refresh(candidate.realize())
        self._hotness = new_hotness
        self._policy = candidate
        return outcome
