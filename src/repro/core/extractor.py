"""Runtime factored Extractor (§5.3, Figure 8) — the conventional facade
over the unified extraction pipeline.

The Extractor turns one GPU's key batch into an *extraction plan*: keys
grouped by source location, cores dedicated per non-local group within link
tolerance, and the local group scheduled last at low priority to pad ragged
finishing times.  Every step is a stage of :mod:`repro.core.pipeline`
(resolve → reroute → group → dedicate → price → execute); this class adds
the legacy ``extractor.*`` metrics, nothing else.  Because the batch
simulator, the event simulators and the serving runtime price through the
same :func:`~repro.core.pipeline.price_demand` stage, functional
correctness and simulated performance come from one shared pipeline — not
merely one class.

Fault tolerance: when a :class:`~repro.faults.spec.HealthView` marks a
source GPU down or a link partitioned — or the location table hands back a
corrupt/stale ``<GPU, Offset>`` — the pipeline's reroute stage moves exactly
those keys to the cheapest surviving replica (host as the last resort),
splits the cores over the sources the plan then reads, and emits
``faults.rerouted_keys`` so degradation is visible, never silent.  A
batch always completes; only its price changes.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.pipeline import (
    ExtractionPlan,
    SourceGroup,
    execute_plan,
    plan_extraction,
    price_demand,
)
from repro.faults.spec import HealthView
from repro.hardware.platform import Platform
from repro.obs import get_registry
from repro.sim.engine import BatchReport, simulate_batch
from repro.sim.mechanisms import GpuDemand, Mechanism

__all__ = [
    "ExtractionPlan",
    "FactoredExtractor",
    "SourceGroup",
]


class FactoredExtractor:
    """Plans and executes factored extraction over a multi-GPU cache.

    Every entry point takes the health view to plan and price under
    (``None``: healthy); the caller that advances a fault plan passes it.
    """

    def __init__(self, cache: MultiGpuEmbeddingCache) -> None:
        self._cache = cache

    @property
    def platform(self) -> Platform:
        return self._cache.platform

    @property
    def cache(self) -> MultiGpuEmbeddingCache:
        return self._cache

    def plan(
        self,
        dst: int,
        keys: np.ndarray,
        health: HealthView | None = None,
        exclude_sources: frozenset[int] | set[int] | None = None,
    ) -> ExtractionPlan:
        """Group a batch by source location and dedicate cores (§5.3).

        Runs the pipeline's resolve → reroute → dedicate → group stages.
        ``exclude_sources`` names source GPUs the plan must not read from
        even if they look healthy — the serving layer's open circuit
        breakers.  Their keys reroute through the degraded-mode path
        exactly like a partition would; local reads (``dst`` itself) are
        never excluded, since the local store needs no link.
        """
        reg = get_registry()
        exclude = frozenset(exclude_sources or ())  # a frozenset passes through as is
        seconds = reg.cached("histogram", "extractor.plan.seconds")
        start = perf_counter()
        try:
            plan = plan_extraction(
                self._cache, dst, keys, health=health, exclude=exclude
            )
        finally:
            seconds.observe(perf_counter() - start)
        reg.cached("counter", "extractor.plan.calls").inc()
        return plan

    def execute(self, plan: ExtractionPlan) -> tuple[np.ndarray, GpuDemand]:
        """Gather values per the plan; returns (values, priced demand)."""
        reg = get_registry()
        seconds = reg.cached("histogram", "extractor.execute.seconds")
        start = perf_counter()
        try:
            out = execute_plan(self._cache, plan)
        finally:
            seconds.observe(perf_counter() - start)
        reg.cached("counter", "extractor.execute.calls").inc()
        return out

    def extract(
        self,
        keys_per_gpu: list[np.ndarray],
        local_padding: bool = True,
        health: HealthView | None = None,
    ) -> tuple[list[np.ndarray], BatchReport]:
        """Plan, execute and price one data-parallel batch.

        Holds the cache's :meth:`~repro.core.cache.MultiGpuEmbeddingCache.
        reading` from the first plan to the last gather, so a refresh step
        cannot recycle a planned slot before it is read."""
        with self._cache.reading():
            plans = [
                self.plan(i, keys, health=health) for i, keys in enumerate(keys_per_gpu)
            ]
            outputs = [self.execute(p) for p in plans]
        report = simulate_batch(
            self.platform,
            [demand for _, demand in outputs],
            mechanism=Mechanism.FACTORED,
            local_padding=local_padding,
            health=health,
        )
        return [values for values, _ in outputs], report

    def price(
        self,
        dst: int,
        keys: np.ndarray,
        health: HealthView | None = None,
    ):
        """Timing-only path for one GPU (no value gathering).

        Prices through the pipeline's shared :func:`price_demand` stage —
        the same call the batch simulator and the serving runtime make.
        """
        plan = self.plan(dst, keys, health=health)
        return price_demand(
            self.platform, plan.demand(self._cache.entry_bytes), health=health
        )
