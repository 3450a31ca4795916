"""Common harness for the embedding-cache systems compared in §8.

Every system — UGache and the six baselines — is a triple of

* a *cache policy* (how entries are placed across GPUs),
* an *extraction mechanism* (how a batch is fetched), and
* a *per-iteration overhead* model (eviction bookkeeping, buffering,
  host-queue transfers — the system-specific costs §8.2 calls out).

:func:`evaluate_system` scores one system on one workload context and
returns the numbers behind Figures 10/11: extraction time, overheads, and
the end-to-end iteration time.  Extraction is priced by
:func:`~repro.core.evaluate.evaluate_placement` through the batch engine,
whose factored branch is the extraction pipeline's shared price stage
(:func:`repro.core.pipeline.price_demand`) — so a baseline's factored
number is directly comparable to the extractor's and the serving
runtime's.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.evaluate import HitRates, evaluate_placement, hit_rates
from repro.core.policy import Placement
from repro.hardware.platform import Platform
from repro.sim.engine import BatchReport
from repro.sim.mechanisms import Mechanism


class UnsupportedConfiguration(RuntimeError):
    """A system cannot run this configuration (paper: WholeGraph's ①/②)."""


@dataclass(frozen=True)
class SystemContext:
    """Everything a system needs to plan and be scored on one workload.

    Attributes:
        platform: hardware model.
        hotness: expected accesses per entry per batch per GPU.
        entry_bytes: embedding entry size.
        capacity_entries: per-GPU cache budget (entries).
        kind: ``"gnn"`` or ``"dlr"`` (some baselines are app-specific).
        batch_keys: keys one GPU extracts per iteration (with duplicates —
            what overhead models like LRU maintenance scale with).
        dense_time: per-iteration dense compute, seconds.
        sampling_time: per-iteration graph sampling, seconds (GNN only).
        graph_bytes: scaled topology volume (GNNLab's capacity bonus).
    """

    platform: Platform
    hotness: np.ndarray
    entry_bytes: int
    capacity_entries: int
    kind: str = "gnn"
    batch_keys: float = 0.0
    dense_time: float = 0.0
    sampling_time: float = 0.0
    graph_bytes: int = 0
    #: embedding tables per model (DLR): message-based systems pay one
    #: collective round per table.
    num_tables: int = 1

    @property
    def num_entries(self) -> int:
        return int(len(self.hotness))

    @property
    def num_gpus(self) -> int:
        return self.platform.num_gpus


@dataclass(frozen=True)
class SystemResult:
    """One cell of Figure 10/11: a system's score on one configuration."""

    system: str
    extraction_time: float
    overhead_time: float
    dense_time: float
    sampling_time: float
    report: BatchReport
    hits: HitRates
    placement: Placement

    @property
    def iteration_time(self) -> float:
        """End-to-end time of one iteration (Figure 10's unit for DLR)."""
        return (
            self.extraction_time
            + self.overhead_time
            + self.dense_time
            + self.sampling_time
        )

    def epoch_time(self, iterations: int) -> float:
        """End-to-end epoch time (Figure 10's unit for GNN)."""
        return self.iteration_time * iterations


class EmbCacheSystem(abc.ABC):
    """Base class for every compared system."""

    #: display name used in benchmark tables
    name: str = "base"
    #: which applications the system supports ("gnn", "dlr", or both)
    supports: tuple[str, ...] = ("gnn", "dlr")

    @abc.abstractmethod
    def plan(self, ctx: SystemContext) -> Placement:
        """Choose the cache placement for this context."""

    @abc.abstractmethod
    def mechanism(self, ctx: SystemContext) -> Mechanism:
        """Extraction mechanism the system uses."""

    def per_iteration_overhead(self, ctx: SystemContext) -> float:
        """System-specific per-iteration cost outside raw extraction."""
        return 0.0

    def check_supported(self, ctx: SystemContext) -> None:
        if ctx.kind not in self.supports:
            raise UnsupportedConfiguration(
                f"{self.name} does not support {ctx.kind} workloads"
            )


def evaluate_system(system: EmbCacheSystem, ctx: SystemContext) -> SystemResult:
    """Score one system on one workload context (a Figure 10/11 cell)."""
    system.check_supported(ctx)
    placement = system.plan(ctx)
    report = evaluate_placement(
        ctx.platform,
        placement,
        ctx.hotness,
        ctx.entry_bytes,
        mechanism=system.mechanism(ctx),
    )
    hits = hit_rates(ctx.platform, placement, ctx.hotness)
    return SystemResult(
        system=system.name,
        extraction_time=report.time,
        overhead_time=system.per_iteration_overhead(ctx),
        dense_time=ctx.dense_time,
        sampling_time=ctx.sampling_time,
        report=report,
        hits=hits,
        placement=placement,
    )
