"""Batch-level extraction simulation across all GPUs of a platform.

The engine takes one :class:`~repro.sim.mechanisms.GpuDemand` per GPU
(data-parallel execution: every GPU extracts its own batch concurrently),
dispatches to the selected mechanism's timing model, and aggregates a
:class:`BatchReport`.  Data-parallel training/inference synchronizes every
iteration, so the batch extraction time is the maximum over GPUs.

Health application and factored pricing are the extraction pipeline's
stages (:func:`repro.core.pipeline.apply_health` and
:func:`~repro.core.pipeline.price_demand`), shared with the extractor and
the serving runtime, so a demand priced here matches a demand priced
anywhere else in the stack.  The imports are function-level because
``repro.core`` imports this package back.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.spec import HealthView
from repro.hardware.platform import Platform, remember
from repro.obs import get_registry
from repro.sim.mechanisms import (
    GpuDemand,
    GpuExtractionReport,
    Mechanism,
    message_extraction,
    naive_peer_extraction,
)


@dataclass(frozen=True)
class BatchReport:
    """Outcome of one simulated batch extraction across all GPUs."""

    mechanism: Mechanism
    per_gpu: list[GpuExtractionReport]

    @property
    def time(self) -> float:
        """Batch extraction time (data-parallel barrier = max over GPUs)."""
        return max((r.time for r in self.per_gpu), default=0.0)

    def total_volume(self) -> float:
        return sum(sum(r.volumes.values()) for r in self.per_gpu)

    def volume_split(self) -> dict[str, float]:
        """Aggregate bytes by source class: local / remote / host.

        This is the quantity behind Figure 14's stacked access-rate bars
        (after normalizing by the total).
        """
        local = sum(r.volume_local() for r in self.per_gpu)
        remote = sum(r.volume_remote() for r in self.per_gpu)
        host = sum(r.volume_host() for r in self.per_gpu)
        return {"local": local, "remote": remote, "host": host}

    def access_split(self) -> dict[str, float]:
        """Fraction of bytes served from each source class (sums to 1)."""
        split = self.volume_split()
        total = sum(split.values())
        if total <= 0:
            return {k: 0.0 for k in split}
        return {k: v / total for k, v in split.items()}

    def time_split(self) -> dict[str, float]:
        """Mean per-GPU seconds attributable to each source class (Fig. 15)."""
        out = {"local": 0.0, "remote": 0.0, "host": 0.0}
        if not self.per_gpu:
            return out
        for r in self.per_gpu:
            for src, t in r.time_by_source.items():
                if src == r.dst:
                    out["local"] += t
                elif src < 0:  # any backing tier
                    out["host"] += t
                else:
                    out["remote"] += t
        return {k: v / len(self.per_gpu) for k, v in out.items()}


def readers_per_source(demands: list[GpuDemand]) -> dict[int, int]:
    """How many GPUs pull from each GPU source this batch (switch collisions)."""
    counts: dict[int, int] = {}
    for d in demands:
        for src, vol in d.volumes.items():
            if vol > 0 and src != d.dst and src >= 0:
                counts[src] = counts.get(src, 0) + 1
    return counts


def simulate_batch(
    platform: Platform,
    demands: list[GpuDemand],
    mechanism: Mechanism = Mechanism.FACTORED,
    local_padding: bool = True,
    health: HealthView | None = None,
) -> BatchReport:
    """Simulate one data-parallel batch extraction.

    Args:
        platform: hardware model.
        demands: one entry per participating GPU (usually all of them).
        mechanism: extraction mechanism to model.
        local_padding: FEM ablation switch — disable the local-group
            padding of §5.3 to quantify its contribution.
        health: the faults active now, flattened; degraded links slow
            their groups and volume on dead sources is rerouted, so
            Figure-17-style timelines can price injected faults.

    Returns:
        A :class:`BatchReport`; ``report.time`` is the batch extraction
        time in seconds.
    """
    from repro.core.pipeline import apply_health, price_demand

    platform, demands, moved = apply_health(platform, demands, health)
    if moved > 0:
        reg = get_registry()
        if reg.enabled:
            reg.counter("faults.sim.rerouted_bytes").inc(moved)
    for demand in demands:
        # The sources ``dst`` can read, remembered in the (degraded) view.
        readable = platform.memo.get(("readable", demand.dst))
        if readable is None:
            readable = remember(platform.memo, ("readable", demand.dst), frozenset(
                s for s in (*platform.backing_ids, *platform.gpu_ids)
                if platform.is_connected(demand.dst, s)
            ))
        for src, vol in demand.volumes.items():
            if vol > 0 and src not in readable:
                raise ValueError(
                    f"GPU {demand.dst} cannot extract from unconnected GPU {src}"
                )

    if mechanism is Mechanism.MESSAGE:
        reports = message_extraction(platform, demands)
    elif mechanism is Mechanism.PEER_NAIVE:
        readers = readers_per_source(demands)
        reports = [naive_peer_extraction(platform, d, readers) for d in demands]
    elif mechanism is Mechanism.FACTORED:
        # The pipeline's price stage: the same call the extractor's
        # ``price`` and the serving runtime make.
        reports = [
            price_demand(platform, d, local_padding=local_padding)
            for d in demands
        ]
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown mechanism {mechanism}")
    report = BatchReport(mechanism=mechanism, per_gpu=reports)
    reg = get_registry()
    if reg.enabled:
        reg.cached("counter", "extract.batches", mechanism=mechanism.value).inc()
        for r in reports:
            reg.cached("histogram", "extract.gpu_seconds", gpu=r.dst).observe(r.time)
        reg.cached("histogram", "extract.batch_seconds").observe(report.time)
        for cls, vol in report.volume_split().items():
            reg.cached("counter", "extract.volume_bytes", source=cls).inc(vol)
    return report
