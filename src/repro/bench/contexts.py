"""Workload-context builders shared by all benchmarks.

A *context* packages one (platform, application, dataset) cell of the
evaluation: the hotness estimate, entry size, scaled capacity, per-batch
key volume, and the dense/sampling cost terms — everything
:func:`repro.baselines.evaluate_system` needs.  Hotness presampling and
graph generation are memoized, since dozens of benchmark cells share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.baselines.base import SystemContext
from repro.datasets.dlr_datasets import dlr_spec
from repro.datasets.gnn_datasets import GNN_SPECS, build_gnn_dataset
from repro.datasets.registry import capacity_entries_for
from repro.dlr import models as dlr_models
from repro.gnn import models as gnn_models
from repro.gnn.workload import GnnWorkload
from repro.hardware.platform import EXTRA_PLATFORMS, PRESETS, Platform

#: Per-GPU seed batch for GNN workloads, scaled from the paper's 8K by the
#: same ~1000× factor as the datasets (see DESIGN.md).
GNN_BATCH_SIZE = 512

#: Per-GPU request batch for DLR inference — unscaled (the paper's 8K);
#: request volume is independent of table size.
DLR_BATCH_SIZE = 8192

GNN_MODES = ("gcn", "sage-sup", "sage-unsup")
DLR_MODELS = ("dlrm", "dcn")


def platform_by_name(name: str) -> Platform:
    """Instantiate one of the modelled testbeds by name (``server-a``...).

    Knows both the paper's benchmark :data:`PRESETS` and the extras
    (``dgx2``, ``server-a-tiered``, ...) used by soaks and what-ifs.
    """
    factory = PRESETS.get(name) or EXTRA_PLATFORMS.get(name)
    if factory is None:
        known = sorted(set(PRESETS) | set(EXTRA_PLATFORMS))
        raise KeyError(f"unknown platform {name!r}; have {known}")
    return factory()


@dataclass(frozen=True)
class GnnCell:
    """One GNN evaluation cell: context + epoch structure."""

    context: SystemContext
    iterations_per_epoch: int
    dataset_key: str
    mode: str


@dataclass(frozen=True)
class DlrCell:
    """One DLR evaluation cell."""

    context: SystemContext
    dataset_key: str
    model: str


@lru_cache(maxsize=32)
def _gnn_hotness(dataset_key: str, mode: str, num_gpus: int) -> tuple:
    """Presampled hotness + expected unique keys per batch (memoized)."""
    ds = build_gnn_dataset(dataset_key)
    workload = GnnWorkload(
        ds.graph,
        ds.train_ids,
        mode,
        batch_size=GNN_BATCH_SIZE,
        num_gpus=num_gpus,
    )
    hotness = workload.presampled_hotness(seed=3, max_iterations=8)
    return hotness, float(hotness.sum()), workload.iterations_per_epoch()


def gnn_cell(
    platform: Platform,
    dataset_key: str,
    mode: str,
    cache_ratio: float | None = None,
) -> GnnCell:
    """Build the evaluation cell for (platform, GNN dataset, mode).

    ``cache_ratio`` overrides the scaled-memory capacity rule (used by the
    ratio-sweep figures); otherwise the platform's scaled budget applies.
    """
    spec = GNN_SPECS[dataset_key]
    hotness, keys_per_batch, iterations = _gnn_hotness(
        dataset_key, mode, platform.num_gpus
    )
    if cache_ratio is None:
        capacity = capacity_entries_for(platform, spec)
    else:
        capacity = int(cache_ratio * spec.num_nodes)
    model = gnn_models.model_for_mode(mode)
    dense = gnn_models.dense_time_per_iteration(
        platform, model, int(keys_per_batch), spec.dim
    )
    sampling = gnn_models.sampling_time_per_iteration(platform, int(keys_per_batch))
    ctx = SystemContext(
        platform=platform,
        hotness=hotness,
        entry_bytes=spec.entry_bytes,
        capacity_entries=capacity,
        kind="gnn",
        batch_keys=keys_per_batch,
        dense_time=dense,
        sampling_time=sampling,
        graph_bytes=spec.topology_budget_bytes,
    )
    return GnnCell(
        context=ctx,
        iterations_per_epoch=iterations,
        dataset_key=dataset_key,
        mode=mode,
    )


def dlr_cell(
    platform: Platform,
    dataset_key: str,
    model_name: str = "dlrm",
    cache_ratio: float | None = None,
) -> DlrCell:
    """Build the evaluation cell for (platform, DLR dataset, model)."""
    spec = dlr_spec(dataset_key)
    batch_size = DLR_BATCH_SIZE
    workload = spec.workload(batch_size=batch_size, num_gpus=platform.num_gpus)
    hotness = workload.hotness()
    if cache_ratio is None:
        capacity = capacity_entries_for(platform, spec)
    else:
        capacity = int(cache_ratio * spec.num_entries)
    model = dlr_models.model_by_name(model_name)
    dense = dlr_models.dense_time_per_iteration(
        platform, model, batch_size, spec.num_tables, spec.dim
    )
    ctx = SystemContext(
        platform=platform,
        hotness=hotness,
        entry_bytes=spec.entry_bytes,
        capacity_entries=capacity,
        kind="dlr",
        batch_keys=float(batch_size * spec.num_tables),
        dense_time=dense,
        sampling_time=0.0,
        num_tables=spec.num_tables,
    )
    return DlrCell(context=ctx, dataset_key=dataset_key, model=model_name)
