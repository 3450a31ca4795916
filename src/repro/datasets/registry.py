"""Dataset registry + the scaled capacity rule benchmarks share.

Because every stand-in dataset is scaled by a known factor, GPU cache
budgets must shrink by the same factor for cache *ratios* to match the
paper's testbeds.  :func:`cache_ratio_for` encodes that rule once:

    usable cache bytes = USABLE_GPU_FRACTION × gpu_memory × dataset.scale
    cache ratio        = usable bytes / scaled embedding volume

``USABLE_GPU_FRACTION`` accounts for the memory the workload itself needs
(model, activations, sampling buffers) — the paper's systems cache with
what is left after those reservations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.dlr_datasets import DLR_SPECS, DlrDatasetSpec, dlr_spec
from repro.datasets.gnn_datasets import GNN_SPECS, GnnDataset, GnnDatasetSpec, build_gnn_dataset
from repro.hardware.platform import Platform

#: Fraction of GPU memory available for embedding cache after workload
#: reservations.  One number for all systems keeps comparisons fair;
#: GNNLab's sampler-offload bonus is modelled in its baseline instead.
USABLE_GPU_FRACTION = 0.5


@dataclass(frozen=True)
class DatasetSummary:
    """Table 3 row for reporting."""

    key: str
    paper_name: str
    kind: str
    num_entries: int
    dim: int
    volume_bytes: int
    scale: float


def all_dataset_summaries() -> list[DatasetSummary]:
    """Every stand-in dataset, in Table 3 order."""
    rows = []
    for spec in GNN_SPECS.values():
        rows.append(
            DatasetSummary(
                key=spec.key,
                paper_name=spec.paper_name,
                kind="gnn",
                num_entries=spec.num_nodes,
                dim=spec.dim,
                volume_bytes=spec.embedding_bytes,
                scale=spec.scale,
            )
        )
    for spec in DLR_SPECS.values():
        if spec.key.endswith("s") and spec.key.startswith("syn-"):
            continue  # reduced Figure-16 variants are not Table 3 rows
        rows.append(
            DatasetSummary(
                key=spec.key,
                paper_name=spec.paper_name,
                kind="dlr",
                num_entries=spec.num_entries,
                dim=spec.dim,
                volume_bytes=spec.embedding_bytes,
                scale=spec.scale,
            )
        )
    return rows


def cache_ratio_for(
    platform: Platform,
    spec: GnnDatasetSpec | DlrDatasetSpec,
) -> float:
    """Per-GPU cache ratio this platform affords for this dataset."""
    usable = USABLE_GPU_FRACTION * platform.gpu.memory_bytes * spec.scale
    ratio = usable / spec.embedding_bytes
    return float(min(1.0, ratio))


def capacity_entries_for(
    platform: Platform,
    spec: GnnDatasetSpec | DlrDatasetSpec,
) -> int:
    """Per-GPU cache capacity in entries under the scaled-memory rule."""
    num_entries = (
        spec.num_nodes if isinstance(spec, GnnDatasetSpec) else spec.num_entries
    )
    return int(cache_ratio_for(platform, spec) * num_entries)


__all__ = [
    "USABLE_GPU_FRACTION",
    "DatasetSummary",
    "all_dataset_summaries",
    "cache_ratio_for",
    "capacity_entries_for",
    "build_gnn_dataset",
    "dlr_spec",
    "GNN_SPECS",
    "DLR_SPECS",
    "GnnDataset",
    "GnnDatasetSpec",
    "DlrDatasetSpec",
]
