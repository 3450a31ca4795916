"""GNN training workloads: batched embedding-key streams per GPU (§8.1).

A workload yields, per training iteration, one key batch per GPU (data
parallelism: the global batch is split evenly).  Three application modes
mirror the paper:

* ``gcn`` — supervised, 3-hop random sampling;
* ``sage-sup`` — supervised GraphSAGE, 2-hop;
* ``sage-unsup`` — unsupervised GraphSAGE for link prediction: seeds are
  edge endpoints plus uniform negative samples, which *reduces* access
  skew (the effect behind UGache's larger win over replication caches in
  unsupervised settings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.hotness import HotnessTracker
from repro.gnn.graph import CSRGraph
from repro.gnn.sampling import khop_sample, negative_sample
from repro.utils.rng import make_rng, spawn_rngs

#: Default fanouts per mode, following GNNLab's setup (§8.1): GCN uses
#: 3-hop, GraphSAGE 2-hop random neighbourhood sampling.
DEFAULT_FANOUTS: dict[str, tuple[int, ...]] = {
    "gcn": (10, 5, 3),
    "sage-sup": (10, 5),
    "sage-unsup": (10, 5),
}

#: Negative samples per positive edge in unsupervised training.
NEGATIVE_RATIO = 1


@dataclass(frozen=True)
class GnnWorkload:
    """A reproducible GNN embedding-access workload.

    Attributes:
        graph: the dataset graph.
        train_ids: labelled seed vertices (supervised modes).
        mode: ``"gcn"``, ``"sage-sup"`` or ``"sage-unsup"``.
        batch_size: seeds per GPU per iteration (paper default 8K).
        num_gpus: data-parallel width.
        fanouts: per-hop sample counts (defaults per mode).
    """

    graph: CSRGraph
    train_ids: np.ndarray
    mode: str
    batch_size: int = 8192
    num_gpus: int = 8
    fanouts: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.mode not in DEFAULT_FANOUTS:
            raise ValueError(f"unknown GNN mode {self.mode!r}")
        if self.batch_size <= 0 or self.num_gpus <= 0:
            raise ValueError("batch size and GPU count must be positive")
        train = np.asarray(self.train_ids, dtype=np.int64)
        if train.size == 0 and self.mode != "sage-unsup":
            raise ValueError("supervised modes need a training set")
        object.__setattr__(self, "train_ids", train)
        if not self.fanouts:
            object.__setattr__(self, "fanouts", DEFAULT_FANOUTS[self.mode])

    @property
    def num_entries(self) -> int:
        """Size of the embedding universe (one entry per vertex)."""
        return self.graph.num_nodes

    def iterations_per_epoch(self) -> int:
        seeds = self._epoch_seed_count()
        global_batch = self.batch_size * self.num_gpus
        return max(1, seeds // global_batch)

    def _epoch_seed_count(self) -> int:
        if self.mode == "sage-unsup":
            # Link prediction trains over sampled edges of the whole
            # graph, not a labelled subset — epochs are an order of
            # magnitude longer than supervised ones (§8.2's unsup rows).
            return self.graph.num_nodes
        return len(self.train_ids)

    # ------------------------------------------------------------------
    # Batch generation
    # ------------------------------------------------------------------
    def _seed_batches(
        self, rng: np.random.Generator
    ) -> Iterator[list[np.ndarray]]:
        """Yield per-iteration seed lists (one array per GPU)."""
        iters = self.iterations_per_epoch()
        if self.mode == "sage-unsup":
            for _ in range(iters):
                per_gpu = []
                for _gpu in range(self.num_gpus):
                    # Positive pairs: random edges; negatives: uniform.
                    pos = self.batch_size // (2 + NEGATIVE_RATIO)
                    eids = rng.integers(0, self.graph.num_edges, size=pos)
                    dsts = self.graph.indices[eids]
                    srcs = np.searchsorted(
                        self.graph.indptr, eids, side="right"
                    ) - 1
                    neg = negative_sample(
                        self.graph.num_nodes, pos * NEGATIVE_RATIO, rng
                    )
                    per_gpu.append(np.concatenate([srcs, dsts, neg]))
                yield per_gpu
        else:
            order = rng.permutation(self.train_ids)
            global_batch = self.batch_size * self.num_gpus
            for it in range(iters):
                chunk = order[it * global_batch : (it + 1) * global_batch]
                yield [
                    chunk[g * self.batch_size : (g + 1) * self.batch_size]
                    for g in range(self.num_gpus)
                ]

    def epoch(
        self, seed: int | np.random.Generator = 0
    ) -> Iterator[list[np.ndarray]]:
        """Yield per-iteration embedding-key batches (one array per GPU).

        Keys keep duplicates — the paper's ``extract`` reads one entry per
        key occurrence (§3.2), so hub multiplicity drives both hotness and
        extraction volume.
        """
        rng = make_rng(seed)
        for per_gpu_seeds in self._seed_batches(rng):
            gpu_rngs = spawn_rngs(rng, self.num_gpus)
            batches = []
            for seeds, gpu_rng in zip(per_gpu_seeds, gpu_rngs):
                sampled = khop_sample(self.graph, seeds, self.fanouts, gpu_rng)
                batches.append(sampled.all_nodes)
            yield batches

    # ------------------------------------------------------------------
    # Hotness estimation (§6.1)
    # ------------------------------------------------------------------
    def presampled_hotness(
        self, seed: int | np.random.Generator = 0, max_iterations: int | None = None
    ) -> np.ndarray:
        """Profile one epoch (GNNLab-style pre-sampling) into hotness."""
        tracker = HotnessTracker(self.num_entries)
        for it, batches in enumerate(self.epoch(seed)):
            if max_iterations is not None and it >= max_iterations:
                break
            for keys in batches:
                tracker.record(keys)
        counts = tracker.counts()
        # Normalize to expected accesses per batch *per GPU*.
        batches_seen = tracker.batches_recorded / self.num_gpus
        return counts / self.num_gpus / max(batches_seen, 1)
