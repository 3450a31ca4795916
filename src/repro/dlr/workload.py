"""DLR inference workloads: multi-table embedding request streams (§8.1).

A DLR model owns many embedding tables (Criteo-TB: 26; SYN-A/B: 100); each
inference sample carries one key per table.  All tables share one global
entry id space (each table occupies a contiguous range), matching how
multi-table caches flatten tables — so the cache and solver treat DLR and
GNN workloads identically.

Per-table key skew follows a Zipf distribution over a *per-table random
permutation* of the table's entries, so the hot set of each table is
uncorrelated with entry ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.utils.arrays import sorted_unique
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.stats import zipf_pmf


@dataclass(frozen=True)
class DlrWorkload:
    """A reproducible multi-table DLR inference workload.

    Attributes:
        table_sizes: entries per embedding table.
        alpha: Zipf exponent of per-table key popularity (paper: 1.2 for
            SYN-A, 1.4 for SYN-B).
        batch_size: inference requests per GPU per iteration (paper: 8K).
        num_gpus: data-parallel width.
        seed: permutation seed (fixes which entries are hot).
    """

    table_sizes: tuple[int, ...]
    alpha: float
    batch_size: int = 8192
    num_gpus: int = 8
    seed: int = 0
    #: explicit per-table popularity permutations; when given they replace
    #: the seed-derived ones (used by the drift generator, §7.2)
    permutations: tuple[np.ndarray, ...] | None = None
    #: filled in __post_init__: start offset of each table in the global id space
    table_offsets: tuple[int, ...] = field(default=(), init=False)

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.table_sizes)
        if not sizes or any(s <= 0 for s in sizes):
            raise ValueError("table sizes must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.batch_size <= 0 or self.num_gpus <= 0:
            raise ValueError("batch size and GPU count must be positive")
        offsets = tuple(int(o) for o in np.concatenate([[0], np.cumsum(sizes)[:-1]]))
        object.__setattr__(self, "table_sizes", sizes)
        object.__setattr__(self, "table_offsets", offsets)
        if self.permutations is not None:
            perms = tuple(np.asarray(p, dtype=np.int64) for p in self.permutations)
            if len(perms) != len(sizes):
                raise ValueError("need one permutation per table")
            for perm, size in zip(perms, sizes):
                if perm.shape != (size,) or len(sorted_unique(perm)) != size:
                    raise ValueError("each permutation must cover its table")
            object.__setattr__(self, "permutations", perms)

    @property
    def num_tables(self) -> int:
        return len(self.table_sizes)

    @property
    def num_entries(self) -> int:
        return int(sum(self.table_sizes))

    def _table_permutations(self) -> list[np.ndarray]:
        if self.permutations is not None:
            return [p.copy() for p in self.permutations]
        rng = make_rng(self.seed)
        return [rng.permutation(size) for size in self.table_sizes]

    def hotness(self) -> np.ndarray:
        """Exact expected accesses per entry per batch per GPU.

        Analytic — the Zipf popularity is known, so no profiling is
        needed (this is the 'application-provided hotness' path of §6.1).
        """
        hot = np.empty(self.num_entries, dtype=np.float64)
        for size, offset, perm in zip(
            self.table_sizes, self.table_offsets, self._table_permutations()
        ):
            pmf = zipf_pmf(size, self.alpha)
            table_hot = np.empty(size)
            table_hot[perm] = pmf * self.batch_size
            hot[offset : offset + size] = table_hot
        return hot

    def batches(
        self, seed: int | np.random.Generator = 1
    ) -> Iterator[list[np.ndarray]]:
        """Yield per-iteration key batches (one array per GPU), forever."""
        rng = make_rng(seed)
        perms = self._table_permutations()
        pmfs = [zipf_pmf(size, self.alpha) for size in self.table_sizes]
        while True:
            gpu_rngs = spawn_rngs(rng, self.num_gpus)
            batch = []
            for gpu_rng in gpu_rngs:
                keys = np.empty(
                    (self.num_tables, self.batch_size), dtype=np.int64
                )
                for t, (size, offset, perm, pmf) in enumerate(
                    zip(self.table_sizes, self.table_offsets, perms, pmfs)
                ):
                    ranks = gpu_rng.choice(size, size=self.batch_size, p=pmf)
                    keys[t] = offset + perm[ranks]
                batch.append(keys.ravel())
            yield batch

    def take_batches(
        self, count: int, seed: int | np.random.Generator = 1
    ) -> list[list[np.ndarray]]:
        """Materialize ``count`` iterations of batches."""
        out = []
        for i, batch in enumerate(self.batches(seed)):
            if i >= count:
                break
            out.append(batch)
        return out
