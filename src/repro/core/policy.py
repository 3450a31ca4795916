"""Cache placements and the heuristic policies UGache is compared against.

A :class:`Placement` says which entries each GPU caches.  The policies here
reproduce the baselines of §3.1/§8.1:

* :func:`replication_policy` — every GPU independently caches the hottest
  entries (HPS / GNNLab / RepU);
* :func:`partition_policy` — the hottest ``capacity × G`` entries are
  spread round-robin, one copy each (WholeGraph / SOK / PartU);
* :func:`clique_partition_policy` — partition within fully-connected
  cliques, replicate across cliques (Quiver's fix for DGX-1's unconnected
  pairs);
* :func:`hot_replicate_warm_partition_policy` — the heuristic of Song &
  Jiang [39]: replicate the hottest prefix everywhere, partition the next
  warm band, searching the split that minimizes estimated extraction time.

UGache's own placement comes from :mod:`repro.core.solver`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.platform import Platform
from repro.utils.arrays import hot_order, sorted_unique


@dataclass(frozen=True)
class Placement:
    """Per-GPU cached entry sets over a universe of ``num_entries``.

    ``per_gpu[i]`` is a 1-D array of entry ids cached on GPU ``i``; host
    memory implicitly stores every entry (the fallback location).
    """

    num_entries: int
    per_gpu: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        frozen = []
        for i, ids in enumerate(self.per_gpu):
            arr = np.asarray(ids, dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError(f"GPU {i}: entry ids must be 1-D")
            if arr.size:
                if arr.min() < 0 or arr.max() >= self.num_entries:
                    raise ValueError(f"GPU {i}: entry id out of range")
                if len(sorted_unique(arr)) != len(arr):
                    raise ValueError(f"GPU {i}: duplicate cached entries")
            arr = arr.copy()
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "per_gpu", tuple(frozen))

    @property
    def num_gpus(self) -> int:
        return len(self.per_gpu)

    def cached_counts(self) -> list[int]:
        return [len(ids) for ids in self.per_gpu]

    def storage_matrix(self) -> np.ndarray:
        """Boolean ``(G, num_entries)`` matrix: entry cached on GPU?"""
        mat = np.zeros((self.num_gpus, self.num_entries), dtype=bool)
        for i, ids in enumerate(self.per_gpu):
            mat[i, ids] = True
        return mat

    def distinct_cached(self) -> int:
        """Number of distinct entries cached anywhere (global coverage)."""
        if not self.per_gpu:
            return 0
        return int(len(sorted_unique(np.concatenate(self.per_gpu))))

    def replication_factor(self) -> float:
        """Average copies per cached entry (1 = pure partition)."""
        distinct = self.distinct_cached()
        if distinct == 0:
            return 0.0
        return sum(self.cached_counts()) / distinct

    def validate_capacity(self, capacity_entries: int) -> None:
        """Raise if any GPU exceeds its entry budget."""
        for i, ids in enumerate(self.per_gpu):
            if len(ids) > capacity_entries:
                raise ValueError(
                    f"GPU {i} caches {len(ids)} entries, capacity {capacity_entries}"
                )


def replication_policy(
    hotness: np.ndarray, capacity_entries: int, num_gpus: int
) -> Placement:
    """Every GPU caches the globally hottest ``capacity_entries`` entries."""
    if capacity_entries < 0:
        raise ValueError("capacity must be non-negative")
    top = hot_order(hotness)[:capacity_entries]
    return Placement(
        num_entries=len(hotness), per_gpu=tuple(top for _ in range(num_gpus))
    )


def partition_policy(
    hotness: np.ndarray, capacity_entries: int, num_gpus: int
) -> Placement:
    """Hottest ``capacity × G`` entries, one copy each, spread round-robin.

    Round-robin by hotness rank statistically balances each GPU's share of
    hot traffic, as the systems in §3.1 do via hashing.
    """
    if capacity_entries < 0:
        raise ValueError("capacity must be non-negative")
    n = len(hotness)
    top = hot_order(hotness)[: min(capacity_entries * num_gpus, n)]
    shards = tuple(top[i::num_gpus] for i in range(num_gpus))
    return Placement(num_entries=n, per_gpu=shards)


def clique_partition_policy(
    hotness: np.ndarray,
    capacity_entries: int,
    platform: Platform,
) -> Placement:
    """Partition within each fully-connected clique; cliques replicate.

    On DGX-1 the two quads cannot read each other over NVLink, so Quiver
    gives each quad an independent partition cache covering the hottest
    ``capacity × clique_size`` entries.
    """
    n = len(hotness)
    order = hot_order(hotness)
    per_gpu: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * platform.num_gpus
    for clique in platform.topology.cliques():
        top = order[: min(capacity_entries * len(clique), n)]
        for rank, gpu in enumerate(sorted(clique)):
            per_gpu[gpu] = top[rank :: len(clique)]
    return Placement(num_entries=n, per_gpu=tuple(per_gpu))


def hot_replicate_warm_partition_policy(
    hotness: np.ndarray,
    capacity_entries: int,
    num_gpus: int,
    replicate_fraction: float,
) -> Placement:
    """Replicate the hottest prefix on every GPU, partition the warm band.

    ``replicate_fraction`` ∈ [0, 1] is the share of each GPU's capacity
    spent on replicas; the remainder holds this GPU's shard of the warm
    band.  ``replicate_fraction=1`` degenerates to replication and ``0``
    to partition.
    """
    if not 0 <= replicate_fraction <= 1:
        raise ValueError("replicate_fraction must be in [0, 1]")
    n = len(hotness)
    order = hot_order(hotness)
    rep_count = int(round(replicate_fraction * capacity_entries))
    part_per_gpu = capacity_entries - rep_count
    rep = order[: min(rep_count, n)]
    warm = order[len(rep) : min(len(rep) + part_per_gpu * num_gpus, n)]
    per_gpu = tuple(
        np.concatenate([rep, warm[i::num_gpus]]) for i in range(num_gpus)
    )
    return Placement(num_entries=n, per_gpu=per_gpu)


