"""The backing-tier chain: per-tier stores below the GPU caches.

A :class:`TierChain` materializes a platform's
:attr:`~repro.hardware.platform.Platform.tiers` into one store per tier
(the same slot-arena + offset-map shape as a GPU's
:class:`~repro.core.filler.GpuCacheStore`) and maintains the **home map**
— for every embedding entry, the one backing tier that holds its
authoritative copy.  This is the parameter-server shape of HugeCTR's
inference HPS: tables far larger than host DRAM, with the hot head
resident in DRAM and the cold tail sunk to CXL/SSD.

Invariants (checked by :meth:`TierChain.verify`, property-tested by the
tier invariant suite):

* **partition** — every entry is resident in *exactly one* tier, and the
  home map agrees with store residency;
* **capacity** — no tier holds more entries than its byte capacity
  allows.

Each store's rows and checksums are checked against the ground-truth
table by the cache's integrity check, beside the GPU stores'.

Placement is a hotness-ranked waterfall (:func:`assign_backing_tiers`):
the hottest entries land on the fastest tier until it fills, the next
band on the next tier, and the terminal tier absorbs the remainder — it
must be large enough to, or the chain refuses to build
(:class:`TierCapacityError`).
"""

from __future__ import annotations

import numpy as np

from repro.core.filler import GpuCacheStore, fill_gpu
from repro.hardware.platform import SOURCE_DTYPE, MemoryTier
from repro.utils.arrays import hot_order

__all__ = [
    "TierCapacityError",
    "TierIntegrityError",
    "TierChain",
    "assign_backing_tiers",
    "not_resident",
    "tier_capacity_entries",
]


class TierCapacityError(ValueError):
    """The chain cannot hold the entry universe (terminal tier too small)."""


class TierIntegrityError(RuntimeError):
    """A backing key routed to a tier that does not hold it, or a verify
    that found corrupted or lost bytes."""


def not_resident(platform, keys, sources, unheld) -> TierIntegrityError:
    """The error for backing keys at ``unheld``: their tier's slot is −1."""
    src = int(sources[unheld].min())
    name, missing = platform.tier_of(src).name, keys[unheld & (sources == src)][:5]
    return TierIntegrityError(f"tier {name}: entries {missing} routed here but not resident")


def tier_capacity_entries(
    tier: MemoryTier, entry_bytes: int, num_entries: int
) -> int:
    """Entries ``tier`` can hold, bounded by the entry universe."""
    if entry_bytes <= 0:
        raise ValueError("entry size must be positive")
    return int(min(tier.capacity_bytes // entry_bytes, num_entries))


def assign_backing_tiers(
    tiers: tuple[MemoryTier, ...],
    num_entries: int,
    entry_bytes: int,
    hotness: np.ndarray | None = None,
) -> np.ndarray:
    """Hotness-ranked waterfall: entry → backing source id (-1, -2, …).

    The hottest entries go to tier 0 until its capacity fills, the next
    band to tier 1, and so on; without ``hotness`` the assignment is by
    entry id (a deterministic stand-in).  Raises
    :class:`TierCapacityError` when the chain's total capacity cannot
    hold the universe — the terminal tier must absorb the remainder.
    """
    caps = [tier_capacity_entries(t, entry_bytes, num_entries) for t in tiers]
    if sum(caps) < num_entries:
        raise TierCapacityError(
            f"tier chain holds {sum(caps)} entries but the table has "
            f"{num_entries}; grow the terminal tier"
        )
    if hotness is None:
        order = np.arange(num_entries, dtype=np.int64)
    else:
        hotness = np.asarray(hotness, dtype=np.float64)
        if hotness.shape != (num_entries,):
            raise ValueError("hotness length must match the entry universe")
        # Equal-hotness entries keep id order (determinism).
        order = hot_order(hotness)
    home = np.empty(num_entries, dtype=SOURCE_DTYPE)
    start = 0
    for k, cap in enumerate(caps):
        if start >= num_entries:
            break
        take = min(cap, num_entries - start)
        home[order[start : start + take]] = -(k + 1)
        start += take
    return home


class TierChain:
    """Per-tier backing stores + the entry → home-tier map.

    The home map is fixed at construction (a new hotness profile means a
    new cache); the chain has no lock of its own.  A cache rebuilds
    ``stores`` (tier order) as blocks of its row arena and rows of its slot
    table (``fill_all``'s ``backing``), so a backing row is read by the same
    ``take`` as a GPU's.
    """

    def __init__(
        self,
        tiers: tuple[MemoryTier, ...],
        table: np.ndarray,
        hotness: np.ndarray | None = None,
    ) -> None:
        if table.ndim != 2:
            raise ValueError("embedding table must be 2-D (entries × dim)")
        if not tiers:
            raise ValueError("a tier chain needs at least one tier")
        self._tiers = tuple(tiers)
        n, _ = table.shape
        entry_bytes = table.shape[1] * table.itemsize
        self._capacities = [
            tier_capacity_entries(t, entry_bytes, n) for t in tiers
        ]
        self._home = assign_backing_tiers(self._tiers, n, entry_bytes, hotness)
        self.stores: list[GpuCacheStore] = [
            fill_gpu(src, table, np.flatnonzero(self._home == src), max(cap, 1))
            for src, cap in zip(self.backing_ids, self._capacities)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return len(self._home)

    @property
    def home(self) -> np.ndarray:
        """Entry → backing source id; the resolve stage's fallback column."""
        return self._home

    @property
    def backing_ids(self) -> list[int]:
        return [-(k + 1) for k in range(len(self._tiers))]

    def capacity_entries(self, src: int) -> int:
        return self._capacities[-src - 1]

    def resident_count(self, src: int) -> int:
        return int((self._home == src).sum())

    def shares(self) -> dict[int, float]:
        """Fraction of the entry universe homed per tier (hedge pricing)."""
        n = self.num_entries
        if n == 0:
            return {src: 0.0 for src in self.backing_ids}
        return {
            src: self.resident_count(src) / n for src in self.backing_ids
        }

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def verify(self) -> list[str]:
        """Check partition / home map / capacity; returns violations.  (A
        store's rows and checksums are the cache's integrity check.)"""
        problems: list[str] = []
        resident = np.zeros(self.num_entries, dtype=np.int64)
        for k, store in enumerate(self.stores):
            src = -(k + 1)
            name = self._tiers[k].name
            cached = store.cached_entries()
            resident[cached] += 1
            if len(cached) > self._capacities[k]:
                problems.append(
                    f"tier {name}: {len(cached)} resident entries exceed "
                    f"capacity {self._capacities[k]}"
                )
            homed = np.flatnonzero(self._home == src)
            if not np.array_equal(homed, cached):
                problems.append(
                    f"tier {name}: home map and store residency disagree"
                )
        if (resident != 1).any():
            off = int((resident != 1).sum())
            problems.append(
                f"tier chain: {off} entries not resident in exactly one tier"
            )
        return problems
