"""Filler: materialize a placement into per-GPU cache storage (§4).

The Filler copies the chosen embedding entries from the host-resident table
into each GPU's slot arena and produces the offset maps the Extractor's
hashtable needs (``<GPU_i, Offset>``).  The Refresher reuses the diff
helpers to evict/insert incrementally without a full refill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checksum import row_checksums
from repro.core.policy import Placement
from repro.hardware.memory import OutOfDeviceMemory, SlotArena


@dataclass
class GpuCacheStore:
    """One GPU's cache content: a slot arena plus the entry→slot map."""

    gpu: int
    arena: SlotArena
    #: dense storage, shape (num_slots, dim)
    data: np.ndarray
    #: entry id → slot offset, -1 if not cached
    offset_of: np.ndarray
    #: per-slot content checksum, maintained at fill/insert time (the
    #: anti-entropy scrubber's record of what the slot *should* hold);
    #: free slots sit at 0.
    checksums: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.checksums is None:
            self.checksums = np.zeros(len(self.data), dtype=np.uint64)
        self.on_write = lambda gpu, entries: None  # the cache hooks inserts and evicts

    def cached_entries(self) -> np.ndarray:
        return np.flatnonzero(self.offset_of >= 0)

    def check_batch(self, entries: np.ndarray, cached: bool) -> np.ndarray:
        """Validate a whole batch without writing: every entry is
        ``cached`` (or every entry is not) and none is repeated.  Returns
        the entries' slots."""
        slots = self.offset_of[entries]
        wrong = (slots < 0) if cached else (slots >= 0)
        if wrong.any():
            raise ValueError(
                f"entry {int(entries[wrong][0])} "
                f"{'not' if cached else 'already'} cached on GPU {self.gpu}"
            )
        ordered = np.sort(entries)
        repeated = ordered[1:] == ordered[:-1]
        if repeated.any():
            raise ValueError(
                f"entry {int(ordered[1:][repeated][0])} repeated in one "
                f"batch on GPU {self.gpu}"
            )
        return slots

    def insert_many(self, entries: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Cache ``entries`` with one copy; returns their slot offsets.

        All or nothing: an entry already cached or repeated raises
        ``ValueError``, too few free slots ``OutOfDeviceMemory``, both
        before anything is written.  Slots are the ones per-entry inserts
        in batch order would get.
        """
        entries = np.asarray(entries, dtype=np.int64)
        self.check_batch(entries, cached=False)
        slots = self.arena.allocate_many(len(entries))
        self.data[slots] = rows
        self.checksums[slots] = row_checksums(rows)
        self.offset_of[entries] = slots
        self.on_write(self.gpu, entries)
        return slots

    def evict_many(self, entries: np.ndarray) -> None:
        """Drop ``entries``, freeing their slots in batch order.

        All or nothing: an entry not cached or repeated raises
        ``ValueError`` before anything is written.
        """
        entries = np.asarray(entries, dtype=np.int64)
        slots = self.check_batch(entries, cached=True)
        self.arena.free_many(slots)
        self.checksums[slots] = 0
        self.offset_of[entries] = -1
        self.on_write(self.gpu, entries)

    def read(self, entries: np.ndarray) -> np.ndarray:
        """Gather cached values for ``entries`` (all must be cached)."""
        slots = self.offset_of[entries]
        if (slots < 0).any():
            missing = np.asarray(entries)[slots < 0][:5]
            raise KeyError(f"entries not cached on GPU {self.gpu}: {missing}...")
        return self.data[slots]


def fill_gpu(
    gpu: int,
    table: np.ndarray,
    entry_ids: np.ndarray,
    capacity_entries: int | None = None,
    data: np.ndarray | None = None,
) -> GpuCacheStore:
    """Build one GPU's cache store holding ``entry_ids`` from ``table``, in
    ``data`` (``capacity`` zeroed rows of :func:`fill_all`'s arena) or, given
    none, in an array of its own."""
    num_entries, dim = table.shape
    capacity = capacity_entries if capacity_entries is not None else len(entry_ids)
    if len(entry_ids) > capacity:
        raise ValueError(
            f"GPU {gpu}: {len(entry_ids)} entries exceed capacity {capacity}"
        )
    slot_bytes = dim * table.itemsize
    arena = SlotArena(capacity * slot_bytes, slot_bytes)
    if data is None:
        data = np.zeros((capacity, dim), dtype=table.dtype)
    offset_of = np.full(num_entries, -1, dtype=np.int64)
    checksums = np.zeros(capacity, dtype=np.uint64)
    if len(entry_ids):
        slots = arena.allocate_many(len(entry_ids))
        rows = table[entry_ids]
        data[slots] = rows
        checksums[slots] = row_checksums(rows)
        offset_of[entry_ids] = slots
    return GpuCacheStore(
        gpu=gpu, arena=arena, data=data, offset_of=offset_of,
        checksums=checksums,
    )


def fill_all(
    table: np.ndarray,
    placement: Placement,
    capacity_entries: int | None = None,
    backing: list[GpuCacheStore] | None = None,
) -> list[GpuCacheStore]:
    """Fill every GPU's cache according to ``placement``, behind the backing
    tiers: §4's single address space, in two allocations.

    One row arena and one ``(T + G, N)`` slot table (whose flat buffer,
    ``.base``, ends in a sentinel cell, 0, that no entry owns), in source
    order ``-T … -1, 0 … G-1``: source ``s``'s rows are one arena block and
    its slot map row ``s + T``.  ``backing`` is a tier chain's stores, in
    tier order: each block is refilled from ``table`` at the same slots,
    slot arena and checksums carried over.  Without it the one tier is the
    host: a copy of ``table`` in key order behind the identity row.  Returns
    the GPU stores, then the tier stores, each a view of its block and row.
    """
    if placement.num_entries != table.shape[0]:
        raise ValueError("placement and table disagree on the entry universe")
    n, dim = table.shape
    capacities = [
        len(ids) if capacity_entries is None else capacity_entries
        for ids in placement.per_gpu
    ]
    lead = [n] if backing is None else [len(s.data) for s in reversed(backing)]
    starts = np.cumsum([0, *lead, *capacities]).tolist()
    arena = np.zeros((starts[-1], dim), dtype=table.dtype)
    cells = np.zeros((len(starts) - 1) * n + 1, dtype=np.int64)
    slot_table = cells[:-1].reshape(len(starts) - 1, n)
    blocks = [arena[a:b] for a, b in zip(starts, starts[1:])]
    T = len(lead)
    if backing is None:
        blocks[0][:] = table
        slot_table[0] = np.arange(n)
    stores = [
        fill_gpu(gpu, table, ids, capacity_entries, blocks[T + gpu])
        for gpu, ids in enumerate(placement.per_gpu)
    ]
    for old in backing or ():
        block, cached = blocks[old.gpu + T], old.cached_entries()
        block[old.offset_of[cached]] = table[cached]
        stores.append(GpuCacheStore(old.gpu, old.arena, block, old.offset_of, old.checksums))
    for store in stores:
        slot_table[store.gpu + T] = store.offset_of
        store.offset_of = slot_table[store.gpu + T]
    return stores


@dataclass(frozen=True)
class PlacementDiff:
    """Per-GPU evictions and insertions to move between two placements."""

    evictions: tuple[np.ndarray, ...]
    insertions: tuple[np.ndarray, ...]

    def total_changes(self) -> int:
        return int(
            sum(len(e) for e in self.evictions) + sum(len(a) for a in self.insertions)
        )


def placement_diff(old: Placement, new: Placement) -> PlacementDiff:
    """Entries each GPU must evict / insert to reach ``new`` from ``old``."""
    if old.num_gpus != new.num_gpus or old.num_entries != new.num_entries:
        raise ValueError("placements are not comparable")
    evictions = []
    insertions = []
    # Two masks over the entry universe, set and cleared per GPU: the
    # sorted ids of ``was & ~now`` are ``setdiff1d(old, new)``.
    was = np.zeros(old.num_entries, dtype=bool)
    now = np.zeros(old.num_entries, dtype=bool)
    for old_ids, new_ids in zip(old.per_gpu, new.per_gpu):
        was[old_ids] = True
        now[new_ids] = True
        evictions.append(np.flatnonzero(was & ~now))
        insertions.append(np.flatnonzero(now & ~was))
        was[old_ids] = False
        now[new_ids] = False
    return PlacementDiff(evictions=tuple(evictions), insertions=tuple(insertions))


def apply_diff_step(
    store: GpuCacheStore,
    table: np.ndarray,
    evict: np.ndarray,
    insert: np.ndarray,
) -> None:
    """Apply one small-batch update on one GPU (evictions before insertions,
    so slots recycle and capacity is never exceeded mid-refresh).

    All or nothing: both halves and the arena's room are checked before
    the first write, so a step that raises has changed nothing.  The two
    halves must be disjoint.
    """
    evict = np.asarray(evict, dtype=np.int64)
    insert = np.asarray(insert, dtype=np.int64)
    store.check_batch(insert, cached=False)
    room = store.arena.free_slots + len(evict)
    if len(insert) > room:
        raise OutOfDeviceMemory(
            f"GPU {store.gpu}: step inserts {len(insert)} entries, "
            f"only {room} slots free after its evictions"
        )
    store.evict_many(evict)
    store.insert_many(insert, table[insert])
