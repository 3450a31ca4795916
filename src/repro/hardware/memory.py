"""Device memory arena used to back per-GPU cache storage.

The real system carves cache slots out of GPU HBM; here an arena tracks a
byte budget and hands out fixed-size *slots* (one embedding entry each).
The Filler and Refresher allocate and free slots through this interface, so
capacity accounting — the ``Cap_j`` constraint of the solver — is enforced
at runtime, not just at planning time.
"""

from __future__ import annotations

import numpy as np


class OutOfDeviceMemory(RuntimeError):
    """Raised when an allocation does not fit in the arena's budget."""


class SlotArena:
    """Fixed-slot allocator over a byte budget.

    Slots are identified by integer offsets (0-based slot indices), matching
    the paper's per-GPU hashtable values ``<GPU_i, Offset>``.  Freed slots
    are recycled LIFO so long-running refresh cycles do not fragment.  Both
    directions move whole batches; a batch is validated before anything is
    written, so a refused call leaves the arena as it found it.
    """

    def __init__(self, capacity_bytes: int, slot_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        if slot_bytes <= 0:
            raise ValueError("slot size must be positive")
        self._slot_bytes = slot_bytes
        self._num_slots = capacity_bytes // slot_bytes
        self._next_fresh = 0
        #: LIFO of freed offsets: the first ``_num_free`` cells are live.
        self._free = np.empty(self._num_slots, dtype=np.int64)
        self._num_free = 0
        #: per-slot freeness, so "is this a double free" is one lookup.
        self._is_free = np.zeros(self._num_slots, dtype=bool)

    @property
    def used_slots(self) -> int:
        return self._next_fresh - self._num_free

    @property
    def free_slots(self) -> int:
        return self._num_slots - self.used_slots

    def allocate(self) -> int:
        """Claim one slot; returns its offset."""
        return int(self.allocate_many(1)[0])

    def allocate_many(self, count: int) -> np.ndarray:
        """Claim ``count`` slots atomically (all or nothing).

        Freed slots come back newest first, then a fresh range — what
        ``count`` single allocations would return, in that order.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > self.free_slots:
            raise OutOfDeviceMemory(
                f"requested {count} slots, only {self.free_slots} free "
                f"of {self._num_slots} x {self._slot_bytes} B"
            )
        recycled = min(count, self._num_free)
        self._num_free -= recycled
        reused = self._free[self._num_free : self._num_free + recycled][::-1]
        self._is_free[reused] = False
        fresh = np.arange(self._next_fresh, self._next_fresh + count - recycled)
        self._next_fresh += count - recycled
        return np.concatenate([reused, fresh])

    def free(self, offset: int) -> None:
        """Release a slot previously returned by :meth:`allocate`."""
        self.free_many(np.asarray([offset], dtype=np.int64))

    def free_many(self, offsets: np.ndarray) -> None:
        """Release a batch of slots, in batch order (all or nothing)."""
        offsets = np.asarray(offsets, dtype=np.int64)
        bad = (offsets < 0) | (offsets >= self._next_fresh)
        if bad.any():
            raise ValueError(f"offset {int(offsets[bad][0])} was never allocated")
        ordered = np.sort(offsets)
        bad = self._is_free[ordered]
        bad[1:] |= ordered[1:] == ordered[:-1]
        if bad.any():
            raise ValueError(f"double free of slot {int(ordered[bad][0])}")
        self._free[self._num_free : self._num_free + len(offsets)] = offsets
        self._num_free += len(offsets)
        self._is_free[offsets] = True
