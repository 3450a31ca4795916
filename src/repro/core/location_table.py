"""The per-GPU location hashtable of §4: key → ``<GPU_i, Offset>``.

The real UGache coordinates Extractor and Solver/Filler through a GPU
hashtable mapping each embedding key to its source location and slot
offset.  This module implements that structure faithfully — an
open-addressing (linear-probing) table over packed 64-bit slots — rather
than the dense arrays the rest of the library uses for convenience, so the
lookup-path semantics (probe sequences, tombstone-free deletes, load
limits) can be tested and its memory/probe trade-offs measured.

Packing: ``[16 bits source | 48 bits offset]`` with source biased by 1 so
that host (:data:`~repro.hardware.platform.HOST` = -1) packs to 0.

The batch operations (:meth:`LocationTable.lookup_batch`,
:meth:`LocationTable.insert_batch`, :meth:`LocationTable.remove_batch`)
are truly vectorized: each runs a bounded number of numpy *probing rounds*
over the whole batch at once (every key advances one probe step per round,
and keys drop out as they settle), mirroring how a warp-per-key GPU kernel
would walk the table.  The scalar :meth:`LocationTable.get` /
:meth:`LocationTable.insert` / :meth:`LocationTable.remove` are thin
wrappers over the same machinery, so there is exactly one probe
implementation to test.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.hardware.platform import HOST, SOURCE_DTYPE
from repro.utils.arrays import sorted_unique

_EMPTY_KEY = np.int64(-1)
_OFFSET_BITS = 48
_OFFSET_MASK = (np.int64(1) << _OFFSET_BITS) - 1
#: Fibonacci hashing multiplier (2^64 / φ, as an unsigned 64-bit constant).
_HASH_MULTIPLIER = np.uint64(11400714819323198485)
_MAX_SOURCE = 2**15 - 2
#: Load factor the table grows to stay under.
MAX_LOAD = 0.7


class ProbeLimitError(RuntimeError):
    """A probe chain visited every slot: the table is full or corrupt.

    With the load-factor invariant intact this is unreachable — every
    probe sequence meets an empty slot within ``capacity`` steps.  Raising
    instead of spinning turns an invariant violation (external mutation,
    a bypassed grow) into a diagnosable error rather than a hang.
    """


class CorruptEntryError(RuntimeError):
    """A slot unpacked to an out-of-range ``<gpu, offset>``.

    Raised by lookups when a stored location falls outside the bounds the
    table was built with (see ``LocationTable``'s ``num_sources`` /
    ``max_offset``) — a flipped bit, an external poke, or a fault-injected
    corruption.  Carries the key and the garbage location so the degraded
    router can reroute exactly the poisoned entries to host.
    """

    def __init__(self, key: int, source: int, offset: int) -> None:
        super().__init__(
            f"key {key} maps to out-of-range location <gpu {source}, "
            f"offset {offset}>"
        )
        self.key = key
        self.source = source
        self.offset = offset


def pack_location(source: int, offset: int) -> np.int64:
    """Pack ``(source, offset)`` into one int64 slot value."""
    if source < HOST or source > _MAX_SOURCE:
        raise ValueError(f"source {source} out of packable range")
    if not 0 <= offset < 2**_OFFSET_BITS:
        raise ValueError(f"offset {offset} out of packable range")
    return (np.int64(source + 1) << _OFFSET_BITS) | np.int64(offset)


def unpack_location(packed: np.int64) -> tuple[int, int]:
    """Inverse of :func:`pack_location`."""
    return int(packed >> _OFFSET_BITS) - 1, int(packed & _OFFSET_MASK)


def pack_locations(sources: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vectorized :func:`pack_location` with the same range validation."""
    sources = np.asarray(sources, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    bad = (sources < HOST) | (sources > _MAX_SOURCE)
    if bad.any():
        raise ValueError(
            f"source {int(sources[bad][0])} out of packable range"
        )
    bad = (offsets < 0) | (offsets >= 2**_OFFSET_BITS)
    if bad.any():
        raise ValueError(
            f"offset {int(offsets[bad][0])} out of packable range"
        )
    return ((sources + 1) << _OFFSET_BITS) | offsets


class LocationTable:
    """Open-addressing hashtable: embedding key → packed location.

    Linear probing with a power-of-two capacity and a bounded load factor
    (default 0.7), matching what a GPU-resident table uses (probing is
    branch-light and coalescing-friendly).  Deletion re-places the entries
    it cuts off, so lookups never traverse tombstones — the property that
    keeps worst-case probe lengths bounded after many refresh cycles.

    **Thread safety:** every public operation (lookups *and* mutations)
    holds the table's reentrant lock for its whole probe pass.  A lookup
    runs several numpy probing rounds over ``_keys``/``_values``, and a
    concurrent insert can grow (replace) those arrays or a delete re-place
    part of a cluster mid-pass, so unsynchronized readers could chase a
    stale arena or observe a half-moved cluster (a torn read).  The
    serving layer's concurrency suite (``pytest -m concurrency``) hammers
    exactly this interleaving.  Mutations are batched and rare next to
    lookups, so a single mutual-exclusion lock (rather than a
    reader/writer pair) keeps the fast path at one uncontended acquire.
    """

    def __init__(
        self,
        expected_entries: int,
        num_sources: int | None = None,
        max_offset: int | None = None,
    ) -> None:
        if expected_entries < 0:
            raise ValueError("expected_entries must be non-negative")
        if num_sources is not None and num_sources <= 0:
            raise ValueError("num_sources must be positive")
        if max_offset is not None and max_offset < 0:
            raise ValueError("max_offset must be non-negative")
        capacity = 8
        while capacity * MAX_LOAD < max(expected_entries, 1):
            capacity *= 2
        self._capacity = capacity
        self._mask = capacity - 1
        self._max_load = MAX_LOAD
        #: validation bounds for unpacked locations (None = unbounded):
        #: valid sources are HOST plus GPU ids ``0..num_sources-1``, valid
        #: offsets ``0..max_offset``.
        self._num_sources = num_sources
        self._max_offset = max_offset
        self._keys = np.full(capacity, _EMPTY_KEY, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.int64)
        self._size = 0
        # Reentrant: insert() wraps insert_batch(), remove() wraps
        # remove_batch(), and from_source_map() inserts into a fresh table.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def load_factor(self) -> float:
        return self._size / self._capacity

    def _slot(self, key: int) -> int:
        # Fibonacci hashing spreads sequential ids well; plain Python ints
        # avoid numpy's unsigned-overflow warnings.
        hashed = (key * 11400714819323198485) & 0xFFFFFFFFFFFFFFFF
        return (hashed >> (64 - self._capacity.bit_length() + 1)) & self._mask

    def _slots_of(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_slot`: initial probe slot per key."""
        hashed = keys.astype(np.uint64) * _HASH_MULTIPLIER  # wraps mod 2^64
        shift = np.uint64(64 - self._capacity.bit_length() + 1)
        return ((hashed >> shift) & np.uint64(self._mask)).astype(np.int64)

    # ------------------------------------------------------------------
    # The bulk probe engine
    # ------------------------------------------------------------------
    def _probe_batch(
        self, keys: np.ndarray, op: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bulk-probe ``keys``: returns ``(found_mask, slot_per_key)``.

        One numpy round advances every still-unsettled key a single probe
        step; a key settles when its chain hits itself (found) or an empty
        slot (absent — the returned slot is that first empty slot, which
        is where an insert would place it).  Raises
        :class:`ProbeLimitError` if any chain visits every slot without
        settling (full or corrupt table), matching the scalar semantics.
        """
        n = len(keys)
        slots = self._slots_of(keys)
        found = np.zeros(n, dtype=bool)
        active = np.arange(n)
        for _ in range(self._capacity):
            existing = self._keys[slots[active]]
            hit = existing == keys[active]
            found[active[hit]] = True
            settled = hit | (existing == _EMPTY_KEY)
            active = active[~settled]
            if active.size == 0:
                return found, slots
            slots[active] = (slots[active] + 1) & self._mask
        raise ProbeLimitError(
            f"{op} probed all {self._capacity} slots: table full or corrupt"
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, key: int, source: int, offset: int) -> None:
        """Insert or overwrite one key's location (thin batch wrapper)."""
        self.insert_batch(
            np.asarray([key], dtype=np.int64),
            np.asarray([source], dtype=np.int64),
            np.asarray([offset], dtype=np.int64),
        )

    def insert_batch(
        self, keys: np.ndarray, sources: np.ndarray, offsets: np.ndarray
    ) -> None:
        """Bulk insert-or-overwrite: one probe pass for the whole batch.

        Equivalent to scalar inserts in batch order (duplicate keys: last
        value wins), except that capacity is reserved up front for the
        genuinely *new* keys only — overwrites never trigger a grow — and
        the final slot layout may be a different (equally valid) linear
        probe ordering than sequential insertion would produce.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return
        if keys.min() < 0:
            raise ValueError("keys must be non-negative")
        packed = pack_locations(sources, offsets)
        if len(packed) != len(keys):
            raise ValueError("keys, sources and offsets must align")
        # Last-wins dedup: np.unique over the reversed batch finds, per
        # unique key, its final occurrence.
        uniq, rev_first = np.unique(keys[::-1], return_index=True)
        last = len(keys) - 1 - rev_first
        keys, packed = keys[last], packed[last]
        with self._lock:
            # Grow only for keys not already present (overwrites are free).
            found, _ = self._probe_batch(keys, "insert")
            self._reserve(self._size + int((~found).sum()))
            self._store_unique(keys, packed)

    def _store_unique(self, keys: np.ndarray, packed: np.ndarray) -> None:
        """Place unique ``keys`` via parallel probing rounds.

        Every pending key advances one probe step per round; keys whose
        slot holds themselves overwrite in place, and keys that reach an
        empty slot claim it (first pending key wins a contended slot, the
        rest probe on).  Any slot a key skips is occupied by the time it
        is skipped, so the linear-probe reachability invariant holds for
        the final layout.
        """
        slots = self._slots_of(keys)
        pending = np.arange(len(keys))
        for _ in range(self._capacity):
            existing = self._keys[slots[pending]]
            overwrite = existing == keys[pending]
            if overwrite.any():
                hit = pending[overwrite]
                self._values[slots[hit]] = packed[hit]
            claim = pending[existing == _EMPTY_KEY]
            settled = overwrite
            if claim.size:
                _, first = np.unique(slots[claim], return_index=True)
                winners = claim[first]
                self._keys[slots[winners]] = keys[winners]
                self._values[slots[winners]] = packed[winners]
                self._size += len(winners)
                settled = settled | np.isin(pending, winners, assume_unique=True)
            pending = pending[~settled]
            if pending.size == 0:
                return
            slots[pending] = (slots[pending] + 1) & self._mask
        raise ProbeLimitError(
            f"insert probed all {self._capacity} slots: table full or corrupt"
        )

    def remove(self, key: int) -> bool:
        """Delete one key; returns False if absent (thin batch wrapper)."""
        return self.remove_batch(np.asarray([key], dtype=np.int64)) == 1

    def remove_batch(self, keys: np.ndarray) -> int:
        """Bulk delete: one probe pass; returns how many keys were present.

        Absent, negative and repeated keys count as repeated scalar
        removes would count them (not at all, and once).  No tombstones:
        emptying a slot can cut off only the live entries between it and
        the next empty slot from their ideal slots, so exactly those are
        lifted out and re-placed.  As with :meth:`insert_batch`, the
        layout left behind may be a different, equally valid probe order
        than sequential backward-shift deletion would produce.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        keys = keys[keys >= 0]  # -1 is the empty marker, never a stored key
        if len(keys) == 0:
            return 0
        with self._lock:
            found, slots = self._probe_batch(keys, "remove")
            holes = sorted_unique(slots[found])
            self._keys[holes] = _EMPTY_KEY
            self._size -= len(holes)
            # Walk on from every hole, one slot per round, until each
            # walk meets an empty slot (a later hole included: its own
            # walk takes over there).  The walks wrap the array end.
            cut_off = []
            walk = holes
            while walk.size:
                walk = (walk + 1) & self._mask
                walk = walk[self._keys[walk] != _EMPTY_KEY]
                cut_off.append(walk)
            if cut_off:
                lifted = np.concatenate(cut_off)
                lifted_keys = self._keys[lifted]
                self._keys[lifted] = _EMPTY_KEY
                self._size -= len(lifted)
                self._store_unique(lifted_keys, self._values[lifted])
            return len(holes)

    def _reserve(self, target_entries: int) -> None:
        """Ensure ``target_entries`` fit the load limit (0+ doublings)."""
        capacity = self._capacity
        while target_entries / capacity > self._max_load:
            capacity *= 2
        if capacity != self._capacity:
            self._rebuild(capacity)

    def _rebuild(self, new_capacity: int) -> None:
        """Re-home every live entry into a fresh arena of ``new_capacity``.

        One bulk re-insert of the packed slot arrays — no per-key Python
        loop, so a grow costs a handful of numpy rounds regardless of
        table size.
        """
        live = self._keys != _EMPTY_KEY
        keys = self._keys[live]
        values = self._values[live]
        self._capacity = new_capacity
        self._mask = new_capacity - 1
        self._keys = np.full(new_capacity, _EMPTY_KEY, dtype=np.int64)
        self._values = np.zeros(new_capacity, dtype=np.int64)
        self._size = 0
        if len(keys):
            self._store_unique(keys, values)

    def corrupt_slot(self, key: int, source: int, offset: int) -> None:
        """Fault-injection hook: overwrite ``key``'s stored location.

        Bypasses the bounds validation lookups enforce, so the injector
        can plant an out-of-range ``<gpu, offset>`` and tests can verify
        the read path raises :class:`CorruptEntryError` instead of
        returning garbage.  The location must still be *packable*
        (16-bit source, 48-bit offset).
        """
        with self._lock:
            slot = self._slot(key)
            for _ in range(self._capacity):
                existing = self._keys[slot]
                if existing == _EMPTY_KEY:
                    raise KeyError(f"cannot corrupt absent key {key}")
                if existing == key:
                    self._values[slot] = pack_location(source, offset)
                    return
                slot = (slot + 1) & self._mask
            raise ProbeLimitError(
                f"corrupt_slot({key}) probed all {self._capacity} slots: "
                "table full or corrupt"
            )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _checked_location(self, key: int, packed: np.int64) -> tuple[int, int]:
        source, offset = unpack_location(packed)
        if source != HOST:
            if source < 0 or (
                self._num_sources is not None and source >= self._num_sources
            ):
                raise CorruptEntryError(key, source, offset)
            if self._max_offset is not None and offset > self._max_offset:
                raise CorruptEntryError(key, source, offset)
        return source, offset

    def get(self, key: int) -> tuple[int, int] | None:
        """Location of one key, or None if absent (thin batch wrapper).

        Raises:
            CorruptEntryError: the stored location is outside the table's
                ``num_sources`` / ``max_offset`` bounds.
        """
        with self._lock:
            found, slots = self._probe_batch(
                np.asarray([key], dtype=np.int64), f"get({key})"
            )
            if not found[0]:
                return None
            return self._checked_location(key, self._values[slots[0]])

    def lookup_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized batch lookup: bulk probing rounds, no per-key loop.

        Returns ``(sources, offsets)``; absent keys get source
        :data:`HOST` and offset = key (host storage is addressed by key).
        A poisoned slot raises :class:`CorruptEntryError` for the first
        poisoned key in batch order.
        """
        keys = np.asarray(keys, dtype=np.int64)
        sources = np.full(len(keys), HOST, dtype=SOURCE_DTYPE)
        offsets = keys.copy()  # miss ⇒ host storage addressed by key
        if len(keys) == 0:
            return sources, offsets
        with self._lock:
            found, slots = self._probe_batch(keys, "lookup_batch")
            hit = np.flatnonzero(found)
            if hit.size == 0:
                return sources, offsets
            packed = self._values[slots[hit]]
        src = (packed >> _OFFSET_BITS) - 1
        off = packed & _OFFSET_MASK
        corrupt = self._corrupt_mask(src, off)
        if corrupt.any():
            first = int(np.flatnonzero(corrupt)[0])
            raise CorruptEntryError(
                int(keys[hit[first]]), int(src[first]), int(off[first])
            )
        sources[hit] = src.astype(SOURCE_DTYPE)
        offsets[hit] = off
        return sources, offsets

    def _corrupt_mask(self, sources: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Vectorized form of :meth:`_checked_location`'s bounds check."""
        nonhost = sources != HOST
        bad = nonhost & (sources < 0)
        if self._num_sources is not None:
            bad |= nonhost & (sources >= self._num_sources)
        if self._max_offset is not None:
            bad |= nonhost & (offsets > self._max_offset)
        return bad

    def max_probe_length(self) -> int:
        """Longest probe chain currently in the table (a health metric)."""
        with self._lock:
            live = np.flatnonzero(self._keys != _EMPTY_KEY)
            if live.size == 0:
                return 0
            ideal = self._slots_of(self._keys[live])
            return int(((live - ideal) & self._mask).max())

    @staticmethod
    def from_source_map(
        sources: np.ndarray,
        offsets: np.ndarray,
        num_sources: int | None = None,
    ) -> "LocationTable":
        """Build a table from dense source/offset arrays (cache-fill path).

        Backing-resident entries (source < 0: host DRAM or any deeper
        tier) are not inserted — absence *means* the backing chain,
        exactly as the runtime treats misses; the cache's home map says
        which tier.  Pass ``num_sources`` (the GPU count) to arm the
        corruption bounds check on the read path.
        """
        sources = np.asarray(sources)
        offsets = np.asarray(offsets)
        cached = np.flatnonzero(sources >= 0)
        table = LocationTable(
            expected_entries=len(cached),
            num_sources=num_sources,
        )
        if len(cached):
            table.insert_batch(cached, sources[cached], offsets[cached])
        return table
