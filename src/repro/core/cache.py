"""The unified multi-GPU embedding cache (§4): storage + location hashtable.

:class:`MultiGpuEmbeddingCache` is the runtime object the embedding layer
wraps.  It owns:

* the host-resident embedding table (the fallback location);
* one row arena and one ``(T + G, N)`` slot table (:func:`~repro.core.
  filler.fill_all`): the backing tiers' blocks lead (on one tier, a copy of
  the host table with the identity slot row), then one
  :class:`~repro.core.filler.GpuCacheStore` per GPU, its rows a view of its
  block and its ``offset_of`` its row, so every ``<source, Offset>`` is the
  address ``address_base[source + T] + offset`` and a batch's rows are one
  ``take``;
* the per-GPU *location table* (:func:`~repro.core.evaluate.resolve_sources`)
  and *route map* (the entry's arena row there, −1 if unheld): the paper's
  ``<GPU_i, Offset>`` hashtable, kept exact by :meth:`set_sources`.

Lookups are functionally exact (values are gathered from the actual stores,
never recomputed), and every lookup also yields the byte volumes the
simulator needs to price the extraction.  The location lookup itself is
the extraction pipeline's *resolve* stage
(:func:`repro.core.pipeline.resolve`), shared with the Extractor's
planner, and the integrity check routes every entry through the same
:func:`~repro.core.pipeline.locate` the plans read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evaluate import resolve_sources
from repro.core.filler import GpuCacheStore, fill_all
from repro.core.pipeline import _USOURCE, locate, resolve
from repro.core.policy import Placement
from repro.core.tiers import TierChain, not_resident
from repro.hardware.platform import HOST, SOURCE_DTYPE, Platform
from repro.obs import get_registry
from repro.sim.mechanisms import GpuDemand
from repro.utils.concurrency import ReadWriteLock


class CacheIntegrityError(RuntimeError):
    """The cache's cross-structure invariants are violated (see
    :meth:`MultiGpuEmbeddingCache.check_integrity`)."""


@dataclass(frozen=True)
class LookupResult:
    """Values plus provenance for one GPU's batch lookup."""

    values: np.ndarray
    demand: GpuDemand
    #: per-key source location (GPU id or HOST)
    sources: np.ndarray

    @property
    def host_fraction(self) -> float:
        """Fraction resolved to the backing chain (any tier id < 0)."""
        if self.sources.size == 0:
            return 0.0
        return float((self.sources < 0).mean())


class MultiGpuEmbeddingCache:
    """Read-only embedding cache unified across the platform's GPUs.

    **Thread-safety contract.**  Nothing in the package starts a thread
    (serving is one simulated-clock loop), but callers may share the cache
    across threads, so it owns a writer-preferring ``ReadWriteLock``
    (stress-tested by ``pytest -m concurrency``):

    * *readers* — :meth:`lookup`, :meth:`host_gather`, extraction planning
      and execution (via :meth:`reading`, which
      :meth:`~repro.core.extractor.FactoredExtractor.extract` holds across
      its plans and gathers), :meth:`verify_integrity` — share the routing
      structures;
    * *writers* — :meth:`replace_placement`, :meth:`refresh_source_map`,
      :meth:`restore_location_state`, :meth:`set_sources` and every store
      insert/evict (wrapped in :meth:`writing`) — get exclusive access.

    Consumers composing multi-step read sequences (e.g. the serving
    runtime's plan → execute → price) must hold :meth:`reading` across the
    whole sequence so a refresh cannot land between resolve and gather.
    The lock is reentrant per thread, and a writer may take the read side
    (integrity checks run inside refresh/rollback write sections).
    """

    def __init__(
        self,
        platform: Platform,
        table: np.ndarray,
        placement: Placement,
        capacity_entries: int | None = None,
        tier_hotness: np.ndarray | None = None,
    ) -> None:
        if table.ndim != 2:
            raise ValueError("embedding table must be 2-D (entries × dim)")
        if placement.num_entries != table.shape[0]:
            raise ValueError("placement does not cover the table")
        self._platform = platform
        self._table = table
        self._capacity = capacity_entries
        # On a single-tier platform the backing chain degenerates to the
        # host table itself — no chain object, and the resolve fallback
        # stays the literal HOST constant (byte-identical routing to the
        # pre-tier cache).
        self._chain: TierChain | None = None
        if platform.num_tiers > 1:
            self._chain = TierChain(platform.tiers, table, tier_hotness)
        self._rwlock = ReadWriteLock()
        self._fill(placement)
        # Host-table checksums are the scrubber's ground truth; the table
        # is immutable for the cache's lifetime, so compute them lazily
        # once on first use.
        self._host_checksums: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Concurrency
    # ------------------------------------------------------------------
    def reading(self):
        """Shared (reader) access to the routing structures and stores.

        Hold this across any multi-step read sequence (resolve → gather)
        run off the owning thread; single reads through :meth:`lookup` /
        :meth:`host_gather` take it themselves.
        """
        return self._rwlock.read_locked()

    def writing(self):
        """Exclusive (writer) access — placement swaps and refresh steps."""
        return self._rwlock.write_locked()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def platform(self) -> Platform:
        return self._platform

    @property
    def placement(self) -> Placement:
        return self._placement

    @property
    def num_entries(self) -> int:
        return self._table.shape[0]

    @property
    def dim(self) -> int:
        return self._table.shape[1]

    @property
    def entry_bytes(self) -> int:
        return self.dim * self._table.itemsize

    @property
    def source_map(self) -> np.ndarray:
        """The location hashtable, ``(G, N)`` source per (GPU, entry): read only."""
        return self._sources_view

    def set_sources(self, dsts, entries, sources) -> None:
        """Route cells ``(dsts, entries)`` to ``sources`` (broadcast); re-derive their
        routes: the arena row, −1 where the source does not hold it or is corrupt."""
        sources = np.asarray(sources, SOURCE_DTYPE)
        dsts, entries, sources = np.broadcast_arrays(dsts, entries, sources)
        with self._rwlock.write_locked():
            self._source_map[dsts, entries] = sources
            self.routes[dsts, entries] = self._arena_rows(entries, sources)

    def _arena_rows(self, entries: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """Per cell ``entries``' row on ``sources``, −1 if unheld or corrupt."""
        rows = (sources + self._platform.num_tiers).view(_USOURCE)  # corrupt: past the table
        flat = np.multiply(rows, self.num_entries, dtype=np.int64) + entries
        slots = self.slot_cells.take(flat, mode="clip")
        held = (rows < len(self.address_base)) & (slots >= 0)
        return np.where(held, self.address_base.take(rows, mode="clip") + slots, -1)

    def _store_wrote(self, gpu: int, entries: np.ndarray) -> None:
        """Store ``gpu`` slotted or dropped ``entries``: re-route their readers."""
        readers = self._source_map[:, entries] == gpu
        if readers.any():  # a refresh step reroutes its evictions first: often none
            dsts, at = readers.nonzero()
            self.set_sources(dsts, entries[at], gpu)

    def store(self, gpu: int) -> GpuCacheStore:
        """One GPU's cache store (slot arena + entry→slot map)."""
        return self._stores[gpu]

    def _fill(self, placement: Placement) -> None:
        """Refill the row arena and slot table with the backing tiers and
        ``placement``'s GPU stores (:func:`fill_all`), index and route them."""
        G, T = placement.num_gpus, self._platform.num_tiers
        chain = self._chain
        stores = fill_all(
            self._table, placement, self._capacity, chain and chain.stores
        )
        if chain is not None:
            chain.stores = stores[G:]
        self._stores = stores[:G]
        #: every source's rows as one ``(total rows, dim)`` array: the
        #: backing blocks, then GPU ``g``'s ``data``, the view
        #: ``row_arena[slot_base[g]:slot_base[g + 1]]``.
        self.row_arena: np.ndarray = stores[0].data.base
        #: ``slot_cells[(s + T) * N + e]`` is entry ``e``'s slot on source
        #: ``s`` (−1: not held), source ``s``'s slot map row ``s + T`` of
        #: ``slot_table``; ``address_base[s + T]`` is its first arena row.
        self.slot_cells: np.ndarray = stores[0].offset_of.base
        self.slot_table = self.slot_cells[:-1].reshape(T + G, self.num_entries)
        lead = [len(s.data) for s in reversed(stores[G:])] or [self.num_entries]
        bases = np.cumsum([0, *lead, *(len(s.data) for s in stores[:G])])
        self.address_base = bases[:-1]
        self.slot_base = bases[T:].tolist()
        for store in stores:
            store.on_write = self._store_wrote
        self._placement = placement
        self._source_map = resolve_sources(self._platform, placement, backing=chain and chain.home)
        self._sources_view = self._source_map.view()
        self._sources_view.flags.writeable = False
        entries = np.arange(self.num_entries)  # every slot moved: route each row whole
        self.routes = np.stack([self._arena_rows(entries, row) for row in self._source_map])

    @property
    def host_table(self) -> np.ndarray:
        """The host-resident embedding table (the universal fallback)."""
        return self._table

    @property
    def host_checksums(self) -> np.ndarray:
        """Per-entry checksum of the host table: the repair ground truth.

        Computed lazily (one vectorized pass) and cached — the host table
        is immutable, so the checksums never go stale.
        """
        if self._host_checksums is None:
            from repro.core.checksum import row_checksums

            self._host_checksums = row_checksums(self._table)
        return self._host_checksums

    def host_gather(self, keys: np.ndarray) -> np.ndarray:
        """Gather rows straight from the host table (the miss path).

        The public form of what the Extractor's HOST group does: callers
        outside this class must never index the private table directly.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.size and (keys.min() < 0 or keys.max() >= self.num_entries):
            raise KeyError("host gather key out of range")
        with self._rwlock.read_locked():
            return self._table[keys]

    # ------------------------------------------------------------------
    # Backing-tier chain
    # ------------------------------------------------------------------
    @property
    def tier_chain(self) -> TierChain | None:
        """The backing-tier chain, or ``None`` on a single-tier platform."""
        return self._chain

    def backing_home(self, keys: np.ndarray) -> np.ndarray:
        """Per-key backing source: the tier each key falls back to.

        ``HOST`` for every key on a single-tier platform; the tier
        chain's home map otherwise.  This is what the pipeline's
        replica-reroute uses as its terminal fallback.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        with self._rwlock.read_locked():
            if self._chain is None:
                return np.full(len(keys), HOST, dtype=SOURCE_DTYPE)
            return self._chain.home[keys]

    def backing_shares(self) -> dict[int, float]:
        """Fraction of the entry universe homed per backing tier."""
        with self._rwlock.read_locked():
            if self._chain is None:
                return {HOST: 1.0}
            return self._chain.shares()

    # ------------------------------------------------------------------
    # Lookup path
    # ------------------------------------------------------------------
    def lookup(self, dst: int, keys: np.ndarray) -> LookupResult:
        """Gather embedding values for one GPU's key batch.

        Values come from the row arena (local slot, remote GPU's slot, or
        the backing tier's block), so tests can verify byte-exactness
        against ``table[keys]``.
        """
        platform, T = self._platform, self._platform.num_tiers
        with self._rwlock.read_locked():
            keys, sources = resolve(self, dst, keys)
            addresses = self.routes[dst].take(keys)
            if len(keys) and addresses.min() < 0:
                slots, _, _, sizes = locate(self, keys, sources)
                if sum(sizes) != len(keys):
                    raise CacheIntegrityError(f"GPU {dst}: a key routes to no source")
                stale = slots < 0
                unheld = stale & (sources < 0)
                if unheld.any():
                    raise not_resident(platform, keys, sources, unheld)
                gpu = int(sources[stale].min())
                missing = keys[stale & (sources == gpu)][:5]
                raise KeyError(f"entries not cached on GPU {gpu}: {missing}...")
            values = self.row_arena.take(addresses, axis=0)
        counts = np.bincount(sources + T, minlength=T + platform.num_gpus).tolist()
        demand = GpuDemand(dst=dst, volumes={
            s: float(counts[s + T] * self.entry_bytes)
            for s in (*platform.gpu_ids, *platform.backing_ids) if counts[s + T]
        })
        reg = get_registry()
        if reg.enabled:
            local, host = counts[dst + T], sum(counts[:T])  # host: the whole chain
            reg.counter("cache.lookup.calls").inc()
            reg.counter("cache.lookup.keys", source="local").inc(local)
            reg.counter("cache.lookup.keys", source="remote").inc(len(keys) - local - host)
            reg.counter("cache.lookup.keys", source="host").inc(host)
        return LookupResult(values=values, demand=demand, sources=sources)

    # ------------------------------------------------------------------
    # Refresh support
    # ------------------------------------------------------------------
    def replace_placement(self, placement: Placement) -> None:
        """Atomically swap in a new placement (full refill).

        The incremental path lives in the Refresher; this is the simple
        fallback and the post-refresh consistency point: the location
        table is rebuilt only after all stores match the new placement,
        mirroring §7.2's update ordering.
        """
        if placement.num_entries != self.num_entries:
            raise ValueError("new placement does not cover the table")
        with self._rwlock.write_locked():
            self._fill(placement)

    def refresh_source_map(self) -> None:
        """Rebuild the location table from the stores' contents, changed cells only."""
        with self._rwlock.write_locked():
            per_gpu = tuple(store.cached_entries() for store in self._stores)
            placement = Placement(num_entries=self.num_entries, per_gpu=per_gpu)
            backing = self._chain and self._chain.home
            self._adopt(placement, resolve_sources(self._platform, placement, backing=backing))

    def _adopt(self, placement: Placement, source_map: np.ndarray) -> None:
        """Adopt ``placement`` and its location table: write the cells that differ."""
        self._placement = placement
        dsts, entries = np.divmod(np.flatnonzero(source_map != self._source_map), self.num_entries)
        self.set_sources(dsts, entries, source_map[dsts, entries])

    def restore_location_state(
        self, placement: Placement, source_map: np.ndarray
    ) -> None:
        """Rollback hook: restore a snapshotted placement + location table.

        Used by the Refresher's transactional refresh to return the cache
        to its exact pre-refresh routing after a failed update (the
        stores must already hold ``placement``'s entries).
        """
        if placement.num_entries != self.num_entries:
            raise ValueError("snapshot placement does not cover the table")
        if source_map.shape != self._source_map.shape:
            raise ValueError("snapshot source map has the wrong shape")
        with self._rwlock.write_locked():
            self._adopt(placement, source_map)

    # ------------------------------------------------------------------
    # Invariant checking
    # ------------------------------------------------------------------
    def verify_integrity(self) -> list[str]:
        """Cross-structure invariant check; returns violations (empty = ok).

        Checks, per GPU and tier store: ``data`` is still its row arena
        block and ``offset_of`` its slot table row (a rebound array is
        written, never read), slot assignments are unique, arena occupancy
        matches the entry count, and cached rows and stored checksums match
        the host table and :attr:`host_checksums`; on one tier, the host
        block equals the table and its slot row is the identity.  Then the
        routes: per destination, one :func:`~repro.core.pipeline.locate` of
        every entry at its ``source_map`` source — an id that names no GPU
        or tier is corrupt, and a negative slot is a read from a GPU that
        does not hold the entry or a tier that is not its home, and the
        route map must equal the located rows (−1 where unheld).  Last, the
        tier chain's partition, home map and capacity
        (:meth:`~repro.core.tiers.TierChain.verify`).
        """
        problems: list[str] = []
        platform = self._platform
        T, N = platform.num_tiers, self.num_entries
        entries = np.arange(N)
        with self._rwlock.read_locked():
            truth = self.host_checksums
            for store in (*self._stores, *(self._chain.stores if self._chain else ())):
                src = store.gpu  # a tier store's is its backing source id
                name = f"GPU {src}" if src >= 0 else f"tier {platform.tier_of(src).name}"
                start = self.address_base[src + T]
                view = self.row_arena[start : start + len(store.data)]
                if store.data.__array_interface__ != view.__array_interface__:
                    problems.append(f"{name}: store data is not its row arena slice")
                row = self.slot_table[src + T].__array_interface__
                if store.offset_of.__array_interface__ != row:
                    problems.append(f"{name}: store offset_of is not its slot table row")
                cached = store.cached_entries()
                offsets = store.offset_of[cached]
                if len(offsets) and np.bincount(offsets).max() > 1:
                    problems.append(f"{name}: duplicate slot assignments")
                if store.arena.used_slots != len(cached):
                    problems.append(
                        f"{name}: arena holds {store.arena.used_slots} slots "
                        f"but {len(cached)} entries are mapped"
                    )
                if not np.array_equal(store.data[offsets], self._table[cached]):
                    problems.append(f"{name}: cached values diverge from host table")
                if not np.array_equal(store.checksums[offsets], truth[cached]):
                    problems.append(f"{name}: stored checksums diverge from the table")
            if self._chain is None:
                # The host block: the whole table in key order, the identity row.
                name = f"tier {platform.tiers[0].name}"
                if not np.array_equal(self.slot_table[0], entries):
                    problems.append(f"{name}: slot table row is not the identity")
                if not np.array_equal(self.row_arena[:N], self._table):
                    problems.append(f"{name}: backing block diverges from host table")
            for dst, srcs in enumerate(self._source_map):
                slots, addresses, _, counts = locate(self, entries, srcs)
                held = (slots >= 0) & platform.valid_source_mask(srcs)
                if drift := int((self.routes[dst] != np.where(held, addresses, -1)).sum()):
                    problems.append(f"GPU {dst}: {drift} route map cells disagree")
                unheld = srcs[slots < 0]  # a corrupt id's slot is the sentinel, 0
                corrupt = N - sum(counts)
                if corrupt:
                    problems.append(f"GPU {dst}: {corrupt} out-of-range source ids")
                stale = int((unheld < 0).sum())
                if corrupt and self._chain is not None:
                    stale += int((srcs < -T).sum())  # a corrupt negative id too
                if stale:
                    problems.append(
                        f"GPU {dst}: {stale} backing routes point "
                        "at a tier that is not the entry's home"
                    )
                missing = np.bincount(unheld[unheld >= 0], minlength=platform.num_gpus)
                for g in np.flatnonzero(missing).tolist():
                    problems.append(
                        f"GPU {dst}: {missing[g]} entries routed to GPU {g} "
                        "which does not hold them"
                    )
            if self._chain is not None:
                problems.extend(self._chain.verify())
        return problems

    def check_integrity(self) -> None:
        """Raise :class:`CacheIntegrityError` if any invariant is violated."""
        problems = self.verify_integrity()
        if problems:
            raise CacheIntegrityError("; ".join(problems))
