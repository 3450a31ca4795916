"""The unified extraction pipeline: resolve → reroute → group → dedicate
→ price → execute.

UGache's premise (§5) is that extraction is *the* hot path, so this module
gives it one explicit shape.  A batch flows through six stages, each a
free function that any layer can call on its own:

1. **resolve** — bulk location lookup: keys → source per key (the §4
   hashtable semantics, served from the cache's dense ``source_map``);
2. **reroute** — fault/exclusion handling, without a sort: a healthy batch
   is one ``take`` of the cache's route map and one ``bincount``; any other
   is located by :func:`locate` (one ``take`` from the ``(T + G, N)`` slot
   table), and keys on unusable sources (down GPUs, partitioned links,
   stale/corrupt slots, breaker-opened sources) are patched in place with
   the cheapest surviving replica, host last, and located again;
3. **group** — per-source batching: ``(source, keys, cores)`` per present
   source in launch order (Figure 8's layout; the plan's
   :class:`SourceGroup` segments are built only when asked for);
4. **dedicate** — the §5.3 core split over the sources actually present;
5. **price** — the factored timing model under the current health view —
   the *only* pricing point: the extractor, the batch engine, the event
   simulators, the serving runtime and the cluster's cache nodes all price
   a demand through :func:`price_demand`, so a plan costs the same no
   matter who asks;
6. **execute** — one row ``take`` of the plan's addresses from the cache's
   arena, whichever sources they name.

Each stage times itself into ``pipeline.<stage>.seconds`` (one clock read
at entry, one ``observe`` in a ``finally``; :mod:`repro.obs.tracing`), so a
regression in any one stage is visible regardless of which consumer
triggered it.

**What is remembered.**  What a plan or a price needs that the keys do not
decide is recorded once in ``Platform.memo`` — a degraded view's own memo
under a health view, one view per health *value* — and only looked up per
request: reroute's verdict on every source id under ``("verdicts", dst,
exclude)``; the core split under ``("dedication", dst, present)``; metric
labels under ``("source_class", dst, sources)``; the FEM's per-source
``(rate, latency, cores, busy)`` under ``("factored", dst, sources)``
(:func:`~repro.sim.mechanisms.factored_terms`); the sources ``dst`` can
read under ``("readable", dst)``.  Every key is a value (a fault or a
breaker flip is another key); :func:`remember` caps each memo.  Of cache
*contents* only §4's ``<GPU, Offset>`` map is kept, the slot table plus the
route map (:func:`locate`'s arena row per ``source_map`` cell, −1 if unheld
or corrupt); its writers re-derive the cells they touch: the cache's fill,
``set_sources`` (refresh, rollback, scrub, injector) and the stores'
``on_write`` hook (refresh steps, restage).

:class:`~repro.core.extractor.FactoredExtractor` is the conventional
facade over stages 1–4 + 6; :func:`repro.sim.engine.simulate_batch`
consumes stage 5 for whole batches; :mod:`repro.sim.event_sim` and
:class:`~repro.serve.runtime.ServingRuntime` share the health-application
and hedge-demand helpers so their inputs match the analytic path exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.tiers import not_resident
from repro.faults.degrade import degraded_platform, reroute_demand
from repro.faults.spec import HealthView
from repro.hardware.platform import HOST, SOURCE_DTYPE, Platform, remember
from repro.obs import get_registry
from repro.sim.mechanisms import (
    GpuDemand,
    GpuExtractionReport,
    core_dedication,
    factored_extraction,
)
from repro.utils.arrays import sorted_unique
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # cache imports this module; type-only the other way
    from repro.core.cache import MultiGpuEmbeddingCache

logger = get_logger("core.pipeline")

__all__ = [
    "ExtractionPlan",
    "SourceGroup",
    "apply_health",
    "backing_fallback_demand",
    "dedicate",
    "execute_plan",
    "find_replicas",
    "group_by_source",
    "host_fallback_demand",
    "locate",
    "NodeReadPrice",
    "network_transfer_seconds",
    "plan_extraction",
    "price_demand",
    "price_node_read",
    "reroute",
    "resolve",
    "source_class",
]


def source_class(source: int, dst: int, platform: Platform | None = None) -> str:
    """Label a source relative to its destination: local / host / remote.

    Backing tier 0 keeps its historical ``"host"`` label; deeper tiers
    label as their tier name when a ``platform`` is given (``"ssd"``,
    ``"cxl"``) or ``"tier<k>"`` otherwise, so per-tier metric streams
    stay distinguishable.
    """
    if source == dst:
        return "local"
    if source == HOST:
        return "host"
    if source < HOST:
        if platform is not None and platform.is_backing(source):
            return platform.tier_of(source).name
        return f"tier{-source - 1}"
    return "remote"


class SourceGroup(NamedTuple):
    """One source's share of a batch: which keys, read from where."""

    source: int
    #: positions of these keys within the original batch
    batch_positions: np.ndarray
    #: the entry ids to read
    keys: np.ndarray
    #: slot offsets on the source GPU (empty for backing-tier sources; the
    #: plan's ``slots`` hold theirs)
    offsets: np.ndarray
    dedicated_cores: int


@dataclass(eq=False)
class ExtractionPlan:
    """A factored plan for one GPU's batch (Figure 8's grouped layout): per
    key its source and arena address, and per present source ``(source,
    keys, dedicated cores)`` in launch order (non-local first, the
    low-priority local group last)."""

    dst: int
    keys: np.ndarray
    sources: np.ndarray
    addresses: np.ndarray
    per_source: tuple[tuple[int, int, int], ...]
    #: keys this plan rerouted away from their mapped source (faults)
    rerouted_keys: int
    #: sources whose mapped keys had to be rerouted because the source
    #: itself failed (down GPU, partitioned link, stale/corrupt slots) —
    #: the serving layer's circuit breakers consume this.  Sources the
    #: caller *asked* to exclude are not failures and do not appear.
    failed_sources: tuple[int, ...]
    bases: np.ndarray  #: the cache's ``address_base`` at plan time
    tiers: int

    @property
    def batch_size(self) -> int:
        return len(self.keys)

    @cached_property
    def slots(self) -> np.ndarray:  # per key its slot on its source
        return self.addresses - self.bases.take(self.sources + self.tiers)

    @cached_property
    def groups(self) -> tuple[SourceGroup, ...]:
        """One :class:`SourceGroup` per ``per_source`` entry, its positions
        ascending, by one stable sort of the batch (the hot path never asks)."""
        order = self.sources.argsort(kind="stable")
        by_keys, by_slots = self.keys.take(order), self.slots.take(order)
        spans, start = {}, 0
        for src, count, _ in sorted(self.per_source):
            spans[src] = slice(start, start := start + count)
        return tuple(
            SourceGroup(
                src, order[spans[src]], by_keys[spans[src]],
                by_slots[spans[src]] if src >= 0 else _NO_OFFSETS, cores,
            )
            for src, _, cores in self.per_source
        )

    def demand(self, entry_bytes: int) -> GpuDemand:
        return GpuDemand(
            dst=self.dst,
            volumes={s: float(count * entry_bytes) for s, count, _ in self.per_source},
        )


# ----------------------------------------------------------------------
# Stage 1: resolve
# ----------------------------------------------------------------------
def resolve(
    cache: "MultiGpuEmbeddingCache", dst: int, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bulk location lookup: ``(keys, sources)`` for one GPU's batch.

    Returns the keys normalized to a contiguous int64 array and the
    per-key source (GPU id or :data:`HOST`) from ``dst``'s location map,
    as a :data:`~repro.hardware.platform.SOURCE_DTYPE` array.  A key outside
    ``[0, N)`` raises ``KeyError``, as :meth:`~repro.core.cache.
    MultiGpuEmbeddingCache.host_gather` does (seen unsigned, a negative key
    is the largest).
    """
    seconds = get_registry().cached("histogram", "pipeline.resolve.seconds")
    start = perf_counter()
    try:
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if len(keys) and _max(keys.view(np.uint64)) >= cache.num_entries:
            raise KeyError("key out of range")
        return keys, cache.source_map[dst][keys]
    finally:
        seconds.observe(perf_counter() - start)


# ----------------------------------------------------------------------
# Stage 2: reroute
# ----------------------------------------------------------------------
def find_replicas(
    cache: "MultiGpuEmbeddingCache",
    dst: int,
    keys: np.ndarray,
    health: HealthView | None,
    exclude: frozenset[int] = frozenset(),
) -> np.ndarray:
    """Cheapest surviving holder per key; the key's backing tier when
    nobody has it.

    Degraded links inflate a candidate's cost by ``1 / link_factor``
    so a half-speed replica loses to a healthy one but still beats
    the backing chain when it is the only copy left.  Sources in
    ``exclude`` (e.g. breaker-open ones) are never candidates.
    """
    platform = cache.platform
    out = cache.backing_home(keys)
    best_cost = np.full(len(keys), np.inf)
    for g in platform.gpu_ids:
        if g == dst or g in exclude:
            continue
        if health is not None and not health.source_usable(dst, g):
            continue
        if not platform.is_connected(dst, g):
            continue
        cost = platform.cost_per_byte(dst, g)
        if health is not None:
            cost /= health.link_factor(dst, g)
        if not np.isfinite(cost):
            continue
        held = cache.store(g).offset_of[keys] >= 0
        better = held & (cost < best_cost)
        out[better] = g
        best_cost[better] = cost
    return out


_NO_OFFSETS = np.empty(0, dtype=np.int64)
_min = np.minimum.reduce  # ``ndarray.min`` minus its Python wrapper
_max = np.maximum.reduce
#: :data:`SOURCE_DTYPE` read unsigned: a tier's (negative) id exceeds every GPU's.
_USOURCE = np.dtype(f"u{np.dtype(SOURCE_DTYPE).itemsize}")


def locate(
    cache: "MultiGpuEmbeddingCache", keys: np.ndarray, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], list[int]]:
    """Where a batch's keys are, without a sort: ``(slots, addresses,
    present, counts)``.

    Per key its slot on its source, GPU or backing tier (negative: not
    held), one ``take`` from the flat slot table at row ``source + T``, and
    its arena row, that slot plus the source's first row; read unsigned, a
    corrupt id's row lies past the table and clips onto its sentinel cell,
    slot 0.  Then the sources present, ascending, and their key counts from
    one ``bincount``, which skips corrupt ids: ``sum(counts) < len(keys)``."""
    span = (tiers := cache.platform.num_tiers) + cache.platform.num_gpus
    shifted = sources + tiers
    flat = np.multiply(shifted.view(_USOURCE), cache.num_entries, dtype=np.int64)
    flat += keys
    slots = cache.slot_cells.take(flat, mode="clip")
    addresses = slots + cache.address_base.take(shifted, mode="clip")
    unsigned = shifted.view(_USOURCE)
    if len(keys) and _max(unsigned) >= span:
        shifted = shifted[unsigned < span]
    counts = np.bincount(shifted, minlength=span)
    nonzero = counts.nonzero()[0]
    return slots, addresses, tuple((nonzero - tiers).tolist()), counts[nonzero].tolist()


#: What :func:`reroute` does with a present source.  Only ``_HELD`` looks
#: at the batch (are the slots still there?); the rest is decided by the
#: route alone and remembered with it.  GPU ids and *every* backing-tier id
#: get a verdict; an id with none is corrupt.
_BACKING, _HELD, _EXCLUDED, _UNLINKED, _UNUSABLE = range(5)


def _verdict(
    platform: Platform, dst: int, src: int, health: HealthView | None,
    exclude: frozenset[int],
) -> int:
    if platform.is_backing(src):
        return _BACKING
    if src != dst and src in exclude:
        return _EXCLUDED
    if src != dst and not platform.topology.connected(dst, src):
        # A corrupt map can route over a link that does not exist; treat it
        # like a partition rather than let the simulator reject the plan.
        return _UNLINKED
    if health is not None and not health.source_usable(dst, src):
        return _UNUSABLE
    return _HELD


def reroute(
    cache: "MultiGpuEmbeddingCache",
    dst: int,
    keys: np.ndarray,
    sources: np.ndarray,
    health: HealthView | None = None,
    exclude: frozenset[int] = frozenset(),
) -> tuple[tuple, int, tuple[int, ...]]:
    """Locate the batch and replace unusable sources.

    A healthy batch is its route map ``take``.  A source is unusable when
    its id is corrupt (outside the GPU range), the health view marks it
    down or unreachable, its store does not actually hold the key (a stale
    location), or the caller excluded it (an open circuit breaker); the
    keys that read one are patched in place and located again.  Returns
    ``((sources, addresses, present, counts), rerouted, failed)``: the
    final sources and their :func:`locate` result, and the sources that
    *failed* (exclusions are deliberate, not failures).  Corrupt slots are
    blamed on whichever GPU stores actually hold the affected entries.  A
    backing key its tier does not hold has no replica to fall back to: it
    raises :class:`~repro.core.tiers.TierIntegrityError`.
    """
    reg = get_registry()
    seconds = reg.cached("histogram", "pipeline.reroute.seconds")
    start = perf_counter()
    try:
        platform = cache.platform
        view = platform if health is None else degraded_platform(platform, health)
        verdicts = view.memo.get(("verdicts", dst, exclude))
        if verdicts is None:
            verdicts = remember(view.memo, ("verdicts", dst, exclude), {
                src: _verdict(platform, dst, src, health, exclude)
                for src in (*platform.backing_ids, *platform.gpu_ids)
            })
        # No −1 route (a corrupt id or an unheld slot): count sources as locate does.
        addresses = cache.routes[dst].take(keys)
        if _min(addresses, initial=0) >= 0:
            T = platform.num_tiers
            counts = np.bincount(sources + T, minlength=T + platform.num_gpus)
            nonzero = counts.nonzero()[0]
            present, counts = tuple((nonzero - T).tolist()), counts[nonzero].tolist()
            if max(map(verdicts.__getitem__, present), default=_HELD) <= _HELD:
                return (sources, addresses, present, counts), 0, ()
        slots, addresses, present, counts = located = locate(cache, keys, sources)
        corrupt = sum(counts) < len(keys)
        failed: set[int] = set()
        bad = ~platform.valid_source_mask(sources)
        n_corrupt = int(np.count_nonzero(bad))
        if corrupt:
            corrupt_keys = keys[bad]
            for g in platform.gpu_ids:
                if (cache.store(g).offset_of[corrupt_keys] >= 0).any():
                    failed.add(g)
        for src, count in zip(present, counts):
            verdict = verdicts[src]
            if verdict > _HELD:
                bad |= sources == src
                if verdict == _UNLINKED:
                    n_corrupt += count
                if verdict in (_UNLINKED, _UNUSABLE):
                    failed.add(src)
        stale = (slots < 0) & ~bad & (sources >= 0)  # corrupt ids read slot 0
        n_stale = int(np.count_nonzero(stale))
        if n_stale:
            failed.update(sorted_unique(sources[stale]).tolist())
            bad |= stale
        bad_idx = bad.nonzero()[0]
        replacements = find_replicas(cache, dst, keys[bad_idx], health, exclude)
        sources = sources.copy()
        sources[bad_idx] = replacements
        located = locate(cache, keys, sources)
        if _min(located[0]) < 0:
            raise not_resident(platform, keys, sources, located[0] < 0)
        n = len(bad_idx)
    finally:
        seconds.observe(perf_counter() - start)
    to_backing = int(platform.backing_mask(replacements).sum())
    reg.counter("faults.rerouted_keys", dst=dst).inc(n)
    reg.counter(
        "faults.rerouted_keys_to", target="host"
    ).inc(to_backing)
    reg.counter(
        "faults.rerouted_keys_to", target="replica"
    ).inc(len(replacements) - to_backing)
    if n_corrupt:
        reg.counter("faults.corrupt_reads").inc(n_corrupt)
    if n_stale:
        reg.counter("faults.stale_reads").inc(n_stale)
    logger.debug(
        "GPU %d: rerouted %d/%d keys (%d corrupt, %d stale) around faults",
        dst, n, len(keys), n_corrupt, n_stale,
    )
    return (sources, *located[1:]), n, tuple(sorted(failed))


# ----------------------------------------------------------------------
# Stage 4: dedicate (declared before group, which consumes its output)
# ----------------------------------------------------------------------
def dedicate(
    platform: Platform, dst: int, present: tuple[int, ...]
) -> dict[int, int]:
    """The §5.3 core split over the sources actually present:
    :func:`~repro.sim.mechanisms.core_dedication`, which gives every
    present non-local source its own entry, remembered per route.  The
    returned map is the remembered one (read it, do not write it)."""
    seconds = get_registry().cached("histogram", "pipeline.dedicate.seconds")
    start = perf_counter()
    try:
        key = ("dedication", dst, present)
        dedication = platform.memo.get(key)
        if dedication is None:
            dedication = remember(
                platform.memo, key, core_dedication(platform, dst, list(present))
            )
        return dedication
    finally:
        seconds.observe(perf_counter() - start)


# ----------------------------------------------------------------------
# Stage 3: group
# ----------------------------------------------------------------------
def _source_instruments(reg, platform: Platform, dst: int, sources: tuple[int, ...]):
    """``(planned keys, dedicated cores, executed bytes)`` instruments per
    source: labels from the platform's memo, series once per registry."""
    key = ("source_class", dst, sources)
    labels = platform.memo.get(key)
    if labels is None:
        labels = remember(
            platform.memo, key, tuple(source_class(s, dst, platform) for s in sources)
        )
    return reg.handle(
        ("sources", labels),
        lambda: tuple(
            (
                reg.cached("counter", "extractor.plan.keys", source=label),
                reg.cached("histogram", "extractor.plan.dedicated_cores", source=label),
                reg.cached("counter", "extractor.execute.bytes", source=label),
            )
            for label in labels
        ),
    )


def group_by_source(
    cache: "MultiGpuEmbeddingCache",
    dst: int,
    present: tuple[int, ...],
    counts: list[int],
    dedication: dict[int, int],
) -> tuple[tuple[int, int, int], ...]:
    """Per-source batching: ``(source, keys, dedicated cores)`` per source
    :func:`reroute` found present.

    Non-local sources come first (launch order); the local one is
    appended last, scheduled at low priority to pad the ragged non-local
    finishing times (§5.3).
    """
    reg = get_registry()
    seconds = reg.cached("histogram", "pipeline.group.seconds")
    start = perf_counter()
    try:
        platform = cache.platform
        num_cores = platform.gpu.num_cores
        instruments = _source_instruments(reg, platform, dst, present)
        per_source: list[tuple[int, int, int]] = []
        for src, count, (planned_keys, cores, _) in zip(present, counts, instruments):
            group = (src, count, num_cores if src == dst else dedication.get(src, 1))
            planned_keys.inc(count)
            cores.observe(group[2])
            per_source.append(group)
        if dst in present:
            # Local extraction is launched last, on a low-priority stream.
            per_source.append(per_source.pop(present.index(dst)))
    finally:
        seconds.observe(perf_counter() - start)
    return tuple(per_source)


# ----------------------------------------------------------------------
# Stages 1–4 composed: plan
# ----------------------------------------------------------------------
def plan_extraction(
    cache: "MultiGpuEmbeddingCache",
    dst: int,
    keys: np.ndarray,
    health: HealthView | None = None,
    exclude: frozenset[int] = frozenset(),
) -> ExtractionPlan:
    """Run resolve → reroute → dedicate → group for one GPU's batch."""
    keys, sources = resolve(cache, dst, keys)
    (sources, addresses, present, counts), rerouted, failed_sources = reroute(
        cache, dst, keys, sources, health, exclude
    )
    platform = cache.platform
    if health is not None:
        platform = degraded_platform(platform, health)
    dedication = dedicate(platform, dst, present)
    per_source = group_by_source(cache, dst, present, counts, dedication)
    return ExtractionPlan(
        dst, keys, sources, addresses, per_source, rerouted, failed_sources,
        cache.address_base, platform.num_tiers,
    )


# ----------------------------------------------------------------------
# Stage 5: price
# ----------------------------------------------------------------------
def price_demand(
    platform: Platform,
    demand: GpuDemand,
    health: HealthView | None = None,
    local_padding: bool = True,
) -> GpuExtractionReport:
    """The one pricing point for a factored extraction demand.

    Degrades ``platform`` under ``health`` (no-op when healthy) and runs
    the §5.3 factored timing model.  Every consumer — the extractor's
    ``price``, the batch engine, the serving runtime's request pricing and
    hedge race — calls this function, so one demand has one price.
    """
    seconds = get_registry().cached("histogram", "pipeline.price.seconds")
    start = perf_counter()
    try:
        if health is not None:
            platform = degraded_platform(platform, health)
        return factored_extraction(platform, demand, local_padding=local_padding)
    finally:
        seconds.observe(perf_counter() - start)


#: The inter-node fabric as one more tier in the topology.  Below the GPU
#: tiers (NVLink, PCIe) sits the datacenter network: a front-end reading a
#: batch from a cache node pays the node's *local* extraction time plus a
#: fixed per-call latency plus the response payload streamed at fabric
#: bandwidth — (latency, bandwidth), exactly parallel to how
#: :class:`Platform` prices its links.  One-way per-call latency in seconds
#: (connection + serialization), and sustained bandwidth in bytes/second
#: (≈ 200 Gbit/s).
NETWORK_LATENCY_SECONDS = 50e-6
NETWORK_BANDWIDTH_BYTES = 25e9


def network_transfer_seconds(payload_bytes: float) -> float:
    """Wire time for one request/response of ``payload_bytes``."""
    return NETWORK_LATENCY_SECONDS + max(0.0, payload_bytes) / NETWORK_BANDWIDTH_BYTES


@dataclass(frozen=True)
class NodeReadPrice:
    """Price of one remote node read: local extraction + wire transfer."""

    extraction_seconds: float
    transfer_seconds: float


def price_node_read(platform: Platform, demand: GpuDemand) -> NodeReadPrice:
    """Price a front-end read served by a remote cache node.

    The node extracts the batch with its own multi-GPU machinery — priced
    through the same :func:`price_demand` every other consumer uses — then
    streams the gathered values back over the network
    (:func:`network_transfer_seconds`).
    """
    return NodeReadPrice(
        extraction_seconds=price_demand(platform, demand).time,
        transfer_seconds=network_transfer_seconds(demand.total_bytes),
    )


def backing_fallback_demand(
    demand: GpuDemand, tier_shares: dict[int, float] | None = None
) -> GpuDemand:
    """The hedge arm: the whole batch gathered from the backing chain.

    Shared by the serving runtime's deadline hedge and the event-driven
    :func:`~repro.sim.event_sim.simulate_hedged_extraction`, so both race
    the primary plan against an identically-shaped fallback.

    ``tier_shares`` maps backing source ids to the fraction of the entry
    universe homed on each tier (the cache's
    :meth:`~repro.core.cache.MultiGpuEmbeddingCache.backing_shares`), so
    on a deep chain the fallback correctly pays SSD prices for the
    SSD-resident share — a miss to SSD is not a miss to DRAM.  Without
    shares everything is billed to host DRAM, the single-tier behavior.
    """
    total = demand.total_bytes
    if not tier_shares:
        return GpuDemand(dst=demand.dst, volumes={HOST: total})
    norm = sum(tier_shares.values())
    if norm <= 0:
        return GpuDemand(dst=demand.dst, volumes={HOST: total})
    volumes = {
        tier: total * share / norm
        for tier, share in tier_shares.items()
        if share > 0
    }
    return GpuDemand(dst=demand.dst, volumes=volumes)


def host_fallback_demand(demand: GpuDemand) -> GpuDemand:
    """Single-tier alias of :func:`backing_fallback_demand` (kept for the
    pre-tier call sites and their golden behavior)."""
    return backing_fallback_demand(demand)


def apply_health(
    platform: Platform,
    demands: list[GpuDemand],
    health: HealthView | None,
) -> tuple[Platform, list[GpuDemand], float]:
    """Degrade a platform and reroute doomed volume for raw demands.

    The demand-level twin of :func:`reroute` (which works on keys): bytes
    still routed at a downed source or severed link move to the host path.
    Returns ``(platform, demands, moved_bytes)``; unchanged inputs when
    the view is healthy.  Both simulators (batch engine and event-driven)
    share this, so they always price the same degraded inputs.
    """
    if health is None or health.healthy:
        return platform, list(demands), 0.0
    degraded = degraded_platform(platform, health)
    rerouted = [reroute_demand(d, platform, health) for d in demands]
    moved = sum(
        r.volume(HOST) - d.volume(HOST) for d, r in zip(demands, rerouted)
    )
    return degraded, rerouted, moved


# ----------------------------------------------------------------------
# Stage 6: execute
# ----------------------------------------------------------------------
def execute_plan(
    cache: "MultiGpuEmbeddingCache", plan: ExtractionPlan
) -> tuple[np.ndarray, GpuDemand]:
    """Gather values per the plan; returns (values, priced demand)."""
    reg = get_registry()
    entry_bytes = cache.entry_bytes
    seconds = reg.cached("histogram", "pipeline.execute.seconds")
    start = perf_counter()
    try:
        present = tuple([src for src, _, _ in plan.per_source])
        values = cache.row_arena.take(plan.addresses, axis=0)
        volumes: dict[int, float] = {}
        instruments = _source_instruments(reg, cache.platform, plan.dst, present)
        for (src, count, _), (_, _, sent) in zip(plan.per_source, instruments):
            volumes[src] = float(count * entry_bytes)
            sent.inc(count * entry_bytes)
    finally:
        seconds.observe(perf_counter() - start)
    return values, GpuDemand(dst=plan.dst, volumes=volumes)
