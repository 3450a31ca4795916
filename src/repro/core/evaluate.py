"""Placement evaluation: source resolution, hit rates, extraction timing.

Given any :class:`~repro.core.policy.Placement` (heuristic or solver-made),
this module answers the questions the paper's figures ask:

* which source does each GPU read each entry from (the per-GPU hashtable
  the Extractor consults, §4);
* what fraction of accesses hit local / remote / host (Figure 2, 14);
* how long a batch extraction takes under a given mechanism (Figures 2(b),
  4, 11, 12, 15, 16).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policy import Placement
from repro.hardware.platform import HOST, SOURCE_DTYPE, Platform
from repro.obs import get_registry
from repro.sim.engine import BatchReport, simulate_batch
from repro.sim.mechanisms import GpuDemand, Mechanism


#: How many of the hottest entries :func:`resolve_sources` re-routes greedily
#: to their least-loaded equal-cost holder.
BALANCE_TOP = 128


def resolve_sources(
    platform: Platform,
    placement: Placement,
    hotness: np.ndarray | None = None,
    backing: np.ndarray | None = None,
) -> np.ndarray:
    """Per-GPU source map: ``out[i, e]`` is where GPU ``i`` reads entry ``e``.

    Resolution order matches the Extractor's hashtable semantics:
    local copy first; otherwise the *cheapest connected* GPU holding the
    entry, with equal-cost holders rotated per entry id so load spreads
    evenly (the statistical balance the paper's random partition relies
    on); otherwise the entry's backing tier — :data:`HOST` on a
    single-tier platform, or the per-entry home from ``backing`` (the
    tier chain's home map, length ``num_entries``) on a deeper chain.

    When ``hotness`` is given, the assignment of the :data:`BALANCE_TOP`
    hottest entries is additionally refined greedily: each is re-routed to
    its least-loaded equal-cost holder.  Id-rotation balances the long
    tail statistically, but a handful of ultra-hot replicated entries can
    collide on one holder by id accident — exactly the load the Solver
    placed replicas to spread.
    """
    if placement.num_gpus != platform.num_gpus:
        raise ValueError(
            f"placement has {placement.num_gpus} GPUs, platform {platform.num_gpus}"
        )
    n = placement.num_entries
    mat = placement.storage_matrix()
    if backing is None:
        fallback = np.full(n, HOST, dtype=SOURCE_DTYPE)
    else:
        fallback = np.ascontiguousarray(backing, dtype=SOURCE_DTYPE)
        if fallback.shape != (n,):
            raise ValueError("backing home map must cover the entry universe")
    G = platform.num_gpus
    out = np.tile(fallback, (G, 1))
    for i in platform.gpu_ids:
        # Holder j of entry e scores cost(i, j)·(1 + 1e-9·((e+i+j) % G)), a
        # function of c = (e + i) % G: rank holders once per residue c
        # (DESIGN.md §4, "Location table (host side)").
        costs = [(j, platform.cost_per_byte(i, j)) for j in platform.gpu_ids if j != i]
        finite = [(j, cost) for j, cost in costs if np.isfinite(cost)]
        for c in range(G):
            start = (c - i) % G
            # Worst first, so the best holder (ties: the lower j) writes last.
            for _, j in sorted(
                ((cost * (1.0 + 1e-9 * ((c + j) % G)), j) for j, cost in finite),
                reverse=True,
            ):
                np.copyto(out[i, start::G], j, where=mat[j, start::G])
        out[i][mat[i]] = i
    if hotness is not None:
        _balance_hot_assignments(platform, mat, out, np.asarray(hotness))
    return out


def _balance_hot_assignments(
    platform: Platform,
    storage: np.ndarray,
    source_map: np.ndarray,
    hotness: np.ndarray,
) -> None:
    """Greedy least-loaded reassignment of the hottest remote reads."""
    top = np.argsort(-hotness)[:BALANCE_TOP]
    for i in platform.gpu_ids:
        srcs = source_map[i]
        # Current per-source hotness load of this destination.
        load = {j: float(hotness[srcs == j].sum()) for j in platform.gpu_ids}
        for e in top:
            current = int(srcs[e])
            if current == i or current < 0:  # local or backing-resident
                continue
            cost = platform.cost_per_byte(i, current)
            candidates = [
                j
                for j in platform.gpu_ids
                if j != i
                and storage[j, e]
                and platform.cost_per_byte(i, j) <= cost * (1 + 1e-12)
            ]
            if len(candidates) <= 1:
                continue
            h = float(hotness[e])
            best = min(candidates, key=lambda j: load[j] - (h if j == current else 0.0))
            if best != current:
                load[current] -= h
                load[best] += h
                srcs[e] = best


@dataclass(frozen=True)
class HitRates:
    """Access-rate split by source class (fractions of all accesses)."""

    local: float
    remote: float
    host: float

    @property
    def global_hit(self) -> float:
        """Fraction of accesses served by *any* GPU cache (Fig. 2's global)."""
        return self.local + self.remote


def expected_demands(
    platform: Platform,
    placement: Placement,
    hotness: np.ndarray,
    entry_bytes: int,
) -> list[GpuDemand]:
    """Expected per-batch extraction volumes for every GPU.

    ``hotness[e]`` is expected accesses of ``e`` per batch per GPU, so the
    expected bytes GPU ``i`` pulls from source ``j`` is
    ``entry_bytes · Σ_{e: source(i,e)=j} hotness[e]``.
    """
    hotness = np.asarray(hotness, dtype=np.float64)
    if hotness.shape != (placement.num_entries,):
        raise ValueError("hotness length must match the entry universe")
    source_map = resolve_sources(platform, placement, hotness)
    demands = []
    for i in platform.gpu_ids:
        volumes: dict[int, float] = {}
        srcs = source_map[i]
        for j in [*platform.gpu_ids, *platform.backing_ids]:
            mask = srcs == j
            if mask.any():
                vol = float(hotness[mask].sum() * entry_bytes)
                if vol > 0:
                    volumes[j] = vol
        demands.append(GpuDemand(dst=i, volumes=volumes))
    return demands


def demand_from_keys(
    platform: Platform,
    source_map: np.ndarray,
    dst: int,
    keys: np.ndarray,
    entry_bytes: int,
) -> GpuDemand:
    """Actual extraction volumes for one concrete key batch."""
    keys = np.asarray(keys)
    srcs = source_map[dst][keys]
    volumes: dict[int, float] = {}
    for j in [*platform.gpu_ids, *platform.backing_ids]:
        count = int((srcs == j).sum())
        if count:
            volumes[j] = float(count * entry_bytes)
    return GpuDemand(dst=dst, volumes=volumes)


def hit_rates(
    platform: Platform,
    placement: Placement,
    hotness: np.ndarray,
) -> HitRates:
    """Access-weighted local/remote/host split, averaged over GPUs."""
    hotness = np.asarray(hotness, dtype=np.float64)
    total = hotness.sum()
    if total <= 0:
        return HitRates(0.0, 0.0, 1.0)
    source_map = resolve_sources(platform, placement, hotness)
    local = remote = host = 0.0
    for i in platform.gpu_ids:
        srcs = source_map[i]
        local += hotness[srcs == i].sum()
        # "host" aggregates the whole backing chain (every tier id < 0).
        host += hotness[srcs < 0].sum()
        remote += hotness[(srcs != i) & (srcs >= 0)].sum()
    g = platform.num_gpus
    rates = HitRates(
        local=float(local / total / g),
        remote=float(remote / total / g),
        host=float(host / total / g),
    )
    reg = get_registry()
    if reg.enabled:
        reg.counter("cache.hit_rate.evaluations").inc()
        reg.gauge("cache.hit_rate", source="local").set(rates.local)
        reg.gauge("cache.hit_rate", source="remote").set(rates.remote)
        reg.gauge("cache.hit_rate", source="host").set(rates.host)
    return rates


def evaluate_placement(
    platform: Platform,
    placement: Placement,
    hotness: np.ndarray,
    entry_bytes: int,
    mechanism: Mechanism = Mechanism.FACTORED,
    local_padding: bool = True,
) -> BatchReport:
    """Expected batch extraction report for a placement under a mechanism.

    The standard scoring path for all policy comparisons: resolve sources,
    derive expected volumes, and run the mechanism's timing model.
    """
    demands = expected_demands(platform, placement, hotness, entry_bytes)
    return simulate_batch(
        platform,
        demands,
        mechanism=mechanism,
        local_padding=local_padding,
    )
