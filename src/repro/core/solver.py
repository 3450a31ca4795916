"""UGache's cache-policy solver (§6): MILP over hotness blocks.

The model is exactly the paper's §6.2 formulation, built at the granularity
of hotness blocks (§6.3) and solved with HiGHS (standing in for Gurobi):

variables (per block ``b``, destination GPU ``i``, source ``j``):
    ``a[b,i,j]`` — fraction of block ``b`` GPU ``i`` reads from ``j``;
    ``s[b,j]``  — fraction of block ``b`` stored on GPU ``j``;
    ``t[i]``    — extraction time of GPU ``i``; ``z`` — the objective.

constraints:
    Σ_j a[b,i,j] = 1                      (every entry readable somewhere)
    a[b,i,j] ≤ s[b,j]       for GPU ``j`` (you can only read what is stored)
    Σ_b size_b·s[b,j] ≤ Cap_j             (per-GPU capacity)
    t_i ≥ t^j_i = Σ_b T_{i←j}·H_b·a[b,i,j]     (ragged group bound)
    t_i ≥ Σ_j R_{i←j}·t^j_i                    (work-conservation bound)
    z ≥ t_i ;  minimize z

Host DRAM stores everything (``s`` is only defined for GPUs) and
unconnected GPU pairs contribute no ``a`` variables — the paper's
simplification for DGX-1.

Blocks are divisible groups of same-hotness entries, so the default solve
uses the continuous relaxation (fractional block storage is realized
exactly by splitting the block's entries); ``integral=True`` solves the
true binary program for small instances.
Where every GPU permutation maps the LP onto itself (:func:`gpu_symmetric`)
the relaxation is solved once per GPU orbit and expanded back to every GPU
(DESIGN.md §4, "The orbit quotient"); :meth:`SolvedPolicy.realize` breaks
the symmetry.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace
from typing import Any, NamedTuple

import numpy as np

from repro.core.blocks import BlockSet, build_blocks
from repro.core.policy import Placement
from repro.core.tiers import assign_backing_tiers
from repro.hardware.platform import Platform
from repro.obs import get_registry
from repro.sim.mechanisms import core_dedication
from repro.utils.arrays import hot_order, runs, sorted_unique
from repro.utils.logging import get_logger

logger = get_logger("core.solver")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the policy solve.

    Attributes:
        coarse_block_frac: coarse blocking cap (paper: 0.5%).
        integral: solve the true MILP (binary ``a``/``s``) instead of the
            LP relaxation.  Exponentially slower; for small instances and
            the ablation benchmark only.
        time_limit: HiGHS wall-clock budget in seconds.
    """

    coarse_block_frac: float = 0.005
    integral: bool = False
    time_limit: float = 60.0


@dataclass(frozen=True)
class SolvedPolicy:
    """Solution of one policy solve, still at block granularity."""

    platform_name: str
    blocks: BlockSet
    #: ``(B, G)`` storage fractions per block and GPU.
    storage: np.ndarray
    #: ``pairs[p] = (i, j)`` with ``j`` ∈ sources of ``i`` (HOST included).
    pairs: tuple[tuple[int, int], ...]
    #: ``(B, P)`` access fractions aligned with ``pairs``.
    access: np.ndarray
    #: estimated per-GPU extraction time (seconds/iteration).
    est_time_per_gpu: np.ndarray
    #: objective value (max over GPUs).
    est_time: float
    solve_seconds: float
    capacities: tuple[int, ...]
    num_variables: int = 0
    num_constraints: int = 0
    #: Set only when the LP was solved per orbit of the full symmetric GPU
    #: group (a warm start carries it over): seconds one GPU spends on one
    #: read of one entry from its cheapest non-local source.
    symmetric_read_cost: float | None = None

    def realize(self) -> Placement:
        """Turn fractional block storage into a concrete per-GPU placement.

        Per block, the fractional slot quotas ``q_j = s[b,j]·size`` are
        rounded by the largest-remainder method so the block's *total*
        storage mass survives rounding — crucial for small hot blocks,
        where fractions like ``s = [0.4, 0.4, 0.4, ...]`` on a single
        ultra-hot entry mean "replicate it on ~2 GPUs to split its load",
        not "store 0.4 of an entry" (the place where a naive rounding of
        the LP relaxation diverges from the binary MILP).  Each GPU then
        takes its quota from a shared dealing pointer over the block's
        entries, which tiles partition-like solutions exactly
        (``Σ_j s = 1``), replicates replication-like ones (``s = 1``
        everywhere), and spreads partial replicas evenly in between.
        A symmetric solve is dealt by :meth:`_deal_copies` instead.
        Capacity is enforced afterwards by trimming coldest-first.
        """
        symmetric = self.symmetric_read_cost is not None
        per_gpu = self._deal_copies() if symmetric else self._slice_quotas()
        final: list[np.ndarray] = []
        rank: np.ndarray | None = None
        for j in range(len(per_gpu)):
            ids = sorted_unique(np.concatenate([np.empty(0, np.int64), *per_gpu[j]]))
            cap = self.capacities[j]
            if len(ids) > cap:
                # Trim coldest first: blocks are hotness-ordered, so order
                # entries by their position in the global hot order.
                if rank is None:
                    rank = np.empty(self.blocks.num_entries, dtype=np.int64)
                    rank[self.blocks.order] = np.arange(self.blocks.num_entries)
                ids = ids[np.argsort(rank[ids])][:cap]
            final.append(ids)
        return Placement(num_entries=self.blocks.num_entries, per_gpu=tuple(final))

    def _slice_quotas(self) -> list[list[np.ndarray]]:
        """Largest-remainder quotas, each taken from a shared pointer."""
        num_gpus = self.storage.shape[1]
        per_gpu: list[list[np.ndarray]] = [[] for _ in range(num_gpus)]
        for b in range(self.blocks.num_blocks):
            entries = self.blocks.entries(b)
            m = len(entries)
            quotas = np.clip(self.storage[b], 0.0, 1.0) * m
            if m < num_gpus:
                # Tiny hot blocks: a fractional ``s_j`` means some GPU's
                # access variables route reads through ``j`` (the LP's
                # ``s ≥ a`` coupling), which is only realizable if ``j``
                # actually holds a copy.  Ceil instead of round — the
                # slight capacity overdraw is trimmed coldest-first below,
                # a strictly better trade than concentrating 10-20% of
                # all traffic on one holder.
                counts = np.ceil(quotas - 1e-6).astype(np.int64)
            else:
                counts = np.floor(quotas + 1e-9).astype(np.int64)
                target = min(int(round(float(quotas.sum()))), num_gpus * m)
                deficit = target - int(counts.sum())
                if deficit > 0:
                    remainders = quotas - counts
                    for j in np.argsort(-remainders):
                        if deficit <= 0:
                            break
                        if counts[j] < m:
                            counts[j] += 1
                            deficit -= 1
            pointer = 0
            for j in range(num_gpus):
                c = int(min(counts[j], m))
                if c <= 0:
                    continue
                take = (pointer + np.arange(c)) % m
                per_gpu[j].append(entries[take])
                pointer = (pointer + c) % m
        return per_gpu

    def _deal_copies(self) -> list[list[np.ndarray]]:
        """Deal a symmetric solve: a block's ``Σ_j s[b,j]·size`` copies
        (rounded; up when size < G), hottest entry first, go round the GPUs
        in order of hotness held; a tiny block whose one non-local read
        alone exceeds ``z`` goes to every GPU (DESIGN.md §4)."""
        num_gpus = self.storage.shape[1]
        sizes = self.blocks.sizes
        heat = self.blocks.hotness_sum / sizes
        mass = np.clip(self.storage, 0.0, 1.0).sum(axis=1) * sizes
        tiny = np.where(heat * self.symmetric_read_cost > self.est_time,
                        num_gpus * sizes, np.ceil(mass - 1e-6))
        copies = np.minimum(np.where(sizes >= num_gpus, np.round(mass), tiny),
                            num_gpus * sizes).astype(np.int64)
        live = np.flatnonzero(copies > 0)
        sizes, copies = sizes[live], copies[live]
        # The greedy part: copy k of a block goes to its rank[k % G], the
        # GPUs ranked by hotness held so far (ties by id: ``sorted`` is
        # stable).
        load, ranks = [0.0] * num_gpus, []
        for c, h in zip(copies.tolist(), heat[live].tolist()):
            rank = sorted(range(num_gpus), key=load.__getitem__)
            share, extra = divmod(c, num_gpus)
            for position, gpu in enumerate(rank):
                load[gpu] += (share + (position < extra)) * h
            ranks.append(rank)
        # The block's entries are dealt hottest first, ``copies // size``
        # copies each plus one for the first ``copies % size``.
        block, copy = runs(copies)
        holder = np.array(ranks, dtype=np.int64).ravel()[
            block * num_gpus + copy % num_gpus]
        share, extra = np.divmod(copies, sizes)
        block, position = runs(sizes)
        entries = self.blocks.order[self.blocks.offsets[live][block] + position]
        entry = np.repeat(entries, share[block] + (position < extra[block]))
        return [[entry[holder == j]] for j in range(num_gpus)]

    def access_volume_fractions(self, dst: int) -> dict[int, float]:
        """Expected fraction of GPU ``dst``'s accesses served per source."""
        total = self.blocks.hotness_sum.sum()
        out: dict[int, float] = {}
        for p, (i, j) in enumerate(self.pairs):
            if i != dst:
                continue
            vol = float(self.blocks.hotness_sum @ self.access[:, p])
            out[j] = out.get(j, 0.0) + (vol / total if total > 0 else 0.0)
        return out


class PolicySolveError(RuntimeError):
    """Raised when HiGHS cannot find a feasible cache policy."""


class PolicySolveTimeout(PolicySolveError):
    """The solve exhausted its wall-clock budget before reaching optimality."""


def dedication_ratios(platform: Platform, dst: int) -> dict[int, float]:
    """The Extractor's core ratios ``R_{i←j}`` used by the time model.

    Local gets ratio 1 (local extraction eventually uses every core, and
    its ``t^i_i`` is already expressed as an all-core time); non-local
    sources get their dedicated-core share of the SMs.
    """
    all_sources = platform.sources_for(dst)
    dedication = core_dedication(platform, dst, all_sources)
    total = platform.gpu.num_cores
    ratios = {dst: 1.0}
    for src in all_sources:
        if src == dst:
            continue
        ratios[src] = dedication.get(src, 1) / total
    return ratios


def _capacities(capacity_entries: int | list[int], num_gpus: int) -> list[int]:
    """Per-GPU entry budgets from a scalar or a per-GPU list."""
    if np.isscalar(capacity_entries):
        return [int(capacity_entries)] * num_gpus
    return [int(c) for c in capacity_entries]


def _pair_terms(
    platform: Platform, entry_bytes: int
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """Every ``(dst, src)`` read pair of ``platform`` (unconnected GPU
    pairs dropped, §6.2) with its ``T_{i←j}·entry_bytes`` and its
    work-conservation core ratio ``R_{i←j}``."""
    G = platform.num_gpus
    pairs = [(i, j) for i in range(G) for j in platform.sources_for(i)]
    cost = np.array([platform.cost_per_byte(i, j) * entry_bytes for (i, j) in pairs])
    ratios = [dedication_ratios(platform, i) for i in range(G)]
    return pairs, cost, np.array([ratios[i][j] for (i, j) in pairs])


class _Orbits(NamedTuple):
    """The LP's index by orbit of the GPU group.  Under the full symmetric
    group GPU 0 stands for every GPU and GPU 1 for every peer; under the
    trivial group every GPU and every pair is its own orbit."""

    symmetric: bool
    #: ``(G,)`` orbit representative of every GPU.
    orbit: np.ndarray
    #: the GPUs that represent their orbit.
    rep_gpus: np.ndarray
    #: the pairs that stand for their orbit: the LP's ``a`` columns.
    rep: np.ndarray
    #: ``(P_all,)`` column of every pair.
    col_of: np.ndarray
    #: how many of its orbit GPU's pairs a column stands for (G - 1 peers).
    mult: np.ndarray


def _orbit_index(platform, pairs, cost, ratio, caps, integral) -> _Orbits:
    G = platform.num_gpus
    symmetric = gpu_symmetric(platform, pairs, cost, ratio, caps, integral)
    orbit = np.zeros(G, dtype=np.int64) if symmetric else np.arange(G)
    rep_gpus = np.flatnonzero(orbit == np.arange(G))
    pair_dst, pair_src = np.array(pairs).T
    canon = np.array(pairs)
    if symmetric:
        backed = platform.backing_mask(pair_src)
        canon[:, 0] = 0
        canon[~backed, 1] = np.where(pair_src == pair_dst, 0, 1)[~backed]
    rep = np.flatnonzero((canon == np.array(pairs)).all(axis=1))
    column = {pair: k for k, pair in enumerate(map(tuple, canon[rep].tolist()))}
    col_of = np.array([column[pair] for pair in map(tuple, canon.tolist())])
    mult = np.bincount(col_of[np.isin(pair_dst, rep_gpus)]).astype(np.float64)
    return _Orbits(symmetric, orbit, rep_gpus, rep, col_of, mult)


class _LP(NamedTuple):
    """The §6.2 LP in ``milp``'s form; variables are laid out
    ``a (B·P) | s (B·Gq) | t (Gq) | z``."""

    A: Any
    row_lower: np.ndarray
    row_upper: np.ndarray
    upper: np.ndarray
    #: ``B·P + B·Gq``: the ``a`` and ``s`` variables, binary when integral.
    num_binary: int


def _build_lp(platform, hotness, caps, entry_bytes, blocks, terms, orbits) -> _LP:
    """The constraint rows and variable bounds over ``blocks``."""
    from scipy import sparse

    pairs, pair_cost, pair_r = terms
    orbit, rep = orbits.orbit, orbits.rep
    B, P, Gq = blocks.num_blocks, len(rep), len(orbits.rep_gpus)
    sizes = blocks.sizes.astype(np.float64)
    pair_dst, pair_src = np.array(pairs).T
    col_dst, col_src = orbit[pair_dst[rep]], pair_src[rep]
    backed = platform.backing_mask(pair_src)[rep]

    num_a = B * P
    num_s = B * Gq
    t0 = num_a + num_s
    z0 = t0 + Gq
    num_vars = z0 + 1
    a_ids = np.arange(num_a).reshape(B, P)
    s_ids = num_a + np.arange(num_s).reshape(B, Gq)
    t_ids = t0 + np.arange(Gq)

    # Column cost coefficients w[b, p] = T_{i←j} * H_b * entry_bytes.
    w = blocks.hotness_sum[:, None] * pair_cost[rep][None, :]  # (B, P)
    r = pair_r[rep] * orbits.mult  # R_{i←j}, once per pair the column stands for

    # One (rows, cols, vals) triple per constraint family, the ≤ rows first
    # and the = rows after them: HiGHS's vertex depends on the row order,
    # and every recorded policy was solved in this one.  ``.tocsc()``
    # canonicalises the COO, so the emission order within a family is free.
    gpu_pairs = np.flatnonzero(~backed)
    num_couple = B * len(gpu_pairs)
    couple_rows = np.arange(num_couple)
    cap0 = num_couple
    ragged0 = cap0 + Gq
    conserve0 = ragged0 + P
    order0 = conserve0 + Gq
    num_ub = order0 + Gq
    num_rows = num_ub + B * Gq
    per_pair_cols = a_ids.T.ravel()  # every a[·,p], pair-major
    families = [
        # a[b,i,j] - s[b,j] ≤ 0 for GPU sources (including j == i).
        (couple_rows, a_ids[:, gpu_pairs].ravel(), np.ones(num_couple)),
        (couple_rows, s_ids[:, orbit[col_src[gpu_pairs]]].ravel(), -np.ones(num_couple)),
        # Σ_b size_b·s[b,j] ≤ Cap_j.
        (cap0 + np.repeat(np.arange(Gq), B), s_ids.T.ravel(), np.tile(sizes, Gq)),
        # Ragged-group bound: Σ_b w[b,p]·a[b,p] - t_i ≤ 0 per pair.
        (ragged0 + np.repeat(np.arange(P), B), per_pair_cols, w.T.ravel()),
        (ragged0 + np.arange(P), t_ids[col_dst], -np.ones(P)),
        # Work-conservation bound: Σ_p R[p]·(Σ_b w·a) - t_i ≤ 0 per GPU.
        (conserve0 + np.repeat(col_dst, B), per_pair_cols, (r * w).T.ravel()),
        (conserve0 + np.arange(Gq), t_ids, -np.ones(Gq)),
        # t_i - z ≤ 0.
        (order0 + np.arange(Gq), t_ids, np.ones(Gq)),
        (order0 + np.arange(Gq), np.full(Gq, z0), -np.ones(Gq)),
        # Σ_j a[b,i,j] = 1 for every (b, i): row num_ub + b·Gq + i.
        (num_ub + (np.arange(B)[:, None] * Gq + col_dst).ravel(), a_ids.ravel(),
         np.tile(orbits.mult, B)),
    ]
    rows, cols, vals = (np.concatenate(part) for part in zip(*families))
    A = sparse.coo_matrix((vals, (rows, cols)), shape=(num_rows, num_vars)).tocsc()
    row_lower = np.full(num_rows, -np.inf)
    row_upper = np.zeros(num_rows)
    row_upper[cap0:ragged0] = [caps[g] for g in orbits.rep_gpus]
    row_lower[num_ub:] = row_upper[num_ub:] = 1.0

    upper = np.concatenate([np.ones(num_a + num_s), np.full(Gq + 1, np.inf)])
    # Multi-tier backing: each entry has exactly one backing home, chosen
    # by the hotness waterfall (optimal for backing-only reads: hottest to
    # fastest).  A destination can read at most the homed fraction of a
    # block from each tier, so those access variables get a *constant*
    # upper bound — the §6.2 structure is otherwise untouched, and on a
    # single-tier platform every bound is 1.0 (byte-identical LP).
    # Per-tier fixed access latency is amortized per byte and dropped
    # here; the timing models charge it per batched group.
    if platform.num_tiers > 1:
        home = assign_backing_tiers(
            platform.tiers, len(hotness), entry_bytes, hotness
        )
        # Homed fraction per (block, tier): entries counted ÷ block size.
        homed = home[blocks.order][:, None] == np.array(platform.backing_ids)
        counts = np.add.reduceat(homed, blocks.offsets[:-1], dtype=np.int64)
        backing_frac = counts / sizes[:, None]
        tier = platform.tier_index(col_src[backed])
        upper[a_ids[:, backed]] = backing_frac[:, tier]
    return _LP(A, row_lower, row_upper, upper, num_a + num_s)


def _solve_lp(lp: _LP, config: SolverConfig) -> tuple[np.ndarray, float]:
    """The one ``milp`` call: the solution vector and the seconds it took.

    Raises:
        PolicySolveTimeout: HiGHS hit ``config.time_limit``.
        PolicySolveError: any other failure.
    """
    # Here, not at module level: importers that never solve skip HiGHS.
    from scipy.optimize import Bounds, LinearConstraint, milp

    reg = get_registry()
    num_vars = lp.A.shape[1]
    c = np.zeros(num_vars)
    c[-1] = 1.0  # minimize z
    integrality = None
    if config.integral:
        integrality = np.zeros(num_vars)
        integrality[: lp.num_binary] = 1
    start = _time.perf_counter()
    res = milp(
        c=c,
        constraints=LinearConstraint(lp.A, lp.row_lower, lp.row_upper),
        bounds=Bounds(np.zeros(num_vars), lp.upper),
        integrality=integrality,
        options={"time_limit": config.time_limit},
    )
    elapsed = _time.perf_counter() - start
    reg.histogram("solver.solve.seconds").observe(elapsed)
    if res.status != 0 or res.x is None:
        reg.counter("solver.failures").inc()
        logger.error("policy solve failed after %.2fs: %s", elapsed, res.message)
        if res.status == 1:  # HiGHS iteration/time-limit status
            reg.counter("solver.timeouts").inc()
            raise PolicySolveTimeout(
                f"policy solve hit its {config.time_limit:g}s budget: {res.message}"
            )
        raise PolicySolveError(f"policy solve failed: {res.message}")
    reg.counter("solver.solves").inc()
    return np.asarray(res.x), elapsed


def solve_policy(
    platform: Platform,
    hotness: np.ndarray,
    capacity_entries: int | list[int],
    entry_bytes: int,
    config: SolverConfig | None = None,
    blocks: BlockSet | None = None,
) -> SolvedPolicy:
    """Solve the UGache cache policy for one platform and workload:
    build the LP, solve it, expand the orbit solution to every GPU.

    Args:
        platform: hardware model (defines ``T_{i←j}`` and connectivity).
        hotness: per-entry expected accesses per batch per GPU.
        capacity_entries: per-GPU entry budget (scalar or per-GPU list).
        entry_bytes: bytes per embedding entry (dim × dtype size).
        config: solver knobs.
        blocks: pre-built block set (otherwise §6.3 blocking is applied).

    Returns:
        The solved (near-optimal) policy.

    Raises:
        PolicySolveError: if the LP/MILP is infeasible or the solver fails.
    """
    config = config or SolverConfig()
    hotness = np.asarray(hotness, dtype=np.float64)
    G = platform.num_gpus
    caps = _capacities(capacity_entries, G)
    if len(caps) != G:
        raise ValueError(f"need {G} capacities, got {len(caps)}")
    if entry_bytes <= 0:
        raise ValueError("entry_bytes must be positive")

    reg = get_registry()
    build_start = _time.perf_counter()
    if blocks is None:
        blocks = build_blocks(
            hotness, num_gpus=G, coarse_frac=config.coarse_block_frac
        )
    terms = _pair_terms(platform, entry_bytes)
    orbits = _orbit_index(platform, *terms, caps, config.integral)
    lp = _build_lp(platform, hotness, caps, entry_bytes, blocks, terms, orbits)
    num_vars, num_rows = lp.A.shape[1], lp.A.shape[0]
    if reg.enabled:
        reg.histogram("solver.build.seconds").observe(_time.perf_counter() - build_start)
        reg.gauge("solver.num_blocks").set(blocks.num_blocks)
        reg.gauge("solver.num_variables").set(num_vars)
        reg.gauge("solver.num_constraints").set(num_rows)
    x, elapsed = _solve_lp(lp, config)
    logger.debug(
        "solved %s: %d blocks, %d vars, %d constraints in %.2fs (z=%.3e s)",
        platform.name, blocks.num_blocks, num_vars, num_rows, elapsed, float(x[-1]),
    )
    return _expand(platform.name, blocks, terms, orbits, caps, lp, x, elapsed)


def _expand(platform_name, blocks, terms, orbits, caps, lp, x, elapsed) -> SolvedPolicy:
    """The orbit solution ``x`` expanded to every GPU and pair: each takes
    its orbit's value."""
    pairs, pair_cost, _ = terms
    B, P, Gq = blocks.num_blocks, len(orbits.rep), len(orbits.rep_gpus)
    num_a = B * P
    access = x[:num_a].reshape(B, P)[:, orbits.col_of]
    storage = x[num_a : lp.num_binary].reshape(B, Gq)[:, orbits.orbit]
    t = x[lp.num_binary : lp.num_binary + Gq][orbits.orbit]
    pair_dst, pair_src = np.array(pairs).T
    return SolvedPolicy(
        platform_name=platform_name,
        blocks=blocks,
        storage=np.clip(storage, 0.0, 1.0),
        pairs=tuple(pairs),
        access=np.clip(access, 0.0, 1.0),
        est_time_per_gpu=t,
        est_time=float(x[-1]),
        solve_seconds=elapsed,
        capacities=tuple(caps),
        num_variables=lp.A.shape[1],
        num_constraints=lp.A.shape[0],
        symmetric_read_cost=float(pair_cost[(pair_dst == 0) & (pair_src != 0)].min())
        if orbits.symmetric else None,
    )


def gpu_symmetric(platform, pairs, cost, ratio, caps, integral) -> bool:
    """Whether every GPU permutation maps the LP (per-pair ``cost`` and
    core ``ratio``) onto itself: each GPU reads every other GPU (or none)
    at one peer cost and ratio, local and each tier alike on all GPUs, and
    capacities are equal.  Never for an ``integral`` solve: averaging
    integer optima is unsound."""
    G = platform.num_gpus
    if integral or G == 1 or len(set(caps)) > 1:
        return False
    kinds = ["local" if i == j else "peer" if platform.is_gpu(j) else j for i, j in pairs]
    return kinds.count("peer") in (0, G * (G - 1)) and len(
        set(zip(kinds, cost.tolist(), ratio.tolist()))) == len(set(kinds))


def _estimate_times_for_access(
    terms: tuple[list[tuple[int, int]], np.ndarray, np.ndarray],
    hotness_sum: np.ndarray,
    access: np.ndarray,
) -> np.ndarray:
    """Per-GPU extraction-time estimate for fixed access fractions.

    Evaluates exactly the LP's two lower bounds — the ragged-group bound
    (slowest single source group) and the work-conservation bound
    (core-dedication-weighted sum over sources) — at the given ``access``
    point (aligned with ``terms``' pairs, see :func:`_pair_terms`), so a
    :class:`SolvedPolicy` whose fractions are *reused* under new block
    hotness gets an estimate consistent with a fresh solve.
    """
    pairs, pair_cost, pair_r = terms
    dst = np.array([i for i, _ in pairs])
    G = int(dst.max()) + 1  # every GPU reads itself
    # per-pair load at the access point: Σ_b H_b · T_{i←j} · a[b,p].
    load = (hotness_sum[:, None] * pair_cost[None, :] * access).sum(axis=0)
    t = np.zeros(G)
    np.maximum.at(t, dst, load)  # ragged-group bound
    # work-conservation bound, summed in pair order
    return np.maximum(t, np.bincount(dst, weights=pair_r * load, minlength=G))


#: A warm start is refused when the hotness profile moved further than this
#: (total-variation distance; larger tolerates noisier live estimates), or
#: when the reused fractions' estimate exceeds the warm solve's objective by
#: this factor.
WARM_MAX_PROFILE_SHIFT = 0.5
WARM_GUARD_RATIO = 1.5


def _warm_guards(terms, warm: SolvedPolicy, hotness_sum: np.ndarray):
    """:func:`warm_start_policy`'s two guards on reusing ``warm``'s
    fractions under the new block hotness ``hotness_sum``: the profile
    shift, and the estimated times ``t`` at the reused fractions beside
    the warm policy's own estimate (``baseline``).  Raises
    :class:`PolicySolveError` when either refuses."""
    old_total = float(warm.blocks.hotness_sum.sum())
    new_total = float(hotness_sum.sum())
    profile_old = warm.blocks.hotness_sum / old_total if old_total > 0 else warm.blocks.hotness_sum
    profile_new = hotness_sum / new_total
    profile_shift = 0.5 * float(np.abs(profile_new - profile_old).sum())
    if profile_shift > WARM_MAX_PROFILE_SHIFT:
        raise PolicySolveError(
            f"warm start refused: hotness profile shifted {profile_shift:.3f} "
            f"(> {WARM_MAX_PROFILE_SHIFT:.3f}); the distribution changed shape"
        )

    t = _estimate_times_for_access(terms, hotness_sum, warm.access)
    # Guard against the warm policy *re-evaluated with the same bound
    # evaluator* at the old block hotness — never against the LP's
    # reported objective.  The LP objective lives at whatever absolute
    # scale the hotness came in at, and for small scales sits inside the
    # solver's feasibility tolerance (i.e. it can be optimistic), so
    # comparing it to an exact bound evaluation would fake a blow-up.
    # One yardstick on both sides makes a pure rank permutation score a
    # ratio of exactly 1.0 (identical hotness profile → identical t).
    t_warm = _estimate_times_for_access(terms, warm.blocks.hotness_sum, warm.access)
    baseline = float(t_warm.max())
    scale = old_total / new_total if new_total > 0 else 1.0
    est_normalized = float(t.max()) * scale
    if baseline > 0 and est_normalized > WARM_GUARD_RATIO * baseline:
        raise PolicySolveError(
            f"warm start refused: reused fractions estimate "
            f"{est_normalized:.3e}s vs warm {baseline:.3e}s "
            f"(> {WARM_GUARD_RATIO:.2f}x)"
        )
    return profile_shift, t, baseline


def warm_start_policy(
    platform: Platform,
    hotness: np.ndarray,
    capacity_entries: int | list[int],
    entry_bytes: int,
    warm: SolvedPolicy,
) -> SolvedPolicy:
    """Incrementally re-solve from a previous :class:`SolvedPolicy`.

    The §6 LP sees a block set only through its *hotness profile* — the
    per-rank-slice sizes and hotness sums — never through entry
    identity.  Under the drift that matters in production (a rotating
    Zipf head, a table-popularity reshuffle) the profile barely moves
    while entries swap ranks wholesale, so the expensive LP solution can
    be reused outright: rebuild the block set as the *same rank slices*
    over the new hotness order and keep ``warm``'s storage/access
    fractions.  Only entries whose hotness class (rank slice → block)
    changed move in the realized placement; the transactional refresher
    then lands exactly that diff.

    Two guards keep this honest:

    * **profile shift** — total-variation distance between the old and
      new normalized block-hotness profiles.  Above
      :data:`WARM_MAX_PROFILE_SHIFT` the drift changed the *shape* of the
      distribution (e.g. a flash crowd minting a sharper head), the
      reused fractions may be far from optimal, and a cold solve is
      warranted.
    * **estimate blow-up** — the reused fractions' estimated time at the
      old scale must stay within :data:`WARM_GUARD_RATIO` of the warm
      solve's.

    A pure rank permutation (profile shift 0) keeps the reused fractions
    an *optimal* LP point: as good as a cold solve on the same snapshot.

    Raises:
        PolicySolveError: when the warm policy is structurally
            incompatible with the request or a guard refuses the reuse;
            :func:`solve_policy_with_fallback` then solves cold.
    """
    start = _time.perf_counter()
    hotness = np.asarray(hotness, dtype=np.float64)
    terms = _pair_terms(platform, entry_bytes)
    for what, old, new in (
        ("entry universe", warm.blocks.num_entries, len(hotness)),
        ("capacities", list(warm.capacities), _capacities(capacity_entries, platform.num_gpus)),
        ("platform", warm.platform_name, platform.name),
        ("read pairs", warm.pairs, tuple(terms[0])),
    ):
        if old != new:
            raise PolicySolveError(f"warm start refused: {what} changed ({old!r} -> {new!r})")
    if (hotness < 0).any() or hotness.sum() <= 0:
        raise PolicySolveError(
            "warm start refused: new hotness is empty or negative"
        )

    # Same rank slices, new order: sizes are identical by construction,
    # so every capacity and coupling constraint transfers unchanged.
    order = hot_order(hotness)
    offsets = warm.blocks.offsets
    hotness_sum = np.add.reduceat(hotness[order], offsets[:-1])
    blocks = BlockSet(
        order=order,
        offsets=offsets.copy(),
        hotness_sum=hotness_sum,
        num_entries=len(hotness),
    )

    profile_shift, t, baseline = _warm_guards(terms, warm, hotness_sum)
    reclassed = int((blocks.block_of() != warm.blocks.block_of()).sum())
    elapsed = _time.perf_counter() - start
    reg = get_registry()
    if reg.enabled:
        reg.counter("solver.warm_starts").inc()
        reg.gauge("solver.warm_start.profile_shift").set(profile_shift)
        reg.gauge("solver.warm_start.entries_reclassed").set(reclassed)
        reg.histogram("solver.warm_start.seconds").observe(elapsed)
    logger.info(
        "warm-start re-solve: %d/%d entries changed hotness class, "
        "profile shift %.3f, est %.3es (warm %.3es) in %.4fs",
        reclassed, len(hotness), profile_shift, float(t.max()),
        baseline, elapsed,
    )
    return SolvedPolicy(
        platform_name=warm.platform_name,
        blocks=blocks,
        storage=warm.storage.copy(),
        pairs=warm.pairs,
        access=warm.access.copy(),
        est_time_per_gpu=t,
        est_time=float(t.max()),
        solve_seconds=elapsed,
        capacities=warm.capacities,
        num_variables=0,
        num_constraints=0,
        symmetric_read_cost=warm.symmetric_read_cost,
    )


def solve_sharded_policy(
    platform: Platform,
    hotness: np.ndarray,
    member_mask: np.ndarray,
    capacity_entries: int | list[int],
    entry_bytes: int,
    config: SolverConfig | None = None,
) -> "PolicyOutcome":
    """The per-GPU stage under a node-level placement (cluster tier).

    A cluster node owns only the shard ``member_mask`` selects; its GPUs
    should spend their capacity exclusively on that shard, but the §6
    machinery should otherwise be untouched.  So: zero the hotness of
    every non-member entry (the LP then gains nothing by storing it),
    run the ordinary :func:`solve_policy_with_fallback`, and intersect the
    realized placement with the shard — with surplus capacity the LP may
    still store zero-hotness entries, which the node will never be asked
    for.
    """
    hotness = np.asarray(hotness, dtype=np.float64)
    member_mask = np.asarray(member_mask, dtype=bool)
    if member_mask.shape != hotness.shape:
        raise ValueError("member mask must align with the hotness vector")
    if not member_mask.any():
        raise ValueError("a node's shard cannot be empty")
    shard_hotness = np.where(member_mask, hotness, 0.0)
    outcome = solve_policy_with_fallback(
        platform, shard_hotness, capacity_entries, entry_bytes, config=config
    )
    per_gpu = tuple(
        ids[member_mask[ids]] for ids in outcome.placement.per_gpu
    )
    placement = Placement(
        num_entries=outcome.placement.num_entries, per_gpu=per_gpu
    )
    return replace(outcome, placement=placement)


@dataclass(frozen=True)
class PolicyOutcome:
    """What :func:`solve_policy_with_fallback` delivered.

    ``source`` says how: ``"incremental"`` (a warm start reusing the
    previous solve's fractions, see :func:`warm_start_policy`) or
    ``"milp"`` (a cold solve of the LP).
    """

    placement: Placement
    source: str
    est_time: float
    solved: SolvedPolicy | None = None


def solve_policy_with_fallback(
    platform: Platform,
    hotness: np.ndarray,
    capacity_entries: int | list[int],
    entry_bytes: int,
    config: SolverConfig | None = None,
    warm: SolvedPolicy | None = None,
) -> PolicyOutcome:
    """Solve the cache policy, incrementally where the drift allows.

    With ``warm`` (the previous solve), :func:`warm_start_policy` first
    reuses its storage/access fractions over the new hotness order,
    re-placing only entries whose hotness class changed: milliseconds
    instead of an LP solve.  When it refuses (the hotness *profile*
    shifted more than :data:`WARM_MAX_PROFILE_SHIFT`, or the reused
    fractions' estimate blows up), or without ``warm``, the LP is solved
    cold by :func:`solve_policy`, whose ``config.time_limit`` is the only
    budget.  HiGHS is deterministic, so a failed solve is not retried:
    its :class:`PolicySolveError` propagates.
    """
    reg = get_registry()
    solved, source = None, "milp"
    if warm is not None:
        try:
            solved = warm_start_policy(platform, hotness, capacity_entries, entry_bytes, warm)
            source = "incremental"
        except PolicySolveError as exc:
            reg.counter("solver.warm_start.refused").inc()
            logger.info("%s; solving cold", exc)
    if solved is None:
        solved = solve_policy(platform, hotness, capacity_entries, entry_bytes, config)
    reg.counter("solver.fallback.source", source=source).inc()
    return PolicyOutcome(solved.realize(), source, solved.est_time, solved)
