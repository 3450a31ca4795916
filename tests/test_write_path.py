"""The write path's batch forms against the per-entry loops they replaced.

Every loop taken out of ``src/`` lives on here as an oracle: the
per-entry store/arena (``LoopStore``), the nested-loop LP assembly
(``loop_assemble``), the run-scanning, stably sorted ``build_blocks``, the
``setdiff1d`` placement diff, a dict model of the hashtable, the
per-block dealing of a symmetric solve (``loop_deal_copies``), the stable
sort every hot order took, and the per-pair loop of the warm start's time
estimate (``loop_estimate_times``).  The batch forms must match them bit
for bit, and refuse an invalid batch before writing.
"""

import copy

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.cluster import placement as node_placement
from repro.core import blocks as blocks_module
from repro.core import drift_adapt, policy, tiers
from repro.core.blocks import BlockSet, build_blocks
from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.checksum import row_checksums
from repro.core.filler import apply_diff_step, fill_gpu, placement_diff
from repro.core.location_table import LocationTable
from repro.core.policy import Placement
from repro.core.refresher import RefreshConfig, Refresher
from repro.core import solver as solver_module
from repro.core.solver import (
    SolverConfig,
    dedication_ratios,
    solve_policy,
    warm_start_policy,
)
from repro.core.tiers import assign_backing_tiers
from repro.hardware.memory import OutOfDeviceMemory, SlotArena
from repro.hardware.platform import (
    TIER_KINDS,
    MemoryTier,
    dgx2,
    dram_tier,
    pcie_only,
    server_a,
    server_b,
    server_c,
    ssd_tier,
    with_tiers,
)
from repro.utils.arrays import hot_order
from repro.utils.stats import zipf_pmf

N, D, CAPACITY = 60, 4, 24
TABLE = np.random.default_rng(7).standard_normal((N, D)).astype(np.float32)


# ----------------------------------------------------------------------
# (a) store and arena
# ----------------------------------------------------------------------
class LoopStore:
    """The per-entry store and LIFO arena as they were before the batch
    forms: one ``allocate``/``free`` and one 1-row checksum per entry."""

    def __init__(self, entry_ids):
        self.data = np.zeros((CAPACITY, D), dtype=TABLE.dtype)
        self.offset_of = np.full(N, -1, dtype=np.int64)
        self.checksums = np.zeros(CAPACITY, dtype=np.uint64)
        self.next_fresh = 0
        self.free_list: list[int] = []
        for entry in entry_ids:
            self.insert(int(entry))

    @property
    def used_slots(self):
        return self.next_fresh - len(self.free_list)

    def allocate(self):
        if self.free_list:
            return self.free_list.pop()
        if self.next_fresh >= CAPACITY:
            raise OutOfDeviceMemory("arena exhausted")
        self.next_fresh += 1
        return self.next_fresh - 1

    def insert(self, entry):
        if self.offset_of[entry] >= 0:
            raise ValueError(f"entry {entry} already cached")
        slot = self.allocate()
        self.data[slot] = TABLE[entry]
        self.checksums[slot] = row_checksums(TABLE[entry][None, :])[0]
        self.offset_of[entry] = slot

    def evict(self, entry):
        slot = int(self.offset_of[entry])
        if slot < 0:
            raise ValueError(f"entry {entry} not cached")
        if slot in self.free_list:
            raise ValueError(f"double free of slot {slot}")
        self.free_list.append(slot)
        self.checksums[slot] = 0
        self.offset_of[entry] = -1

    def step(self, evict, insert):
        for entry in evict:
            self.evict(int(entry))
        for entry in insert:
            self.insert(int(entry))


def next_allocations(arena, k=6):
    """What the next ``k`` single allocations would return (on a copy);
    ``arena`` is a :class:`SlotArena` or a :class:`LoopStore`."""
    twin = copy.deepcopy(arena)
    out = []
    for _ in range(k):
        try:
            out.append(twin.allocate())
        except OutOfDeviceMemory:
            out.append(None)
    return out


def assert_same_store(bulk, loop):
    assert np.array_equal(bulk.offset_of, loop.offset_of)
    assert bulk.data.tobytes() == loop.data.tobytes()
    assert np.array_equal(bulk.checksums, loop.checksums)
    assert bulk.arena.used_slots == loop.used_slots
    assert next_allocations(bulk.arena) == next_allocations(loop)


def store_state(store):
    return (
        store.data.tobytes(), store.offset_of.tobytes(),
        store.checksums.tobytes(), store.arena.used_slots,
        tuple(next_allocations(store.arena)),
    )


class TestStoreAgainstLoop:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_steps_match_the_per_entry_loop(self, data):
        initial = data.draw(st.lists(
            st.integers(0, N - 1), unique=True, max_size=CAPACITY))
        bulk = fill_gpu(0, TABLE, np.array(initial, dtype=np.int64), CAPACITY)
        loop = LoopStore(initial)
        assert_same_store(bulk, loop)
        for _ in range(data.draw(st.integers(1, 6))):
            cached = bulk.cached_entries().tolist()
            absent = sorted(set(range(N)) - set(cached))
            evict = data.draw(st.lists(
                st.sampled_from(cached), unique=True) if cached else st.just([]))
            room = CAPACITY - len(cached) + len(evict)
            insert = data.draw(st.lists(
                st.sampled_from(absent), unique=True, max_size=room))
            apply_diff_step(bulk, TABLE, np.array(evict, dtype=np.int64),
                            np.array(insert, dtype=np.int64))
            loop.step(evict, insert)
            assert_same_store(bulk, loop)

    @pytest.mark.parametrize("defect", [
        "evict_absent", "evict_repeated", "insert_present", "insert_repeated",
        "insert_evicted", "arena_too_small",
    ])
    def test_invalid_step_raises_the_loops_error_and_writes_nothing(self, defect):
        initial = list(range(0, 40, 2))  # 20 of 24 slots, 19 once warmed
        evict, insert = [4, 8, 12], [1, 3, 5]
        if defect == "evict_absent":
            evict[1] = 7
        elif defect == "evict_repeated":
            evict[2] = 4
        elif defect == "insert_present":
            insert[2] = 20
        elif defect == "insert_repeated":
            insert[2] = 1
        elif defect == "insert_evicted":  # the halves must be disjoint
            insert[2] = 4
        else:
            insert = list(range(1, 19, 2))  # 9 > 5 free + 3 evicted
        bulk = fill_gpu(0, TABLE, np.array(initial), CAPACITY)
        bulk.evict_many(np.array([30, 2]))  # a non-trivial free list
        bulk.insert_many(np.array([51]), TABLE[[51]])
        loop = LoopStore(initial)
        loop.step([30, 2], [51])
        assert_same_store(bulk, loop)
        before = store_state(bulk)
        if defect == "insert_evicted":
            expected = ValueError  # the loop would accept this one
        else:
            with pytest.raises((ValueError, OutOfDeviceMemory)) as loop_error:
                loop.step(evict, insert)
            expected = loop_error.type
        with pytest.raises(expected):
            apply_diff_step(bulk, TABLE, np.array(evict), np.array(insert))
        assert store_state(bulk) == before

    def test_bulk_calls_refuse_whole_batches(self):
        store = fill_gpu(0, TABLE, np.arange(20), CAPACITY)
        before = store_state(store)
        with pytest.raises(ValueError, match="not cached"):
            store.evict_many(np.array([1, 2, 33]))
        with pytest.raises(ValueError, match="repeated"):
            store.evict_many(np.array([1, 2, 1]))
        with pytest.raises(ValueError, match="already cached"):
            store.insert_many(np.array([30, 5]), TABLE[[30, 5]])
        with pytest.raises(ValueError, match="repeated"):
            store.insert_many(np.array([30, 30]), TABLE[[30, 30]])
        with pytest.raises(OutOfDeviceMemory):
            store.insert_many(np.arange(30, 35), TABLE[30:35])
        assert store_state(store) == before

    def test_arena_batches_match_single_calls(self):
        bulk, single = SlotArena(10 * 8, 8), SlotArena(10 * 8, 8)
        assert bulk.allocate_many(6).tolist() == [single.allocate() for _ in range(6)]
        bulk.free_many(np.array([4, 0, 2]))
        for offset in (4, 0, 2):
            single.free(offset)
        # Three recycled newest first, then fresh slots.
        five = [single.allocate() for _ in range(5)]
        assert bulk.allocate_many(5).tolist() == five == [2, 0, 4, 6, 7]
        assert bulk.used_slots == single.used_slots == 8
        assert next_allocations(bulk, 3) == next_allocations(single, 3) == [8, 9, None]

    def test_arena_refuses_whole_batches(self):
        arena = SlotArena(10 * 8, 8)
        arena.allocate_many(6)
        arena.free(3)
        before = (arena.used_slots, next_allocations(arena, 10))
        for bad in ([1, 7], [1, -1], [1, 3], [1, 2, 1]):
            with pytest.raises(ValueError):
                arena.free_many(np.array(bad))
        with pytest.raises(OutOfDeviceMemory):
            arena.allocate_many(6)
        assert (arena.used_slots, next_allocations(arena, 10)) == before

    def test_step_call_count_does_not_grow_with_its_size(self, count_calls):
        """The deterministic guard against a reintroduced per-entry loop:
        Python-level calls (``call`` + ``c_call``) of one 512 + 512 step:
        86 now, 12,293 for the per-entry loop."""
        rng = np.random.default_rng(0)
        table = rng.standard_normal((4096, 8)).astype(np.float32)
        ids = rng.permutation(4096)
        store = fill_gpu(0, table, ids[:1024], 1024)
        evict, insert = np.sort(ids[:512]), np.sort(ids[1024:1536])
        calls = count_calls(lambda: apply_diff_step(store, table, evict, insert))
        assert np.array_equal(store.read(insert), table[insert])
        assert calls <= 150, calls


# ----------------------------------------------------------------------
# All-or-nothing steps under the Refresher's rollback (the bugfix)
# ----------------------------------------------------------------------
class TestFailedStepRollsBackExactly:
    """A step that raises has written nothing, so replaying the undo log
    restores the cache exactly.  At the parent commit each of these left
    dangling routes and ``_rollback`` raised ``CacheIntegrityError``."""

    @pytest.fixture
    def cache(self):
        table = np.random.default_rng(0).standard_normal((1000, 8)).astype(np.float32)
        old = Placement(1000, tuple(np.arange(50 * g, 50 * g + 100) for g in range(4)))
        return MultiGpuEmbeddingCache(server_a(), table, old, capacity_entries=100)

    @staticmethod
    def snapshot(cache):
        return (
            [ids.tobytes() for ids in cache.placement.per_gpu],
            cache.source_map.tobytes(),
            [store_state(cache.store(g)) for g in range(4)],
        )

    def test_arena_running_dry_mid_step(self, cache):
        before = self.snapshot(cache)
        per_gpu = [np.arange(50 * g, 50 * g + 100) for g in range(4)]
        per_gpu[2] = np.arange(300, 450)  # 150 entries into 100 slots
        refresher = Refresher(cache, RefreshConfig(update_batch_entries=64))
        with pytest.raises(OutOfDeviceMemory):
            refresher.refresh(Placement(1000, tuple(per_gpu)))
        assert cache.verify_integrity() == []
        assert self.snapshot(cache) == before

    @pytest.mark.parametrize("half", ["evict", "insert"])
    def test_store_mutated_between_diff_and_apply(self, cache, half, monkeypatch):
        """The third step is handed an entry that is not cached (evict
        half) or already cached (insert half), as its last element."""
        import repro.core.refresher as refresher_module

        before = self.snapshot(cache)
        real_apply = refresher_module.apply_diff_step
        calls = {"n": 0}

        def stale_apply(store, table, evict, insert):
            calls["n"] += 1
            if calls["n"] == 3:
                cached = store.cached_entries()
                absent = np.flatnonzero(store.offset_of < 0)
                if half == "evict":
                    evict = np.append(evict[:-1], absent[-1])
                else:
                    insert = np.append(insert[:-1], cached[len(cached) // 2])
            real_apply(store, table, evict, insert)

        monkeypatch.setattr(refresher_module, "apply_diff_step", stale_apply)
        new = Placement(1000, tuple(np.arange(50 * g + 40, 50 * g + 140) for g in range(4)))
        refresher = Refresher(cache, RefreshConfig(update_batch_entries=16))
        with pytest.raises(ValueError, match="cached on GPU"):
            refresher.refresh(new)
        assert calls["n"] > 3  # the rollback replayed the two finished steps
        assert cache.verify_integrity() == []
        assert self.snapshot(cache) == before


# ----------------------------------------------------------------------
# (b) LP assembly
# ----------------------------------------------------------------------
def loop_assemble(platform, blocks, caps, entry_bytes, hotness):
    """The §6.2 LP assembled entry by entry, as ``solve_policy`` did it
    before the per-family arrays."""
    G, B = platform.num_gpus, blocks.num_blocks
    sizes = blocks.sizes.astype(np.float64)
    pairs = [(i, j) for i in range(G) for j in platform.sources_for(i)]
    P = len(pairs)
    pair_index = {pair: p for p, pair in enumerate(pairs)}
    num_a, num_s = B * P, B * G
    t0 = num_a + num_s
    z0 = t0 + G
    num_vars = z0 + 1

    def a_id(b, p):
        return b * P + p

    def s_id(b, j):
        return num_a + b * G + j

    pair_cost = np.array(
        [platform.cost_per_byte(i, j) * entry_bytes for (i, j) in pairs]
    )
    w = blocks.hotness_sum[:, None] * pair_cost[None, :]
    backing_frac = None
    if platform.num_tiers > 1:
        home = assign_backing_tiers(platform.tiers, len(hotness), entry_bytes, hotness)
        backing_frac = {}
        for b in range(B):
            homes = home[blocks.entries(b)]
            for src in platform.backing_ids:
                backing_frac[(b, src)] = float((homes == src).mean())

    rows_eq, cols_eq, vals_eq = [], [], []
    eq_row = 0
    for b in range(B):
        for i in range(G):
            for j in platform.sources_for(i):
                rows_eq.append(eq_row)
                cols_eq.append(a_id(b, pair_index[(i, j)]))
                vals_eq.append(1.0)
            eq_row += 1
    A_eq = sparse.coo_matrix(
        (vals_eq, (rows_eq, cols_eq)), shape=(eq_row, num_vars)
    ).tocsc()

    rows, cols, vals, ub = [], [], [], []
    row = 0
    for b in range(B):
        for p, (i, j) in enumerate(pairs):
            if platform.is_backing(j):
                continue
            rows += [row, row]
            cols += [a_id(b, p), s_id(b, j)]
            vals += [1.0, -1.0]
            ub.append(0.0)
            row += 1
    for j in range(G):
        for b in range(B):
            rows.append(row)
            cols.append(s_id(b, j))
            vals.append(float(sizes[b]))
        ub.append(float(caps[j]))
        row += 1
    for p, (i, _j) in enumerate(pairs):
        for b in range(B):
            rows.append(row)
            cols.append(a_id(b, p))
            vals.append(float(w[b, p]))
        rows.append(row)
        cols.append(t0 + i)
        vals.append(-1.0)
        ub.append(0.0)
        row += 1
    ratios = [dedication_ratios(platform, i) for i in range(G)]
    for i in range(G):
        for p, (pi, pj) in enumerate(pairs):
            if pi != i:
                continue
            r = ratios[i][pj]
            for b in range(B):
                rows.append(row)
                cols.append(a_id(b, p))
                vals.append(float(r * w[b, p]))
        rows.append(row)
        cols.append(t0 + i)
        vals.append(-1.0)
        ub.append(0.0)
        row += 1
    for i in range(G):
        rows += [row, row]
        cols += [t0 + i, z0]
        vals += [1.0, -1.0]
        ub.append(0.0)
        row += 1
    A_ub = sparse.coo_matrix((vals, (rows, cols)), shape=(row, num_vars)).tocsc()

    c = np.zeros(num_vars)
    c[z0] = 1.0
    upper = np.concatenate([np.ones(num_a + num_s), np.full(G + 1, np.inf)])
    if backing_frac is not None:
        for b in range(B):
            for p, (_i, j) in enumerate(pairs):
                if platform.is_backing(j):
                    upper[a_id(b, p)] = backing_frac[(b, j)]
    return dict(
        c=c, A_ub=A_ub, b_ub=np.asarray(ub), A_eq=A_eq, b_eq=np.ones(eq_row),
        lower=np.zeros(num_vars), upper=upper, num_a=num_a, num_s=num_s,
        shape=(B, P, G),
    )


def assert_same_matrix(got, want):
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part


def three_tier(platform, n, entry_bytes):
    return with_tiers(platform, (
        dram_tier(n // 6 * entry_bytes),
        MemoryTier("cxl", n // 3 * entry_bytes, *TIER_KINDS["cxl"]),
        ssd_tier(n * entry_bytes),
    ))


LP_CASES = {
    "server_a": (server_a, 150, False),
    "server_b": (server_b, 150, False),
    "server_c": (server_c, 150, False),
    "three_tiers": (lambda: three_tier(server_a(), 1500, 128), 150, False),
    "unequal_capacities": (server_a, [60, 120, 180, 240], False),
    "integral": (server_a, 150, True),
}


class TestLpAssemblyAgainstLoop:
    @pytest.mark.parametrize("case", LP_CASES)
    def test_matrices_bounds_and_solution(self, case, monkeypatch):
        make_platform, capacity, integral = LP_CASES[case]
        platform = make_platform()
        n, entry_bytes = 1500, 128
        hotness = (zipf_pmf(n, 1.1) * 4096)[np.random.default_rng(3).permutation(n)]
        config = SolverConfig(coarse_block_frac=0.05, integral=integral)
        seen = {}

        real_linprog, real_milp = scipy.optimize.linprog, scipy.optimize.milp

        def milp(c, constraints, bounds, integrality, options):
            # One stacked constraint: the ≤ rows (lower bound -inf), then
            # the = rows (lower bound equal to upper bound).
            A, lo, hi = constraints.A, constraints.lb, constraints.ub
            num_ub = int(np.isneginf(lo).sum())
            assert np.isneginf(lo[:num_ub]).all()
            assert np.array_equal(lo[num_ub:], hi[num_ub:])
            seen.update(
                c=c, A_ub=A[:num_ub], b_ub=hi[:num_ub], A_eq=A[num_ub:],
                b_eq=hi[num_ub:], lower=bounds.lb, upper=bounds.ub,
                integrality=integrality,
            )
            return real_milp(c=c, constraints=constraints, bounds=bounds,
                             integrality=integrality, options=options)

        monkeypatch.setattr(scipy.optimize, "milp", milp)
        # The loop assembles the full LP: pin the trivial-group assembly.
        monkeypatch.setattr(solver_module, "gpu_symmetric", lambda *args: False)
        solved = solve_policy(platform, hotness, capacity, entry_bytes, config)
        monkeypatch.undo()

        caps = capacity if isinstance(capacity, list) else [capacity] * platform.num_gpus
        want = loop_assemble(platform, solved.blocks, caps, entry_bytes, hotness)
        assert_same_matrix(seen["A_ub"], want["A_ub"])
        assert_same_matrix(seen["A_eq"], want["A_eq"])
        for name in ("c", "b_ub", "b_eq", "lower", "upper"):
            assert seen[name].tobytes() == want[name].tobytes(), name
        if case == "three_tiers":
            assert (want["upper"][: want["num_a"]] < 1.0).any()
        assert solved.num_constraints == want["A_ub"].shape[0] + want["A_eq"].shape[0]

        # A solve from the oracle's matrices returns the identical vertex.
        B, P, G = want["shape"]
        if integral:
            assert seen["integrality"][: B * (P + G)].all()
            res = real_milp(
                c=want["c"],
                constraints=[
                    scipy.optimize.LinearConstraint(want["A_ub"], -np.inf, want["b_ub"]),
                    scipy.optimize.LinearConstraint(want["A_eq"], want["b_eq"], want["b_eq"]),
                ],
                bounds=scipy.optimize.Bounds(want["lower"], want["upper"]),
                integrality=seen["integrality"],
                options={"time_limit": config.time_limit},
            )
        else:
            assert seen["integrality"] is None
            res = real_linprog(
                want["c"], A_ub=want["A_ub"], b_ub=want["b_ub"], A_eq=want["A_eq"],
                b_eq=want["b_eq"],
                bounds=np.column_stack([want["lower"], want["upper"]]),
                options={"time_limit": config.time_limit},
            )
        x = np.asarray(res.x)
        access = np.clip(x[: B * P].reshape(B, P), 0.0, 1.0)
        storage = np.clip(x[B * P : B * (P + G)].reshape(B, G), 0.0, 1.0)
        assert solved.access.tobytes() == access.tobytes()
        assert solved.storage.tobytes() == storage.tobytes()


# ----------------------------------------------------------------------
# (c) blocks
# ----------------------------------------------------------------------
def loop_build_blocks(hotness, num_gpus, coarse_frac=0.005, max_levels=40):
    """``build_blocks`` finding each level's run one entry at a time."""
    hotness = np.asarray(hotness, dtype=np.float64)
    n = hotness.size
    order = np.argsort(-hotness, kind="stable")
    sorted_hot = hotness[order]
    hot_max = sorted_hot[0]
    levels = np.full(n, max_levels, dtype=np.int64)
    positive = sorted_hot > 0
    if hot_max > 0:
        log_gap = np.log2(hot_max) - np.log2(sorted_hot[positive])
        levels[positive] = np.clip(
            np.floor(log_gap), 0, max_levels - 1).astype(np.int64)
    coarse_cap = max(1, int(np.ceil(coarse_frac * n)))
    offsets, sums = [0], []
    start = 0
    while start < n:
        stop = start
        while stop < n and levels[stop] == levels[start]:
            stop += 1
        size = stop - start
        pieces = min(max(num_gpus, -(-size // coarse_cap)), size)
        bounds = np.unique(
            np.linspace(start, stop, pieces + 1).round().astype(np.int64))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            offsets.append(int(hi))
            sums.append(sorted_hot[lo:hi].sum())
        start = stop
    return order, np.asarray(offsets, dtype=np.int64), np.asarray(sums)


def loop_block_of(blocks: BlockSet):
    inverse = np.empty(blocks.num_entries, dtype=np.int64)
    for b in range(blocks.num_blocks):
        inverse[blocks.entries(b)] = b
    return inverse


BLOCK_CASES = {
    "zipf": (zipf_pmf(3000, 1.2) * 1e4, 4, 0.005),
    "ties": (np.repeat([8.0, 4.0, 4.0, 1.0, 0.5], 37), 4, 0.02),
    "all_zero_tail": (np.concatenate([zipf_pmf(200, 1.0), np.zeros(500)]), 8, 0.01),
    "one_level": (np.full(100, 3.0), 4, 0.1),
    "all_zero": (np.zeros(50), 4, 0.5),
    "fewer_entries_than_gpus": (np.array([5.0, 1.0, 0.0]), 8, 0.005),
    "shuffled": (
        np.random.default_rng(5).permutation(zipf_pmf(2500, 0.9) * 777), 8, 0.005),
    # An exact tie (here, in "ties", "one_level" and the zero cases) sends
    # ``build_blocks`` to its stable sort; the rest take the default one.
    "all_equal": (np.full(1000, 0.75), 8, 0.005),
    "integer_counts": (
        np.floor(np.random.default_rng(6).permutation(zipf_pmf(3000, 1.1)) * 1e4),
        4, 0.005),
    "shuffled_zero_tail": (
        np.random.default_rng(8).permutation(
            np.concatenate([zipf_pmf(300, 1.2) * 50, np.zeros(900)])), 4, 0.01),
    "single_entry": (np.array([2.5]), 4, 0.005),
}


class TestBlocksAgainstLoop:
    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_offsets_sums_and_inverse(self, case):
        hotness, num_gpus, coarse = BLOCK_CASES[case]
        blocks = build_blocks(hotness, num_gpus, coarse_frac=coarse)
        order, offsets, sums = loop_build_blocks(hotness, num_gpus, coarse)
        assert np.array_equal(blocks.order, order)
        assert np.array_equal(blocks.offsets, offsets)
        assert blocks.hotness_sum.tobytes() == sums.tobytes()  # bit for bit
        assert np.array_equal(blocks.block_of(), loop_block_of(blocks))

    @given(
        hot=st.lists(st.sampled_from([0.0, 0.25, 1.0, 1.5, 3.0, 64.0, 1e9]),
                     min_size=1, max_size=80),
        num_gpus=st.integers(1, 8),
        coarse=st.sampled_from([0.005, 0.1, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_level_runs(self, hot, num_gpus, coarse):
        blocks = build_blocks(np.array(hot), num_gpus, coarse_frac=coarse)
        _order, offsets, sums = loop_build_blocks(np.array(hot), num_gpus, coarse)
        assert np.array_equal(blocks.offsets, offsets)
        assert blocks.hotness_sum.tobytes() == sums.tobytes()
        assert np.array_equal(blocks.block_of(), loop_block_of(blocks))


# ----------------------------------------------------------------------
# (d) hashtable deletes
# ----------------------------------------------------------------------
def assert_matches_model(table: LocationTable, model: dict, universe):
    """Every survivor is found where the model says; nothing else is."""
    assert len(table) == len(model)
    universe = np.asarray(sorted(universe), dtype=np.int64)
    sources, offsets = table.lookup_batch(universe)
    for key, src, off in zip(universe.tolist(), sources.tolist(), offsets.tolist()):
        assert (src, off) == model.get(key, (-1, key)), key
    assert int((table._keys != -1).sum()) == len(model)
    assert table.max_probe_length() < table.capacity


def keys_hashing_to(table: LocationTable, slots, count):
    candidates = np.arange(200_000, dtype=np.int64)
    return candidates[np.isin(table._slots_of(candidates), slots)][:count]


class TestRemoveBatchAgainstModel:
    def test_duplicate_absent_and_negative_keys(self):
        table = LocationTable(64)
        keys = np.arange(0, 80, 2)
        table.insert_batch(keys, keys % 4, keys + 1)
        model = {int(k): (int(k) % 4, int(k) + 1) for k in keys}
        batch = np.array([4, 4, 5, -1, -7, 10, 999, 10, 4])
        removed = table.remove_batch(batch)
        # As the scalar loop counts: repeats once, absent and negative never.
        assert removed == sum(model.pop(int(k), None) is not None for k in batch) == 2
        assert_matches_model(table, model, set(keys.tolist()) | {5, 999})
        assert table.remove_batch(np.array([-1])) == 0
        assert table.remove_batch(np.empty(0, dtype=np.int64)) == 0
        assert table.remove(6) and not table.remove(6)

    def test_cluster_wrapping_the_array_end(self):
        table = LocationTable(8)  # capacity 16
        last = table.capacity - 1
        keys = keys_hashing_to(table, [last - 1, last], 7)
        table.insert_batch(keys, np.zeros(7, dtype=np.int64), np.arange(7))
        occupied = np.flatnonzero(table._keys != -1)
        assert occupied.min() == 0 and occupied.max() == last  # it wraps
        model = {int(k): (0, i) for i, k in enumerate(keys)}
        # Remove the cluster's head: everything behind it, past the array
        # end, must still be found.
        head = int(table._keys[last - 1])
        assert table.remove_batch(np.array([head])) == 1
        del model[head]
        assert_matches_model(table, model, keys.tolist())
        # ... and two at once, one on each side of the wrap.
        pair = [int(table._keys[last]), int(table._keys[1])]
        assert table.remove_batch(np.array(pair)) == 2
        for key in pair:
            del model[key]
        assert_matches_model(table, model, keys.tolist())

    def test_nearly_full_table(self):
        table = LocationTable(4)
        table._max_load = 2.0  # as a corrupting writer would
        keys = np.arange(100, 100 + table.capacity - 1)
        for key in keys:
            table.insert(int(key), 1, int(key))
        assert len(table) == table.capacity - 1
        model = {int(k): (1, int(k)) for k in keys}
        gone = keys[::3]
        assert table.remove_batch(gone) == len(gone)
        for key in gone:
            del model[int(key)]
        assert_matches_model(table, model, keys.tolist())

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_interleavings(self, data):
        table = LocationTable(4)
        model: dict[int, tuple[int, int]] = {}
        key_pool = st.integers(-3, 90)
        for _ in range(data.draw(st.integers(1, 8))):
            if data.draw(st.booleans()):
                keys = data.draw(st.lists(st.integers(0, 90), max_size=40))
                offsets = [data.draw(st.integers(0, 1000)) for _ in keys]
                table.insert_batch(
                    np.array(keys, dtype=np.int64),
                    np.array([k % 3 for k in keys], dtype=np.int64),
                    np.array(offsets, dtype=np.int64),
                )
                for key, off in zip(keys, offsets):
                    model[key] = (key % 3, off)
            else:
                keys = data.draw(st.lists(key_pool, max_size=40))
                want = sum(model.pop(k, None) is not None for k in keys)
                assert table.remove_batch(np.array(keys, dtype=np.int64)) == want
            assert_matches_model(table, model, range(0, 91))


# ----------------------------------------------------------------------
# (e) placement diff
# ----------------------------------------------------------------------
class TestPlacementDiffAgainstSetdiff:
    @given(seed=st.integers(0, 10_000), gpus=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_setdiff1d_form(self, seed, gpus):
        rng = np.random.default_rng(seed)

        def random_placement():
            return Placement(200, tuple(
                rng.permutation(200)[: rng.integers(0, 120)] for _ in range(gpus)
            ))

        old, new = random_placement(), random_placement()
        diff = placement_diff(old, new)
        for g in range(gpus):
            evict = np.setdiff1d(old.per_gpu[g], new.per_gpu[g])
            insert = np.setdiff1d(new.per_gpu[g], old.per_gpu[g])
            assert diff.evictions[g].dtype == evict.dtype
            assert np.array_equal(diff.evictions[g], evict)
            assert np.array_equal(diff.insertions[g], insert)


# ----------------------------------------------------------------------
# (f) dealing a symmetric solve
# ----------------------------------------------------------------------
def loop_deal_copies(self):
    """``SolvedPolicy._deal_copies`` as it was, one block at a time."""
    num_gpus = self.storage.shape[1]
    load = np.zeros(num_gpus)
    holders, dealt = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for b in range(self.blocks.num_blocks):
        entries = self.blocks.entries(b)
        m = len(entries)
        heat = self.blocks.hotness_sum[b] / m
        mass = float(np.clip(self.storage[b], 0.0, 1.0).sum()) * m
        if m >= num_gpus:
            copies = int(round(mass))
        elif heat * self.symmetric_read_cost > self.est_time:
            copies = num_gpus * m
        else:
            copies = int(np.ceil(mass - 1e-6))
        copies = min(copies, num_gpus * m)
        if copies <= 0:
            continue
        share, extra = divmod(copies, m)
        dealt.append(np.repeat(entries, share + (np.arange(m) < extra)))
        holder = np.argsort(load, kind="stable")[np.arange(copies) % num_gpus]
        load += np.bincount(holder, minlength=num_gpus) * heat
        holders.append(holder)
    holder, entry = np.concatenate(holders), np.concatenate(dealt)
    return [[entry[holder == j]] for j in range(num_gpus)]


SYMMETRIC_PLATFORMS = {
    "server_a": server_a,
    "server_c": server_c,
    "dgx2": dgx2,
    "pcie_only": pcie_only,
    "three_tiers": lambda: three_tier(server_a(), 3000, 128),
}
DEAL_HOTNESS = {
    # A steep head: its blocks hold fewer entries than GPUs.
    "tiny_blocks": zipf_pmf(3000, 1.6)[np.random.default_rng(1).permutation(3000)] * 8192,
    "ties": np.floor(zipf_pmf(3000, 1.1)[np.random.default_rng(2).permutation(3000)] * 2e4),
    "zero_tail": np.concatenate([zipf_pmf(1200, 1.1) * 4096, np.zeros(1800)]),
}


class TestDealAgainstLoop:
    @pytest.mark.parametrize("platform", SYMMETRIC_PLATFORMS)
    @pytest.mark.parametrize("hotness", DEAL_HOTNESS)
    def test_realized_ids_equal_the_loop(self, platform, hotness, monkeypatch):
        platform, hot = SYMMETRIC_PLATFORMS[platform](), DEAL_HOTNESS[hotness]
        for frac in (0.02, 0.005):
            for ratio in (0.03, 0.12, 0.3):
                solved = solve_policy(platform, hot, int(ratio * len(hot)), 128,
                                      SolverConfig(coarse_block_frac=frac))
                assert solved.symmetric_read_cost is not None
                got = solved.realize()
                with monkeypatch.context() as patch:
                    patch.setattr(solver_module.SolvedPolicy, "_deal_copies",
                                  loop_deal_copies)
                    want = solved.realize()
                for mine, theirs in zip(got.per_gpu, want.per_gpu, strict=True):
                    assert mine.dtype == theirs.dtype
                    assert mine.tobytes() == theirs.tobytes(), (frac, ratio)


# ----------------------------------------------------------------------
# (g) hot orders
# ----------------------------------------------------------------------
def stable_order(hotness):
    return np.argsort(-np.asarray(hotness, dtype=np.float64), kind="stable")


def bits(x):
    """Every array in ``x`` (a dataclass, tuple or array) as raw bytes."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    if hasattr(x, "__dataclass_fields__"):
        return tuple(bits(getattr(x, name)) for name in x.__dataclass_fields__)
    return x


HOT_ORDER_CASES = {
    **{case: hotness for case, (hotness, _g, _c) in BLOCK_CASES.items()},
    "integer_dtype": np.random.default_rng(9).poisson(
        zipf_pmf(2000, 1.1) * 3000).astype(np.int64),
}


def hot_order_sites(hotness):
    """Each site that orders entries hottest first, as a zero-argument
    call returning what the order decides."""
    n, platform = len(hotness), server_a()
    cap = max(1, n // 8)
    store_tiers = (dram_tier(max(1, n // 3) * 128), ssd_tier(n * 128))
    yield blocks_module, lambda: build_blocks(hotness, 4, coarse_frac=0.01)
    yield blocks_module, lambda: blocks_module.build_uniform_blocks(hotness, min(n, 7))
    yield blocks_module, lambda: blocks_module.per_entry_blocks(hotness)
    yield policy, lambda: (
        policy.replication_policy(hotness, cap, 4),
        policy.partition_policy(hotness, cap, 4),
        policy.clique_partition_policy(hotness, cap, platform),
        policy.hot_replicate_warm_partition_policy(hotness, cap, 4, 0.5),
    )
    yield tiers, lambda: tiers.assign_backing_tiers(store_tiers, n, 128, hotness)
    yield node_placement, lambda: node_placement.solve_node_placement(hotness, 3, 2)
    yield drift_adapt, lambda: drift_adapt._hot_heads(hotness, hotness[::-1], 0.1)
    if n >= 8 and np.sum(hotness) > 0:
        warm = solve_policy(platform, hotness, cap, 128, SolverConfig(coarse_block_frac=0.05))
        yield solver_module, lambda: warm_start_policy(
            platform, hotness[::-1], cap, 128, warm).blocks


class TestHotOrderAtEverySite:
    """Every hot order is ``argsort(-h, kind="stable")`` bit for bit, also
    where the default sort stands in for it (no exact tie)."""

    @pytest.mark.parametrize("case", HOT_ORDER_CASES)
    def test_every_site_orders_as_the_stable_sort(self, case, monkeypatch):
        hotness = HOT_ORDER_CASES[case]
        assert hot_order(hotness).tobytes() == stable_order(hotness).tobytes()
        for module, site in hot_order_sites(hotness):
            got, calls = bits(site()), []
            with monkeypatch.context() as patch:
                patch.setattr(module, "hot_order",
                              lambda h: calls.append(1) or stable_order(h))
                assert bits(site()) == got, module.__name__
            assert calls, f"{module.__name__} orders without hot_order"


# ----------------------------------------------------------------------
# (h) the warm start's time estimate
# ----------------------------------------------------------------------
def loop_estimate_times(platform, hotness_sum, pairs, access, entry_bytes):
    """``_estimate_times_for_access`` with one Python pass per pair."""
    G = platform.num_gpus
    pair_cost = np.array(
        [platform.cost_per_byte(i, j) * entry_bytes for (i, j) in pairs]
    )
    # per-pair load at the access point: Σ_b H_b · T_{i←j} · a[b,p].
    load = (hotness_sum[:, None] * pair_cost[None, :] * access).sum(axis=0)
    ratios = [dedication_ratios(platform, i) for i in range(G)]
    t = np.zeros(G)
    for p, (i, j) in enumerate(pairs):
        t[i] = max(t[i], load[p])  # ragged-group bound
    for i in range(G):
        conserved = sum(
            ratios[i][j] * load[p]
            for p, (pi, j) in enumerate(pairs)
            if pi == i
        )
        t[i] = max(t[i], conserved)  # work-conservation bound
    return t


ESTIMATE_PLATFORMS = {
    "server_a": server_a,
    "server_b": server_b,
    "server_c": server_c,
    "dgx2": dgx2,
    "pcie_only": pcie_only,
    "three_tiers": lambda: three_tier(server_a(), 1500, 128),
}


class TestEstimateAgainstLoop:
    @pytest.mark.parametrize("platform", ESTIMATE_PLATFORMS)
    def test_vectorised_estimate_is_the_loop(self, platform):
        platform = ESTIMATE_PLATFORMS[platform]()
        hotness = zipf_pmf(1500, 1.1)[np.random.default_rng(4).permutation(1500)] * 4096
        solved = solve_policy(platform, hotness, 150, 128,
                              SolverConfig(coarse_block_frac=0.05))
        terms = solver_module._pair_terms(platform, 128)
        assert tuple(terms[0]) == solved.pairs
        rng = np.random.default_rng(5)
        for hotness_sum, access in (
            (solved.blocks.hotness_sum, solved.access),
            (rng.permutation(solved.blocks.hotness_sum), rng.random(solved.access.shape)),
            (solved.blocks.hotness_sum, np.zeros_like(solved.access)),
        ):
            got = solver_module._estimate_times_for_access(terms, hotness_sum, access)
            want = loop_estimate_times(platform, hotness_sum, solved.pairs, access, 128)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
