"""Cluster tier: ring, placement, RPC model, front-end, node-kill soak.

Run with ``pytest -m cluster``.  The suite covers the keyspace
partitioners (consistent-hash ring and solver-driven placement), the
deterministic RPC exchange walker, the sharded per-GPU solve, the
front-end's degradation ladder (hedge → replica failover → host fallback
→ partial response), the what-if node-loss analysis, and the acceptance
gate itself: a 3-node ``node-kill`` soak that must keep ≥ 70 % of steady
goodput through the failover window with a bit-exact table.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import math
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CacheNode,
    ClusterConfig,
    ClusterFrontend,
    ClusterSoak,
    FAILOVER_GOODPUT_FLOOR,
    HashRing,
    analyze_node_loss,
    attempt_profile,
    hash_keys,
    solve_node_placement,
)
from repro.cluster import rpc
from repro.core import pipeline
from repro.core.pipeline import network_transfer_seconds, price_node_read
from repro.faults.spec import HEALTHY, FaultKind, HealthView
from repro.hardware.platform import HOST, server_a
from repro.obs import MetricsRegistry, use_registry
from repro.sim.mechanisms import GpuDemand
from repro.serve.soak import (
    CLUSTER_SCENARIOS,
    DEFAULT_RECOVERY_TOLERANCE,
    SoakConfig,
    build_soak_plan,
    drive,
    in_windows,
    run_soak,
)
from repro.sim.event_sim import simulate_rpc_exchange
from repro.utils.rng import make_rng
from repro.utils.stats import zipf_pmf

pytestmark = pytest.mark.cluster

N_ENTRIES = 2_000
BATCH = 256


# ----------------------------------------------------------------------
# Keyspace partitioning
# ----------------------------------------------------------------------
def test_hash_keys_is_deterministic_and_seed_sensitive():
    keys = np.arange(64, dtype=np.int64)
    a = hash_keys(keys, seed=7)
    b = hash_keys(keys, seed=7)
    c = hash_keys(keys, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ring_owners_are_distinct_replicas():
    ring = HashRing(4, replication=3, seed=0)
    owners = ring.owners_for(np.arange(N_ENTRIES, dtype=np.int64))
    assert owners.shape == (N_ENTRIES, 3)
    for row in owners:
        assert len(set(row.tolist())) == 3


def test_ring_balances_the_keyspace():
    ring = HashRing(4, replication=2, seed=0)
    primary = ring.owners_for(np.arange(N_ENTRIES, dtype=np.int64))[:, 0]
    shares = np.bincount(primary, minlength=4) / N_ENTRIES
    assert pytest.approx(shares.sum(), abs=1e-9) == 1.0
    # vnodes keep every node within a loose band around 1/4.
    for share in shares:
        assert 0.10 < share < 0.45


def test_ring_removal_moves_only_the_dead_nodes_keys():
    ring = HashRing(4, replication=2, seed=0)
    smaller = HashRing(3, replication=2, seed=0)  # the same ring less node 3
    keys = np.arange(N_ENTRIES, dtype=np.int64)
    before = ring.owners_for(keys)[:, 0]
    after = smaller.owners_for(keys)[:, 0]
    moved = before != after
    # Consistent hashing: only keys whose primary died may move.
    assert np.array_equal(np.unique(before[moved]), np.array([3]))
    assert not (after == 3).any()


def test_solver_placement_balances_load_not_key_count():
    pmf = zipf_pmf(N_ENTRIES, 1.1)
    hotness = pmf * 1e6
    placement = solve_node_placement(hotness, 4, replication=2)
    primary = placement.owners[:, 0]
    loads = [float(hotness[primary == n].sum()) for n in range(4)]
    total = sum(loads)
    for load in loads:
        assert 0.15 < load / total < 0.35
    # Every key's replicas are distinct nodes.
    for row in placement.owners:
        assert len(set(row.tolist())) == 2


def test_solver_placement_wide_head_is_everywhere():
    pmf = zipf_pmf(N_ENTRIES, 1.2)
    hotness = pmf * 1e6
    placement = solve_node_placement(hotness, 3, replication=2)
    head = np.argsort(-hotness)[: int(round(0.01 * N_ENTRIES))]
    for node in range(3):
        mask = placement.member_mask(node)
        assert mask[head].all(), f"hot head missing from node {node}"


# ----------------------------------------------------------------------
# RPC model
# ----------------------------------------------------------------------
def test_rpc_exchange_primary_success_is_one_attempt():
    r = simulate_rpc_exchange([(1.0, True)], timeout=8.0)
    assert r.ok and r.winner == "primary"
    assert r.attempts == 1 and r.timeouts == 0 and not r.hedged
    assert r.total_time == 1.0


def test_rpc_exchange_timeout_burns_the_full_timeout():
    r = simulate_rpc_exchange([(np.inf, False), (np.inf, False)], timeout=8.0)
    assert not r.ok and r.winner == "none"
    assert r.timeouts == 2
    assert r.total_time == pytest.approx(8.0 + 8.0)


def test_rpc_exchange_hedge_rescues_a_dead_primary():
    r = simulate_rpc_exchange(
        [(np.inf, False), (np.inf, False)],
        timeout=8.0,
        hedge_time=1.0,
        hedge_issue_at=3.0,
    )
    assert r.ok and r.winner == "hedge" and r.hedged
    assert r.total_time == pytest.approx(4.0)


def test_rpc_exchange_fast_primary_never_hedges():
    r = simulate_rpc_exchange(
        [(1.0, True)], timeout=8.0, hedge_time=1.0, hedge_issue_at=3.0
    )
    assert r.winner == "primary" and not r.hedged


@pytest.fixture
def round_network(monkeypatch):
    """A 1 ms, 1 GB/s fabric, so the arithmetic below reads off the page."""
    monkeypatch.setattr(pipeline, "NETWORK_LATENCY_SECONDS", 1e-3)
    monkeypatch.setattr(pipeline, "NETWORK_BANDWIDTH_BYTES", 1e9)


def test_attempt_profile_health_cases(round_network):
    up = attempt_profile(0, 1e-3, HEALTHY, payload_bytes=1e6)
    assert up[1] and up[0] == pytest.approx(1e-3 + 1e-3 + (1e-3 + 1e-3))
    down = attempt_profile(0, 1e-3, HealthView(down_nodes=frozenset({0})), 1e6)
    assert not down[1] and np.isinf(down[0])
    part = attempt_profile(
        0, 1e-3, HealthView(partitioned_nodes=frozenset({0})), 1e6
    )
    assert not part[1] and part[0] == pytest.approx(1e-3)
    slow = attempt_profile(0, 1e-3, HealthView(node_factors=((0, 0.5),)), 1e6)
    assert slow[1] and slow[0] > up[0]


def test_network_tier_prices_the_wire(round_network):
    assert network_transfer_seconds(0) == pytest.approx(1e-3)
    assert network_transfer_seconds(1e9) == pytest.approx(1.001)
    demand = GpuDemand(dst=0, volumes={0: 4096.0, HOST: 8192.0})
    price = price_node_read(server_a(), demand)
    assert price.extraction_seconds > 0 and price.transfer_seconds > 0


# ----------------------------------------------------------------------
# Front-end degradation ladder
# ----------------------------------------------------------------------
def _mini_cluster(
    replication: int = 2, nodes: int = 3, seed: int = 0, placement: str = "ring"
):
    platform = server_a()
    rng = make_rng(seed)
    table = rng.standard_normal((N_ENTRIES, 8)).astype(np.float32)
    pmf = zipf_pmf(N_ENTRIES, 1.1)
    hotness = pmf * BATCH * platform.num_gpus
    cfg = ClusterConfig(
        nodes=nodes, replication=replication, seed=seed, placement=placement
    )
    placement = ClusterFrontend.build_placement(cfg, hotness)
    owners = placement.owners_for(np.arange(N_ENTRIES, dtype=np.int64))
    cache_nodes = [
        CacheNode(
            node_id=i,
            platform=platform,
            table=table,
            hotness=hotness,
            member_mask=(owners == i).any(axis=1),
            capacity_entries=N_ENTRIES // 8,
        )
        for i in range(nodes)
    ]
    s0 = cache_nodes[0].service_seconds(np.arange(BATCH, dtype=np.int64))
    cache_nodes[0]._next_gpu = 0
    frontend = ClusterFrontend(
        cache_nodes, cfg, baseline_service=s0,
        hotness=hotness, placement=placement,
    )
    keys = make_rng(seed + 1).choice(N_ENTRIES, size=BATCH, p=pmf)
    return frontend, table, keys.astype(np.int64)


@pytest.mark.parametrize("placement", ["ring", "solver"])
def test_the_owner_table_is_the_placements_owners(placement):
    """Routing reads one table built at construction: every entry's owners,
    one byte each when the node ids fit."""
    frontend, _, _ = _mini_cluster(placement=placement)
    want = frontend.placement.owners_for(np.arange(N_ENTRIES, dtype=np.int64))
    assert frontend._owners.dtype == np.int8
    assert np.array_equal(frontend._owners, want)


def test_frontend_steady_serves_everything_from_primaries():
    frontend, table, keys = _mini_cluster()
    resp = frontend.serve(keys, now=0.0, execute=True)
    assert resp.ok and not resp.partial
    assert resp.replica_keys == 0 and resp.host_fallback_keys == 0
    assert resp.failovers == 0 and resp.rpc_timeouts == 0
    assert np.array_equal(resp.values, table[keys])


def test_frontend_survives_a_dead_node_bit_exactly():
    frontend, table, keys = _mini_cluster()
    health = HealthView(down_nodes=frozenset({1}))
    resp = frontend.serve(keys, now=0.0, health=health, execute=True)
    assert resp.ok, "replication 2 must cover a single node loss"
    assert resp.replica_keys + resp.host_fallback_keys > 0
    assert np.array_equal(resp.values, table[keys])


def test_frontend_unreplicated_dead_node_uses_host_fallback():
    frontend, table, keys = _mini_cluster(replication=1)
    health = HealthView(down_nodes=frozenset({1}))
    resp = frontend.serve(keys, now=0.0, health=health, execute=True)
    # R=1 leaves no replica owner, but every node's DRAM holds the full
    # table, so the group still lands — just slower and off-owner.
    assert resp.ok
    assert resp.host_fallback_keys > 0
    assert np.array_equal(resp.values, table[keys])


def test_frontend_partial_response_when_every_node_is_dead():
    frontend, _table, keys = _mini_cluster()
    health = HealthView(down_nodes=frozenset({0, 1, 2}))
    resp = frontend.serve(keys, now=0.0, health=health, execute=True)
    assert resp.partial and not resp.ok
    assert resp.served == 0
    assert len(resp.failed_positions) == len(keys)


def test_frontend_breaker_ejects_a_repeat_offender():
    frontend, table, keys = _mini_cluster()
    health = HealthView(down_nodes=frozenset({1}))
    trips = frontend.config.breaker.failure_threshold
    for i in range(trips):
        frontend.serve(keys, now=float(i), health=health, execute=False)
    assert 1 in frontend.breakers.excluded_sources(float(trips))
    # With node 1 ejected, routing avoids it up front: no timeouts burned.
    resp = frontend.serve(keys, now=float(trips), health=health, execute=True)
    assert resp.ok and resp.rpc_timeouts == 0
    assert np.array_equal(resp.values, table[keys])


def test_what_if_node_loss_full_cover_at_r2():
    frontend, _table, _keys = _mini_cluster(replication=2)
    rows = analyze_node_loss(frontend.placement, range(3), N_ENTRIES)
    assert [r["node"] for r in rows] == [0, 1, 2]
    for r in rows:
        assert r["replica_covered"] == pytest.approx(1.0)
        assert r["uncovered_keys"] == 0
        assert r["post_loss_max_share"] < 1.0


def test_what_if_node_loss_unreplicated_keys_are_uncovered():
    frontend, _table, _keys = _mini_cluster(replication=1)
    rows = analyze_node_loss(frontend.placement, range(3), N_ENTRIES)
    assert any(r["uncovered_keys"] > 0 for r in rows)
    # A fresh ring of the same seed is the front-end's own placement.
    ring = HashRing(3, replication=1, seed=0)
    assert analyze_node_loss(ring, range(3), N_ENTRIES) == rows


def test_sharded_nodes_cache_only_their_members():
    frontend, _table, _keys = _mini_cluster()
    owners = frontend.placement.owners_for(np.arange(N_ENTRIES, dtype=np.int64))
    for node_id, node in frontend.nodes.items():
        member = (owners == node_id).any(axis=1)
        cached = np.concatenate(
            [np.asarray(ids) for ids in node.cache.placement.per_gpu]
        )
        assert member[cached.astype(np.int64)].all(), (
            f"node {node_id} cached a key outside its shard"
        )
        assert node.verify_integrity() == []


def test_rpc_config_scales_from_the_whole_leg():
    wire_bound = rpc.healthy_leg(0.0, 0.0)
    assert wire_bound >= pipeline.NETWORK_LATENCY_SECONDS * 2
    # The timeout must exceed one healthy exchange even when extraction
    # is negligible — otherwise every call on a tiny table "times out".
    assert rpc.TIMEOUT_FACTOR * wire_bound > wire_bound


# ----------------------------------------------------------------------
# Admit once per RPC leg: one plan per served node-group
# ----------------------------------------------------------------------
def test_admitted_batch_is_priced_and_served_from_one_plan():
    frontend, table, keys = _mini_cluster()
    node = frontend.nodes[0]
    reg = MetricsRegistry("admit")
    with use_registry(reg):
        batch = node.admit(keys)
        price = node.service_seconds(batch)
        values, served_seconds = node.serve(batch)
    assert node._next_gpu == 1, "one admitted batch takes one ingress GPU"
    assert batch.gpu == batch.plan.dst == 0
    assert price == served_seconds
    assert np.array_equal(values, table[keys])
    assert reg.value("extractor.plan.calls") == 1
    assert reg.value("extractor.execute.calls") == 1
    assert node.admit(batch) is batch


def test_raw_key_calls_still_take_the_next_ingress_gpu_each():
    frontend, table, keys = _mini_cluster()
    node = frontend.nodes[0]
    reg = MetricsRegistry("raw")
    with use_registry(reg):
        node.service_seconds(keys)
        values, _seconds = node.serve(keys)
    assert node._next_gpu == 2
    assert np.array_equal(values, table[keys])
    assert reg.value("extractor.plan.calls") == 2
    assert reg.value("extractor.execute.calls") == 1


def test_frontend_plans_each_node_group_exactly_once_when_healthy():
    frontend, table, keys = _mini_cluster()
    groups = len(np.unique(frontend.placement.owners_for(keys)[:, 0]))
    reg = MetricsRegistry("budget")
    with use_registry(reg):
        resp = frontend.serve(keys, now=0.0, execute=True)
    assert resp.ok and np.array_equal(resp.values, table[keys])
    assert groups == 3
    assert reg.value("extractor.plan.calls") == groups
    assert reg.value("extractor.execute.calls") == groups
    # No hedge was sent, so no replica ever planned (or burnt a GPU slot).
    assert sorted(n._next_gpu for n in frontend.nodes.values()) == [1, 1, 1]


@pytest.mark.parametrize("replication, down", [(2, {1}), (2, {1, 2}), (1, {1})])
def test_frontend_plan_budget_under_a_node_kill(replication, down):
    frontend, table, keys = _mini_cluster(replication=replication)
    groups = len(np.unique(frontend.placement.owners_for(keys)[:, 0]))
    reg = MetricsRegistry("budget-kill")
    with use_registry(reg):
        resp = frontend.serve(
            keys, now=0.0, health=HealthView(down_nodes=frozenset(down)),
            execute=True,
        )
    assert resp.ok and np.array_equal(resp.values, table[keys])
    assert resp.hedges + resp.failovers > 0
    plans = reg.value("extractor.plan.calls")
    assert groups < plans <= groups + resp.hedges + resp.failovers
    assert reg.value("extractor.execute.calls") == groups


def test_failover_to_the_hedge_node_reuses_the_hedge_batch():
    frontend, table, _keys = _mini_cluster()
    owners = frontend.placement.owners_for(np.arange(N_ENTRIES, dtype=np.int64))
    # One group (primary 1) whose only replica is node 0: hedge target and
    # first failover candidate coincide.  Node 0 is reachable but so slow
    # that the hedge cannot land inside the timeout, so the exchange dies.
    keys = np.flatnonzero((owners[:, 0] == 1) & (owners[:, 1] == 0))[:64]
    health = HealthView(down_nodes=frozenset({1}), node_factors=((0, 1e-6),))
    reg = MetricsRegistry("reuse")
    with use_registry(reg):
        resp = frontend.serve(keys, now=0.0, health=health, execute=True)
    assert resp.ok and np.array_equal(resp.values, table[keys])
    assert (resp.hedges, resp.failovers, resp.rpc_timeouts) == (0, 1, 2)
    assert resp.replica_keys == len(keys)
    # The dead primary's leg and node 0's (priced as the hedge, reused by
    # the failover walk and the gather); the parent planned four times.
    assert reg.value("extractor.plan.calls") == 2
    assert reg.value("extractor.execute.calls") == 1
    assert frontend.nodes[0]._next_gpu == 1


_ELAPSED = st.one_of(st.floats(0.0, 10.0), st.just(math.inf))


@settings(max_examples=300, deadline=None)
@given(
    attempts=st.lists(st.tuples(_ELAPSED, st.booleans()), min_size=1, max_size=4),
    timeout=st.floats(0.01, 10.0),
    hedge=st.one_of(st.none(), _ELAPSED),
    issue_at=st.floats(0.0, 10.0),
)
def test_lazy_hedge_price_equals_the_eager_one(attempts, timeout, hedge, issue_at):
    asked = []

    def lazy():
        asked.append(1)
        return hedge

    eager = simulate_rpc_exchange(attempts, timeout, hedge, issue_at)
    got = simulate_rpc_exchange(attempts, timeout, lazy, issue_at)
    assert got == eager  # frozen dataclass: field for field
    # The primary's own resolution time, walked independently.
    t, primary_done = 0.0, math.inf
    for elapsed, ok in attempts:
        if elapsed >= timeout:
            t += timeout
        elif ok:
            primary_done = t + elapsed
            break
        else:
            t += elapsed
    assert asked == ([] if primary_done <= issue_at else [1])


def _oracle_fan_out(keys, owners, excluded, recoveries):
    """The pre-one-sort routing and grouping: ``np.unique`` over the
    routing decision, then one mask pass per group."""
    chosen = owners[:, 0].copy()
    rerouted = 0
    if excluded:
        undecided = np.isin(chosen, list(excluded))
        for r in range(1, owners.shape[1]):
            if not undecided.any():
                break
            candidate = owners[undecided, r]
            usable = ~np.isin(candidate, list(excluded))
            idx = np.flatnonzero(undecided)[usable]
            chosen[idx] = owners[idx, r]
            undecided[idx] = False
    for node_id, restaged in sorted(recoveries.items()):
        mask = chosen == node_id
        if not mask.any():
            continue
        pending = ~restaged[keys[mask]]
        if not pending.any():
            continue
        idx = np.flatnonzero(mask)[pending]
        for r in range(1, owners.shape[1]):
            if idx.size == 0:
                break
            candidate = owners[idx, r]
            usable = (candidate != node_id) & ~np.isin(candidate, list(excluded))
            chosen[idx[usable]] = candidate[usable]
            idx = idx[~usable]
        rerouted += int(pending.sum()) - len(idx)
    groups = []
    for node_id in (int(x) for x in np.unique(chosen)):
        positions = np.flatnonzero(chosen == node_id)
        rows = owners[positions]
        hedge_node = None
        others = rows[:, 1:][rows[:, 1:] != node_id]
        if others.size:
            vals, counts = np.unique(others, return_counts=True)
            hedge_node = int(vals[np.argmax(counts)])
        groups.append((node_id, positions, keys[positions], rows, hedge_node))
    return groups, rerouted


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(1, 6),
    replication=st.integers(1, 3),
    n_keys=st.integers(0, 96),
    # stride 100 pushes node ids past int8: the sort falls back to full width.
    stride=st.sampled_from([1, 100]),
)
def test_one_sort_fan_out_matches_the_unique_flatnonzero_oracle(
    seed, n_nodes, replication, n_keys, stride
):
    rng = np.random.default_rng(seed)
    replication = min(replication, n_nodes)
    ids = np.arange(n_nodes) * stride
    table = rng.choice(ids, size=(200, replication))
    keys = rng.integers(0, len(table), size=n_keys).astype(np.int64)
    excluded = frozenset(rng.choice(ids, size=rng.integers(0, n_nodes)).tolist())
    recoveries = {
        int(node): rng.random(len(table)) < 0.5
        for node in rng.choice(ids, size=rng.integers(0, 3), replace=False)[:n_nodes]
    } if n_nodes >= 2 else {}
    # Stub nodes state the keyspace; the front-end builds its owner table
    # from the stub placement's ``owners_for`` over all of it.
    frontend = ClusterFrontend(
        [
            SimpleNamespace(node_id=int(i), cache=SimpleNamespace(num_entries=len(table)))
            for i in ids
        ],
        ClusterConfig(nodes=n_nodes, replication=replication),
        baseline_service=1.0,
        placement=SimpleNamespace(owners_for=lambda k: table[k]),
    )
    frontend.breakers.excluded_sources = lambda now: excluded
    frontend.refilling = {
        node: SimpleNamespace(restaged_keys=lambda k, m=mask: m[k])
        for node, mask in recoveries.items()
    }
    reg = MetricsRegistry("fan-out")
    order, groups = frontend._fan_out(keys, 0.0, reg)
    want, rerouted = _oracle_fan_out(keys, table[keys], excluded, recoveries)
    assert sorted(order.tolist()) == list(range(n_keys))
    assert (reg.value("repair.restage.rerouted_keys") or 0) == rerouted
    assert len(groups) == len(want)
    for (node, a, b, gkeys, rows, hedge), (w_node, w_pos, w_keys, w_rows, w_hedge) in zip(
        groups, want
    ):
        assert (node, hedge) == (w_node, w_hedge)
        assert np.array_equal(order[a:b], w_pos)
        assert np.array_equal(gkeys, w_keys)
        assert np.array_equal(rows, w_rows)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    replication=st.integers(1, 2),
    n_keys=st.integers(0, 300),
    fault=st.sampled_from(["down_nodes", "partitioned_nodes"]),
    faulted=st.frozensets(st.integers(0, 2), max_size=2),
    ejected=st.frozensets(st.integers(0, 2), max_size=3),
)
def test_one_pass_accounting_and_gather_match_the_per_group_owner_test(
    seed, replication, n_keys, fault, faulted, ejected
):
    """A served group's replica and host-table reads are what the owner
    test ``(rows == served_by).any(1)`` over its keys says, and every
    served row lands at its own request position."""
    frontend, table, _ = _mini_cluster(replication=replication)
    frontend.breakers.excluded_sources = lambda now: ejected
    owners = frontend.placement.owners_for(np.arange(N_ENTRIES, dtype=np.int64))
    served = []  # (serving node, keys) of every gathered group
    for node_id, node in frontend.nodes.items():
        def serve(batch, node_id=node_id, inner=node.serve):
            served.append((node_id, batch.keys))
            return inner(batch)
        node.serve = serve
    keys = np.random.default_rng(seed).integers(0, N_ENTRIES, n_keys)
    health = HealthView(**{fault: faulted})
    resp = frontend.serve(keys, now=0.0, health=health, execute=True)
    replica = host = 0
    for served_by, gkeys in served:
        rows = owners[gkeys]
        owner_hit = (rows == served_by).any(axis=1)
        replica += int((owner_hit & (rows[:, 0] != served_by)).sum())
        host += int((~owner_hit).sum())
    assert (resp.replica_keys, resp.host_fallback_keys) == (replica, host)
    assert resp.served == sum(len(g) for _, g in served) == n_keys - len(
        resp.failed_positions
    )
    want = table[keys]
    want[resp.failed_positions] = 0
    assert np.array_equal(resp.values, want)


def test_frontend_reproduces_the_recorded_node_kill_trace():
    golden_dir = pathlib.Path(__file__).parent / "golden"
    spec = importlib.util.spec_from_file_location(
        "generate_cluster_trace", golden_dir / "generate_cluster_trace.py"
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    recorded = json.loads((golden_dir / "cluster_nodekill_trace.json").read_text())
    replayed = generator.build()
    assert replayed.keys() == recorded.keys()
    for scenario, rows in recorded.items():
        for i, (want, got) in enumerate(zip(rows, replayed[scenario], strict=True)):
            assert got == want, f"{scenario} request {i} diverged from the old path"
    # The trace is worth pinning only while it walks the whole ladder.
    r2, r1 = recorded["replication-2"], recorded["replication-1"]
    assert sum(r["hedge_wins"] for r in r2) > 0
    assert sum(r["failovers"] for r in r2) > 0
    assert sum(r["host_fallback_keys"] for r in r1) > 0
    assert any(r["failed_positions"] for r in r2)


# ----------------------------------------------------------------------
# The acceptance gate: node-kill soak
# ----------------------------------------------------------------------
def test_node_kill_soak_keeps_goodput_through_failover():
    cfg = SoakConfig.quick(seed=0, scenario="node-kill", nodes=3, replication=2)
    report = run_soak(cfg)
    assert report.ok
    cluster = report.cluster
    assert cluster.nodes == 3 and cluster.replication == 2
    assert cluster.failover_goodput_ratio >= FAILOVER_GOODPUT_FLOOR
    assert report.integrity_failures == 0
    assert cluster.rebalance_bytes > 0, "a healed node must re-stage its shard"
    assert cluster.rpc_timeouts > 0, "the kill window must actually bite"
    assert cluster.hedges > 0 and cluster.hedge_wins > 0
    assert set(cluster.node_requests) == {"0", "1", "2"}
    # The dead node lost traffic to its replicas.
    assert cluster.node_requests["1"] < cluster.node_requests["0"]
    doc = report.to_dict()
    assert doc["schema"] == "repro.soak/v2"
    assert doc["cluster"]["failover_goodput_ratio"] >= FAILOVER_GOODPUT_FLOOR
    assert "box" not in doc and "repair" not in doc


def _watch_node_1(scenario: str, monkeypatch):
    """A quick R=2 soak of ``scenario`` with eyes on node 1: the report,
    ``(inside a node-1 fault window, node 1's GPU-cached bytes)`` after
    each arrival, and the bytes every refill grant staged."""
    from repro.repair import restage

    granted = []
    grant = restage.StagedRecovery.grant

    def counted(self, idle_seconds):
        staged = grant(self, idle_seconds)
        granted.append(staged.bytes)
        return staged

    monkeypatch.setattr(restage.StagedRecovery, "grant", counted)
    soak = ClusterSoak(SoakConfig.quick(
        seed=0, scenario=scenario, nodes=3, replication=2
    ))
    node = soak.frontend.nodes[1]
    windows = [(f.onset, f.clears_at) for f in soak.plan.faults if f.node == 1]
    seen = []
    arrive = soak.arrive

    def watched(t, seq, client):
        again = arrive(t, seq, client)
        cached = sum(
            len(node.cache.store(g).cached_entries())
            for g in range(node.platform.num_gpus)
        )
        seen.append((in_windows(t, windows), cached * node.cache.entry_bytes))
        return again

    soak.arrive = watched
    return drive(soak), seen, sum(granted)


def test_a_dead_node_loses_its_caches_and_refills_them(monkeypatch):
    """Bytes obey the node's death: nothing stays cached while it is
    down, and what the report calls rebalanced is what the refill staged."""
    report, seen, granted = _watch_node_1("node-kill", monkeypatch)
    down = [cached for inside, cached in seen if inside]
    assert down and set(down) == {0}
    assert seen[0][1] > 0 and seen[-1][1] > 0
    assert report.cluster.rebalance_bytes == granted > 0
    assert report.cluster.restage_blocks > 0


def test_a_partitioned_node_keeps_its_caches(monkeypatch):
    report, seen, granted = _watch_node_1("node-partition", monkeypatch)
    assert any(inside for inside, _ in seen)
    assert len({cached for _, cached in seen}) == 1 and seen[0][1] > 0
    assert report.cluster.rebalance_bytes == granted == 0


# ----------------------------------------------------------------------
# Node faults: the chaos drills, run as cluster soaks
# ----------------------------------------------------------------------
NODE_ROWS = ("node-kill", "node-flap", "node-partition", "heal-storm")
LOOPS = {"open": False, "closed": True}


@functools.lru_cache(maxsize=None)
def _node_soak(scenario: str, loop: str) -> tuple[ClusterSoak, object, int]:
    """A quick R=2 soak of ``scenario`` at seed 0: the harness, its
    report, and the most staged refills that were ever in flight at once."""
    soak = ClusterSoak(SoakConfig.quick(
        seed=0, scenario=scenario, nodes=3, replication=2,
        closed_loop=LOOPS[loop],
    ))
    lifecycle, peak = soak.lifecycle, [0]
    step = lifecycle.step

    def counted(*args, **kwargs):
        step(*args, **kwargs)
        peak[0] = max(peak[0], len(lifecycle._refills))

    lifecycle.step = counted
    return soak, drive(soak), peak[0]


@pytest.mark.faults
class TestNodeFaultSoaks:
    """The node-fault drills: a 3-node R=2 cluster loses a whole node
    (cleanly, flapping, by partition, or in a staggered storm) and keeps
    answering bit-exactly, then returns to pre-onset latency."""

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize(
        "scenario", [*NODE_ROWS, "node-slow", "node-kill-bit-rot"]
    )
    def test_every_node_row_passes_the_drills_gates(self, scenario, loop):
        soak, report, _ = _node_soak(scenario, loop)
        cluster = report.cluster
        assert report.ok
        assert report.requests == soak.arrived == len(soak.records)
        assert cluster.partial_responses == 0
        assert cluster.cleared_latency_ratio <= DEFAULT_RECOVERY_TOLERANCE

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("scenario", NODE_ROWS)
    def test_soak_passes_and_recovers(self, scenario, loop):
        _, report, _ = _node_soak(scenario, loop)
        cluster = report.cluster
        assert report.ok
        assert cluster.corrupt_values_served == 0
        assert report.integrity_failures == 0
        assert cluster.replica_read_fraction > 0 or cluster.host_fallback_keys > 0, (
            "the fault must push keys off-primary"
        )
        assert cluster.fault_latency_ratio > 1.0  # hedged reads are slower
        assert cluster.cleared_latency_ratio == pytest.approx(1.0, rel=0.1)
        assert cluster.cleared_latency_ratio <= DEFAULT_RECOVERY_TOLERANCE

    def test_node_flap_schedules_two_stints(self):
        plan = build_soak_plan("node-flap", 1.0)
        assert len(plan) == 2
        (first, second) = sorted(plan, key=lambda f: f.onset)
        assert first.clears_at < second.onset, "the node must come back between"

    @pytest.mark.parametrize("loop", LOOPS)
    def test_node_flap_brings_the_node_back_between_stints(self, loop):
        """Unless node 1 answers some request between its stints, the
        flap is one unbroken outage."""
        soak = ClusterSoak(SoakConfig.quick(
            seed=0, scenario="node-flap", nodes=3, replication=2,
            closed_loop=LOOPS[loop],
        ))
        first, second = sorted(soak.plan.faults, key=lambda f: f.onset)
        node, now, answered = soak.frontend.nodes[1], [0.0], []
        serve, arrive = node.serve, soak.arrive

        def watched_serve(batch):
            answered.append(now[0])
            return serve(batch)

        def watched_arrive(t, seq, client):
            now[0] = t
            return arrive(t, seq, client)

        node.serve, soak.arrive = watched_serve, watched_arrive
        assert drive(soak).ok
        assert any(first.clears_at <= t < second.onset for t in answered)
        assert not any(
            f.onset <= t < f.clears_at for f in (first, second) for t in answered
        )

    def test_a_death_restages_and_a_partition_does_not(self):
        """Every node row runs under the node lifecycle: a dead node
        loses its GPU caches and refills them, a partitioned one keeps
        them."""
        assert _node_soak("node-kill", "open")[1].cluster.restage_blocks > 0
        assert _node_soak("node-partition", "open")[1].cluster.restage_blocks == 0

    def test_node_plans_target_a_node_not_a_gpu(self):
        for scenario in CLUSTER_SCENARIOS:
            for spec in build_soak_plan(scenario, 1.0):
                if spec.kind is not FaultKind.BIT_ROT:
                    assert spec.node is not None
                assert spec.gpu is None

    def test_heal_storm_overlaps_two_refills(self):
        """Node 2 dies while node 1's refill is still staging, so two
        refills are in flight at once."""
        assert _node_soak("heal-storm", "open")[2] >= 2


def test_closed_loop_cluster_soak_runs_through_its_fault_window():
    """Closed-loop clients pace at the healthy round trip, wire included,
    so the run serves about its nominal request count and some requests
    arrive while the partition is on."""
    cfg = SoakConfig.quick(
        seed=0, scenario="node-partition", nodes=3, replication=2,
        closed_loop=True,
    )
    soak = ClusterSoak(cfg)
    report = drive(soak)
    assert report.ok
    assert report.requests >= cfg.requests_per_gpu * cfg.nodes / 2
    windows = [(f.onset, f.clears_at) for f in soak.plan.faults]
    assert any(in_windows(r.arrival, windows) for r in soak.records)


def test_a_late_response_with_a_wrong_row_fails_the_report(monkeypatch):
    """Served rows are checked whatever became of the request: a whole
    but late answer carrying one flipped value is an integrity failure,
    repair layer or not."""
    from dataclasses import replace

    honest = ClusterFrontend.serve
    calls = []

    def late_and_wrong_once(self, keys, now, **kwargs):
        resp = honest(self, keys, now, **kwargs)
        calls.append(now)
        if len(calls) == 3:
            assert resp.ok
            values = resp.values.copy()
            values[0, 0] += 1.0
            resp = replace(resp, elapsed=1e9 * resp.elapsed, values=values)
        return resp

    cfg = SoakConfig.quick(
        scenario="node-kill", nodes=3, replication=2, requests_per_gpu=40
    )
    assert run_soak(cfg).ok
    monkeypatch.setattr(ClusterFrontend, "serve", late_and_wrong_once)
    report = run_soak(cfg)
    assert report.expired >= 1
    assert report.cluster.corrupt_values_served == 1
    assert report.integrity_failures == 1 and not report.ok


def test_cluster_soak_config_validation():
    with pytest.raises(ValueError, match="nodes"):
        SoakConfig.quick(scenario="node-kill", nodes=1, replication=1)
    with pytest.raises(ValueError, match="replication"):
        SoakConfig.quick(scenario="node-kill", nodes=2, replication=3)
    with pytest.raises(ValueError, match="scenario"):
        SoakConfig.quick(
            scenario="dgx_a100_partial_failure", nodes=3, replication=2
        )


class TestServeCallBudget:
    """Python-level calls of one warm, healthy cluster request: routing is a
    range check and one ``take``, the stages time without a context object
    and instruments record with an append."""

    def test_one_warm_request(self, count_calls):
        frontend, table, keys = _mini_cluster()
        serve = lambda: frontend.serve(keys, now=0.0, execute=True)  # noqa: E731
        with use_registry(MetricsRegistry("budget")):
            for _ in range(server_a().num_gpus):
                serve()  # warm: every ingress GPU's memo, the instruments
            calls = count_calls(serve)
            resp = serve()
        assert resp.ok and len(frontend._fan_out(keys, 0.0, None)[1]) == 3  # three groups
        assert np.array_equal(resp.values, table[keys])
        # 1047 with owners_for per request, timer contexts and locked
        # instruments; 874 with the owner table, context-free stage timing
        # and append-instruments; 774 with the hedge targets, ban flags,
        # owner accounting and gather done once per request.
        assert calls <= 774, calls
