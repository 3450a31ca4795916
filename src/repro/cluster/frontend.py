"""The cluster front-end: fan-out, gather, failover, graceful degradation.

:class:`ClusterFrontend` is the request router above the node tier.  One
request's keys are routed by one ``take`` from a dense ``(N, R)`` owner
table, built once from the consistent-hash ring or the solver-driven
:class:`~repro.cluster.placement.NodePlacement` (both expose the same
``owners_for`` surface), and fanned out as one RPC exchange per node.
Bans and hedge targets are set once over the request's keys, and each
group's rows gather straight into their request positions; the request's
latency is the slowest leg, exactly like a source group inside a single box.

Degradation ladder, per node-group — the group is admitted (ingress GPU
picked, keys planned: :meth:`CacheNode.admit`) at most once per node it
visits, every leg is priced off that batch and the gather executes it:

1. **primary exchange** — timeout + a retry + a hedged
   duplicate to the next replica, priced only if the primary is still
   unresolved when the hedge would be sent
   (:func:`~repro.sim.event_sim.simulate_rpc_exchange`);
2. **failover**, one walk — if the exchange dies, the first reachable of
   the group's other replica owners serves it, else *any* reachable node
   from its full host table (every node is a parameter server for the
   whole keyspace — slower, never wrong); either counts as a failover;
3. **partial response** — only when no node is reachable at all do the
   group's keys come back unserved.

Per-node :class:`~repro.serve.breaker.CircuitBreaker`\\ s (the same board
the single-box runtime uses per-source, keyed by node id) eject nodes
that keep failing, so repeated timeouts stop burning deadline budget on a
corpse; half-open probes re-admit a healed node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import ClassVar

import numpy as np

from repro.cluster.node import CacheNode
from repro.cluster.placement import (
    NodePlacement,
    solve_node_placement,
)
from repro.cluster.ring import HashRing
from repro.cluster import rpc
from repro.faults.spec import HEALTHY, HealthView
from repro.obs import get_registry
from repro.serve.breaker import BreakerBoard, BreakerConfig
from repro.sim.event_sim import simulate_rpc_exchange
from repro.utils.logging import get_logger

logger = get_logger("cluster.frontend")

__all__ = ["ClusterConfig", "ClusterFrontend", "ClusterResponse"]


def _counters(reg, key, names, **labels) -> tuple:
    """``cluster.<name>`` counters, looked up once per registry."""
    return reg.handle(
        ("cluster", key),
        lambda: tuple(reg.counter(f"cluster.{name}", **labels) for name in names),
    )


def _next_owner(chosen, owners, idx, banned) -> np.ndarray:
    """Move keys ``idx`` of ``chosen`` to their first replica owner not
    ``banned`` (a flag per node id), in place; returns the rest, unmoved."""
    for r in range(1, owners.shape[1]):
        if not idx.size:
            break
        candidate = owners[idx, r]
        usable = ~banned[candidate]
        chosen[idx[usable]] = candidate[usable]
        idx = idx[~usable]
    return idx


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the cluster tier.

    Attributes:
        nodes: cache-server nodes.
        replication: replicas per key across nodes.
        placement: ``"ring"`` (consistent hashing) or ``"solver"``
            (hotness-balanced node placement above the per-GPU MILP).
        breaker: per-node circuit-breaker thresholds.
        seed: seeds the ring's hash.
    """

    nodes: int = 3
    replication: int = 2
    placement: str = "ring"
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    seed: int = 0
    #: the RPC model (not a field: ``benchmarks/e2e`` reads
    #: ``config.rpc.healthy_leg`` to scale its deadlines).
    rpc: ClassVar = rpc

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("need at least one node")
        if not 1 <= self.replication <= self.nodes:
            raise ValueError(
                f"replication must be in [1, {self.nodes}], "
                f"got {self.replication}"
            )
        if self.placement not in ("ring", "solver"):
            raise ValueError(
                f"placement must be 'ring' or 'solver', got {self.placement!r}"
            )


@dataclass
class ClusterResponse:
    """What one fanned-out request came back with."""

    elapsed: float = 0.0
    requested: int = 0
    served: int = 0
    #: keys served by a non-primary owner (failover or hedge win).
    replica_keys: int = 0
    #: keys served from a non-owner's host table (no surviving replica).
    host_fallback_keys: int = 0
    #: node-groups rerouted to a replica after their exchange failed.
    failovers: int = 0
    rpc_retries: int = 0
    rpc_timeouts: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    #: gathered values (``execute=True`` only); unserved rows are zero.
    values: np.ndarray | None = None
    #: positions within the request that nobody could serve.
    failed_positions: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    @property
    def partial(self) -> bool:
        return self.served < self.requested

    @property
    def ok(self) -> bool:
        return self.served == self.requested

    def wrong_rows(self, keys: np.ndarray, table: np.ndarray) -> int:
        """How many of the rows :attr:`values` claims to have served for
        ``keys`` differ from ``table``'s."""
        served = np.ones(len(keys), dtype=bool)
        served[self.failed_positions] = False
        return int(
            (self.values[served] != table[keys[served]]).any(axis=1).sum()
        )


class ClusterFrontend:
    """Routes requests across :class:`CacheNode`\\ s with replicated failover."""

    def __init__(
        self,
        nodes: list[CacheNode],
        config: ClusterConfig,
        baseline_service: float,
        hotness: np.ndarray | None = None,
        placement: "HashRing | NodePlacement | None" = None,
    ) -> None:
        if len(nodes) != config.nodes:
            raise ValueError(f"need {config.nodes} nodes, got {len(nodes)}")
        self.nodes = {n.node_id: n for n in nodes}
        self.config = config
        self.s0 = float(baseline_service)
        self.placement: HashRing | NodePlacement = (
            placement
            if placement is not None
            else self.build_placement(config, hotness)
        )
        entries = {n.cache.num_entries for n in nodes}
        if len(entries) != 1:
            raise ValueError(f"nodes disagree on the keyspace: {sorted(entries)}")
        # Every key's owners, primary first: one byte per owner when the
        # ids fit, so the routing sort below is a one-pass radix sort.
        owners = self.placement.owners_for(np.arange(entries.pop(), dtype=np.int64))
        narrow = owners.astype(np.int8)
        self._owners = narrow if (narrow == owners).all() else owners
        # Ban flags and hedge tallies index by node id (ids need not be dense).
        self._ids = max(int(owners.max(initial=0)), *self.nodes) + 1
        self.breakers = BreakerBoard(
            sources=sorted(self.nodes), config=config.breaker
        )
        #: node id → its :class:`~repro.repair.restage.StagedRecovery` in
        #: flight: such a node takes reads only for keys its refill has
        #: already re-staged; the rest keep going to replica owners until
        #: the refill catches up.
        self.refilling: dict = {}

    @staticmethod
    def build_placement(
        config: ClusterConfig, hotness: np.ndarray | None = None
    ) -> "HashRing | NodePlacement":
        """The owner table for ``config``: ring or solver-driven."""
        if config.placement == "solver":
            if hotness is None:
                raise ValueError("solver placement needs the hotness profile")
            return solve_node_placement(hotness, config.nodes, config.replication)
        return HashRing(config.nodes, config.replication, seed=config.seed)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _leg(
        self, candidate: int, keys: np.ndarray, health: HealthView, batches: dict
    ) -> tuple[float, bool]:
        """One attempt at ``candidate`` as ``(elapsed, ok)``; the group is
        admitted there at most once (``batches``: node id → admitted batch)."""
        node = self.nodes[candidate]
        if candidate not in batches:
            batches[candidate] = node.admit(keys)
        return rpc.attempt_profile(
            candidate, node.service_seconds(batches[candidate]),
            health, len(keys) * node.cache.entry_bytes,
        )

    def _exchange(
        self, node_id: int, keys: np.ndarray, health: HealthView,
        hedge_node: int | None, batches: dict,
    ):
        """Run one node-group's RPC exchange; returns the sim result."""
        profile = self._leg(node_id, keys, health, batches)
        # Timeout/hedge scale from this group's fault-free leg, so they
        # stay meaningful whether the wire or the extraction dominates.
        leg = rpc.healthy_leg(
            batches[node_id].seconds,
            len(keys) * self.nodes[node_id].cache.entry_bytes,
        )
        timeout = rpc.TIMEOUT_FACTOR * leg

        def hedge_time() -> float | None:
            # Asked for only when the hedge would be sent: a leg that lands
            # by ``hedge_issue_at`` never plans its keys on the replica.
            h_elapsed, h_ok = self._leg(hedge_node, keys, health, batches)
            return h_elapsed if h_ok and h_elapsed < timeout else None

        hedgeable = hedge_node is not None and health.node_reachable(hedge_node)
        return simulate_rpc_exchange(
            [profile] * rpc.RETRY,
            timeout=timeout,
            hedge_time=hedge_time if hedgeable else None,
            hedge_issue_at=rpc.HEDGE_FACTOR * leg,
        )

    def _fan_out(self, keys: np.ndarray, now: float, reg) -> tuple[np.ndarray, list]:
        """Route ``keys`` to nodes and cut the request into node-groups.

        Returns ``(order, groups)``: ``order`` sorts the request by serving
        node and each group is ``(node_id, start, end, keys, owner_rows,
        hedge_node)`` over that order — nodes and positions ascending, the
        arrays slices of one sorted copy.
        """
        # Seen unsigned a negative key is the largest: it raises here, before
        # any node is admitted, instead of wrapping onto entry N - 1.
        if len(keys) and keys.view(np.uint64).max() >= len(self._owners):
            raise KeyError("key out of range")
        owners = self._owners.take(keys, axis=0)  # (n, R)
        excluded = self.breakers.excluded_sources(now)
        banned = np.zeros(self._ids, dtype=bool)
        banned[list(excluded)] = True
        # Route each key at its first non-ejected owner (primary bias).
        chosen = owners[:, 0].copy()
        if excluded:
            # every owner ejected: probe the primary anyway — the
            # breaker board's half-open metering decides admission.
            _next_owner(chosen, owners, np.flatnonzero(banned[chosen]), banned)
        if self.refilling:
            # A refilling node takes reads only for shards its staged
            # refill has already re-staged; un-restaged keys keep flowing
            # to replica owners.
            for refilling, rec in sorted(self.refilling.items()):
                routed = np.flatnonzero(chosen == refilling)
                pending = routed[~rec.restaged_keys(keys[routed])]
                # Keys with no other owner stay put: the refilling node
                # serves them from its host table — slower, still bit-exact.
                ban = banned.copy()
                ban[refilling] = True
                stuck = _next_owner(chosen, owners, pending, ban)
                if len(pending) > len(stuck):
                    reg.counter("repair.restage.rerouted_keys").inc(
                        len(pending) - len(stuck)
                    )
        # One stable sort of the routing decision; each run of equal ids
        # is a group.
        order = chosen.argsort(kind="stable")
        by_node, by_keys = chosen.take(order), keys.take(order)
        by_owners = owners.take(order, axis=0)
        cuts = (np.flatnonzero(by_node[1:] != by_node[:-1]) + 1).tolist()
        starts = [0, *cuts] if len(order) else []
        # Hedge target: each serving node's modal other owner, from one
        # (serving node, owner) tally; argmax breaks ties to the lowest id.
        n = self._ids
        pairs = chosen.astype(np.intp)[:, None] * n + owners[:, 1:]
        tally = np.bincount(pairs.ravel(), minlength=n * n).reshape(n, n)
        tally.flat[:: n + 1] = 0  # a node never hedges to itself
        hedge = [h if tally[i, h] else None for i, h in enumerate(tally.argmax(1).tolist())]
        return order, [
            (node_id, a, b, by_keys[a:b], by_owners[a:b], hedge[node_id])
            for node_id, a, b in zip(by_node[starts].tolist(), starts, [*cuts, len(order)])
        ]

    def serve(
        self,
        keys: np.ndarray,
        now: float,
        health: HealthView = HEALTHY,
        execute: bool = False,
    ) -> ClusterResponse:
        """Fan one request out, gather partial responses, degrade gracefully."""
        reg = get_registry()
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        resp = ClusterResponse(requested=len(keys))
        seconds = reg.cached("histogram", "pipeline.fanout.seconds")
        start = perf_counter()
        try:
            order, groups = self._fan_out(keys, now, reg)
            if execute:
                cache = next(iter(self.nodes.values())).cache
                resp.values = np.zeros((len(keys), cache.dim), cache.host_table.dtype)
            failed: list[np.ndarray] = []
            for node_id, a, b, gkeys, rows, hedge_node in groups:
                batches: dict = {}  # node id → the group's one admitted batch there
                result = self._exchange(node_id, gkeys, health, hedge_node, batches)
                resp.rpc_retries += max(0, result.attempts - 1)
                resp.rpc_timeouts += result.timeouts
                if result.hedged:
                    resp.hedges += 1
                primary_ok = result.ok and result.winner == "primary"
                self.breakers.record(node_id, primary_ok, now)
                elapsed = result.total_time
                served_by: int | None = None
                if result.ok:
                    served_by = node_id
                    if result.hedge_won:
                        resp.hedge_wins += 1
                        served_by = hedge_node
                else:
                    # One walk down the ladder: the group's other owner
                    # columns (replica failover), then every other node
                    # (host fallback: any reachable node's DRAM covers the
                    # whole keyspace); the first that answers serves.
                    for candidate in dict.fromkeys(
                        [*rows[0, 1:].tolist(), *sorted(self.nodes)]
                    ):
                        if candidate == node_id or not health.node_reachable(candidate):
                            continue
                        f_elapsed, f_ok = self._leg(candidate, gkeys, health, batches)
                        if f_ok:
                            served_by = candidate
                            elapsed += f_elapsed
                            resp.failovers += 1
                            break
                # Fan-out is concurrent: the request lands with its slowest leg.
                resp.elapsed = max(resp.elapsed, elapsed)
                if served_by is None:
                    failed.append(order[a:b])
                    continue
                # Positional accounting: a key read from a non-primary
                # owner is a replica read (reroute, hedge win or failover);
                # one read from a non-owner came off a host table, which the
                # node a group was routed to never is (routing picks owners).
                if served_by == node_id:
                    resp.replica_keys += int(np.count_nonzero(rows[:, 0] != node_id))
                else:
                    owner_hit = (rows == served_by).any(axis=1)
                    resp.replica_keys += int(
                        (owner_hit & (rows[:, 0] != served_by)).sum()
                    )
                    resp.host_fallback_keys += int((~owner_hit).sum())
                resp.served += len(gkeys)
                if execute:
                    # Gathers exactly the plan the exchange priced.
                    got = self.nodes[served_by].serve(batches[served_by])[0]
                    resp.values[order[a:b]] = got
                node_requests, node_keys = _counters(
                    reg, ("node", served_by), ("node.requests", "node.keys"),
                    node=served_by,
                )
                node_requests.inc()
                node_keys.inc(len(gkeys))
            if failed:
                resp.failed_positions = np.concatenate(failed)
        finally:
            seconds.observe(perf_counter() - start)
        totals = {
            "requests": 1, "failovers": resp.failovers,
            "replica_read_keys": resp.replica_keys,
            "host_fallback_keys": resp.host_fallback_keys,
            "rpc.retries": resp.rpc_retries, "rpc.timeouts": resp.rpc_timeouts,
        }
        for counter, n in zip(_counters(reg, "frontend", totals), totals.values()):
            counter.inc(n)
        if resp.partial:
            reg.counter("cluster.partial_responses").inc()
        return resp

    def verify_integrity(self) -> list[str]:
        """Every node's cache reconciliation, concatenated."""
        violations: list[str] = []
        for node_id in sorted(self.nodes):
            for v in self.nodes[node_id].verify_integrity():
                violations.append(f"node {node_id}: {v}")
        return violations
