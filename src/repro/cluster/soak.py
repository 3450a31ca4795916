"""Cluster soak: sustained traffic through the fan-out front-end under
node-level chaos.

``python -m repro soak --nodes N --replication R`` lands here
(``--nodes 1`` never enters this module).  The single-box soak's traffic
loop, :func:`~repro.serve.soak.drive_arrivals`, hands Poisson arrivals
(open loop) or a fixed client population's resubmits (closed loop) to
this module's arrival handler, which sends each request through
:class:`~repro.cluster.frontend.ClusterFrontend` on a simulated clock
while a node-kill/partition/flap fault plan takes whole nodes away
mid-run, and — the part the CI gate cares about — measures goodput
*during* the failover window, not just after recovery:

* requests are bucketed into steady time (no node fault active) and the
  failover window (some node fault active);
* ``failover_goodput_ratio`` is the OK-rate inside the window over the
  steady OK-rate; the report's ``ok`` gate requires ≥ 70%;
* every served value is checked bit-exact against the host table, and
  every node's cache is reconciled (``verify_integrity``) after recovery;
* a healed node re-stages its GPU caches from DRAM — the bytes show up
  as ``rebalance_bytes`` (and the ``cluster.rebalance.bytes`` counter);
* the run's own bookkeeping is gated like the single-box soak's time
  physics: no response takes negative time, every requested key is
  either served or reported failed, and every request ends in exactly
  one of ok / expired / failed — a breach is an integrity failure.

With ``--repair`` the self-healing layer (:mod:`repro.repair`) rides
along: node death actually *drops* the dead node's GPU caches, heals
refill them either all at once (``--restage burst``, the baseline) or in
hotness-ordered blocks under an idle-link-time budget (``--restage
staged``); every node runs an anti-entropy scrubber plus a read guard
(so bit-rot chaos can never serve a corrupt value), and a node-lifecycle
watchdog steers the front-end's routing while a node is RECOVERING.
Requests inside a post-heal recovery window are bucketed separately and
gated: ``recovery_goodput_ratio`` must stay ≥ 85% of steady.

:func:`build_cluster` is the one place a cluster is assembled and
:class:`NodeLifecycle` the one place a node's death and heal are acted
on; the chaos ``node_*`` and ``heal-storm`` drills use both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.frontend import ClusterConfig, ClusterFrontend
from repro.cluster.node import CacheNode
from repro.core.policy import Placement
from repro.faults.injector import FaultInjector
from repro.faults.spec import HEALTHY, FaultKind, FaultPlan, HealthView
from repro.obs import get_registry
from repro.repair import CacheScrubber, NodeWatchdog, StagedRecovery
from repro.serve.soak import (
    SOAK_SCENARIOS,
    SoakConfig,
    SoakReport,
    Stack,
    _chain_label,
    _soak_platform,
    build_soak_plan,
    build_stack,
    drive_arrivals,
    poisson_schedule,
)
from repro.utils.logging import get_logger
from repro.utils.rng import make_rng, spawn_rngs

logger = get_logger("cluster.soak")

__all__ = [
    "FAILOVER_GOODPUT_FLOOR",
    "NodeLifecycle",
    "build_cluster",
    "run_cluster_soak",
]

#: Minimum fraction of steady-state goodput the failover window must keep
#: (the acceptance gate enforced by ``SoakReport.ok`` for cluster runs).
FAILOVER_GOODPUT_FLOOR = 0.70


def _node_fault_windows(plan) -> list[tuple[float, float]]:
    """(onset, clear) for every node-scoped fault in the plan."""
    if plan is None:
        return []
    kinds = (FaultKind.NODE_DOWN, FaultKind.NODE_SLOW, FaultKind.NODE_PARTITION)
    return [(f.onset, f.clears_at) for f in plan if f.kind in kinds]


def _in_any_window(t: float, windows: list[tuple[float, float]]) -> bool:
    return any(a <= t < b for a, b in windows)


def _node_counter_values(reg, name: str) -> dict[str, int]:
    """Per-``node``-label values of one counter (registry is cumulative
    across runs in a process, so callers diff two of these snapshots)."""
    series = getattr(reg, "series", None)
    if series is None:
        return {}
    return {
        str(dict(s.labels).get("node")): int(s.value)
        for s in series()
        if s.kind == "counter" and s.name == name
    }


@dataclass
class Cluster:
    """What :func:`build_cluster` hands the cluster soak and chaos drills."""

    stack: Stack
    frontend: ClusterFrontend
    #: healthy extraction time of one probe batch on node 0: the time unit.
    s0: float


@dataclass
class _Refill:
    """One staged refill in flight: its plan, when it began, and the idle
    link time banked towards its next block."""

    plan: StagedRecovery
    start: float
    credit: float = 0.0


def build_cluster(cfg, platform, nodes: int, replication: int,
                  placement: str = "ring", load: float | None = None) -> Cluster:
    """Stack prelude → owner table → one :class:`CacheNode` per shard →
    ``s0`` probe → front-end.

    ``cfg`` as for :func:`~repro.serve.soak.build_stack`.  With ``load``
    (offered load as a fraction of the cluster's capacity) the node
    breakers' cooldown moves onto the *simulated* clock: the default
    wall-clock seconds would outlast a whole soak, so an ejected node
    could never re-admit probes; ~50 mean inter-arrival times keeps a few
    probe rounds inside even a quick soak's fault window.
    """
    stack = build_stack(cfg, platform, fill=False)
    config = ClusterConfig(
        nodes=nodes, replication=replication, placement=placement, seed=cfg.seed
    )
    # The owner table comes first so each node knows its shard; the
    # front-end then adopts the very same table.
    owner_table = ClusterFrontend.build_placement(config, stack.hotness)
    owners = owner_table.owners_for(np.arange(cfg.num_entries, dtype=np.int64))
    cache_nodes = [
        CacheNode(
            node_id=node_id,
            platform=platform,
            table=stack.table,
            hotness=stack.hotness,
            # Solver placements may wide-replicate a hot head beyond the
            # owner columns; membership comes from the placement when it
            # can say, from the owner table otherwise (the ring).
            member_mask=(
                owner_table.member_mask(node_id)
                if hasattr(owner_table, "member_mask")
                else (owners == node_id).any(axis=1)
            ),
            capacity_entries=stack.capacity,
            placement_mode="solver" if placement == "solver" else "greedy",
        )
        for node_id in range(nodes)
    ]
    # Priced on GPU 0, where node 0's ingress round-robin starts, without
    # admitting the probe: the pointer never moves.
    probe = make_rng(cfg.seed + 3).choice(
        cfg.num_entries, size=cfg.batch_keys, p=stack.pmf
    )
    s0 = cache_nodes[0].extractor.price(0, probe).time
    if load is not None:
        rate = load * nodes / s0
        config = replace(
            config, breaker=replace(config.breaker, cooldown_seconds=50.0 / rate)
        )
    frontend = ClusterFrontend(
        cache_nodes, config, baseline_service=s0,
        hotness=stack.hotness, placement=owner_table,
    )
    return Cluster(stack, frontend, s0)


class NodeLifecycle:
    """The repair layer riding a cluster front-end: what happens to each
    node's GPU caches as the fault plan kills and heals it.

    Attaches a :class:`NodeWatchdog` to the front-end and a
    :class:`CacheScrubber` (read guard included) to every node.  A death
    *drops* the node's GPU caches; a heal refills them — all at once
    (``restage="burst"``: the node serves nothing until the refill lands)
    or as a :class:`StagedRecovery` of hotness-ordered blocks that spends
    only idle link time; a death mid-refill folds the refill's remainder
    into the next one.  :meth:`step` once per request, :meth:`finish` once
    after the last.
    """

    def __init__(self, frontend: ClusterFrontend, hotness: np.ndarray,
                 restage: str = "staged", chunk_entries: int = 256,
                 credit_cap: float = math.inf) -> None:
        self.frontend = frontend
        self.hotness = hotness
        self.restage = restage
        self.chunk_entries = chunk_entries
        #: most idle link time a refill may bank between steps.
        self.credit_cap = credit_cap
        self.watchdog = NodeWatchdog(sorted(frontend.nodes))
        frontend.watchdog = self.watchdog
        self.scrubbers: dict[int, CacheScrubber] = {}
        for node_id, node in frontend.nodes.items():
            self.scrubbers[node_id] = CacheScrubber(node.cache, node=node_id)
            node.read_guard = self.scrubbers[node_id]
        self.restage_bytes = 0
        self.restage_blocks = 0
        #: closed ``(start, end)`` spans during which some node refilled.
        self.recovery_windows: list[tuple[float, float]] = []
        self._prev_down: frozenset[int] = frozenset()
        self._lost: dict[int, Placement] = {}
        self._refills: dict[int, _Refill] = {}
        self._busy_until: dict[int, float] = {}

    @property
    def recovering(self) -> bool:
        """Whether a staged refill is in flight."""
        return bool(self._refills)

    def _account(self, grant) -> None:
        self.restage_bytes += grant.bytes
        self.restage_blocks += grant.blocks

    def _observe(self, t: float, health: HealthView) -> None:
        self.watchdog.observe(
            t, health, self.frontend.breakers.states(),
            {n: s.quarantine_depth for n, s in self.scrubbers.items()},
        )

    def step(self, t: float, health: HealthView,
             idle_seconds: float) -> HealthView:
        """Apply the deaths and heals ``health`` shows at ``t``, spend
        ``idle_seconds`` more link time on every refill in flight, tick
        the scrubbers and the watchdog.  Returns the health view to serve
        under (a burst-refilling node counts as down)."""
        for node_id in sorted(health.down_nodes - self._prev_down):
            dropped = self.frontend.nodes[node_id].drop_gpu_caches()
            if node_id in self._refills:
                # Died again mid-refill: void the plan; the next heal
                # cuts a fresh one over the union, so the tail of the
                # interrupted refill is not forgotten.
                cut = self._refills.pop(node_id)
                rem = cut.plan.remaining_placement()
                dropped = Placement(
                    num_entries=dropped.num_entries,
                    per_gpu=tuple(
                        np.union1d(a, b)
                        for a, b in zip(dropped.per_gpu, rem.per_gpu)
                    ),
                )
                self.recovery_windows.append((cut.start, t))
            self._lost[node_id] = dropped
        for node_id in sorted(self._prev_down - health.down_nodes):
            rec = StagedRecovery(
                self.frontend.nodes[node_id], self._lost.pop(node_id),
                self.hotness, chunk_entries=self.chunk_entries,
            )
            if self.restage == "burst":
                grant = rec.finish()
                self._account(grant)
                self._busy_until[node_id] = t + grant.cost_seconds
                self.recovery_windows.append((t, t + grant.cost_seconds))
                logger.info(
                    "node %d healed at t=%.3g: burst re-staged %d bytes, "
                    "slow until t=%.3g",
                    node_id, t, grant.bytes, self._busy_until[node_id],
                )
            else:
                self._refills[node_id] = _Refill(rec, start=t)
                self.watchdog.attach_recovery(node_id, rec)
                logger.info(
                    "node %d healed at t=%.3g: staged refill of %d entries "
                    "in %d blocks begins",
                    node_id, t, rec.remaining_entries, rec.blocks_total,
                )
        self._prev_down = health.down_nodes
        # Staged refills spend only idle link time; the credit accrues
        # between steps and whole blocks stage when it covers their
        # priced transfer.
        for node_id, refill in list(self._refills.items()):
            refill.credit = min(refill.credit + idle_seconds, self.credit_cap)
            grant = refill.plan.grant(refill.credit)
            if grant.blocks:
                refill.credit -= grant.cost_seconds
                self._account(grant)
            if refill.plan.done:
                self.recovery_windows.append((refill.start, t))
                del self._refills[node_id]
        for scrubber in self.scrubbers.values():
            scrubber.tick(t)
        self._observe(t, health)
        for node_id in [n for n, u in self._busy_until.items() if t >= u]:
            del self._busy_until[node_id]
        if self._busy_until:
            # A burst-re-staging node is bulk-loading its stores and
            # serves nothing until the refill lands: requests to it time
            # out and fail over, exactly as if it were down.
            return replace(
                health,
                down_nodes=health.down_nodes | frozenset(self._busy_until),
            )
        return health

    def finish(self, end: float) -> None:
        """Any node still down heals during the drain: its dropped caches
        refill completely, every unfinished refill runs to completion,
        and a full anti-entropy pass reconciles every store."""
        for node_id in sorted(self._lost):
            rec = StagedRecovery(
                self.frontend.nodes[node_id], self._lost.pop(node_id),
                self.hotness,
            )
            self._account(rec.finish())
        for refill in self._refills.values():
            self._account(refill.plan.finish())
            self.recovery_windows.append((refill.start, end))
        self._refills.clear()
        for scrubber in self.scrubbers.values():
            scrubber.scrub_all()
        self._observe(end, HEALTHY)


def run_cluster_soak(cfg: SoakConfig) -> SoakReport:
    """Run one multi-node soak scenario end to end."""
    # Honours --tiers: every node then holds its shard across the same
    # backing chain (CacheNode ranks the chain by its shard's hotness).
    platform = _soak_platform(cfg, SOAK_SCENARIOS[cfg.scenario][0])
    cluster = build_cluster(
        cfg, platform, cfg.nodes, cfg.replication, cfg.placement, load=cfg.load
    )
    frontend, s0 = cluster.frontend, cluster.s0
    nodes = list(frontend.nodes.values())
    table, pmf = cluster.stack.table, cluster.stack.pmf
    rate = cfg.load * cfg.nodes / s0
    # One healthy leg = wire + extraction + payload reply; the request
    # deadline scales from it so the network tier never eats the whole
    # latency budget on CI-sized tables where the wire dominates.
    leg0 = frontend.config.rpc.healthy_leg(
        s0, cfg.batch_keys * nodes[0].cache.entry_bytes
    )
    deadline = cfg.deadline_factor * leg0

    arrival_rng, key_rng = spawn_rngs(cfg.seed + 17, 2)
    total_requests = cfg.requests_per_gpu * cfg.nodes
    duration = total_requests / rate
    plan = build_soak_plan(cfg.scenario, duration, cfg.seed)
    windows = _node_fault_windows(plan)

    reg = get_registry()
    node_requests_start = _node_counter_values(reg, "cluster.node.requests")

    # Bit-rot injectors follow the *scenario*, not --repair, so an
    # unguarded bit-rot run visibly serves corruption.
    repair = cfg.repair
    injectors: dict[int, FaultInjector] = {}
    if plan is not None:
        for node in nodes:
            rot = tuple(
                f for f in plan
                if f.kind is FaultKind.BIT_ROT
                and f.node in (None, node.node_id)
            )
            if rot:
                injectors[node.node_id] = FaultInjector(
                    FaultPlan(
                        faults=rot,
                        seed=plan.seed + 7919 * (node.node_id + 1),
                        name=f"{plan.name}-rot-{node.node_id}",
                    ),
                    cache=node.cache,
                )
    lifecycle = (
        NodeLifecycle(frontend, cluster.stack.hotness, restage=cfg.restage)
        if repair else None
    )

    served_ok = 0
    expired = 0
    failed = 0
    hedges = 0
    hedge_wins = 0
    failovers = 0
    replica_keys = 0
    served_keys = 0
    host_fallback_keys = 0
    partial_responses = 0
    rpc_retries = 0
    rpc_timeouts = 0
    latencies: list[float] = []
    steady_ok = steady_total = 0
    window_ok = window_total = 0
    recovery_ok = recovery_total = 0
    rebalance_bytes = 0
    corrupt_rows_served = 0
    values_exact = True
    physics_failures = 0
    prev_down: frozenset[int] = frozenset()
    prev_t = 0.0
    recovery_latencies: list[float] = []
    sim_end = duration

    def handle_arrival(t: float, _seq: int, _client: int) -> float | None:
        """One request's full lifecycle at arrival time ``t``; a closed
        loop's client arrives again when its request completes."""
        nonlocal served_ok, expired, failed, hedges, hedge_wins, failovers
        nonlocal replica_keys, served_keys, host_fallback_keys
        nonlocal partial_responses, rpc_retries, rpc_timeouts
        nonlocal steady_ok, steady_total, window_ok, window_total
        nonlocal recovery_ok, recovery_total, rebalance_bytes
        nonlocal corrupt_rows_served, values_exact, prev_down, prev_t
        nonlocal sim_end, physics_failures
        dt = max(0.0, t - prev_t)
        prev_t = t
        health = plan.health_at(t) if plan is not None else HEALTHY
        for injector in injectors.values():
            injector.advance(t)
        if lifecycle is not None:
            # Staged refills spend only the idle share of link time.
            serve_health = lifecycle.step(
                t, health, idle_seconds=dt * max(0.0, 1.0 - cfg.load)
            )
        else:
            serve_health = health
            for node_id in prev_down - health.down_nodes:
                staged = frontend.nodes[node_id].cached_bytes
                rebalance_bytes += staged
                reg.counter("cluster.rebalance.bytes").inc(staged)
                logger.info(
                    "node %d healed at t=%.3f: re-staged %d bytes",
                    node_id, t, staged,
                )
        prev_down = health.down_nodes
        keys = key_rng.choice(cfg.num_entries, size=cfg.batch_keys, p=pmf)
        resp = frontend.serve(keys, t, health=serve_health, execute=True)
        sim_end = max(sim_end, t + resp.elapsed)
        physics_failures += (resp.elapsed < 0) + (
            resp.served + len(resp.failed_positions) != len(keys)
        )
        hedges += resp.hedges
        hedge_wins += resp.hedge_wins
        failovers += resp.failovers
        replica_keys += resp.replica_keys
        served_keys += resp.served
        host_fallback_keys += resp.host_fallback_keys
        partial_responses += int(resp.partial)
        rpc_retries += resp.rpc_retries
        rpc_timeouts += resp.rpc_timeouts
        ok = resp.ok and resp.elapsed <= deadline
        if ok:
            served_ok += 1
            latencies.append(resp.elapsed)
            if resp.values is not None:
                served = np.ones(len(keys), dtype=bool)
                served[resp.failed_positions] = False
                if not np.array_equal(resp.values[served], table[keys[served]]):
                    values_exact = False
        elif resp.partial:
            failed += 1
        else:
            expired += 1
        if (repair or injectors) and resp.values is not None:
            served = np.ones(len(keys), dtype=bool)
            served[resp.failed_positions] = False
            if served.any():
                corrupt_rows_served += int(
                    (resp.values[served] != table[keys[served]])
                    .any(axis=1).sum()
                )
        if _in_any_window(t, windows):
            window_total += 1
            window_ok += int(ok)
        elif lifecycle is not None and (
            lifecycle.recovering
            or _in_any_window(t, lifecycle.recovery_windows)
        ):
            recovery_total += 1
            recovery_ok += int(ok)
            if ok:
                recovery_latencies.append(resp.elapsed)
        else:
            steady_total += 1
            steady_ok += int(ok)
        return t + resp.elapsed if cfg.closed_loop else None

    # Closed loop: a fixed client population per node, each resubmitting
    # the moment its previous request completes, until the nominal run
    # duration elapses.  Open loop: one Poisson stream.
    events = (
        [(0.0, i, 0) for i in range(cfg.clients * cfg.nodes)]
        if cfg.closed_loop
        else poisson_schedule(arrival_rng, rate, 1, total_requests)
    )
    requests = drive_arrivals(
        events, handle_arrival,
        until=duration if cfg.closed_loop else math.inf,
    )
    physics_failures += requests != served_ok + expired + failed

    if lifecycle is not None:
        lifecycle.finish(sim_end)
        rebalance_bytes = lifecycle.restage_bytes
        if rebalance_bytes:
            reg.counter("cluster.rebalance.bytes").inc(rebalance_bytes)
    elif prev_down:
        # Any node still down when arrivals stop heals during the drain.
        for node_id in prev_down:
            staged = frontend.nodes[node_id].cached_bytes
            rebalance_bytes += staged
            reg.counter("cluster.rebalance.bytes").inc(staged)

    violations = frontend.verify_integrity()
    integrity_failures = (
        len(violations) + (0 if values_exact else 1) + physics_failures
    )
    for v in violations:
        logger.error("cluster integrity: %s", v)

    steady_rate = steady_ok / steady_total if steady_total else 0.0
    if window_total == 0:
        ratio = 1.0
    elif steady_rate > 0:
        ratio = (window_ok / window_total) / steady_rate
    else:
        ratio = 0.0
    if recovery_total == 0:
        recovery_ratio = 1.0
    elif steady_rate > 0:
        recovery_ratio = (recovery_ok / recovery_total) / steady_rate
    else:
        recovery_ratio = 0.0

    node_requests_end = _node_counter_values(reg, "cluster.node.requests")
    node_requests = {
        node: count - node_requests_start.get(node, 0)
        for node, count in node_requests_end.items()
        if count - node_requests_start.get(node, 0) > 0
    }
    lat = np.array(latencies) if latencies else np.array([0.0])
    scrubbers = lifecycle.scrubbers.values() if repair else ()
    report = SoakReport(
        scenario=cfg.scenario,
        requests=requests,
        served_ok=served_ok,
        expired=expired,
        failed=failed,
        goodput_rps=served_ok / sim_end if sim_end > 0 else 0.0,
        hedges=hedges,
        hedge_wins=hedge_wins,
        p50_latency=float(np.percentile(lat, 50)),
        p99_latency=float(np.percentile(lat, 99)),
        p999_latency=float(np.percentile(lat, 99.9)),
        max_queue_depth=0,
        queue_capacity=cfg.queue_capacity,
        breaker_transitions=frontend.breakers.transition_counts(),
        breaker_transitions_by_source=(
            frontend.breakers.transition_counts_by_source()
        ),
        breaker_time_in_state=frontend.breakers.time_in_state(sim_end),
        integrity_failures=integrity_failures,
        duration=sim_end,
        arrival_rate=rate,
        baseline_service=s0,
        nodes=cfg.nodes,
        replication=cfg.replication,
        failovers=failovers,
        replica_read_fraction=(
            replica_keys / served_keys if served_keys else 0.0
        ),
        host_fallback_keys=host_fallback_keys,
        partial_responses=partial_responses,
        rpc_retries=rpc_retries,
        rpc_timeouts=rpc_timeouts,
        failover_goodput_ratio=ratio,
        steady_goodput_rps=steady_rate * rate,
        rebalance_bytes=rebalance_bytes,
        node_requests=node_requests,
        repair_enabled=repair,
        restage_mode=cfg.restage if repair else "",
        recovery_goodput_ratio=recovery_ratio,
        recovery_requests=recovery_total,
        recovery_p99_latency=(
            float(np.percentile(np.array(recovery_latencies), 99))
            if recovery_latencies else 0.0
        ),
        restage_bytes=lifecycle.restage_bytes if repair else 0,
        restage_blocks=lifecycle.restage_blocks if repair else 0,
        scrub_scanned_slots=sum(
            s.scanned_total for s in scrubbers
        ),
        scrub_mismatches=sum(
            s.mismatches_total for s in scrubbers
        ),
        scrub_repaired=sum(s.repaired_total for s in scrubbers),
        scrub_read_repairs=sum(
            s.read_repairs_total for s in scrubbers
        ),
        corrupt_values_served=corrupt_rows_served,
        watchdog_transitions=(
            len(lifecycle.watchdog.transitions) if repair else 0
        ),
    )
    if platform.num_tiers > 1:
        report.tiers = _chain_label(platform)
    if reg.enabled:
        reg.gauge("cluster.failover_goodput_ratio").set(ratio)
        reg.gauge("cluster.replica_read_fraction").set(
            report.replica_read_fraction
        )
        for node, count in report.node_requests.items():
            reg.gauge("cluster.node.qps", node=node).set(
                count / sim_end if sim_end > 0 else 0.0
            )
        if repair:
            reg.gauge("repair.recovery_goodput_ratio").set(recovery_ratio)
    logger.info(
        "cluster soak %s: %d nodes R=%d, %d ok / %d requests, "
        "failover goodput %.0f%%, %d failovers, %d rebalanced bytes",
        cfg.scenario, cfg.nodes, cfg.replication,
        served_ok, requests, 100 * ratio,
        report.failovers, rebalance_bytes,
    )
    if repair:
        logger.info(
            "repair (%s): recovery goodput %.0f%% over %d requests, "
            "%d blocks / %d B re-staged, %d scrub mismatches, "
            "%d read-guard patches, %d corrupt rows served",
            cfg.restage, 100 * recovery_ratio, recovery_total,
            report.restage_blocks, report.restage_bytes,
            report.scrub_mismatches, report.scrub_read_repairs,
            corrupt_rows_served,
        )
    return report
