"""Cluster soak: sustained traffic through the fan-out front-end under
node-level chaos.

``python -m repro soak --nodes N --replication R`` lands here
(``--nodes 1`` never enters this module).  :class:`ClusterSoak` is driven
like the single-box harness (:func:`~repro.serve.soak.drive`): Poisson
arrivals (open loop) or a fixed client population's resubmits (closed
loop) each go through :class:`~repro.cluster.frontend.ClusterFrontend`
on a simulated clock while a node-kill/partition/flap fault plan takes
whole nodes away mid-run, and each leaves one :class:`ClusterRecord`.
The report is a pass over the records, and — the part the CI gate cares
about — measures goodput *during* the failover window, not just after
recovery:

* after the run, records are bucketed by arrival into the failover
  window (some node fault active), else a post-heal recovery window
  (:attr:`NodeLifecycle.recovery_windows`), else steady time;
* ``failover_goodput_ratio`` and ``recovery_goodput_ratio`` are those
  buckets' OK-rates over the steady OK-rate
  (:func:`~repro.serve.soak.window_ok_ratio`), gated by the report's
  :class:`ClusterSection` at ``FAILOVER_GOODPUT_FLOOR`` and
  ``RECOVERY_GOODPUT_FLOOR``;
* every row served, whatever became of its request, is checked bit-exact
  against the host table, and every node's cache is reconciled
  (``verify_integrity``) after recovery;
* no partial response, and mean OK latency after the last node fault
  clears is back within ``DEFAULT_RECOVERY_TOLERANCE`` × the mean
  before the first onset;
* the run's own bookkeeping is gated like the single-box soak's time
  physics: every arrival leaves a record, no response takes negative
  time and every requested key is either served or reported failed — a
  breach is an integrity failure.

A node fails one way, through :class:`NodeLifecycle` and the
self-healing layer (:mod:`repro.repair`): a death *drops* the dead
node's GPU caches, and a heal refills them in hotness-ordered blocks
that spend only idle link time — the bytes show up as
``rebalance_bytes`` (and the ``cluster.rebalance.bytes`` counter).
Every node runs an anti-entropy scrubber plus a read guard (so bit-rot
chaos can never serve a corrupt value), and while a reachable node's
refill is in flight the front-end sends it only keys already re-staged.
:class:`NodeLifecycle` is the one place a node's death and heal are
acted on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.frontend import (
    ClusterConfig,
    ClusterFrontend,
    ClusterResponse,
)
from repro.cluster.node import CacheNode
from repro.cluster.rpc import healthy_leg
from repro.core.policy import Placement
from repro.faults.injector import FaultInjector
from repro.faults.spec import (
    HEALTHY,
    NODE_FAULT_KINDS,
    FaultKind,
    FaultPlan,
    HealthView,
)
from repro.obs import get_registry
from repro.repair import CacheScrubber, StagedRecovery
from repro.serve.request import RequestStatus
from repro.serve.soak import (
    DEADLINE_FACTOR,
    DEFAULT_RECOVERY_TOLERANCE,
    Section,
    SoakConfig,
    SoakReport,
    Stack,
    TierSection,
    _soak_platform,
    build_report,
    build_soak_plan,
    build_stack,
    in_windows,
    phase_means,
    poisson_schedule,
    window_ok_ratio,
)
from repro.utils.arrays import sorted_unique
from repro.utils.logging import get_logger
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.stats import choice_cdf, sample_cdf

logger = get_logger("cluster.soak")

__all__ = [
    "FAILOVER_GOODPUT_FLOOR",
    "RECOVERY_GOODPUT_FLOOR",
    "ClusterSoak",
    "NodeLifecycle",
]

#: The floors the cluster section gates on: the failover window must keep
#: this fraction of steady-state goodput ...
FAILOVER_GOODPUT_FLOOR = 0.70
#: ... and the post-heal recovery window this one.
RECOVERY_GOODPUT_FLOOR = 0.85


@dataclass
class _Refill:
    """One staged refill in flight: its plan, when it began, and the idle
    link time banked towards its next block."""

    plan: StagedRecovery
    start: float
    credit: float = 0.0


class NodeLifecycle:
    """What happens to each node's GPU caches as the fault plan kills and
    heals it — the one way a cluster node fails.

    Attaches a :class:`CacheScrubber` (read guard included) to every
    node.  A death *drops* the node's GPU caches; a heal refills them as
    a :class:`StagedRecovery` of hotness-ordered blocks that spends only
    idle link time; a death mid-refill folds the refill's remainder into
    the next one.  A partitioned node keeps its caches.  The front-end's
    :attr:`~repro.cluster.frontend.ClusterFrontend.refilling` holds the
    refills in flight on reachable nodes, which route by them.
    :meth:`step` once per request, :meth:`finish` once after the last.
    """

    def __init__(self, frontend: ClusterFrontend, hotness: np.ndarray) -> None:
        self.frontend = frontend
        self.hotness = hotness
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

    def _account(self, grant) -> None:
        self.restage_bytes += grant.bytes
        self.restage_blocks += grant.blocks

    def step(self, t: float, health: HealthView, idle_seconds: float) -> None:
        """Apply the deaths and heals ``health`` shows at ``t``, spend
        ``idle_seconds`` more link time on every refill in flight, tick
        the scrubbers, and hand the front-end the refills of the nodes it
        can reach."""
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
                        sorted_unique(np.concatenate([a, b]))
                        for a, b in zip(dropped.per_gpu, rem.per_gpu)
                    ),
                )
                self.recovery_windows.append((cut.start, t))
            self._lost[node_id] = dropped
        for node_id in sorted(self._prev_down - health.down_nodes):
            rec = StagedRecovery(
                self.frontend.nodes[node_id], self._lost.pop(node_id),
                self.hotness,
            )
            self._refills[node_id] = _Refill(rec, start=t)
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
            refill.credit += idle_seconds
            grant = refill.plan.grant(refill.credit)
            if grant.blocks:
                refill.credit -= grant.cost_seconds
                self._account(grant)
            if refill.plan.done:
                self.recovery_windows.append((refill.start, t))
                del self._refills[node_id]
        for scrubber in self.scrubbers.values():
            scrubber.tick(t)
        # A partitioned node mid-refill is left out: nothing routes to it.
        self.frontend.refilling = {
            node_id: refill.plan for node_id, refill in self._refills.items()
            if health.node_reachable(node_id)
        }

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
        self.frontend.refilling = {}


@dataclass
class ClusterRecord:
    """One finished request of a cluster soak; the report is a pass over
    these."""

    arrival: float
    #: what the front-end answered (its ``values`` are dropped once
    #: :attr:`wrong_rows` has been counted — the numbers are what is kept).
    response: ClusterResponse
    #: OK when every key was served inside the deadline; otherwise FAILED
    #: for a partial answer, EXPIRED for a whole but late one.
    status: RequestStatus
    #: served rows that differ from the host table's.
    wrong_rows: int

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.OK


def _node_requests(reg) -> dict[str, int]:
    """``cluster.node.requests`` per node so far (the registry is
    cumulative across runs in a process: callers diff two snapshots)."""
    return {
        str(dict(labels).get("node")): int(value)
        for labels, value in reg.counter_values("cluster.node.requests").items()
    }


@dataclass
class ClusterSection(Section):
    """The cluster tier: its shape, the replica-node hedges, failovers,
    the RPC tier's counts, goodput through the node-fault and post-heal
    recovery windows, the re-staged bytes, requests per node, the corrupt
    rows served, the scrubbers' totals, and OK latency during and after
    the node faults."""

    nodes: int
    replication: int
    hedges: int
    hedge_wins: int
    failovers: int
    replica_read_fraction: float
    host_fallback_keys: int
    partial_responses: int
    rpc_retries: int
    rpc_timeouts: int
    #: OK-rate during node-fault windows over the steady OK-rate; 1.0
    #: when the run had no node faults.
    failover_goodput_ratio: float
    #: OK-rate during post-heal recovery windows over the steady OK-rate;
    #: 1.0 when nothing recovered.
    recovery_goodput_ratio: float
    recovery_requests: int
    #: p99 of OK latencies inside recovery windows (0.0 when none).
    recovery_p99_latency: float
    steady_goodput_rps: float
    #: bytes the healed nodes' refills staged back onto their GPUs.
    rebalance_bytes: int
    restage_blocks: int
    node_requests: dict
    #: corrupt value rows that reached a caller (0 with the read guard
    #: on: the zero-corrupt-served guarantee).
    corrupt_values_served: int
    scrub_scanned_slots: int
    scrub_mismatches: int
    scrub_repaired: int
    scrub_read_repairs: int
    #: mean OK latency of the arrivals from the first node-fault onset to
    #: the last clear, then of those after it, over the mean of those
    #: before the onset; 1.0 for a phase with no OK arrival.
    fault_latency_ratio: float
    cleared_latency_ratio: float

    @property
    def ok(self) -> bool:
        return (
            self.failover_goodput_ratio >= FAILOVER_GOODPUT_FLOOR
            and self.recovery_goodput_ratio >= RECOVERY_GOODPUT_FLOOR
            and self.corrupt_values_served == 0
            and self.partial_responses == 0
            and self.cleared_latency_ratio <= DEFAULT_RECOVERY_TOLERANCE
        )

    def lines(self) -> list[str]:
        return [
            f"  cluster       {self.nodes} nodes, replication "
            f"{self.replication}: {self.failovers} failovers, "
            f"replica reads {self.replica_read_fraction:.1%}, "
            f"failover goodput {self.failover_goodput_ratio:.0%} of steady",
            f"  recovery      {self.restage_blocks} blocks / "
            f"{self.rebalance_bytes} B re-staged, "
            f"recovery goodput {self.recovery_goodput_ratio:.0%} of "
            f"steady over {self.recovery_requests} requests "
            f"(window p99 {self.recovery_p99_latency:.3e}s); latency "
            f"{self.fault_latency_ratio:.2f}x pre-onset during node faults, "
            f"{self.cleared_latency_ratio:.2f}x after the last clear",
            f"  rpc           {self.rpc_retries} retries, "
            f"{self.rpc_timeouts} timeouts, "
            f"{self.partial_responses} partial responses, "
            f"{self.host_fallback_keys} host-fallback keys, "
            f"{self.corrupt_values_served} corrupt rows served",
            f"  hedging       {self.hedges} replica hedges issued, "
            f"{self.hedge_wins} won",
            f"  scrubbing     {self.scrub_scanned_slots} slots scanned, "
            f"{self.scrub_mismatches} mismatches, "
            f"{self.scrub_repaired} repaired, "
            f"{self.scrub_read_repairs} read-guard patches",
        ]


class ClusterSoak:
    """One multi-node soak, driven like the single-box
    :class:`~repro.serve.soak.BoxSoak`: :attr:`events` → :meth:`arrive`
    appends one :class:`ClusterRecord` per request, :meth:`finish` heals
    and reconciles, :meth:`report` sums the records."""

    def __init__(self, cfg: SoakConfig) -> None:
        self.cfg = cfg
        # Honours --tiers: every node then holds its shard across the same
        # backing chain (CacheNode ranks the chain by its shard's hotness).
        self.platform = _soak_platform(cfg)
        stack = build_stack(cfg, self.platform, fill=False)
        self.table, self.cdf = stack.table, choice_cdf(stack.pmf)
        self._build_frontend(stack)
        # One healthy leg = wire + extraction + payload reply; the request
        # deadline scales from it so the network tier never eats the whole
        # latency budget on CI-sized tables where the wire dominates.
        leg0 = healthy_leg(
            self.s0, cfg.batch_keys * self.frontend.nodes[0].cache.entry_bytes
        )
        self.deadline = DEADLINE_FACTOR * leg0

        arrival_rng, self.key_rng = spawn_rngs(cfg.seed + 17, 2)
        total_requests = cfg.requests_per_gpu * cfg.nodes
        # Open loop: the Poisson stream's span at the offered rate.  Closed
        # loop: the span in which the client population, each waiting one
        # healthy round trip per request, issues as many — the wire, not
        # the extraction, sets a cluster client's pace.
        self.duration = (
            total_requests * leg0 / (cfg.clients * cfg.nodes)
            if cfg.closed_loop else total_requests / self.rate
        )
        self.plan = build_soak_plan(cfg.scenario, self.duration, cfg.seed)
        self.injectors = self._rot_injectors()
        self.lifecycle = NodeLifecycle(self.frontend, stack.hotness)
        self.node_requests_start = _node_requests(get_registry())
        self.records: list[ClusterRecord] = []
        # Closed loop: a fixed client population per node, each
        # resubmitting the moment its previous request completes, until the
        # nominal run duration elapses.  Open loop: one Poisson stream.
        self.events = (
            [(0.0, i, 0) for i in range(cfg.clients * cfg.nodes)]
            if cfg.closed_loop
            else poisson_schedule(arrival_rng, self.rate, 1, total_requests)
        )

    def _build_frontend(self, stack: Stack) -> None:
        """Owner table → one :class:`CacheNode` per shard → ``s0`` probe →
        front-end, whose node breakers cool down on the simulated clock:
        ~50 mean inter-arrival times keeps a few probe rounds inside even
        a quick soak's fault window."""
        cfg = self.cfg
        config = ClusterConfig(
            nodes=cfg.nodes, replication=cfg.replication,
            placement=cfg.placement, seed=cfg.seed,
        )
        # The owner table comes first so each node knows its shard; the
        # front-end then adopts the very same table.
        owner_table = ClusterFrontend.build_placement(config, stack.hotness)
        owners = owner_table.owners_for(np.arange(cfg.num_entries, dtype=np.int64))
        cache_nodes = [
            CacheNode(
                node_id=node_id,
                platform=self.platform,
                table=stack.table,
                hotness=stack.hotness,
                # Solver placements may wide-replicate a hot head beyond
                # the owner columns: membership comes from the placement
                # when it can say, from the owner table otherwise.
                member_mask=(
                    owner_table.member_mask(node_id)
                    if hasattr(owner_table, "member_mask")
                    else (owners == node_id).any(axis=1)
                ),
                capacity_entries=stack.capacity,
                placement_mode="solver" if cfg.placement == "solver" else "greedy",
            )
            for node_id in range(cfg.nodes)
        ]
        # Priced on GPU 0, where node 0's ingress round-robin starts,
        # without admitting the probe: the pointer never moves.
        probe = sample_cdf(self.cdf, make_rng(cfg.seed + 3), cfg.batch_keys)
        self.s0 = cache_nodes[0].extractor.price(0, probe).time
        self.rate = cfg.load * cfg.nodes / self.s0
        config = replace(
            config, breaker=replace(config.breaker, cooldown_seconds=50.0 / self.rate)
        )
        self.frontend = ClusterFrontend(
            cache_nodes, config, baseline_service=self.s0,
            hotness=stack.hotness, placement=owner_table,
        )

    def _rot_injectors(self) -> list[FaultInjector]:
        """One injector per node the plan's bit-rot reaches."""
        injectors = []
        for node in self.frontend.nodes.values():
            rot = tuple(
                f for f in self.plan or ()
                if f.kind is FaultKind.BIT_ROT
                and f.node in (None, node.node_id)
            )
            if rot:
                injectors.append(
                    FaultInjector(
                        FaultPlan(
                            faults=rot,
                            seed=self.plan.seed + 7919 * (node.node_id + 1),
                            name=f"{self.plan.name}-rot-{node.node_id}",
                        ),
                        cache=node.cache,
                    )
                )
        return injectors

    def arrive(self, t: float, _seq: int, _client: int) -> float | None:
        """One request's full lifecycle at arrival time ``t``; a closed
        loop's client arrives again when its request completes."""
        cfg, records = self.cfg, self.records
        dt = max(0.0, t - (records[-1].arrival if records else 0.0))
        health = self.plan.health_at(t) if self.plan is not None else HEALTHY
        for injector in self.injectors:
            injector.advance(t)
        # Staged refills spend only the idle share of link time.
        self.lifecycle.step(t, health, idle_seconds=dt * max(0.0, 1.0 - cfg.load))
        keys = sample_cdf(self.cdf, self.key_rng, cfg.batch_keys)
        resp = self.frontend.serve(keys, t, health=health, execute=True)
        # Every served row is checked against the host table, whatever
        # becomes of the request.
        wrong_rows = resp.wrong_rows(keys, self.table)
        resp.values = None
        if resp.partial:
            status = RequestStatus.FAILED
        elif resp.elapsed <= self.deadline:
            status = RequestStatus.OK
        else:
            status = RequestStatus.EXPIRED
        records.append(ClusterRecord(t, resp, status, wrong_rows))
        return t + resp.elapsed if cfg.closed_loop else None

    def finish(self, arrived: int) -> None:
        """After the last arrival: nodes still down heal, refills run to
        completion, and every node's cache is reconciled."""
        self.arrived = arrived
        self.sim_end = max(
            [self.duration]
            + [r.arrival + r.response.elapsed for r in self.records]
        )
        self.lifecycle.finish(self.sim_end)
        rebalanced = self.lifecycle.restage_bytes
        if rebalanced:
            get_registry().counter("cluster.rebalance.bytes").inc(rebalanced)
        self.violations = self.frontend.verify_integrity()
        for v in self.violations:
            logger.error("cluster integrity: %s", v)

    def _node_faults(self) -> list:
        return [f for f in self.plan or () if f.kind in NODE_FAULT_KINDS]

    def _buckets(self) -> tuple[list, list, list]:
        """Every record bucketed by its arrival: inside a node-fault
        window (failover), else inside a post-heal recovery window, else
        steady."""
        faults = [(f.onset, f.clears_at) for f in self._node_faults()]
        failover, recovery, steady = [], [], []
        for r in self.records:
            if in_windows(r.arrival, faults):
                failover.append(r)
            elif in_windows(r.arrival, self.lifecycle.recovery_windows):
                recovery.append(r)
            else:
                steady.append(r)
        return failover, recovery, steady

    def _latency_ratios(self) -> tuple[float, float]:
        """Mean OK latency from the first node-fault onset to the last
        clear, then after it, each over the mean before the onset."""
        faults, ok = self._node_faults(), [r for r in self.records if r.ok]
        before, during, after = phase_means(
            [r.arrival for r in ok],
            [r.response.elapsed for r in ok],
            min((f.onset for f in faults), default=math.inf),
            max((f.clears_at for f in faults), default=math.inf),
        )
        return tuple(x / before if x > 0 and before > 0 else 1.0
                     for x in (during, after))

    def _cluster_section(self) -> ClusterSection:
        cfg, records, lifecycle = self.cfg, self.records, self.lifecycle
        responses = [r.response for r in records]
        served_keys = sum(r.served for r in responses)
        node_requests = {
            node: count - self.node_requests_start.get(node, 0)
            for node, count in _node_requests(get_registry()).items()
            if count - self.node_requests_start.get(node, 0) > 0
        }
        failover, recovery, steady = self._buckets()
        steady_ok = [r.ok for r in steady]
        latencies = [r.response.elapsed for r in recovery if r.ok]
        scrubbers = lifecycle.scrubbers.values()
        fault_latency, cleared_latency = self._latency_ratios()
        return ClusterSection(
            nodes=cfg.nodes,
            replication=cfg.replication,
            hedges=sum(r.hedges for r in responses),
            hedge_wins=sum(r.hedge_wins for r in responses),
            failovers=sum(r.failovers for r in responses),
            replica_read_fraction=(
                sum(r.replica_keys for r in responses) / served_keys
                if served_keys else 0.0
            ),
            host_fallback_keys=sum(r.host_fallback_keys for r in responses),
            partial_responses=sum(r.partial for r in responses),
            rpc_retries=sum(r.rpc_retries for r in responses),
            rpc_timeouts=sum(r.rpc_timeouts for r in responses),
            failover_goodput_ratio=window_ok_ratio(
                [r.ok for r in failover], steady_ok
            ),
            recovery_goodput_ratio=window_ok_ratio(
                [r.ok for r in recovery], steady_ok
            ),
            recovery_requests=len(recovery),
            recovery_p99_latency=(
                float(np.percentile(np.array(latencies), 99))
                if latencies else 0.0
            ),
            steady_goodput_rps=(
                sum(steady_ok) / len(steady_ok) * self.rate if steady_ok else 0.0
            ),
            rebalance_bytes=lifecycle.restage_bytes,
            restage_blocks=lifecycle.restage_blocks,
            node_requests=node_requests,
            corrupt_values_served=sum(r.wrong_rows for r in records),
            scrub_scanned_slots=sum(s.scanned_total for s in scrubbers),
            scrub_mismatches=sum(s.mismatches_total for s in scrubbers),
            scrub_repaired=sum(s.repaired_total for s in scrubbers),
            scrub_read_repairs=sum(s.read_repairs_total for s in scrubbers),
            fault_latency_ratio=fault_latency,
            cleared_latency_ratio=cleared_latency,
        )

    def report(self) -> SoakReport:
        cfg, records, sim_end = self.cfg, self.records, self.sim_end
        # The run's own bookkeeping: every arrival left a record, no
        # response took negative time, and every requested key was either
        # served or reported failed.
        physics_failures = (self.arrived != len(records)) + sum(
            (r.elapsed < 0)
            + (r.served + len(r.failed_positions) != cfg.batch_keys)
            for r in (record.response for record in records)
        )
        report = build_report(
            cfg,
            [r.status for r in records],
            [r.response.elapsed for r in records if r.ok],
            self.frontend.breakers,
            sim_end,
            self.rate,
            self.s0,
            integrity_failures=(
                len(self.violations)
                + any(r.wrong_rows for r in records)
                + physics_failures
            ),
            tiers=TierSection.of(self.platform, None),
            cluster=self._cluster_section(),
        )
        cluster = report.cluster
        reg = get_registry()
        reg.gauge("cluster.failover_goodput_ratio").set(
            cluster.failover_goodput_ratio
        )
        reg.gauge("cluster.replica_read_fraction").set(
            cluster.replica_read_fraction
        )
        for node, count in cluster.node_requests.items():
            reg.gauge("cluster.node.qps", node=node).set(
                count / sim_end if sim_end > 0 else 0.0
            )
        reg.gauge("repair.recovery_goodput_ratio").set(
            cluster.recovery_goodput_ratio
        )
        return report
