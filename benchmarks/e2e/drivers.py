"""The five workload drivers: set-up, per-pass state, the timed loop, checks.

Each driver reaches the product only through the public functions listed
in README.md ("API surface").  A pass replays the whole input trace;
per-pass state (runtime, queues, breakers, front-end, round-robin
pointers, the metrics registry) is rebuilt before every pass so that all
passes do identical work and the simulated results can be required to be
identical too.

The simulated timelines are the drivers' own: service on a GPU starts at
``max(free_at, arrival)``, never earlier.  That is deliberately *not* the
uncoalesced open-loop branch of ``serve/soak.py`` (see README.md,
"Workloads").
"""

from __future__ import annotations

import heapq
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster import CacheNode, ClusterConfig, ClusterFrontend
from repro.core import solver as core_solver
from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.extractor import FactoredExtractor
from repro.core.location_table import LocationTable
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.core.refresher import RefreshConfig, Refresher
from repro.hardware.platform import server_a, server_c
from repro.obs import MetricsRegistry, set_registry
from repro.serve.breaker import BreakerConfig
from repro.serve.coalesce import BatchingMode, CoalesceConfig, MicroBatcher
from repro.serve.queueing import AdmissionConfig, QueuePolicy
from repro.serve.request import RequestStatus
from repro.serve.runtime import ServeConfig, ServingRuntime
from repro.serve.soak import build_soak_plan

from workloads import Inputs

# Block kinds (only refresh_mixed uses more than OP).
OP, SOLVE, REALIZE, STEP, EXTRACT, SYNC = range(6)

# solve_policy is reached through its module so the traced run's rebinding
# of ``repro.core.solver.solve_policy`` covers the drivers' own calls.
SOLVER = core_solver.SolverConfig(time_limit=10.0, coarse_block_frac=0.02)


@dataclass
class PassResult:
    """What one pass did, on the simulated clock and in exact counts."""

    #: key batches handed to the product (a serving request, or one GPU's
    #: batch of an extract call): the ops attempted.
    requests: int = 0
    #: ops the product got wrong: FAILED, partial, or rows not bit-exact.
    failed: int = 0
    #: ops admission control refused or that missed their deadline (shed,
    #: rejected, expired) -- designed behaviour under overload, no goodput.
    refused: int = 0
    keys_ok: int = 0
    #: simulated arrival-to-completion seconds of the OK operations.
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0))
    sim_span: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    def signature(self) -> tuple:
        """Everything that must repeat exactly from pass to pass."""
        return (
            self.requests, self.failed, self.refused, self.keys_ok,
            self.sim_span, self.latencies.tobytes(),
            tuple(sorted(self.counts.items())),
        )


def p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def registry_counts(reg: MetricsRegistry) -> dict[str, float]:
    """Plan-stage counts the product recorded at its own boundaries."""
    keys = {"local": 0.0, "remote": 0.0, "host": 0.0}
    sent = dict(keys)
    plans = groups = rerouted = 0.0
    for s in reg.series():
        labels = dict(s.labels)
        if s.name == "extractor.plan.calls":
            plans += s.value
        elif s.name == "extractor.plan.keys":
            cls = labels["source"]
            keys["host" if cls not in keys else cls] += s.value
        elif s.name == "extractor.plan.dedicated_cores":
            groups += s.count
        elif s.name == "faults.rerouted_keys":
            rerouted += s.value
        elif s.name == "extractor.execute.bytes":
            cls = labels["source"]
            sent["host" if cls not in sent else cls] += s.value
    total = sum(keys.values()) or 1.0
    return {
        "core.pipeline.keys_in": sum(keys.values()),
        "core.pipeline.groups_per_plan": groups / plans if plans else 0.0,
        "core.pipeline.rerouted_keys": rerouted,
        "core.pipeline.local_key_share": keys["local"] / total,
        "core.pipeline.remote_key_share": keys["remote"] / total,
        "core.pipeline.host_key_share": keys["host"] / total,
        "sim.mechanisms.local_bytes": sent["local"],
        "sim.mechanisms.remote_bytes": sent["remote"],
        "sim.mechanisms.host_bytes": sent["host"],
    }


def rows_exact(values: np.ndarray | None, reference: np.ndarray, keys: np.ndarray) -> bool:
    return values is not None and np.array_equal(values, reference[keys])


def disjoint(intervals: list[tuple[float, float]]) -> bool:
    """Service intervals in issue order: each starts no earlier than the
    previous one ended, and none ends before it starts."""
    free_at = 0.0
    for start, end in intervals:
        if start < free_at or end < start:
            return False
        free_at = end
    return True


class Driver:
    """Common shape; subclasses fill in the stack and the loop."""

    name = ""
    loop = ""
    open_loop = False

    def __init__(self, inputs: Inputs) -> None:
        self.inp = inputs
        self.sizes = inputs.sizes
        self.problems: list[str] = []
        self.wrong_ops = 0
        #: share of requested keys served from a backing tier; computed on
        #: the check pass, outside every timed region.
        self.host_key_share = 0.0
        #: set-up stage seconds (solve / fill), for the per-layer ledger.
        self.setup_seconds: dict[str, float] = {}
        self.solves: list = []
        self._previous_registry: MetricsRegistry | None = None

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def new_pass(self) -> None:
        """Rebuild per-pass state; always starts from a fresh registry."""
        self.registry = MetricsRegistry(f"e2e.{self.name}")
        previous = set_registry(self.registry)
        if self._previous_registry is None:
            self._previous_registry = previous

    def run_pass(self, rec, check: bool) -> PassResult:
        raise NotImplementedError

    def finish(self) -> None:
        """Hand the process its metrics registry back."""
        if self._previous_registry is not None:
            set_registry(self._previous_registry)

    def caches(self) -> list[MultiGpuEmbeddingCache]:
        return [self.cache]

    def fail(self, message: str) -> None:
        self.problems.append(f"{self.name}: {message}")

    def wrong(self, message: str) -> None:
        """An op whose returned rows are not bit-exact: a failed op."""
        self.wrong_ops += 1
        self.fail(message)

    def corrupt_hottest_row(self) -> None:
        """Self-check hook: rot the hottest entry wherever a GPU caches it."""
        hottest = int(np.argmax(self.inp.pmf))
        for cache in self.caches():
            for gpu in cache.platform.gpu_ids:
                store = cache.store(gpu)
                slot = int(store.offset_of[hottest])
                if slot >= 0:
                    store.data[slot] += 1.0

    def timed(self, label: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.setup_seconds[label] = (
            self.setup_seconds.get(label, 0.0) + time.perf_counter() - t0
        )
        return out


# ----------------------------------------------------------------------
# extract_batch — the paper's core path with large batches
# ----------------------------------------------------------------------
class ExtractBatch(Driver):
    name = "extract_batch"
    loop = "closed, 1 caller"
    cache_ratio = 0.08

    def setup(self) -> None:
        inp = self.inp
        self.platform = server_c()
        entry_bytes = inp.table.shape[1] * inp.table.itemsize
        hotness = inp.pmf * self.sizes["batch_keys"]
        capacity = int(self.cache_ratio * len(inp.pmf))
        solved = self.timed(
            "solve", core_solver.solve_policy, self.platform, hotness, capacity,
            entry_bytes, SOLVER,
        )
        self.solves.append(solved)
        placement = self.timed("realize", solved.realize)
        self.cache = self.timed(
            "fill", MultiGpuEmbeddingCache, self.platform, inp.table, placement
        )
        self.extractor = FactoredExtractor(self.cache)

    def run_pass(self, rec, check: bool) -> PassResult:
        keys = self.inp.keys
        reports = []
        rec.start()
        for i in range(len(keys)):
            rec.op(i)
            values, report = self.extractor.extract(list(keys[i]))
            rec.mark()
            reports.append(report)
            if check:
                for gpu, got in enumerate(values):
                    if not rows_exact(got, self.inp.reference, keys[i][gpu]):
                        self.wrong(f"iteration {i} GPU {gpu}: rows differ from table[keys]")
        if check:
            host = sum(r.volume_split()["host"] for r in reports)
            self.host_key_share = host / sum(r.total_volume() for r in reports)
        times = np.array([r.time for r in reports])
        gpu_times = np.array([g.time for r in reports for g in r.per_gpu])
        return PassResult(
            requests=keys.shape[0] * keys.shape[1],
            keys_ok=int(keys.size), latencies=gpu_times, sim_span=float(times.sum()),
            counts={
                **registry_counts(self.registry),
                "core.extractor.sim_extract_s_p50": p50(times),
            },
        )


# ----------------------------------------------------------------------
# The single-box serving stack shared by the two serve_* workloads
# ----------------------------------------------------------------------
class ServeDriver(Driver):
    cache_ratio = 0.12
    slo_factor = 8.0
    deadline_factor = 10.0
    timeout_factor = 5.0

    def setup(self) -> None:
        inp = self.inp
        self.platform = server_a()
        G = self.platform.num_gpus
        hotness = inp.pmf * self.sizes["batch_keys"] * G
        capacity = max(1, int(self.cache_ratio * len(inp.pmf)))
        placement = hot_replicate_warm_partition_policy(hotness, capacity, G, 0.5)
        self.cache = self.timed(
            "fill", MultiGpuEmbeddingCache, self.platform, inp.table, placement
        )
        self.extractor = FactoredExtractor(self.cache)
        # The time unit of every derived knob, as in the soak harness.
        self.s0 = float(np.mean([self.extractor.price(0, k).time for k in inp.s0_keys]))
        self.deadline = self.deadline_factor * self.s0
        self.config = ServeConfig(
            admission=AdmissionConfig(
                capacity=32, policy=QueuePolicy.REJECT,
                slo_seconds=self.slo_factor * self.s0,
            ),
            breaker=BreakerConfig(
                failure_threshold=3, cooldown_seconds=25.0 * self.s0,
                half_open_probes=2, success_threshold=2,
            ),
            hedge_enabled=True,
            source_timeout_seconds=self.timeout_factor * self.s0,
        )

    def new_pass(self) -> None:
        super().new_pass()
        self.runtime = ServingRuntime(self.extractor, config=self.config)

    def check_responses(self, submitted: int) -> None:
        """Conservation, bit-exact rows, and the host share (check pass)."""
        responses = self.runtime.responses
        if len(responses) != submitted:
            by_status = Counter(r.status.value for r in responses)
            self.fail(f"submitted {submitted} != ok+shed+rejected+expired+failed {dict(by_status)}")
        host = total = 0.0
        for r in responses:
            keys = r.request.keys
            if r.ok and not rows_exact(r.values, self.inp.reference, keys):
                self.wrong(f"request {r.request.request_id}: rows differ from table[keys]")
            looked = self.cache.lookup(r.request.gpu, keys)
            if not rows_exact(looked.values, self.inp.reference, keys):
                self.wrong(f"request {r.request.request_id}: cache.lookup rows differ")
            host += looked.host_fraction * len(keys)
            total += len(keys)
        self.host_key_share = host / total

    def summarize(self, submitted: int, span: float, waits, extra: dict) -> PassResult:
        runtime = self.runtime
        responses = runtime.responses
        ok = [r for r in responses if r.ok]
        count = Counter(r.status for r in responses)
        failed = count[RequestStatus.FAILED]
        return PassResult(
            requests=submitted, failed=failed, refused=submitted - len(ok) - failed,
            keys_ok=sum(len(r.request.keys) for r in ok),
            latencies=np.array([r.completed_at - r.request.arrival for r in ok]),
            sim_span=span,
            counts={
                **registry_counts(self.registry),
                "serve.queueing.offered": submitted,
                "serve.queueing.shed": count[RequestStatus.SHED],
                "serve.queueing.rejected": count[RequestStatus.REJECTED],
                "serve.queueing.expired": count[RequestStatus.EXPIRED],
                "serve.queueing.max_depth": runtime.admission.max_depth,
                "serve.queueing.wait_sim_s_p50": p50(waits),
                "serve.breaker.transitions": sum(
                    runtime.breakers.transition_counts().values()
                ),
                "serve.runtime.hedges": sum(1 for r in responses if r.hedged),
                "serve.runtime.hedge_wins": sum(1 for r in responses if r.hedge_won),
                **extra,
            },
        )


class ServeClosed(ServeDriver):
    """Small requests, four waiting clients per GPU, one poll per submit."""

    name = "serve_closed"
    loop = "closed, 4 clients/GPU"
    clients = 4
    block = 16

    def run_pass(self, rec, check: bool) -> PassResult:
        runtime, keys, s0 = self.runtime, self.inp.keys, self.s0
        G = self.platform.num_gpus
        events = [(0.0, seq, seq % G) for seq in range(self.clients * G)]
        heapq.heapify(events)
        seq = len(events)
        free_at = [0.0] * G
        service: list[list[tuple[float, float]]] = [[] for _ in range(G)]
        waits: list[float] = []
        rec.start()
        for i in range(len(keys)):
            t, _, g = heapq.heappop(events)
            rec.op(i)
            request = runtime.make_request(g, keys[i], t, deadline=t + self.deadline)
            if runtime.submit(request, t) is None:
                start = max(free_at[g], t)
                response = runtime.poll(g, start)
                free_at[g] = response.completed_at
                service[g].append((start, response.completed_at))
                waits.append(start - t)
                resubmit = response.completed_at
            else:
                resubmit = t + s0  # the soak's closed-loop back-off
            heapq.heappush(events, (resubmit, seq, g))
            seq += 1
            if (i + 1) % self.block == 0:
                rec.mark()
        if len(keys) % self.block:
            rec.mark()
        # Summarize first: the checks below call into the product and
        # would otherwise add their own plans to the registry counts.
        result = self.summarize(len(keys), max(free_at), waits, {})
        if check:
            self.check_responses(len(keys))
            if not all(disjoint(s) for s in service):
                self.fail("per-GPU service intervals overlap or start before arrival")
            # The timing-only path must price a request as serving it did.
            for r in runtime.responses:
                if r.ok and not r.hedge_won:
                    priced = self.extractor.price(r.request.gpu, r.request.keys).time
                    if priced != r.service_time:
                        self.fail(f"request {r.request.request_id}: served in "
                                  f"{r.service_time}, priced at {priced}")
        return result


class ServeCoalesceOverload(ServeDriver):
    """Open loop at twice one GPU's uncoalesced capacity: SLO shedding
    refuses about half the offered load by design, and the micro-batcher's
    union + dedup serves the rest."""

    name = "serve_coalesce_overload"
    loop = "open, Poisson at 2.0x per-GPU capacity"
    open_loop = True
    block = 32
    max_batch = 8
    linger_factor = 0.5

    def new_pass(self) -> None:
        super().new_pass()
        cfg = CoalesceConfig(
            mode=BatchingMode.COALESCE, max_batch=self.max_batch,
            linger_seconds=self.linger_factor * self.s0,
        )
        G = self.platform.num_gpus
        self.batchers = [
            MicroBatcher(g, self.runtime.admission.queue(g), cfg) for g in range(G)
        ]

    def run_pass(self, rec, check: bool) -> PassResult:
        runtime, keys = self.runtime, self.inp.keys
        arrivals = self.inp.arrivals * self.s0
        dst = self.inp.gpus
        G = self.platform.num_gpus
        free_at = [0.0] * G
        newest = [0.0] * G  # latest arrival queued per GPU
        batches: list[tuple[int, float, list, object]] = []

        def catch_up(gpu: int, until: float) -> None:
            # The coalescing branch of the soak's catch_up, except that a
            # batch never starts before its newest member has arrived.
            batcher = self.batchers[gpu]
            while True:
                flush = batcher.flush_at(max(free_at[gpu], newest[gpu]))
                if flush is None or flush > until:
                    return
                batch = batcher.take(flush)
                if not batch:
                    return
                outcome = runtime.serve_batch(batch, flush)
                batches.append((gpu, flush, batch, outcome))
                free_at[gpu] = max(flush, outcome.completed_at)

        rec.start()
        for i in range(len(keys)):
            t, g = float(arrivals[i]), int(dst[i])
            rec.op(i)
            for gpu in range(G):
                catch_up(gpu, t)
            request = runtime.make_request(g, keys[i], t, deadline=t + self.deadline)
            runtime.submit(request, t)
            newest[g] = t
            if (i + 1) % self.block == 0:
                rec.mark()
        rec.op(len(keys))
        for gpu in range(G):
            catch_up(gpu, math.inf)
        rec.mark()

        served = [b for b in batches if b[3].union_size > 0]
        lingers = [flush - r.arrival for _, flush, batch, _ in served for r in batch]
        members = sum(o.total_keys for *_, o in served)
        unique = sum(o.union_size for *_, o in served)
        # Open loop: goodput is per simulated second of *offered* traffic.
        offered_span = len(keys) / (G * self.sizes["load"]) * self.s0
        result = self.summarize(len(keys), offered_span, lingers, {
            "serve.coalesce.batches": len(served),
            "serve.coalesce.mean_batch_size": (
                sum(o.batch_size for *_, o in served) / len(served) if served else 0.0
            ),
            "serve.coalesce.dedup_ratio": members / unique if unique else 1.0,
            "serve.coalesce.linger_sim_s_p50": p50(lingers),
        })
        if check:
            self.check_responses(len(keys))
            self.check_batches(served)
        return result

    def check_batches(self, served) -> None:
        G = self.platform.num_gpus
        intervals: list[list[tuple[float, float]]] = [[] for _ in range(G)]
        for gpu, flush, batch, outcome in served:
            intervals[gpu].append((flush, outcome.completed_at))
            if any(r.arrival > flush for r in batch):
                self.fail(f"GPU {gpu}: batch at {flush} started before a member arrived")
            # Members already past their deadline are dropped before the
            # shared extraction and are not part of the union.
            live = [r for r in batch if not r.expired(flush)]
            union = np.unique(np.concatenate([r.keys for r in live]))
            plan = self.extractor.plan(gpu, union)
            grouped = sum(len(g.keys) for g in plan.groups)
            if not outcome.union_size == len(union) == plan.batch_size == grouped:
                self.fail(
                    f"GPU {gpu}: batch priced {outcome.union_size} keys, "
                    f"{len(union)} unique, plan groups hold {grouped}"
                )
        if not all(disjoint(s) for s in intervals):
            self.fail("per-GPU service intervals overlap")


# ----------------------------------------------------------------------
# cluster_failover — three nodes, one killed mid-run
# ----------------------------------------------------------------------
class ClusterFailover(Driver):
    name = "cluster_failover"
    loop = "open, Poisson at 0.8x cluster capacity"
    open_loop = True
    block = 4
    cache_ratio = 0.12
    deadline_factor = 10.0
    base_config = ClusterConfig(nodes=3, replication=2, placement="ring")

    def build_nodes(self) -> list[CacheNode]:
        return [
            CacheNode(
                node_id=n, platform=self.platform, table=self.inp.table,
                hotness=self.hotness, member_mask=mask,
                capacity_entries=self.capacity,
            )
            for n, mask in enumerate(self.member_masks)
        ]

    def setup(self) -> None:
        inp, cfg = self.inp, self.base_config
        self.platform = server_a()
        k = self.sizes["batch_keys"]
        self.hotness = inp.pmf * k * self.platform.num_gpus
        self.capacity = max(1, int(self.cache_ratio * len(inp.pmf)))
        self.ring = ClusterFrontend.build_placement(cfg, self.hotness)
        owners = self.ring.owners_for(np.arange(len(inp.pmf), dtype=np.int64))
        self.member_masks = [(owners == n).any(axis=1) for n in range(cfg.nodes)]
        self.nodes = self.timed("fill", self.build_nodes)
        # The time unit: one request's extraction on a node, averaged over
        # the nodes (a single node's price swings ~15% with where the ring
        # happens to put the seed's hottest rows; the mean does not).
        self.s0 = float(np.mean(
            [n.service_seconds(b) for n in self.nodes for b in inp.s0_keys]
        ))
        self.rate = self.sizes["load"] * cfg.nodes / self.s0
        leg0 = cfg.rpc.healthy_leg(self.s0, k * self.nodes[0].cache.entry_bytes)
        self.deadline = self.deadline_factor * leg0
        # The breaker cooldown lives on the simulated clock (as in the
        # cluster soak): ~50 mean inter-arrival times.
        self.config = replace(
            cfg, breaker=replace(cfg.breaker, cooldown_seconds=50.0 / self.rate)
        )
        self.arrivals = inp.arrivals / self.rate
        duration = len(self.arrivals) / self.rate
        plan = build_soak_plan("node-kill", duration, 0)
        # The health schedule is an input: one view per arrival.
        self.health = [plan.health_at(float(t)) for t in self.arrivals]
        self.down = np.array([bool(h.down_nodes) for h in self.health])

    def caches(self):
        return [n.cache for n in self.nodes]

    def new_pass(self) -> None:
        super().new_pass()
        # Fresh nodes reset the ingress round-robin pointers; a fresh
        # front-end resets node breakers and the retry-jitter stream.
        self.nodes = self.build_nodes()
        self.frontend = ClusterFrontend(
            self.nodes, self.config, baseline_service=self.s0,
            hotness=self.hotness, placement=self.ring,
        )

    def run_pass(self, rec, check: bool) -> PassResult:
        frontend, keys, arrivals = self.frontend, self.inp.keys, self.arrivals
        responses = []
        rec.start()
        for i in range(len(keys)):
            rec.op(i)
            responses.append(
                frontend.serve(keys[i], float(arrivals[i]), self.health[i], execute=True)
            )
            if (i + 1) % self.block == 0:
                rec.mark()
        if len(keys) % self.block:
            rec.mark()

        complete = np.array([r.ok for r in responses])
        elapsed = np.array([r.elapsed for r in responses])
        ok = complete & (elapsed <= self.deadline)
        steady = ok[~self.down].mean() if (~self.down).any() else 0.0
        window = ok[self.down].mean() if self.down.any() else steady
        served = sum(r.served for r in responses)
        total = lambda attr: sum(getattr(r, attr) for r in responses)
        result = PassResult(
            requests=len(keys), failed=int((~complete).sum()),
            refused=int((complete & ~ok).sum()),
            keys_ok=int(sum(r.served for r, good in zip(responses, ok) if good)),
            latencies=elapsed[ok],
            sim_span=len(keys) / self.rate,
            counts={
                **registry_counts(self.registry),
                "cluster.frontend.failovers": total("failovers"),
                "cluster.frontend.replica_read_share": (
                    total("replica_keys") / served if served else 0.0
                ),
                "cluster.frontend.host_fallback_keys": total("host_fallback_keys"),
                "cluster.frontend.partial_responses": sum(r.partial for r in responses),
                "cluster.frontend.failover_goodput_ratio": (
                    float(window / steady) if steady else 0.0
                ),
                "cluster.rpc.retries": total("rpc_retries"),
                "cluster.rpc.timeouts": total("rpc_timeouts"),
                "serve.breaker.transitions": sum(
                    frontend.breakers.transition_counts().values()
                ),
                "serve.runtime.hedges": total("hedges"),
                "serve.runtime.hedge_wins": total("hedge_wins"),
            },
        )
        if check:
            self.check_values(responses, ok)
            for violation in frontend.verify_integrity():
                self.fail(f"integrity: {violation}")
        return result

    def check_values(self, responses, ok) -> None:
        keys = self.inp.keys
        host = 0.0
        for i, r in enumerate(responses):
            if ok[i] and not rows_exact(r.values, self.inp.reference, keys[i]):
                self.wrong(f"request {i}: rows differ from table[keys]")
            # Placement quality, not failover behaviour: the share of keys
            # their *primary* owner's GPUs do not hold.
            primary = self.ring.owners_for(keys[i])[:, 0]
            for n in np.unique(primary):
                group = keys[i][primary == n]
                host += self.nodes[int(n)].cache.lookup(0, group).host_fraction * len(group)
        self.host_key_share = host / keys.size

# ----------------------------------------------------------------------
# refresh_mixed — writes beside reads (paper section 7.2)
# ----------------------------------------------------------------------
class RefreshMixed(Driver):
    name = "refresh_mixed"
    loop = "closed, 1 caller"
    cache_ratio = 0.12
    extracts_per_step = 2

    def setup(self) -> None:
        inp = self.inp
        self.platform = server_a()
        G = self.platform.num_gpus
        scale = self.sizes["batch_keys"] * G
        self.entry_bytes = inp.table.shape[1] * inp.table.itemsize
        self.capacity = max(1, int(self.cache_ratio * len(inp.pmf)))
        self.hotness_a, self.hotness_b = inp.pmf * scale, inp.pmf_b * scale
        solved = self.timed("solve", self.solve, self.hotness_a)
        self.placement_a = self.timed("realize", solved.realize)
        self.cache = self.timed(
            "fill", MultiGpuEmbeddingCache, self.platform, inp.table, self.placement_a
        )
        self.extractor = FactoredExtractor(self.cache)

    def solve(self, hotness):
        solved = core_solver.solve_policy(
            self.platform, hotness, self.capacity, self.entry_bytes, SOLVER
        )
        self.solves.append(solved)
        return solved

    def dense_route(self) -> tuple[np.ndarray, np.ndarray]:
        """GPU 0's routing as dense (source, offset) arrays."""
        sources = np.asarray(self.cache.source_map[0]).astype(np.int64)
        offsets = np.arange(len(sources), dtype=np.int64)
        for g in self.platform.gpu_ids:
            routed = np.flatnonzero(sources == g)
            offsets[routed] = self.cache.store(g).offset_of[routed]
        return sources, offsets

    def new_pass(self) -> None:
        super().new_pass()
        del self.solves[1:]  # keep the set-up solve; this pass appends its two
        # An incremental refresh leaves a different slot layout than a
        # fresh fill, so every pass restarts from the same filled state.
        self.cache.replace_placement(self.placement_a)
        self.refresher = Refresher(self.cache, RefreshConfig(update_batch_entries=512))
        # The paper's section-4 hashtable for GPU 0, kept in step with the
        # refreshes by the benchmark (the product serves from dense arrays).
        self.route = self.dense_route()
        self.shadow = LocationTable.from_source_map(
            *self.route, num_sources=self.platform.num_gpus
        )

    def run_pass(self, rec, check: bool) -> PassResult:
        inp = self.inp
        reports, step_outcomes, table_ops = [], [], {"insert": 0, "remove": 0, "lookup": 0}
        op = 0
        rec.start()
        for hotness, pool in ((self.hotness_b, inp.keys_b), (self.hotness_a, inp.keys)):
            rec.op(op)
            solved = self.solve(hotness)
            rec.mark(SOLVE)
            placement = solved.realize()
            rec.mark(REALIZE)
            op += 1
            outcome = None
            for step, outcome in enumerate(self.refresher.refresh_steps(placement)):
                rec.mark(STEP)
                # Two foreground batches per step: twice the mid-refresh
                # samples for the simulated percentiles at the same step count.
                for j in range(self.extracts_per_step):
                    keys = pool[(self.extracts_per_step * step + j) % len(pool)]
                    rec.op(op)
                    values, report = self.extractor.extract(list(keys))
                    op += 1
                    reports.append(report)
                    if check:
                        for gpu, got in enumerate(values):
                            if not rows_exact(got, inp.reference, keys[gpu]):
                                self.wrong(f"mid-refresh extract {op} GPU {gpu}: rows differ")
                rec.mark(EXTRACT)
            step_outcomes.append(outcome)
            rec.op(op)
            self.sync_shadow(pool[0][0], table_ops, check)
            rec.mark(SYNC)
            op += 1
        times = np.array([r.time for r in reports])
        G, k = self.platform.num_gpus, self.sizes["batch_keys"]
        if check:
            host = sum(r.volume_split()["host"] for r in reports)
            self.host_key_share = host / sum(r.total_volume() for r in reports)
            for violation in self.cache.verify_integrity():
                self.fail(f"integrity: {violation}")
        return PassResult(
            requests=len(reports) * G, keys_ok=len(reports) * G * k,
            latencies=np.array([g.time for r in reports for g in r.per_gpu]),
            sim_span=float(times.sum()),
            counts={
                **registry_counts(self.registry),
                "core.extractor.sim_extract_s_p50": p50(times),
                "core.refresher.steps": sum(o.steps for o in step_outcomes),
                "core.refresher.entries_moved": sum(o.entries_moved for o in step_outcomes),
                "core.location_table.insert_keys": table_ops["insert"],
                "core.location_table.remove_keys": table_ops["remove"],
                "core.location_table.lookup_keys": table_ops["lookup"],
                "core.location_table.max_probe_length": self.shadow.max_probe_length(),
            },
        )

    def sync_shadow(self, probe: np.ndarray, ops: dict, check: bool) -> None:
        """Apply the finished refresh to the hashtable and read it back."""
        old_src, old_off = self.route
        new_src, new_off = self.dense_route()
        gone = np.flatnonzero((old_src >= 0) & (new_src < 0))
        moved = np.flatnonzero(
            (new_src >= 0) & ((new_src != old_src) | (new_off != old_off))
        )
        self.shadow.remove_batch(gone)
        self.shadow.insert_batch(moved, new_src[moved], new_off[moved])
        got_src, got_off = self.shadow.lookup_batch(probe)
        self.route = (new_src, new_off)
        ops["remove"] += len(gone)
        ops["insert"] += len(moved)
        ops["lookup"] += len(probe)
        if check:
            want_src = np.where(new_src[probe] < 0, -1, new_src[probe])
            if not (np.array_equal(got_src, want_src)
                    and np.array_equal(got_off, new_off[probe])):
                self.fail("hashtable lookups diverge from the dense source map")

DRIVERS = {
    d.name: d
    for d in (ExtractBatch, ServeClosed, ServeCoalesceOverload, ClusterFailover, RefreshMixed)
}
