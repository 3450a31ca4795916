"""Soak harness: sustained traffic + faults through the serving runtime.

``python -m repro soak`` drives open-loop Poisson (or closed-loop) traffic
through :class:`~repro.serve.runtime.ServingRuntime` on a simulated clock,
optionally under a :class:`~repro.faults.spec.FaultPlan`, with hot policy
swaps landed mid-run.  It reports goodput, shed rate, breaker state
transitions, and p50/p99/p999 latency.  Every fault drill is a soak row:
a box run with a fault plan reports a :class:`FaultSection`, whose gate
is the probe latency after the final drain against a freshly filled,
never-faulted cache holding the run's final placement, and on a bit-rot
plan that the scrubber saw rot at all.

A soak is a harness object — :class:`BoxSoak` here, the cluster soak's
beside it — that :func:`drive` feeds through the one traffic loop,
:func:`drive_arrivals`: set up, ``arrive`` per event, ``finish``,
``report``.  Inside :class:`BoxSoak` every service starts in one drain,
``serve_until``, so the start rule is written once.  A finished request
is a record (``runtime.responses`` here) and every reported number a pass
over the records: :func:`build_report` and :func:`window_ok_ratio` serve
both harnesses.  The report is a core both compute plus one
:class:`Section` per feature the run configured, each defined, filled,
gated and rendered where it is filled.  Each run ends with
:func:`~repro.serve.request.check_time_physics` over its responses;
violations are integrity failures (DESIGN.md §6g).

The harness is *scale-free*: it measures the healthy baseline service
time ``s0`` of one batch first, then derives the arrival rate
(``load / s0``), deadlines, SLO, and breaker timeouts as multiples of
``s0``.  That keeps every scenario meaningful whether a batch costs
microseconds (tiny CI tables) or milliseconds (paper-sized ones), and
keeps runs bit-reproducible from one seed.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.extractor import FactoredExtractor
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.core.refresher import RefreshConfig, Refresher
from repro.core.solver import SolverConfig
from repro.faults.injector import FaultInjector
from repro.faults.spec import (
    NODE_FAULT_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.hardware.platform import Platform, parse_tier_spec
from repro.obs import MetricsRegistry, get_registry, use_registry
from repro.repair import CacheScrubber
from repro.serve.breaker import BreakerConfig
from repro.serve.coalesce import (
    BatchingMode,
    CoalesceConfig,
    CoalesceOutcome,
    MicroBatcher,
)
from repro.serve.policy_manager import PolicyManager
from repro.serve.queueing import AdmissionConfig
from repro.serve.request import RequestStatus, check_time_physics
from repro.serve.runtime import ServeConfig, ServingRuntime
from repro.utils.logging import get_logger
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.stats import choice_cdf, sample_cdf, zipf_pmf

logger = get_logger("serve.soak")

__all__ = [
    "CLUSTER_SCENARIOS",
    "SOAK_SCENARIOS",
    "SoakConfig",
    "SoakReport",
    "build_soak_plan",
    "build_stack",
    "drive_arrivals",
    "poisson_schedule",
    "render_soak_report",
    "run_soak",
]

#: Derived knobs of the single-box soak, in units of the healthy baseline
#: service time ``s0``: the admission SLO and the per-source breaker
#: timeout.
SLO_FACTOR = 8.0
TIMEOUT_FACTOR = 5.0
#: Request deadline, in units of ``s0`` (the cluster soak: of one healthy
#: RPC leg), and the bound of each GPU's admission queue.
DEADLINE_FACTOR = 10.0
QUEUE_CAPACITY = 32
#: Fractions of the run at which a hot policy swap is attempted.
SWAP_AT = (0.6,)

#: The workload both harnesses (soak, cluster soak) build their stack
#: from: Zipf skew of the access distribution, and per-GPU cache capacity
#: as a fraction of the table.
ZIPF_ALPHA = 1.1
CACHE_RATIO = 0.12

#: Transition-window length after each drift change point, as a fraction
#: of the run; the soak gate judges goodput *inside* these windows (where
#: an unadapted policy bleeds).
DRIFT_WINDOW = 0.25

#: Ceiling on serving latency once the faults have cleared, relative to
#: the latency before the first onset (the cluster's mean OK latency, the
#: box's probe); beyond it a run "never recovered".
DEFAULT_RECOVERY_TOLERANCE: float = 1.25


class Scenario(NamedTuple):
    """One row of :data:`SOAK_SCENARIOS`: what a deployment decides."""

    platform: str
    description: str
    #: the faults of a run of length 1 and seed 0, which
    #: :func:`build_soak_plan` scales to the run at hand.
    faults: tuple[FaultSpec, ...] = ()
    #: models sharing the embedding table: it splits into this many
    #: contiguous per-model segments, each with its own Zipf head, and
    #: every request is drawn from exactly one model.
    tenants: int = 1


#: The one scenario table: name → platform, description, faults and
#: tenant models.
SOAK_SCENARIOS: dict[str, Scenario] = {
    "steady": Scenario(
        "server-a", "no faults; pure overload/backpressure behaviour"
    ),
    "dgx_a100_partial_failure": Scenario(
        "server-c",
        "8xA100 box loses GPU 5, degrades a link, and corrupts slots",
        (
            FaultSpec(FaultKind.GPU_FAILURE, 0.30, 0.25, gpu=5),
            FaultSpec(
                FaultKind.LINK_DEGRADATION, 0.35, 0.30, severity=0.7, link=(0, 1)
            ),
            FaultSpec(FaultKind.CORRUPT_SLOT, 0.40, 0.10, severity=0.05, gpu=1),
        ),
    ),
    "corrupt-slot-storm": Scenario(
        "server-a",
        "repeated location-table corruption bursts on two GPUs",
        (
            FaultSpec(FaultKind.CORRUPT_SLOT, 0.25, 0.1, severity=0.08, gpu=1),
            FaultSpec(
                FaultKind.CORRUPT_SLOT, 0.55, 0.1, severity=0.08, gpu=2, seed=1
            ),
        ),
    ),
    "host-stall": Scenario(
        "server-a",
        "PCIe loses 90% of its bandwidth mid-run",
        (FaultSpec(FaultKind.HOST_STALL, 0.35, 0.3, severity=0.9),),
    ),
    "gpu-failure": Scenario(
        "server-a",
        "GPU 1 dies mid-run; reads of its entries reroute",
        (FaultSpec(FaultKind.GPU_FAILURE, 0.35, 0.25, gpu=1),),
    ),
    "link-degradation": Scenario(
        "server-a",
        "the link between GPUs 0 and 1 loses 75% of its bandwidth",
        (FaultSpec(
            FaultKind.LINK_DEGRADATION, 0.35, 0.25, severity=0.75, link=(0, 1)
        ),),
    ),
    "link-partition": Scenario(
        "server-a",
        "the link between GPUs 0 and 1 goes dark; reads across it reroute",
        (FaultSpec(FaultKind.LINK_PARTITION, 0.35, 0.25, link=(0, 1)),),
    ),
    # The rot rows flip cached bytes silently (~7-17 flips in a quick
    # run): the scrubber and read guard, not the health view, catch them.
    "bit-rot": Scenario(
        "server-a",
        "a burst of silent byte flips in the GPU caches",
        (FaultSpec(FaultKind.BIT_ROT, 0.35, 0.25, rate=48.0),),
    ),
    "slow-leak-corruption": Scenario(
        "server-a",
        "bit-rot drips over the whole run; scrubbing must converge",
        (FaultSpec(FaultKind.BIT_ROT, 0.0, 1.0, rate=12.0),),
    ),
    "node-kill": Scenario(
        "server-a",
        "a whole cache-server node dies mid-run and later heals",
        (FaultSpec(FaultKind.NODE_DOWN, 0.35, 0.25, node=1),),
    ),
    "node-flap": Scenario(
        "server-a",
        "a node repeatedly dies and recovers (two down windows)",
        (
            FaultSpec(FaultKind.NODE_DOWN, 0.25, 0.12, node=1),
            FaultSpec(FaultKind.NODE_DOWN, 0.55, 0.12, node=1),
        ),
    ),
    "node-partition": Scenario(
        "server-a",
        "a node is cut off from the front-end but keeps its state",
        (FaultSpec(FaultKind.NODE_PARTITION, 0.35, 0.25, node=1),),
    ),
    "node-slow": Scenario(
        "server-a",
        "a node keeps serving at 10% speed (GC pause / noisy neighbour)",
        (FaultSpec(FaultKind.NODE_SLOW, 0.35, 0.3, severity=0.9, node=1),),
    ),
    "node-kill-bit-rot": Scenario(
        "server-a",
        "a node dies and heals while every node's caches silently bit-rot",
        (
            FaultSpec(FaultKind.NODE_DOWN, 0.35, 0.25, node=1),
            # Slow silent corruption across every node's caches for most
            # of the run (~54 byte flips at this rate) — the scrubber and
            # read guard, not the health view, have to catch it.
            FaultSpec(FaultKind.BIT_ROT, 0.05, 0.90, rate=60.0),
        ),
    ),
    "heal-storm": Scenario(
        "server-a",
        "staggered node deaths whose staged refills overlap: node 1 "
        "dies twice around node 2's stint",
        tuple(
            FaultSpec(FaultKind.NODE_DOWN, at, 0.15, node=node)
            for at, node in ((0.25, 1), (0.45, 2), (0.65, 1))
        ),
    ),
    # hps-multitenant's stress is the tier chain itself, not chaos: every
    # DRAM miss pays the deeper tier's bandwidth and latency.
    "hps-multitenant": Scenario(
        "server-a-tiered",
        "parameter-server shape: several models' tables share a "
        "DRAM-to-SSD backing chain larger than DRAM",
        tenants=3,
    ),
}

#: Scenarios that only make sense for a multi-node soak (``--nodes > 1``):
#: the ones that take a whole node away.
CLUSTER_SCENARIOS: frozenset[str] = frozenset(
    name
    for name, row in SOAK_SCENARIOS.items()
    if any(f.kind in NODE_FAULT_KINDS for f in row.faults)
)
#: Scenarios the cluster soak runs: the node rows and the fault-free
#: one-model ones (it injects node faults and bit-rot only, and draws
#: every request from one table).
CLUSTER_RUNNABLE: frozenset[str] = CLUSTER_SCENARIOS | {
    name for name, row in SOAK_SCENARIOS.items()
    if not row.faults and row.tenants == 1
}
#: The drift value's suffix that turns online adaptation on.
ADAPT_ARM = "+adapt"


def build_soak_plan(
    scenario: str, duration: float, seed: int = 0
) -> FaultPlan | None:
    """The fault schedule a soak scenario injects, scaled to ``duration``."""
    if scenario not in SOAK_SCENARIOS:
        raise ValueError(
            f"unknown soak scenario {scenario!r}; try one of "
            f"{sorted(SOAK_SCENARIOS)}"
        )
    faults = tuple(
        replace(
            f,
            onset=f.onset * duration,
            duration=f.duration * duration,
            seed=f.seed + seed,
            rate=f.rate / duration,
        )
        for f in SOAK_SCENARIOS[scenario].faults
    )
    if not faults:
        return None
    return FaultPlan(faults=faults, seed=seed, name=scenario)


def _drift_choices() -> tuple[str, ...]:
    """Every :data:`repro.dlr.drift.DRIFT_SCENARIOS` schedule, bare and with
    :data:`ADAPT_ARM` (imported on first use: a soak that does not drift
    never imports ``repro.dlr``)."""
    from repro.dlr.drift import DRIFT_SCENARIOS

    return tuple(name + arm for name in DRIFT_SCENARIOS for arm in ("", ADAPT_ARM))


def _flag(default, help: str, **argparse_kwargs):
    """A :class:`SoakConfig` field that is a ``repro soak`` flag as well,
    declared once: its default, its help (the field's doc and the flag's),
    and argparse's ``flag`` (default ``--`` and the dashed name),
    ``metavar`` and ``choices`` — a function returning the values the
    config accepts, so that a table is imported on first use."""
    return field(default=default, metadata=dict(help=help, **argparse_kwargs))


@dataclass(frozen=True)
class SoakConfig:
    """Workload shape and derived-knob factors (everything × ``s0``); the
    scenario row decides the platform, the faults and the tenant models."""

    scenario: str = _flag(
        "steady", "the scenario row: platform, faults and tenant models "
        "(the node-* rows need --nodes > 1)", choices=SOAK_SCENARIOS.keys,
    )
    requests_per_gpu: int = _flag(
        300, "requests per GPU over the whole run (sets its length)",
        flag="--requests", metavar="N",
    )
    load: float = _flag(
        0.8, "offered load per GPU as a fraction of its service capacity; "
        "> 1 is sustained overload",
    )
    closed_loop: bool = _flag(
        False, "closed-loop clients instead of open-loop Poisson"
    )
    clients: int = _flag(4, "outstanding clients per GPU (closed loop)")
    num_entries: int = 20_000
    entry_bytes: int = 128
    batch_keys: int = 1024
    batching: BatchingMode = _flag(
        BatchingMode.OFF, "cross-request coalescing: off serves each GPU's "
        "queue one request at a time, coalesce micro-batches it",
        choices=lambda: [mode.value for mode in BatchingMode],
    )
    max_batch: int = _flag(
        8, "most requests fused into one extraction (coalesce)"
    )
    #: micro-batch linger, in units of the baseline service time ``s0``.
    linger_factor: float = 0.5
    nodes: int = _flag(
        1, "cache-server nodes; > 1 runs the cluster soak"
    )
    replication: int = _flag(1, "replicas per key across nodes (<= --nodes)")
    placement: str = _flag(
        "ring", "node placement: consistent-hash ring, or the solver's "
        "hotness-balanced stage above the per-GPU MILP",
        choices=lambda: ("ring", "solver"),
    )
    tiers: str | None = _flag(
        None, "backing-tier chain replacing the platform's, e.g. "
        "'dram:8GB,ssd:1TB' (kind:capacity[:GB/s[:lat_us]] per tier, tier "
        "0 first)", metavar="SPEC",
    )
    drift: str | None = _flag(
        None, "hotness drift: the key distribution changes mid-run on a "
        "piecewise schedule and drift, not the clock, decides re-solves; "
        f"{ADAPT_ARM} adapts online (estimator, detector, warm re-solves) "
        "and the command gates it on a rerun without",
        choices=_drift_choices,
    )
    seed: int = _flag(0, "seed of the table, the trace and the faults")

    @classmethod
    def quick(cls, seed: int = 0, **overrides) -> "SoakConfig":
        """CI-sized soak (sub-second wall time per scenario)."""
        defaults = dict(
            requests_per_gpu=120,
            num_entries=3_000,
            batch_keys=256,
            entry_bytes=64,
            seed=seed,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @property
    def adapt(self) -> bool:
        """Whether the drift value carries the :data:`ADAPT_ARM`."""
        return self.drift is not None and self.drift.endswith(ADAPT_ARM)

    def __post_init__(self) -> None:
        for f in fields(self):
            value, allowed = getattr(self, f.name), f.metadata.get("choices")
            if value is not None and allowed and value not in allowed():
                raise ValueError(f"unknown {f.name} {value!r}")
        row, coalesce = SOAK_SCENARIOS[self.scenario], self.batching == BatchingMode.COALESCE
        runnable = CLUSTER_RUNNABLE if self.nodes > 1 else SOAK_SCENARIOS.keys() - CLUSTER_SCENARIOS
        # Value ranges, then the pairs no harness runs (no row spells them).
        for reason, refused in {
            "need at least one request per GPU": self.requests_per_gpu < 1,
            "offered load must be positive": self.load <= 0,
            "closed loop needs at least one client": self.clients < 1,
            "a request needs at least one key": self.batch_keys < 1,
            f"need an entry per model table ({row.tenants})": self.num_entries < row.tenants,
            "max batch must be at least 1": self.max_batch < 1,
            "linger factor must be non-negative": self.linger_factor < 0,
            f"need 1 <= replication <= nodes, got {self.replication} and {self.nodes}":
                not 1 <= self.replication <= self.nodes,
            f"the {'cluster' if self.nodes > 1 else 'single-box'} soak supports scenarios "
            f"{sorted(runnable)}; the node rows need --nodes > 1": self.scenario not in runnable,
            "coalescing drains the single box's open-loop queues only":
                coalesce and (self.closed_loop or self.nodes > 1),
            "a drift schedule drives the single box's open-loop, uncoalesced, one-model "
            "trace only": self.drift is not None and (
                self.nodes > 1 or self.closed_loop or coalesce or row.tenants > 1),
        }.items():
            if refused:
                raise ValueError(reason)
        if self.tiers is not None:
            parse_tier_spec(self.tiers)  # raise early on a bad spec


class Section:
    """One feature's block of a :class:`SoakReport`, present only when the
    run configured the feature: defined where it is filled, it gates
    (:attr:`ok`) and renders (``lines()``) its own numbers."""

    @property
    def ok(self) -> bool:
        return True


@dataclass
class BoxSection(Section):
    """The single box's bounded queues, deadline hedges (a host gather
    raced against the plan), rerouted keys, policy swaps and tenants."""

    max_queue_depth: int
    queue_capacity: int
    hedges: int
    hedge_wins: int
    rerouted_keys: int
    swaps_attempted: int
    swaps_landed: int
    rollbacks: int
    tenants: int

    @property
    def ok(self) -> bool:
        return self.max_queue_depth <= self.queue_capacity

    def lines(self) -> list[str]:
        tenants = (
            [f"  tenants       {self.tenants} models share the table"]
            if self.tenants > 1 else []
        )
        return tenants + [
            f"  queues        max depth {self.max_queue_depth}/"
            f"{self.queue_capacity}",
            f"  hedging       {self.hedges} issued, {self.hedge_wins} won",
            f"  rerouting     {self.rerouted_keys} keys moved off faulty sources",
            f"  policy swaps  {self.swaps_landed}/{self.swaps_attempted} "
            f"landed, {self.rollbacks} rolled back",
        ]


@dataclass
class FaultSection(Section):
    """A box run under a fault plan: whether it recovered, and on a
    bit-rot plan the rot its scrubber and read guard caught."""

    #: the probe keys' serving latency after the final drain over the one
    #: of a freshly filled, never-faulted cache holding the final
    #: placement (:meth:`BoxSoak.healthy_probe`); None on a drift run,
    #: whose placement moves on purpose (absent from the JSON).
    probe_ratio: float | None
    bit_rot: bool
    #: rotten slots the scrub found plus rotten rows the read guard patched.
    rot_detected: int
    rot_repaired: int

    @property
    def ok(self) -> bool:
        return (
            self.probe_ratio is None
            or self.probe_ratio <= DEFAULT_RECOVERY_TOLERANCE
        ) and (not self.bit_rot or self.rot_detected > 0)

    def lines(self) -> list[str]:
        recovered = (
            "unjudged (a drift run moves its placement)"
            if self.probe_ratio is None
            else f"{self.probe_ratio:.2f}x healthy after the drain "
            f"(gate {DEFAULT_RECOVERY_TOLERANCE:.2f}x)"
        )
        rot = (
            f"; rot {self.rot_detected} detected, {self.rot_repaired} repaired"
            if self.bit_rot else ""
        )
        return [f"  faults        probe latency {recovered}{rot}"]


@dataclass
class CoalesceSection(Section):
    """Cross-request coalescing: batches served, their mean size and the
    member keys per union key."""

    coalesced_batches: int
    mean_batch_size: float
    dedup_ratio: float

    def lines(self) -> list[str]:
        return [
            f"  coalescing    {self.coalesced_batches} batches, "
            f"mean size {self.mean_batch_size:.2f}, "
            f"dedup ratio {self.dedup_ratio:.2f}x"
        ]


@dataclass
class TierSection(Section):
    """The backing chain as "dram:64GB+ssd:1TB", and tier name → fraction
    of the table homed there (empty on the cluster, whose nodes each rank
    their own shard)."""

    tiers: str
    tier_shares: dict

    @classmethod
    def of(cls, platform: Platform, chain) -> "TierSection | None":
        """The section of a run on ``platform`` — None on a single tier —
        with the homes of ``chain`` (a cache's tier chain, or None).  A
        tier is named by its kind, plus its chain position when two tiers
        share a kind (e.g. two DRAM levels)."""
        if platform.num_tiers <= 1:
            return None
        label = "+".join(
            f"{t.name}:{_fmt_capacity(t.capacity_bytes)}" for t in platform.tiers
        )
        if chain is None:
            return cls(label, {})
        kinds = [t.name for t in platform.tiers]
        homed = chain.shares()
        return cls(label, {
            f"{kind}{i}" if kinds.count(kind) > 1 else kind:
                float(homed.get(platform.tier_source_id(i), 0.0))
            for i, kind in enumerate(kinds)
        })

    def lines(self) -> list[str]:
        homed = ", ".join(
            f"{name} {share:.1%}" for name, share in self.tier_shares.items()
        )
        return [f"  tiers         {self.tiers}  homed: {homed or 'n/a'}"]


@dataclass
class AdaptSection(Section):
    """Online drift adaptation: detections, re-solves, the swaps they
    landed, the detector tape (one dict per check) and the event log."""

    drift_detections: int
    adapt_resolves: int
    adapt_incremental_resolves: int
    adapt_swaps_landed: int
    adapt_rollbacks: int
    drift_tape: list
    adapt_events: list

    def lines(self) -> list[str]:
        return [
            f"  adaptation    {self.drift_detections} detection(s) -> "
            f"{self.adapt_resolves} re-solve(s) "
            f"({self.adapt_incremental_resolves} incremental), "
            f"{self.adapt_swaps_landed} swap(s) landed, "
            f"{self.adapt_rollbacks} rolled back"
        ]


@dataclass
class DriftSection(Section):
    """A hotness-drift run: its change points and the OK-rate inside the
    post-change-point windows over the steady one — the number adaptation
    exists to defend — with ``adapt`` on the drift value's adapt arm."""

    drift_scenario: str
    drift_transitions: int
    transition_requests: int
    transition_ok_rate: float
    transition_goodput_ratio: float
    adapt: AdaptSection | None

    def lines(self) -> list[str]:
        return [
            f"  drift         {self.drift_scenario}: "
            f"{self.drift_transitions} change point(s), transition goodput "
            f"{self.transition_goodput_ratio:.0%} of steady "
            f"(ok rate {self.transition_ok_rate:.1%} over "
            f"{self.transition_requests} requests)",
            *(self.adapt.lines() if self.adapt is not None else []),
        ]


@dataclass
class SoakReport:
    """What a soak run measured, JSON-able for CI gating: the core both
    harnesses compute through :func:`build_report`, then one section per
    feature the run configured (None otherwise), in render order.  The
    cluster section is defined in :mod:`repro.cluster.soak`."""

    scenario: str
    requests: int
    served_ok: int
    shed: int
    rejected: int
    expired: int
    failed: int
    goodput_rps: float
    shed_rate: float
    p50_latency: float
    p99_latency: float
    p999_latency: float
    #: breaker history: transition counts, and per source/node id the
    #: counts and accumulated seconds per state.
    breaker_transitions: dict
    breaker_transitions_by_source: dict
    breaker_time_in_state: dict
    integrity_failures: int
    duration: float
    arrival_rate: float
    baseline_service: float
    box: BoxSection | None = None
    faults: FaultSection | None = None
    coalesce: CoalesceSection | None = None
    tiers: TierSection | None = None
    drift: DriftSection | None = None
    cluster: Section | None = None

    def sections(self) -> list[Section]:
        """The present sections, in field (render) order."""
        values = (getattr(self, f.name) for f in fields(self))
        return [v for v in values if isinstance(v, Section)]

    @property
    def ok(self) -> bool:
        """The CI gate: progress was made, nothing corrupted (the caches'
        and tier chain's checks, the time physics, on the cluster every
        wrong row served), and every present section passes its own gate.
        A tiered run's ×s0 knobs derive from a baseline priced on its full
        chain, so a miss to SSD is judged against SSD-speed deadlines."""
        return (
            self.served_ok > 0
            and self.integrity_failures == 0
            and all(s.ok for s in self.sections())
        )

    def to_dict(self) -> dict:
        """``repro.soak/v2``: the core fields, ``schema``, ``ok`` and one
        key per present section."""
        doc = asdict(self, dict_factory=lambda items: {
            k: v for k, v in items if v is not None  # absent sections
        })
        doc["schema"] = "repro.soak/v2"
        doc["ok"] = self.ok
        return doc


def _soak_platform(cfg: SoakConfig):
    """The scenario's platform, with ``cfg.tiers`` overriding its chain."""
    from repro.bench.contexts import platform_by_name
    from repro.hardware.platform import parse_tier_spec, with_tiers

    platform = platform_by_name(SOAK_SCENARIOS[cfg.scenario].platform)
    if cfg.tiers:
        platform = with_tiers(
            platform, parse_tier_spec(cfg.tiers, platform.pcie_bandwidth)
        )
    return platform


def _build_workload(cfg: SoakConfig, pmf: np.ndarray | None = None):
    """The request-key distribution: one table (Zipf unless ``pmf`` says
    otherwise — a drift schedule's opening phase), or the scenario row's
    tenant models' tables laid side by side, each with its own Zipf head.

    Returns ``(pmf, draw)``: the stationary mixture pmf (what the cache
    policy, probes, and baseline pricing see) and ``draw(rng)`` sampling
    one request's keys.  A multi-tenant request is drawn from exactly one
    model's segment — an inference request only ever touches its own
    model's embeddings — with the model picked from a Zipf popularity
    over tenants.  One tenant reproduces the classic single-table draws
    byte-for-byte.
    """
    tenants = SOAK_SCENARIOS[cfg.scenario].tenants
    if tenants <= 1:
        if pmf is None:
            pmf = zipf_pmf(cfg.num_entries, ZIPF_ALPHA)
        cdf = choice_cdf(pmf)

        def draw(rng) -> np.ndarray:
            return sample_cdf(cdf, rng, cfg.batch_keys)

        return pmf, draw

    bounds = np.floor(
        np.linspace(0.0, cfg.num_entries, tenants + 1)
    ).astype(np.int64)
    popularity = zipf_pmf(tenants, ZIPF_ALPHA)
    segments: list[tuple[int, np.ndarray]] = []
    pmf = np.zeros(cfg.num_entries, dtype=np.float64)
    for t in range(tenants):
        lo, hi = int(bounds[t]), int(bounds[t + 1])
        seg_pmf = zipf_pmf(hi - lo, ZIPF_ALPHA)
        segments.append((lo, choice_cdf(seg_pmf)))
        pmf[lo:hi] = popularity[t] * seg_pmf
    tenant_cdf = choice_cdf(popularity)

    def draw(rng) -> np.ndarray:
        lo, seg_cdf = segments[int(sample_cdf(tenant_cdf, rng))]
        return lo + sample_cdf(seg_cdf, rng, cfg.batch_keys)

    return pmf, draw


def _fmt_capacity(n: int) -> str:
    """``1_000_000_000_000 → "1TB"`` — decimal units, report-friendly."""
    for unit, div in (("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if n >= div:
            return f"{n / div:g}{unit}"
    return f"{n}B"


@dataclass
class Stack:
    """What :func:`build_stack` hands both soaks."""

    platform: Platform
    table: np.ndarray
    pmf: np.ndarray
    #: expected accesses per entry per iteration (all GPUs' batches).
    hotness: np.ndarray
    #: per-GPU cache capacity in entries.
    capacity: int
    #: the filled single-box cache; None when the caller builds its own
    #: (cluster nodes each fill their shard's).
    cache: MultiGpuEmbeddingCache | None


def build_stack(cfg: SoakConfig, platform: Platform,
                pmf: np.ndarray | None = None, fill: bool = True) -> Stack:
    """The prelude of both harnesses: seeded table → access pmf → hotness
    → capacity → hot-replicate/warm-partition placement → filled cache.
    ``pmf`` defaults to one Zipf table; a multi-tenant or drift soak
    passes its own.
    """
    dim = max(1, cfg.entry_bytes // 4)
    table = make_rng(cfg.seed).standard_normal(
        (cfg.num_entries, dim)
    ).astype(np.float32)
    if pmf is None:
        pmf = zipf_pmf(cfg.num_entries, ZIPF_ALPHA)
    hotness = pmf * cfg.batch_keys * platform.num_gpus
    capacity = max(1, int(CACHE_RATIO * cfg.num_entries))
    cache = None
    if fill:
        placement = hot_replicate_warm_partition_policy(
            hotness, capacity, platform.num_gpus, 0.5
        )
        cache = fill_cache(platform, table, placement, capacity, hotness)
    return Stack(platform, table, pmf, hotness, capacity, cache)


def fill_cache(platform: Platform, table: np.ndarray, placement,
               capacity: int, hotness: np.ndarray) -> MultiGpuEmbeddingCache:
    """A freshly filled cache holding ``placement``."""
    # On a tiered platform the backing chain is ranked by the same
    # hotness the GPU policy sees: the hot head that misses the GPU
    # tier lands in DRAM, the cold tail sinks to CXL/SSD.
    # Arenas sized to the capacity, not to the opening placement: a
    # later swap may fill a GPU this placement leaves short.
    return MultiGpuEmbeddingCache(
        platform,
        table,
        placement,
        capacity_entries=capacity,
        tier_hotness=hotness if platform.num_tiers > 1 else None,
    )


def _drifted_hotness(hotness: np.ndarray, rng) -> np.ndarray:
    """Perturb hotness enough that a re-solve actually moves entries."""
    shuffled = hotness.copy()
    n = len(shuffled)
    # swap the second-hottest decile with a cold slice: realistic drift
    # (items heat up and cool down) that forces a non-empty placement diff.
    hot = slice(n // 10, 2 * n // 10)
    cold = slice(7 * n // 10, 8 * n // 10)
    shuffled[hot], shuffled[cold] = (
        shuffled[cold].copy(),
        shuffled[hot].copy(),
    )
    noise = rng.uniform(0.9, 1.1, size=n)
    return 0.5 * hotness + 0.5 * shuffled * noise


def poisson_schedule(
    rng, rate: float, streams: int, per_stream: int
) -> list[tuple[float, int, int]]:
    """An open loop's whole arrival schedule, as ``(time, seq, stream)``
    events: ``per_stream`` Poisson arrivals at ``rate`` on each stream."""
    events: list[tuple[float, int, int]] = []
    for stream in range(streams):
        t = 0.0
        for _ in range(per_stream):
            t += float(rng.exponential(1.0 / rate))
            events.append((t, len(events), stream))
    return events


def drive_arrivals(
    events: list[tuple[float, int, int]], arrive, until: float = math.inf
) -> int:
    """The traffic loop: call ``arrive(time, seq, stream)`` for every
    arrival event in time order (ties by ``seq``) and return how many
    arrived.  An open loop's handler returns None; a closed loop's
    returns when that stream's client arrives again (a new event,
    dropped once at/after ``until``).
    """
    heapq.heapify(events)
    arrived, seq = 0, len(events)
    while events:
        t, s, stream = heapq.heappop(events)
        if t >= until:
            continue
        arrived += 1
        again = arrive(t, s, stream)
        if again is not None:
            heapq.heappush(events, (again, seq, stream))
            seq += 1
    return arrived


def in_windows(t: float, windows: list[tuple[float, float]]) -> bool:
    """Whether ``t`` falls inside any ``[lo, hi)`` window."""
    return any(lo <= t < hi for lo, hi in windows)


def window_ok_ratio(inside: list[bool], outside: list[bool]) -> float:
    """OK-rate of the requests that arrived inside some window over the
    OK-rate of those that arrived outside every one: the ratio behind the
    drift-transition, failover and recovery gates.  Both arguments are
    per-request OK flags.  With no request inside nothing was lost (1.0);
    with no OK request outside there is no steady state the window could
    have kept up with (0.0)."""
    if not inside:
        return 1.0
    if not any(outside):
        return 0.0
    return (sum(inside) / len(inside)) / (sum(outside) / len(outside))


def phase_means(arrivals, values, onset: float, clear: float):
    """The mean of ``values`` over the arrivals before ``onset``, inside
    ``[onset, clear)`` and from ``clear`` on (0.0 for an empty phase):
    the phase pass behind the cluster soak's recovery gate."""
    phases: tuple[list, list, list] = ([], [], [])
    for at, value in zip(arrivals, values):
        phases[(at >= onset) + (at >= clear)].append(value)
    return tuple(float(np.mean(xs)) if xs else 0.0 for xs in phases)


def build_report(
    cfg: SoakConfig,
    statuses: list[RequestStatus],
    ok_latencies: list[float],
    breakers,
    sim_end: float,
    rate: float,
    s0: float,
    integrity_failures: int,
    **sections: Section | None,
) -> SoakReport:
    """The core both soaks report the same way, from one status per
    finished request and the latencies of the OK ones: status counts,
    goodput, shed rate, the latency percentiles, the breaker history of
    ``breakers`` (a :class:`~repro.serve.breaker.BreakerBoard`), duration,
    offered rate and ``s0``.  ``sections`` are the harness's own, by
    :class:`SoakReport` field name."""
    counts = Counter(statuses)
    dropped = counts[RequestStatus.SHED] + counts[RequestStatus.REJECTED]
    latencies = np.array(ok_latencies) if ok_latencies else np.array([0.0])
    return SoakReport(
        scenario=cfg.scenario,
        requests=len(statuses),
        served_ok=counts[RequestStatus.OK],
        shed=counts[RequestStatus.SHED],
        rejected=counts[RequestStatus.REJECTED],
        expired=counts[RequestStatus.EXPIRED],
        failed=counts[RequestStatus.FAILED],
        goodput_rps=counts[RequestStatus.OK] / sim_end if sim_end > 0 else 0.0,
        shed_rate=dropped / len(statuses) if statuses else 0.0,
        p50_latency=float(np.percentile(latencies, 50)),
        p99_latency=float(np.percentile(latencies, 99)),
        p999_latency=float(np.percentile(latencies, 99.9)),
        breaker_transitions=breakers.transition_counts(),
        breaker_transitions_by_source=breakers.transition_counts_by_source(),
        breaker_time_in_state=breakers.time_in_state(sim_end),
        integrity_failures=integrity_failures,
        duration=sim_end,
        arrival_rate=rate,
        baseline_service=s0,
        **sections,
    )


class BoxSoak:
    """One single-box soak: set up from its config, fed every arrival by
    :func:`drive_arrivals` (:attr:`events` → :meth:`arrive`), drained by
    :meth:`finish` and read back by :meth:`report`.  Every number in the
    report is a pass over ``runtime.responses`` or a component's own
    totals; the harness keeps no tallies."""

    def __init__(self, cfg: SoakConfig) -> None:
        self.cfg = cfg
        self.platform = platform = _soak_platform(cfg)
        self.schedule = None
        if cfg.drift is not None:
            from repro.dlr.drift import build_drift_schedule

            self.schedule = build_drift_schedule(
                cfg.drift.removesuffix(ADAPT_ARM), cfg.num_entries,
                ZIPF_ALPHA, cfg.seed,
            )
            self.phase_cdfs = [choice_cdf(p.pmf) for p in self.schedule.phases]
        # Under drift the cache starts solved for the schedule's *phase-0*
        # distribution — exactly the policy the change points invalidate.
        pmf, self.draw = _build_workload(
            cfg, self.schedule.phases[0].pmf if self.schedule else None
        )
        stack = build_stack(cfg, platform, pmf)
        self.hotness, self.capacity = stack.hotness, stack.capacity
        self.cache, self.table = stack.cache, stack.table
        arrival_rng, self.key_rng, probe_rng, self.drift_rng = spawn_rngs(
            cfg.seed + 17, 4
        )
        # Healthy single-batch service time s0, the harness's time unit.
        # Priced through the live cache, so on a tiered platform it already
        # carries the backing chain's bandwidths and latencies and every
        # derived knob (deadline, SLO, breaker timeout) scales with the chain.
        self.s0 = FactoredExtractor(self.cache).price(
            0, self.draw(make_rng(cfg.seed + 3))
        ).time
        self.rate = cfg.load / self.s0
        self.duration = cfg.requests_per_gpu / self.rate
        self.deadline = DEADLINE_FACTOR * self.s0
        self._build_runtime()

        G = platform.num_gpus
        self.free_at = [0.0] * G
        # Under a drift scenario the wall-clock swap schedule is disabled:
        # *when* to re-solve is exactly what the drift detector decides.
        self.swap_times = (
            [] if cfg.drift is not None
            else sorted(f * self.duration for f in SWAP_AT)
        )
        self.adapter = None
        if cfg.adapt:
            self._build_adapter()
        self.probe_keys = [self.draw(probe_rng) for _ in range(G)]

        self._build_traffic(arrival_rng)

    def _build_runtime(self) -> None:
        """The serving runtime under test — fault injector, breakers and,
        on a bit-rot plan, a scrubber as its read guard — and the policy
        manager that swaps under it."""
        cfg, cache, s0 = self.cfg, self.cache, self.s0
        self.plan = plan = build_soak_plan(cfg.scenario, self.duration, cfg.seed)
        injector = FaultInjector(plan, cache=cache) if plan is not None else None
        # Only bit-rot rots bytes, and a scrubber costs the run its wall
        # time twice over: it rides along on rot plans alone.
        self.scrubber = (
            CacheScrubber(cache)
            if any(f.kind is FaultKind.BIT_ROT for f in plan or ()) else None
        )
        serve_cfg = ServeConfig(
            admission=AdmissionConfig(
                capacity=QUEUE_CAPACITY,
                slo_seconds=SLO_FACTOR * s0,
            ),
            breaker=BreakerConfig(
                failure_threshold=3,
                cooldown_seconds=25.0 * s0,
                half_open_probes=2,
                success_threshold=2,
            ),
            hedge_enabled=True,
            source_timeout_seconds=TIMEOUT_FACTOR * s0,
        )
        self.runtime = ServingRuntime(
            FactoredExtractor(cache),
            config=serve_cfg,
            injector=injector,
        )
        self.runtime.read_guard = self.scrubber
        self.manager = PolicyManager(
            cache,
            refresher=Refresher(cache, RefreshConfig(update_batch_entries=1024)),
            solver_config=SolverConfig(time_limit=10.0, coarse_block_frac=0.02),
        )

    def _build_traffic(self, arrival_rng) -> None:
        """A batcher per GPU and the run's arrival events."""
        cfg, G = self.cfg, self.platform.num_gpus
        # Plain serving is the one-request, zero-linger case of the
        # micro-batched drain: a batcher per GPU either way.
        self.coalescing = cfg.batching is BatchingMode.COALESCE
        coalesce_cfg = (
            CoalesceConfig(cfg.batching, cfg.max_batch, cfg.linger_factor * self.s0)
            if self.coalescing else CoalesceConfig(max_batch=1)
        )
        self.batchers = [
            MicroBatcher(g, self.runtime.admission.queue(g), coalesce_cfg)
            for g in range(G)
        ]
        self.outcomes: list[CoalesceOutcome] = []

        #: the arrival events :func:`drive_arrivals` pops.
        self.events = (
            [(0.0, i, i // cfg.clients) for i in range(G * cfg.clients)]
            if cfg.closed_loop
            else poisson_schedule(arrival_rng, self.rate, G, cfg.requests_per_gpu)
        )

    def _build_adapter(self) -> None:
        from repro.serve.adaptation import DriftAdapter

        # Prime the warm-start seed with a cold solve of the phase-0
        # policy.  It is *not* swapped in (the serving cache already
        # realizes the phase-0 greedy placement, keeping the adapt-off
        # baseline comparable); it only gives the first detection an
        # incremental rung to stand on.
        prime = self.manager.solve(self.hotness, self.capacity)
        self.adapter = DriftAdapter(
            self.manager, self.capacity, self.hotness, warm=prime.solved
        )
        self.runtime.adapter = self.adapter
        self.adapt_probe_rng = make_rng(self.cfg.seed + 101)

    def draw_at(self, rng, at: float) -> np.ndarray:
        """One request's keys from the distribution in force at ``at``."""
        if self.schedule is None:
            return self.draw(rng)
        phase = self.schedule.phase_at(min(at / self.duration, 1.0))
        return sample_cdf(self.phase_cdfs[phase], rng, self.cfg.batch_keys)

    def adapt_probe(self, at: float) -> float:
        # Probe with keys from the *currently active* phase: the p99
        # guardrail must judge the new placement against the traffic
        # it will serve, not against the pre-drift distribution.
        G = self.platform.num_gpus
        keys = [self.draw_at(self.adapt_probe_rng, at) for _ in range(G)]
        return self.runtime.probe(keys, at)

    def serve_until(self, gpu: int, until: float) -> None:
        """Serve ``gpu``'s queue while a batch can start by ``until``.
        Every service of the run starts here: once the GPU is free and
        the flush policy fires (``flush``), but never before the newest
        request being served has arrived."""
        batcher, runtime = self.batchers[gpu], self.runtime
        while True:
            flush = batcher.flush_at(self.free_at[gpu])
            if flush is None or flush > until:
                return
            batch = batcher.take(flush)
            start = max(flush, batch[-1].arrival)
            if self.coalescing:
                self.outcomes.append(runtime.serve_batch(batch, start))
                done = self.outcomes[-1].completed_at
            else:
                done = runtime.serve_request(batch[0], start).completed_at
            self.free_at[gpu] = max(start, done)

    def drain_all(self, at: float) -> None:
        for g in range(len(self.free_at)):
            self.serve_until(g, math.inf)
            self.free_at[g] = max(self.free_at[g], at)

    def scrub_all(self) -> None:
        """On a bit-rot plan, find and repair every rotten slot: before a
        swap verifies the cache and before the run's final check."""
        if self.scrubber is not None:
            self.scrubber.scrub_all()

    def drain_for_swap(self, at: float) -> None:
        self.drain_all(at)
        self.scrub_all()

    def attempt_swap(self, at: float) -> None:
        drifted = _drifted_hotness(self.hotness, self.drift_rng)
        _outcome, report = self.manager.resolve(
            drifted,
            self.capacity,
            now=at,
            drain=lambda: self.drain_for_swap(at),
            probe=lambda: self.runtime.probe(self.probe_keys, at),
        )
        logger.info(
            "soak swap at t=%.3f: %s (v%d)", at, report.reason, report.version
        )

    def arrive(self, t: float, s: int, g: int) -> float | None:
        """One arrival: land the swaps and adaptation due by ``t``, serve
        what can start by ``t``, then submit the new request."""
        while self.swap_times and self.swap_times[0] <= t:
            self.attempt_swap(self.swap_times.pop(0))
        if self.adapter is not None:
            self.adapter.maybe_adapt(
                t,
                drain=lambda: self.drain_for_swap(t),
                probe=lambda: self.adapt_probe(t),
            )
        if self.scrubber is not None:
            self.scrubber.tick(t)
        free_at = self.free_at
        for gpu in range(len(free_at)):
            self.serve_until(gpu, t)
        request = self.runtime.make_request(
            g, self.draw_at(self.key_rng, t), t, deadline=t + self.deadline
        )
        dropped = self.runtime.submit(request, t)
        if not self.cfg.closed_loop:
            return None
        if dropped is not None:
            # the client backs off one baseline unit and resubmits.
            return t + self.s0
        # A closed-loop client blocks on its own request — the only one
        # queued on its GPU — so it arrives again when that GPU frees.
        self.serve_until(g, math.inf)
        return free_at[g]

    def healthy_probe(self) -> float:
        """The probe keys' latency on a freshly filled, never-faulted cache
        holding the run's *final* placement: what a recovered run comes
        back to, landed swaps included.  Priced off the run's books."""
        fresh = FactoredExtractor(fill_cache(
            self.platform, self.table, self.cache.placement, self.capacity,
            self.hotness,
        ))
        with use_registry(MetricsRegistry("healthy-probe", enabled=False)):
            return max(fresh.price(g, keys).time
                       for g, keys in enumerate(self.probe_keys))

    def finish(self, offered: int) -> None:
        """After the last arrival: land the swaps still due, drain every
        queue, probe for the recovery gate, scrub, and check the run's
        integrity, time physics and every row it served against the host
        table."""
        for t_swap in self.swap_times:
            self.attempt_swap(t_swap)
        self.drain_all(self.duration)
        # The recovery gate; a drift run moves its placement on purpose,
        # so it is not judged.
        self.probe_ratio = (
            self.runtime.probe(self.probe_keys, max(self.free_at))
            / self.healthy_probe()
            if self.plan is not None and self.schedule is None else None
        )
        self.scrub_all()
        responses = self.runtime.responses
        self.violations = self.cache.verify_integrity() + check_time_physics(
            responses, offered, self.outcomes
        ) + [
            f"request {r.request.request_id} (gpu {r.request.gpu}) served "
            "a row that differs from the host table"
            for r in responses
            if r.values is not None
            and not np.array_equal(r.values, self.table[r.request.keys])
        ]
        for violation in self.violations:
            logger.error("soak integrity: %s", violation)

    def report(self) -> SoakReport:
        cfg, runtime, manager = self.cfg, self.runtime, self.manager
        responses = runtime.responses
        sim_end = max([self.duration] + [r.completed_at for r in responses])
        report = build_report(
            cfg,
            [r.status for r in responses],
            [r.latency for r in responses if r.ok],
            runtime.breakers,
            sim_end,
            self.rate,
            self.s0,
            integrity_failures=len(self.violations)
            + sum(s.integrity_violations for s in manager.swap_log),
            box=BoxSection(
                max_queue_depth=runtime.admission.max_depth,
                queue_capacity=QUEUE_CAPACITY,
                hedges=sum(1 for r in responses if r.hedged),
                hedge_wins=sum(1 for r in responses if r.hedge_won),
                rerouted_keys=sum(r.rerouted_keys for r in responses),
                swaps_attempted=len(manager.swap_log),
                swaps_landed=sum(1 for s in manager.swap_log if s.swapped),
                rollbacks=sum(1 for s in manager.swap_log if s.rolled_back),
                tenants=SOAK_SCENARIOS[cfg.scenario].tenants,
            ),
            faults=self._fault_section(),
            coalesce=self._coalesce_section(),
            tiers=TierSection.of(self.platform, self.cache.tier_chain),
            drift=self._drift_section(),
        )
        reg = get_registry()
        reg.gauge("soak.goodput_rps").set(report.goodput_rps)
        reg.gauge("soak.shed_rate").set(report.shed_rate)
        reg.gauge("soak.max_queue_depth").set(report.box.max_queue_depth)
        reg.counter("soak.runs", scenario=cfg.scenario).inc()
        if report.coalesce is not None and report.coalesce.coalesced_batches:
            reg.gauge("soak.dedup_ratio").set(report.coalesce.dedup_ratio)
        return report

    def _fault_section(self) -> FaultSection | None:
        if self.plan is None:
            return None
        scrubber = self.scrubber
        return FaultSection(
            probe_ratio=self.probe_ratio,
            bit_rot=scrubber is not None,
            rot_detected=(
                scrubber.mismatches_total + scrubber.read_repairs_total
                if scrubber is not None else 0
            ),
            rot_repaired=scrubber.repaired_total if scrubber is not None else 0,
        )

    def _coalesce_section(self) -> CoalesceSection | None:
        if not self.coalescing:
            return None
        served = [o for o in self.outcomes if o.union_size > 0]
        member_keys = sum(o.total_keys for o in served)
        union_keys = sum(o.union_size for o in served)
        return CoalesceSection(
            coalesced_batches=len(served),
            mean_batch_size=(
                sum(o.batch_size for o in served) / len(served) if served else 0.0
            ),
            dedup_ratio=member_keys / union_keys if union_keys else 1.0,
        )

    def _drift_section(self) -> DriftSection | None:
        """Goodput inside the post-change-point windows against the rest
        of the run, bucketed by each response's arrival."""
        if self.schedule is None:
            return None
        windows = [
            (f * self.duration, min(f + DRIFT_WINDOW, 1.0) * self.duration)
            for f in self.schedule.transitions
        ]
        inside: list[bool] = []
        outside: list[bool] = []
        for r in self.runtime.responses:
            bucket = inside if in_windows(r.request.arrival, windows) else outside
            bucket.append(r.ok)
        return DriftSection(
            drift_scenario=self.schedule.name,
            drift_transitions=len(windows),
            transition_requests=len(inside),
            transition_ok_rate=sum(inside) / len(inside) if inside else 1.0,
            transition_goodput_ratio=window_ok_ratio(inside, outside),
            adapt=self._adapt_section(),
        )

    def _adapt_section(self) -> AdaptSection | None:
        adapter = self.adapter
        if adapter is None:
            return None
        return AdaptSection(
            drift_detections=adapter.detections,
            adapt_resolves=adapter.resolves,
            adapt_incremental_resolves=sum(
                1 for e in adapter.events
                if e.kind == "resolve" and e.detail == "incremental"
            ),
            adapt_swaps_landed=adapter.swaps_landed,
            adapt_rollbacks=adapter.rollbacks,
            drift_tape=[s.to_dict() for s in adapter.detector.tape],
            adapt_events=[e.to_dict() for e in adapter.events],
        )


def drive(soak) -> SoakReport:
    """Run one harness (:class:`BoxSoak` or the cluster soak's) through
    the one traffic loop: a closed loop stops resubmitting at the nominal
    duration, an open loop plays its whole schedule."""
    arrived = drive_arrivals(
        soak.events,
        soak.arrive,
        until=soak.duration if soak.cfg.closed_loop else math.inf,
    )
    soak.finish(arrived)
    report = soak.report()
    logger.info(
        "soak %s: %d requests, %.1f ok/s goodput, shed %.1f%%, p99 %.3es",
        report.scenario, report.requests, report.goodput_rps,
        100 * report.shed_rate, report.p99_latency,
    )
    return report


def run_soak(cfg: SoakConfig | None = None) -> SoakReport:
    """Run one soak scenario end to end; never raises for serving faults."""
    cfg = cfg or SoakConfig()
    if cfg.nodes > 1:
        # The cluster tier is a separate harness; importing it lazily
        # keeps repro.serve free of a package cycle (cluster imports the
        # config/report types from this module).
        from repro.cluster.soak import ClusterSoak

        return drive(ClusterSoak(cfg))
    return drive(BoxSoak(cfg))


def render_soak_report(report: SoakReport) -> str:
    """Human-readable soak summary for the CLI: the core lines, then each
    present section's own, in :meth:`SoakReport.sections` order."""
    s0 = report.baseline_service or 1.0
    lines = [
        f"soak scenario: {report.scenario} "
        f"({'PASS' if report.ok else 'FAIL'})",
        f"  requests      {report.requests:8d}   "
        f"ok {report.served_ok}  shed {report.shed}  "
        f"rejected {report.rejected}  expired {report.expired}",
        f"  goodput       {report.goodput_rps:10.1f} req/s  "
        f"(offered {report.arrival_rate:.1f}/s/GPU, "
        f"shed rate {report.shed_rate:.1%})",
        f"  latency       p50 {report.p50_latency / s0:6.2f}x  "
        f"p99 {report.p99_latency / s0:6.2f}x  "
        f"p99.9 {report.p999_latency / s0:6.2f}x  "
        f"(x baseline {s0:.3e}s)",
        f"  breakers      {report.breaker_transitions or 'no transitions'}",
        f"  integrity     {report.integrity_failures} failure(s)",
    ]
    for section in report.sections():
        lines += section.lines()
    return "\n".join(lines)
