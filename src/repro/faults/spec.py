"""Declarative fault model: :class:`FaultSpec`, :class:`FaultPlan`,
and the derived :class:`HealthView` the runtime consults.

A fault plan is pure data — which fault, where, when, how bad — so the
same plan can drive the functional runtime (extractor rerouting), the
analytic simulators (degraded bandwidths), and the soak scenarios.  Plans
are deterministic by construction: anything random (which slot to corrupt)
derives from the plan's seed, never from global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.hardware.platform import HOST


class FaultKind(str, Enum):
    """The failure scenarios the injector knows how to realize."""

    #: a GPU drops out: its cache store and links become unreachable and
    #: its own local copies are lost (it keeps serving via peers/host).
    GPU_FAILURE = "gpu-failure"
    #: a link loses ``severity`` of its bandwidth but stays up.
    LINK_DEGRADATION = "link-degradation"
    #: a link goes down entirely (reads across it must reroute).
    LINK_PARTITION = "link-partition"
    #: host-gather stall: PCIe loses ``severity`` of its bandwidth.
    HOST_STALL = "host-stall"
    #: location-table slots are corrupted to out-of-range ``<gpu, offset>``.
    CORRUPT_SLOT = "corrupt-slot"
    #: silent data corruption: cached value bytes flip at ``rate``
    #: events/second over the fault window (stored checksums are *not*
    #: updated — only the anti-entropy scrubber or a read-path guard can
    #: notice).  Recurring, unlike the one-shot CORRUPT_SLOT.
    BIT_ROT = "bit-rot"
    #: a whole cache-server node dies: RPCs to it time out and its GPU
    #: caches are lost until it heals and re-stages them (cluster tier).
    NODE_DOWN = "node-down"
    #: a node keeps serving but ``severity`` of its speed is gone (GC
    #: pauses, noisy neighbour, thermal throttle).
    NODE_SLOW = "node-slow"
    #: a node is unreachable from the front-end (network partition) but
    #: its state survives; calls fail fast instead of timing out.
    NODE_PARTITION = "node-partition"


#: The faults that take a whole cache-server node (partly) away.
NODE_FAULT_KINDS = (
    FaultKind.NODE_DOWN,
    FaultKind.NODE_SLOW,
    FaultKind.NODE_PARTITION,
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what, where, when, and how severe.

    Attributes:
        kind: the failure scenario.
        onset: seconds (or simulated-loop time) at which the fault starts.
        duration: how long it lasts; ``inf`` means it never clears.
        severity: fraction in ``(0, 1]``: bandwidth lost for degradations
            and stalls, fraction of cached entries corrupted for
            :attr:`FaultKind.CORRUPT_SLOT`.  Ignored for binary faults.
        gpu: target GPU for GPU-scoped faults.
        link: ``(dst, src)`` pair for link faults (applied symmetrically).
        node: target cache-server node for node-scoped (cluster) faults;
            for :attr:`FaultKind.BIT_ROT` it is optional (``None`` means
            every node's cache rots).
        seed: per-fault randomness seed (e.g. which slots to corrupt).
        rate: corruption events per second for the recurring
            :attr:`FaultKind.BIT_ROT` fault (required > 0 there, ignored
            elsewhere).
    """

    kind: FaultKind
    onset: float = 0.0
    duration: float = math.inf
    severity: float = 1.0
    gpu: int | None = None
    link: tuple[int, int] | None = None
    node: int | None = None
    seed: int = 0
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.onset < 0:
            raise ValueError("fault onset must be non-negative")
        if self.duration <= 0:
            raise ValueError("fault duration must be positive")
        if not 0 < self.severity <= 1:
            raise ValueError("fault severity must be in (0, 1]")
        if self.kind in (FaultKind.GPU_FAILURE, FaultKind.CORRUPT_SLOT):
            if self.gpu is None or self.gpu < 0:
                raise ValueError(f"{self.kind.value} needs a target gpu")
        if self.kind in (FaultKind.LINK_DEGRADATION, FaultKind.LINK_PARTITION):
            if self.link is None:
                raise ValueError(f"{self.kind.value} needs a target link")
            if self.link[0] == self.link[1]:
                raise ValueError("link faults need two distinct endpoints")
        if self.kind in NODE_FAULT_KINDS:
            if self.node is None or self.node < 0:
                raise ValueError(f"{self.kind.value} needs a target node")
        if self.kind is FaultKind.BIT_ROT:
            if self.rate <= 0:
                raise ValueError("bit-rot needs a positive event rate")
            if not math.isfinite(self.duration):
                raise ValueError(
                    "bit-rot needs a finite duration (its event schedule "
                    "is drawn over the fault window)"
                )

    @property
    def clears_at(self) -> float:
        return self.onset + self.duration

    def active_at(self, now: float) -> bool:
        """Whether the fault is in effect at time ``now``."""
        return self.onset <= now < self.clears_at


@dataclass(frozen=True)
class HealthView:
    """Snapshot of platform health at one instant, derived from a plan.

    The runtime never reads :class:`FaultSpec` directly: the extractor
    and the simulators consume this flattened view, so
    real deployments can plug an actual health monitor into the same
    interface.
    """

    down_gpus: frozenset[int] = frozenset()
    #: multiplicative bandwidth factor per (dst, src) ordered pair;
    #: absent pairs are healthy (factor 1.0), 0.0 means partitioned.
    link_factors: tuple[tuple[tuple[int, int], float], ...] = ()
    #: multiplicative factor on host (PCIe) bandwidth.
    host_factor: float = 1.0
    #: cluster tier: nodes that are dead (RPCs time out, caches lost).
    down_nodes: frozenset[int] = frozenset()
    #: multiplicative service-speed factor per slow node; absent nodes
    #: are full speed (factor 1.0).
    node_factors: tuple[tuple[int, float], ...] = ()
    #: nodes unreachable from the front-end but otherwise intact.
    partitioned_nodes: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not 0 <= self.host_factor <= 1:
            raise ValueError("host factor must be in [0, 1]")
        for node, factor in self.node_factors:
            if not 0 < factor <= 1:
                raise ValueError(
                    f"node {node} service factor must be in (0, 1]"
                )

    @property
    def healthy(self) -> bool:
        return (
            not self.down_gpus
            and all(f >= 1.0 for _, f in self.link_factors)
            and self.host_factor >= 1.0
            and not self.down_nodes
            and all(f >= 1.0 for _, f in self.node_factors)
            and not self.partitioned_nodes
        )

    def gpu_ok(self, gpu: int) -> bool:
        return gpu not in self.down_gpus

    def link_factor(self, dst: int, src: int) -> float:
        """Usable bandwidth fraction for ``dst`` reading ``src``.

        A downed endpoint zeroes the link; host reads are scaled by
        :attr:`host_factor` and never partitioned (DRAM is the fallback
        of last resort) — even for a downed GPU's batch, which its
        replacement worker still serves from host.
        """
        if src <= HOST:
            # The whole backing chain (host DRAM and deeper tiers) shares
            # the host-stall factor and is never partitioned.
            return self.host_factor
        if not self.gpu_ok(dst) or not self.gpu_ok(src):
            return 0.0
        if dst == src:
            return 1.0
        factor = 1.0
        for (a, b), f in self.link_factors:
            if (a, b) == (dst, src):
                factor = min(factor, f)
        return factor

    def source_usable(self, dst: int, src: int) -> bool:
        """Whether ``dst`` can still read from ``src`` at all."""
        return self.link_factor(dst, src) > 0.0

    # ------------------------------------------------------------------
    # Cluster tier
    # ------------------------------------------------------------------
    def node_reachable(self, node: int) -> bool:
        """Whether the front-end can talk to ``node`` at all."""
        return node not in self.down_nodes and node not in self.partitioned_nodes

    def node_service_factor(self, node: int) -> float:
        """Usable service-speed fraction of ``node`` (0.0 = unreachable)."""
        if not self.node_reachable(node):
            return 0.0
        factor = 1.0
        for n, f in self.node_factors:
            if n == node:
                factor = min(factor, f)
        return factor


#: The all-healthy view (shared; HealthView is immutable).
HEALTHY = HealthView()


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults over one run.

    The plan is time-indexed: :meth:`health_at` flattens every fault
    active at ``now`` into one :class:`HealthView`.  Overlapping faults
    compose (link factors multiply through ``min``, down-GPU sets union).
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0
    name: str = "fault-plan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def active_at(self, now: float) -> tuple[FaultSpec, ...]:
        return tuple(f for f in self.faults if f.active_at(now))

    def health_at(self, now: float) -> HealthView:
        """Flatten every active fault into one :class:`HealthView`."""
        active = self.active_at(now)
        if not active:
            return HEALTHY
        down: set[int] = set()
        links: dict[tuple[int, int], float] = {}
        host_factor = 1.0
        down_nodes: set[int] = set()
        node_factors: dict[int, float] = {}
        partitioned_nodes: set[int] = set()

        def degrade(pair: tuple[int, int], factor: float) -> None:
            links[pair] = min(links.get(pair, 1.0), factor)

        for f in active:
            if f.kind is FaultKind.GPU_FAILURE:
                down.add(int(f.gpu))  # type: ignore[arg-type]
            elif f.kind is FaultKind.LINK_DEGRADATION:
                a, b = f.link  # type: ignore[misc]
                degrade((a, b), 1.0 - f.severity)
                degrade((b, a), 1.0 - f.severity)
            elif f.kind is FaultKind.LINK_PARTITION:
                a, b = f.link  # type: ignore[misc]
                degrade((a, b), 0.0)
                degrade((b, a), 0.0)
            elif f.kind is FaultKind.HOST_STALL:
                host_factor = min(host_factor, 1.0 - f.severity)
            elif f.kind is FaultKind.NODE_DOWN:
                down_nodes.add(int(f.node))  # type: ignore[arg-type]
            elif f.kind is FaultKind.NODE_SLOW:
                n = int(f.node)  # type: ignore[arg-type]
                # A fully-slowed node still crawls: clamp like host stalls.
                factor = max(1.0 - f.severity, 1e-3)
                node_factors[n] = min(node_factors.get(n, 1.0), factor)
            elif f.kind is FaultKind.NODE_PARTITION:
                partitioned_nodes.add(int(f.node))  # type: ignore[arg-type]
            # CORRUPT_SLOT is a one-shot state mutation realized by the
            # injector at onset, not a standing health condition; BIT_ROT
            # is likewise realized by the injector as a recurring event
            # schedule over its window, invisible to the health view.
        # Host bandwidth can stall but never partitions: clamp above zero
        # so the universal fallback stays reachable.
        if host_factor < 1.0:
            host_factor = max(host_factor, 1e-3)
        return HealthView(
            down_gpus=frozenset(down),
            link_factors=tuple(sorted(links.items())),
            host_factor=host_factor,
            down_nodes=frozenset(down_nodes),
            node_factors=tuple(sorted(node_factors.items())),
            partitioned_nodes=frozenset(partitioned_nodes),
        )
