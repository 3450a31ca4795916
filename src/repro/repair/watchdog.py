"""Node-lifecycle watchdog: fuse breaker state, scrub findings, and the
fault-plan health view into one per-node state machine.

The cluster frontend already has three *partial* views of a node's
health: the :class:`~repro.serve.breaker.BreakerBoard` (observed RPC
outcomes), the scrubber's quarantine depth (observed data integrity),
and the :class:`~repro.faults.spec.HealthView` (ground-truth
reachability in the simulation).  Each alone routes around a different
failure; the watchdog fuses them into one lifecycle every consumer can
agree on::

    HEALTHY ──breaker OPEN / unreachable──► EJECTED
       │                                        │ reachable again,
       │ breaker HALF_OPEN or                   │ recovery attached
       │ outstanding quarantine                 ▼
       ▼                                   RECOVERING ──plan done──► HEALTHY
    SUSPECT ──signals clear──► HEALTHY

A RECOVERING node is back but its GPU caches are still refilling
(:class:`~repro.repair.restage.StagedRecovery`): the frontend sends it
reads only for shards the plan has already re-staged and keeps routing
the rest to replica owners.  An EJECTED node that heals with no recovery
attached (a breaker trip, not a cache loss) goes straight back to
HEALTHY.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.obs import get_registry
from repro.serve.breaker import BreakerState
from repro.utils.logging import get_logger

logger = get_logger("repair.watchdog")

__all__ = ["NodeState", "NodeWatchdog", "WatchdogConfig", "STATE_CODE"]


class NodeState(str, Enum):
    """Where a node sits in the heal lifecycle."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    EJECTED = "ejected"
    RECOVERING = "recovering"


#: Gauge encoding for ``repair.watchdog.state`` (one gauge per node).
STATE_CODE = {
    NodeState.HEALTHY: 0,
    NodeState.SUSPECT: 1,
    NodeState.EJECTED: 2,
    NodeState.RECOVERING: 3,
}


#: Outstanding scrub quarantines at which a reachable node turns SUSPECT (it
#: keeps serving — quarantined routes already point at HOST — but the state
#: is surfaced).
SUSPECT_QUARANTINE_DEPTH = 1


@dataclass
class Transition:
    """One recorded lifecycle edge."""

    at: float
    node: int
    old: NodeState = field(default=NodeState.HEALTHY)
    new: NodeState = field(default=NodeState.HEALTHY)


class NodeWatchdog:
    """Per-node lifecycle state machine over fused health signals.

    Drive it with :meth:`observe` once per simulation step; attach a
    :class:`~repro.repair.restage.StagedRecovery` when a dead node's
    caches were dropped so the heal passes through RECOVERING.
    """

    def __init__(self, node_ids) -> None:
        self._states: dict[int, NodeState] = {
            int(n): NodeState.HEALTHY for n in node_ids
        }
        self._recoveries: dict[int, object] = {}
        self.transitions: list[Transition] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state(self, node: int) -> NodeState:
        return self._states[node]

    def states(self) -> dict[int, NodeState]:
        return dict(self._states)

    def recovery(self, node: int):
        """The node's attached :class:`StagedRecovery`, if any."""
        return self._recoveries.get(node)

    def active_recoveries(self):
        """``(node, recovery)`` pairs for nodes currently RECOVERING."""
        return [
            (node, rec)
            for node, rec in sorted(self._recoveries.items())
            if self._states[node] is NodeState.RECOVERING and not rec.done
        ]

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def attach_recovery(self, node: int, recovery) -> None:
        """Register the staged refill a healed ``node`` must pass through."""
        self._recoveries[node] = recovery

    def observe(
        self,
        now: float,
        health,
        breaker_states: dict[int, BreakerState] | None = None,
        quarantine_depth: dict[int, int] | None = None,
    ) -> dict[int, NodeState]:
        """Advance every node's state from the fused signals at ``now``."""
        breaker_states = breaker_states or {}
        quarantine_depth = quarantine_depth or {}
        for node in sorted(self._states):
            old = self._states[node]
            new = self._next_state(
                node, old,
                reachable=health.node_reachable(node),
                breaker=breaker_states.get(node),
                depth=int(quarantine_depth.get(node, 0)),
            )
            if new is not old:
                self._states[node] = new
                self.transitions.append(
                    Transition(at=now, node=node, old=old, new=new)
                )
                logger.warning(
                    "watchdog: node %d %s -> %s at t=%.2f",
                    node, old.value, new.value, now,
                )
            reg = get_registry()
            if reg.enabled:
                reg.gauge("repair.watchdog.state", node=str(node)).set(
                    STATE_CODE[self._states[node]]
                )
        return self.states()

    def _next_state(
        self, node: int, old: NodeState, *, reachable: bool,
        breaker: BreakerState | None, depth: int,
    ) -> NodeState:
        if not reachable:
            return NodeState.EJECTED
        rec = self._recoveries.get(node)
        if old is NodeState.EJECTED:
            if rec is not None and not rec.done:
                return NodeState.RECOVERING
            return self._standing_state(breaker, depth)
        if old is NodeState.RECOVERING:
            if rec is not None and not rec.done:
                return NodeState.RECOVERING
            return self._standing_state(breaker, depth)
        return self._standing_state(breaker, depth)

    def _standing_state(
        self, breaker: BreakerState | None, depth: int
    ) -> NodeState:
        if breaker is BreakerState.OPEN:
            return NodeState.EJECTED
        if breaker is BreakerState.HALF_OPEN:
            return NodeState.SUSPECT
        if depth >= SUSPECT_QUARANTINE_DEPTH:
            return NodeState.SUSPECT
        return NodeState.HEALTHY
