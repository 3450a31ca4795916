"""Inter-node RPC model: timeout, retry, replica hedging.

A front-end read of a remote cache node is one *exchange*: a primary
attempt with a per-call timeout, retried at once up to :data:`RETRY`
attempts in all, with an optional hedged duplicate sent to the next
replica once the primary has been quiet for :data:`HEDGE_FACTOR` healthy
exchange legs.  The wire itself is priced as one more topology tier
(:func:`~repro.core.pipeline.network_transfer_seconds`), and the timeline is
walked by :func:`~repro.sim.event_sim.simulate_rpc_exchange` — the same
deterministic event-walking style as the hedged-extraction simulator.

How a node's health shapes an attempt:

* **up** — the attempt takes latency + node extraction + payload wire
  time and succeeds (unless that exceeds the timeout);
* **slow** — extraction stretches by ``1 / node_service_factor``; a bad
  enough slowdown turns the attempt into a timeout;
* **down** — the attempt burns its full timeout and fails;
* **partitioned** — the attempt fails *fast* (connection refused after
  one latency), costing far less than a timeout.
"""

from __future__ import annotations

import math

from repro.core import pipeline
from repro.faults.spec import HealthView

__all__ = ["attempt_profile", "healthy_leg"]

#: Per-attempt timeout, and the quiet time after which the primary is hedged
#: to the next replica, both in units of the healthy *exchange leg* — wire
#: latency + node extraction + payload transfer — not of the bare service
#: time.  On CI-sized tables the wire dominates the leg and on paper-sized
#: ones extraction does; scaling from the whole leg keeps the same factors
#: meaningful in both regimes (a timeout below one wire round-trip would
#: declare every healthy call dead).
TIMEOUT_FACTOR = 8.0
HEDGE_FACTOR = 3.0
#: Primary attempts per exchange, the first included.
RETRY = 2


def healthy_leg(service_seconds: float, payload_bytes: float) -> float:
    """One fault-free exchange: request latency + extraction + reply."""
    return (
        pipeline.NETWORK_LATENCY_SECONDS
        + service_seconds
        + pipeline.network_transfer_seconds(payload_bytes)
    )


def attempt_profile(
    node: int,
    service_seconds: float,
    health: HealthView,
    payload_bytes: float,
) -> tuple[float, bool]:
    """One RPC attempt at ``node`` as ``(elapsed, ok)``.

    ``service_seconds`` is the node's healthy extraction time for the
    batch; health turns it into what the attempt actually experiences
    (see the module docstring for the four cases).
    """
    if node in health.partitioned_nodes:
        return pipeline.NETWORK_LATENCY_SECONDS, False
    if node in health.down_nodes:
        return math.inf, False
    factor = health.node_service_factor(node)
    return healthy_leg(service_seconds / factor, payload_bytes), True
