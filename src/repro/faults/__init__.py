"""Fault model, injection, and graceful degradation (the robustness layer).

A :class:`FaultSpec` describes one failure (GPU drop-out, link
degradation/partition, host-gather stall, corrupted location slot, bit-rot,
node faults) with onset, duration, and severity; a :class:`FaultPlan`
schedules many deterministically.  The runtime never reads specs directly:
:class:`FaultInjector` realizes one-shot and recurring state corruption
and flattens standing faults into :class:`HealthView` snapshots that the
extractor and simulators consume.  Every drill is a soak scenario
(:data:`repro.serve.soak.SOAK_SCENARIOS`, ``python -m repro soak``).

This package must stay importable from inside :mod:`repro.sim.engine`,
so it imports nothing from the core/sim stack.
"""

from repro.faults.degrade import DegradedPlatform, degraded_platform, reroute_demand
from repro.faults.injector import CORRUPT_SOURCE_BASE, FaultInjector
from repro.faults.spec import (
    HEALTHY,
    FaultKind,
    FaultPlan,
    FaultSpec,
    HealthView,
)

__all__ = [
    "CORRUPT_SOURCE_BASE",
    "DegradedPlatform",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "HEALTHY",
    "HealthView",
    "degraded_platform",
    "reroute_demand",
]
