"""Analytic multi-GPU extraction-time simulator.

Substitutes for the paper's CUDA kernels and NVLink hardware: given per-GPU
per-source byte volumes, computes batch extraction time under the
message-based, naive peer-based, and factored (UGache) mechanisms,
including the core/link congestion effects of §5.
"""

from repro.sim.congestion import (
    CongestedOutcome,
    solve_congested_extraction,
)
from repro.sim.engine import BatchReport, readers_per_source, simulate_batch
from repro.sim.event_sim import (
    EventSimResult,
    HedgedSimResult,
    simulate_factored_event_driven,
    simulate_hedged_extraction,
    simulate_naive_event_driven,
)
from repro.sim.mechanisms import (
    MESSAGE_STAGE_OVERHEAD,
    GpuDemand,
    GpuExtractionReport,
    Mechanism,
    core_dedication,
    factored_extraction,
    message_extraction,
    naive_peer_extraction,
)
from repro.sim.trace import ExtractionTrace, GroupEvent, LocalSegment, trace_factored
from repro.sim.utilization import LinkUtilization, batch_utilization

__all__ = [
    "EventSimResult",
    "HedgedSimResult",
    "simulate_factored_event_driven",
    "simulate_hedged_extraction",
    "simulate_naive_event_driven",
    "ExtractionTrace",
    "GroupEvent",
    "LocalSegment",
    "trace_factored",
    "BatchReport",
    "CongestedOutcome",
    "GpuDemand",
    "GpuExtractionReport",
    "LinkUtilization",
    "Mechanism",
    "MESSAGE_STAGE_OVERHEAD",
    "batch_utilization",
    "core_dedication",
    "factored_extraction",
    "message_extraction",
    "naive_peer_extraction",
    "readers_per_source",
    "simulate_batch",
    "solve_congested_extraction",
]
