"""Online serving runtime over the multi-GPU embedding cache.

Admission control with bounded per-GPU queues and configurable
backpressure, SLO-aware load shedding, per-source circuit breakers wired
into the extractor's degraded-mode routing, deadline hedging to host
DRAM, hot policy swap with guardrail-driven rollback, and a fault soak
harness — everything runs on a simulated clock so sustained-load runs
are deterministic and CI-sized.
"""

from repro.serve.breaker import (
    BreakerBoard,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)
from repro.serve.coalesce import (
    BatchingMode,
    CoalesceConfig,
    CoalesceOutcome,
    MicroBatcher,
    coalesce_keys,
)
from repro.serve.adaptation import (
    AdaptationEvent,
    DriftAdapter,
)
from repro.serve.policy_manager import (
    PolicyGeneration,
    PolicyManager,
    SwapReport,
)
from repro.serve.queueing import (
    AdmissionConfig,
    AdmissionController,
    AdmissionResult,
    BoundedRequestQueue,
    LatencyEstimator,
    QueuePolicy,
)
from repro.serve.request import (
    Request,
    RequestStatus,
    Response,
    check_time_physics,
)
from repro.serve.runtime import ServeConfig, ServingRuntime
from repro.serve.soak import (
    SOAK_SCENARIOS,
    SoakConfig,
    SoakReport,
    build_soak_plan,
    render_soak_report,
    run_soak,
)

__all__ = [
    "SOAK_SCENARIOS",
    "AdaptationEvent",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionResult",
    "BatchingMode",
    "BoundedRequestQueue",
    "BreakerBoard",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "CoalesceConfig",
    "CoalesceOutcome",
    "DriftAdapter",
    "LatencyEstimator",
    "MicroBatcher",
    "PolicyGeneration",
    "PolicyManager",
    "QueuePolicy",
    "Request",
    "RequestStatus",
    "Response",
    "ServeConfig",
    "ServingRuntime",
    "SoakConfig",
    "SoakReport",
    "SwapReport",
    "build_soak_plan",
    "check_time_physics",
    "coalesce_keys",
    "render_soak_report",
    "run_soak",
]
