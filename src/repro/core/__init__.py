"""UGache's core: hotness, blocking, MILP policy solver, cache, extractor.

The primary contribution of the paper lives here — everything else in the
library is substrate (hardware model, workloads, baselines) or glue.
"""

from repro.core.blocks import BlockSet, build_blocks, build_uniform_blocks, per_entry_blocks
from repro.core.cache import (
    CacheIntegrityError,
    LookupResult,
    MultiGpuEmbeddingCache,
)
from repro.core.embedding_layer import EmbeddingLayerConfig, UGacheEmbeddingLayer
from repro.core.evaluate import (
    HitRates,
    demand_from_keys,
    evaluate_placement,
    expected_demands,
    hit_rates,
    resolve_sources,
)
from repro.core.extractor import ExtractionPlan, FactoredExtractor, SourceGroup
from repro.core.pipeline import (
    apply_health,
    execute_plan,
    host_fallback_demand,
    plan_extraction,
    price_demand,
)
from repro.core.filler import (
    GpuCacheStore,
    PlacementDiff,
    apply_diff_step,
    fill_all,
    fill_gpu,
    placement_diff,
)
from repro.core.location_table import (
    CorruptEntryError,
    LocationTable,
    ProbeLimitError,
    pack_location,
    unpack_location,
)
from repro.core.drift_adapt import (
    DriftDetector,
    DriftScore,
    StreamingHotnessEstimator,
    hot_set_jaccard,
    rank_correlation,
)
from repro.core.hotness import (
    HotnessTracker,
    degree_hotness,
)
from repro.core.optimal import MAX_OPTIMAL_ENTRIES, approximation_gap, solve_optimal
from repro.core.policy import (
    Placement,
    clique_partition_policy,
    hot_replicate_warm_partition_policy,
    partition_policy,
    replication_policy,
)
from repro.core.refresher import (
    RefreshConfig,
    RefreshOutcome,
    Refresher,
    RefreshTimeline,
    simulate_refresh_timeline,
)
from repro.core.solver import (
    PolicyOutcome,
    PolicySolveError,
    PolicySolveTimeout,
    SolvedPolicy,
    SolverConfig,
    dedication_ratios,
    solve_policy,
    solve_policy_with_fallback,
    warm_start_policy,
)

__all__ = [
    "CorruptEntryError",
    "LocationTable",
    "ProbeLimitError",
    "pack_location",
    "unpack_location",
    "BlockSet",
    "build_blocks",
    "build_uniform_blocks",
    "per_entry_blocks",
    "CacheIntegrityError",
    "LookupResult",
    "MultiGpuEmbeddingCache",
    "EmbeddingLayerConfig",
    "UGacheEmbeddingLayer",
    "HitRates",
    "demand_from_keys",
    "evaluate_placement",
    "expected_demands",
    "hit_rates",
    "resolve_sources",
    "ExtractionPlan",
    "FactoredExtractor",
    "SourceGroup",
    "apply_health",
    "execute_plan",
    "host_fallback_demand",
    "plan_extraction",
    "price_demand",
    "GpuCacheStore",
    "PlacementDiff",
    "apply_diff_step",
    "fill_all",
    "fill_gpu",
    "placement_diff",
    "HotnessTracker",
    "DriftDetector",
    "DriftScore",
    "StreamingHotnessEstimator",
    "hot_set_jaccard",
    "rank_correlation",
    "degree_hotness",
    "MAX_OPTIMAL_ENTRIES",
    "approximation_gap",
    "solve_optimal",
    "Placement",
    "clique_partition_policy",
    "hot_replicate_warm_partition_policy",
    "partition_policy",
    "replication_policy",
    "RefreshConfig",
    "RefreshOutcome",
    "Refresher",
    "RefreshTimeline",
    "simulate_refresh_timeline",
    "PolicyOutcome",
    "PolicySolveError",
    "PolicySolveTimeout",
    "SolvedPolicy",
    "SolverConfig",
    "dedication_ratios",
    "solve_policy",
    "solve_policy_with_fallback",
    "warm_start_policy",
]
