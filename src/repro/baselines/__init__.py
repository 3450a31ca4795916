"""Baseline systems of §8.1, plus UGache behind the same interface."""

from repro.baselines.base import (
    EmbCacheSystem,
    SystemContext,
    SystemResult,
    UnsupportedConfiguration,
    evaluate_system,
)
from repro.baselines.systems import (
    GnnLabSystem,
    HpsSystem,
    PartUSystem,
    RepUSystem,
    SokSystem,
    UGacheSystem,
    WholeGraphSystem,
)

__all__ = [
    "EmbCacheSystem",
    "SystemContext",
    "SystemResult",
    "UnsupportedConfiguration",
    "evaluate_system",
    "GnnLabSystem",
    "HpsSystem",
    "PartUSystem",
    "RepUSystem",
    "SokSystem",
    "UGacheSystem",
    "WholeGraphSystem",
]
