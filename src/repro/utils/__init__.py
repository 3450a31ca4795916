"""Shared utilities: unit conversions, deterministic RNG helpers, statistics."""

from repro.utils.units import (
    GB,
    GIB,
    KB,
    MB,
    MS,
    gbps,
    seconds_to_ms,
)
from repro.utils.concurrency import ReadWriteLock
from repro.utils.logging import get_logger
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.stats import (
    geometric_mean,
    zipf_pmf,
)

__all__ = [
    "ReadWriteLock",
    "GB",
    "GIB",
    "KB",
    "MB",
    "MS",
    "gbps",
    "seconds_to_ms",
    "get_logger",
    "make_rng",
    "spawn_rngs",
    "geometric_mean",
    "zipf_pmf",
]
