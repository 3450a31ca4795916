"""Shared utilities: unit conversions, deterministic RNG helpers, statistics."""

from repro.utils.units import (
    GB,
    GIB,
    KB,
    MB,
    MS,
    US,
    bytes_to_gb,
    gb_to_bytes,
    gbps,
    seconds_to_ms,
    seconds_to_us,
)
from repro.utils.concurrency import ReadWriteLock
from repro.utils.logging import enable_console_logging, get_logger
from repro.utils.retry import (
    Deadline,
    RetriesExhausted,
    RetryPolicy,
    retry_call,
)
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.stats import (
    geometric_mean,
    normalize,
    zipf_pmf,
)

__all__ = [
    "ReadWriteLock",
    "GB",
    "GIB",
    "KB",
    "MB",
    "MS",
    "US",
    "bytes_to_gb",
    "gb_to_bytes",
    "gbps",
    "seconds_to_ms",
    "seconds_to_us",
    "enable_console_logging",
    "get_logger",
    "Deadline",
    "RetriesExhausted",
    "RetryPolicy",
    "retry_call",
    "make_rng",
    "spawn_rngs",
    "geometric_mean",
    "normalize",
    "zipf_pmf",
]
