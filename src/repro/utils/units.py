"""Unit constants and conversions.

The whole library works in *bytes* and *seconds* internally.  Benchmarks and
reports convert at the edges using these helpers, so a stray "is this GB or
GiB?" bug cannot silently skew a simulated bandwidth.

Bandwidth figures quoted in the paper (NVLink 25 GB/s per link, HBM
~900 GB/s, PCIe 3.0/4.0 x16 ~16/24 GB/s) use decimal gigabytes, so ``GB``
here is 1e9.
"""

from __future__ import annotations

#: Decimal units (used for bandwidths, matching vendor datasheets).
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

#: Binary gibibyte (used for memory capacities, matching `nvidia-smi`).
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

#: Time units, expressed in seconds.
MS = 1e-3


def gbps(value: float) -> float:
    """Convert a bandwidth in GB/s to bytes/second."""
    return value * GB


def seconds_to_ms(value: float) -> float:
    """Convert seconds to milliseconds."""
    return value / MS
