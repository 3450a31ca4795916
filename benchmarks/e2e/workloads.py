"""Seeded input generation for the end-to-end benchmark — and nothing else.

Every array and schedule the five workloads feed to the product is made
here from ``--seed``; the product itself never sees the seed.  Arrival
schedules are *dimensionless* (multiples of the workload's baseline
service time ``s0``, which the driver prices after set-up), so they live
on the simulated clock: a generator cannot run late on a clock that only
advances when the driver says so.

The hot ranks of every table are scattered over the entry ids by a seeded
permutation, so two seeds differ in which rows are hot, in every key
draw, in the table's values and in every arrival time — while the *shape*
of the work (Zipf exponent, table size, request count) is fixed by
:data:`SIZES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = (
    "extract_batch",
    "serve_closed",
    "serve_coalesce_overload",
    "cluster_failover",
    "refresh_mixed",
)

#: Open-loop workloads print this sentence next to their numbers.
LATENESS_NOTE = (
    "arrival schedules are on the simulated clock, so generator lateness "
    "is zero by construction"
)

#: Full sizes, and the ``--smoke`` sizes the self-check uses.
SIZES: dict[str, dict[str, dict]] = {
    "extract_batch": {
        "full": dict(entries=100_000, alpha=1.2, iterations=24, batch_keys=8192),
        "smoke": dict(entries=4_000, alpha=1.2, iterations=4, batch_keys=512),
    },
    "serve_closed": {
        "full": dict(entries=20_000, alpha=1.1, requests=640, batch_keys=256),
        "smoke": dict(entries=3_000, alpha=1.1, requests=96, batch_keys=64),
    },
    "serve_coalesce_overload": {
        "full": dict(entries=20_000, alpha=1.1, requests=1200, batch_keys=1024,
                     load=2.0),
        "smoke": dict(entries=3_000, alpha=1.1, requests=96, batch_keys=128,
                      load=2.0),
    },
    "cluster_failover": {
        "full": dict(entries=20_000, alpha=1.1, requests=208, batch_keys=512,
                     load=0.8),
        "smoke": dict(entries=3_000, alpha=1.1, requests=60, batch_keys=64,
                      load=0.8),
    },
    "refresh_mixed": {
        "full": dict(entries=20_000, alpha=1.1, batch_keys=1024, pool=96),
        "smoke": dict(entries=3_000, alpha=1.1, batch_keys=128, pool=48),
    },
}

S0_BATCHES = 64  # batches whose mean price is the serving time unit s0
DIM = 32  # float32 columns per embedding row (128-byte entries)
NUM_GPUS = {"extract_batch": 8}  # server-c; every other workload is server-a (4)


@dataclass(frozen=True)
class Inputs:
    """What one workload hands to the product (arrays and schedules only)."""

    workload: str
    seed: int
    sizes: dict
    #: the embedding table given to the product, and the benchmark's own
    #: pristine copy that every returned row is compared against.
    table: np.ndarray
    reference: np.ndarray
    #: access probability per entry id (Zipf over a seeded rank permutation).
    pmf: np.ndarray
    #: key batches; the leading axes are workload-specific (see ``generate``).
    keys: np.ndarray
    #: batches used only to price the baseline service time ``s0`` (their mean).
    s0_keys: np.ndarray
    #: open-loop arrival times in units of ``s0`` (empty for closed loops).
    arrivals: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: destination GPU per open-loop request (single-box open loop only).
    gpus: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: refresh_mixed only: the drifted access probabilities and their keys.
    pmf_b: np.ndarray | None = None
    keys_b: np.ndarray | None = None


def zipf_over(order: np.ndarray, alpha: float) -> np.ndarray:
    """Zipf(alpha) mass where ``order[r]`` is the entry id of rank ``r``."""
    weights = np.arange(1, len(order) + 1, dtype=np.float64) ** -alpha
    pmf = np.empty(len(order), dtype=np.float64)
    pmf[order] = weights / weights.sum()
    return pmf


def swap_deciles(order: np.ndarray) -> np.ndarray:
    """The soak's drift shape: ranks of the 2nd and 8th deciles trade places."""
    n = len(order)
    drifted = order.copy()
    hot, cold = slice(n // 10, 2 * n // 10), slice(7 * n // 10, 8 * n // 10)
    drifted[hot], drifted[cold] = order[cold], order[hot]
    return drifted


def draw(rng: np.random.Generator, pmf: np.ndarray, *shape: int) -> np.ndarray:
    return rng.choice(len(pmf), size=shape, p=pmf).astype(np.int64)


def poisson_arrivals(rng: np.random.Generator, count: int, span: float) -> np.ndarray:
    """``count`` arrivals of a Poisson process on ``[0, span)``, sorted."""
    return np.sort(rng.uniform(0.0, span, size=count))


def generate(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """All inputs of ``workload`` for ``seed``; same seed, same bytes."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    sizes = SIZES[workload]["smoke" if smoke else "full"]
    # One independent stream per purpose, so resizing one input never
    # shifts another's draws.
    table_rng, order_rng, key_rng, arrival_rng = (
        np.random.default_rng([seed, WORKLOADS.index(workload), stream])
        for stream in range(4)
    )
    n, k = sizes["entries"], sizes["batch_keys"]
    table = table_rng.standard_normal((n, DIM)).astype(np.float32)
    order = order_rng.permutation(n)
    pmf = zipf_over(order, sizes["alpha"])
    serving = workload in ("serve_closed", "serve_coalesce_overload", "cluster_failover")
    common = dict(
        workload=workload, seed=seed, sizes=sizes, table=table,
        reference=table.copy(), pmf=pmf,
        s0_keys=draw(key_rng, pmf, S0_BATCHES if serving else 0, k),
    )
    gpus = NUM_GPUS.get(workload, 4)
    if workload == "extract_batch":
        return Inputs(keys=draw(key_rng, pmf, sizes["iterations"], gpus, k), **common)
    if workload == "serve_closed":
        return Inputs(keys=draw(key_rng, pmf, sizes["requests"], k), **common)
    if workload == "serve_coalesce_overload":
        per_gpu = sizes["requests"] // gpus
        times = np.concatenate([
            poisson_arrivals(arrival_rng, per_gpu, per_gpu / sizes["load"])
            for gpu in range(gpus)
        ])
        dst = np.repeat(np.arange(gpus, dtype=np.int64), per_gpu)
        by_time = np.lexsort((dst, times))
        return Inputs(
            keys=draw(key_rng, pmf, gpus * per_gpu, k),
            arrivals=times[by_time], gpus=dst[by_time], **common,
        )
    if workload == "cluster_failover":
        # Unit mean spacing; the driver divides by the cluster's rate.
        count = sizes["requests"]
        return Inputs(
            keys=draw(key_rng, pmf, count, k),
            arrivals=poisson_arrivals(arrival_rng, count, float(count)), **common,
        )
    # refresh_mixed: hotness A and its drifted twin B, with a pool of
    # foreground batches drawn from each (one per refresh step).
    pmf_b = zipf_over(swap_deciles(order), sizes["alpha"])
    return Inputs(
        keys=draw(key_rng, pmf, sizes["pool"], gpus, k),
        pmf_b=pmf_b, keys_b=draw(key_rng, pmf_b, sizes["pool"], gpus, k), **common,
    )
