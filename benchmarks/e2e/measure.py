"""Wall-clock measurement: block recorder, reference kernel, host probes.

The sandbox is a small shared VM whose speed wanders by up to 2x, for
milliseconds or for minutes at a time, so any statistic of raw seconds
(mean, median, even the per-block minimum over passes) mostly measures
the neighbours: on 12 identical 8-second runs of ``serve_closed`` the
per-block-minimum time ranged 0.22-0.40 s.  Every wall metric therefore
follows one rule.  A workload's trace is cut into *blocks* of 5-25 ms of
work; a fixed *reference kernel* (bytecode arithmetic, dict lookups and
small allocations, small and large numpy gathers, about 0.6 ms) runs
before every block;
the whole trace is replayed for many passes that do identical work; and
the reported time is

    reference seconds = median over passes of
        (the pass's block time / the pass's mean reference sample) * REFERENCE_S

i.e. what the trace costs on a box where the reference kernel takes
exactly ``REFERENCE_S``.  Identical runs agree within about 6% under this
rule (README.md has the measurements).  The undisturbed time (sum over blocks of the minimum over passes),
the median pass and ``host.noise_ratio`` (their quotient) are printed
beside it as information only.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"


#: What one reference kernel takes on an undisturbed box of this class;
#: it only fixes the scale of "reference seconds".
REFERENCE_S = 5.5e-4


class ReferenceKernel:
    """Fixed work whose duration tracks the host's speed of the moment.

    Three parts, because the neighbours slow different kinds of code by
    different factors and the product is a mix of all three: bytecode
    arithmetic with a small numpy gather and argsort (cache-resident), dict
    lookups over a large dict with small-object allocation (cache-missing
    pointer chasing), and a 2048-row gather from a 25 MB table with a
    unique and a row sum (memory bandwidth).  No single part tracked every
    workload: between identical runs each left 3-26% depending on the
    workload; their sum leaves 4-6% on all of them.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20230923)
        self.small = rng.standard_normal((20_000, 32)).astype(np.float32)
        self.small_rows = rng.integers(0, 20_000, size=256)
        self.sort_keys = rng.integers(0, 20_000, size=1024)
        self.objects = {k: (k, float(k)) for k in range(300_000)}
        self.lookups = [int(k) for k in rng.integers(0, 300_000, size=600)]
        self.large = rng.standard_normal((200_000, 32)).astype(np.float32)
        self.large_rows = rng.integers(0, 200_000, size=2048)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(1000):
            total += i * i % 7
        self.small[self.small_rows]
        np.argsort(self.sort_keys, kind="stable")
        objects, made = self.objects, []
        for k in self.lookups:
            a, b = objects[k]
            made.append((a + 1, b * 2.0, [a]))
        np.unique(self.large_rows)
        self.large[self.large_rows].sum(axis=1)
        return time.perf_counter() - t0


class Recorder:
    """Per-pass block timer handed to the workload drivers.

    ``op(i)`` names the operation about to run (a request, an iteration);
    ``mark(kind)`` closes the block that began at the previous mark and
    takes one reference sample before the next block begins.  The traced
    run substitutes :class:`tracing.TracedRecorder`, which also keeps a
    root span open.
    """

    def __init__(self, reference: ReferenceKernel) -> None:
        self.reference = reference
        self.durations: list[float] = []
        self.kinds: list[int] = []
        self.references: list[float] = []
        self._t = 0.0

    def start(self) -> None:
        self.references.append(self.reference())
        self._t = time.perf_counter()

    def op(self, op_id: int) -> None:
        pass

    def mark(self, kind: int = 0) -> None:
        self.durations.append(time.perf_counter() - self._t)
        self.kinds.append(kind)
        self.references.append(self.reference())
        self._t = time.perf_counter()

    def stop(self) -> None:
        pass


def quiesce() -> None:
    """Collect and freeze the heap so no pass pays for another's garbage."""
    gc.collect()
    gc.freeze()


def reference_seconds(seconds: np.ndarray, references: np.ndarray) -> float:
    """Median over passes of (a pass's seconds / its mean reference sample),
    scaled to a box whose reference kernel takes ``REFERENCE_S``."""
    return float(np.median(seconds / references)) * REFERENCE_S


def undisturbed(passes: np.ndarray) -> float:
    """Sum over blocks of the per-block minimum over passes (information)."""
    return float(passes.min(axis=0).sum())


def calibration_ms(repeats: int = 15) -> float:
    """A fixed pure-Python + numpy kernel, best of ``repeats`` (host speed)."""
    data = np.arange(200_000, dtype=np.int64)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        order = np.argsort((data * 2654435761) % 1000003, kind="stable")
        total += int(data[order][::1000].sum())
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def run_child(args: list[str], timeout: float = 170.0) -> str:
    """Run a child python to completion (``subprocess.run`` always waits,
    and kills the child first if it outlives ``timeout``)."""
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=timeout, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(args)} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return done.stdout


def fresh_setup_seconds(workload: str, seed: int, smoke: bool) -> float:
    """One ``setup_s`` sample from a fresh process of this program."""
    args = [str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--setup-only"] + (["--smoke"] if smoke else [])
    return float(run_child(args).strip().splitlines()[-1])


def fresh_import_seconds(statement: str, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``statement`` in a fresh interpreter."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        f"t = time.perf_counter(); {statement}; print(time.perf_counter() - t)"
    )
    return min(float(run_child(["-c", code]).strip()) for _ in range(repeats))


def quartile_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
