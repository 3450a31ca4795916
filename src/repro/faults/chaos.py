"""Chaos scenario matrix: end-to-end fault drills over a live cache.

Each scenario builds a small but complete stack — platform, Zipf workload,
filled :class:`~repro.core.cache.MultiGpuEmbeddingCache`, degraded-mode
:class:`~repro.core.extractor.FactoredExtractor` with an attached
:class:`~repro.faults.injector.FaultInjector` — then runs a batch loop
across the fault's onset, active window, and recovery, asserting that

* no exception escapes the extractor (degraded mode reroutes instead),
* every gathered value stays bit-identical to the host table,
* latency degrades while the fault is active and recovers after it clears.

The ``solver-timeout`` and ``refresh-interrupt`` scenarios exercise the
fallback chain and the transactional refresh directly instead of a batch
loop.  Node faults are not drilled here: they are cluster soaks
(``python -m repro soak --nodes N``), gated by the soak's cluster
section.  ``python -m repro chaos`` is the CLI front end.
"""

from __future__ import annotations

import time as _time
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from repro.bench.contexts import platform_by_name
from repro.core.extractor import FactoredExtractor
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.core.refresher import RefreshConfig, Refresher
from repro.core.solver import (
    FallbackConfig,
    PolicySolveTimeout,
    clear_policy_cache,
    solve_policy_with_fallback,
)
from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
from repro.faults.injector import FaultInjector
from repro.obs import get_registry
from repro.serve.soak import DEFAULT_RECOVERY_TOLERANCE, build_stack, phase_means
from repro.utils.logging import get_logger
from repro.utils.stats import choice_cdf, sample_cdf

logger = get_logger("faults.chaos")


def _at(kind: FaultKind, **target):
    """A table row's faults: one ``kind`` fault over the config's window."""
    return lambda c: (FaultSpec(kind, c.onset, c.duration, **target),)


#: The one scenario table, in display order: name → (one-line description
#: for ``chaos --list-scenarios``, the faults it injects as a function of
#: the :class:`ChaosConfig` — its onset, duration, run length and seed).
#: The two rows without faults drill the fallback chain and the
#: transactional refresh directly.
SCENARIO_TABLE: dict[str, tuple] = {
    "gpu-failure": (
        "one GPU dies mid-run; reads reroute around it",
        _at(FaultKind.GPU_FAILURE, gpu=1),
    ),
    "link-degradation": (
        "an interconnect link loses most of its bandwidth",
        _at(FaultKind.LINK_DEGRADATION, severity=0.75, link=(0, 1)),
    ),
    "link-partition": (
        "an interconnect link goes fully dark",
        _at(FaultKind.LINK_PARTITION, link=(0, 1)),
    ),
    "host-stall": (
        "host memory bandwidth collapses (swap/NUMA storm)",
        _at(FaultKind.HOST_STALL, severity=0.9),
    ),
    "corrupt-slot": (
        "location-table slots corrupted to out-of-range targets",
        _at(FaultKind.CORRUPT_SLOT, severity=0.05, gpu=1),
    ),
    "solver-timeout": ("MILP times out; the fallback chain must answer", None),
    "refresh-interrupt": (
        "a policy refresh dies mid-flight and rolls back", None
    ),
    "bit-rot": (
        "cached bytes silently flip in a burst; the scrubber and "
        "read guard must keep every served value exact",
        # A burst of flips inside the fault window.
        lambda c: (
            FaultSpec(FaultKind.BIT_ROT, c.onset, c.duration, rate=6.0, seed=c.seed),
        ),
    ),
    "slow-leak-corruption": (
        "low-rate bit-rot drips over the whole run; "
        "anti-entropy scrubbing must converge",
        # A low drip across the whole run — the shape scrubbing exists
        # for, since no single read pattern sweeps every rotten slot.
        lambda c: (
            FaultSpec(
                FaultKind.BIT_ROT, 0.0, float(c.num_batches), rate=1.5, seed=c.seed
            ),
        ),
    ),
}

SCENARIOS: tuple[str, ...] = tuple(SCENARIO_TABLE)

#: Every drill runs on this platform.
PLATFORM = "server-a"


@dataclass(frozen=True)
class ChaosConfig:
    """Workload and timeline knobs shared by every scenario.

    Attributes:
        num_entries: embedding table rows.
        batch_keys: keys each GPU extracts per batch.
        num_batches: run length; batch ``t`` runs at time ``t``.
        onset: when the fault starts.
        duration: how long it lasts.
        seed: seeds the table, the key draws and the fault plan.
    """

    num_entries: int = 20_000
    batch_keys: int = 2048
    num_batches: int = 12
    onset: float = 4.0
    duration: float = 4.0
    seed: int = 0
    #: bytes per embedding row (read by :func:`~repro.serve.soak.build_stack`).
    entry_bytes: ClassVar[int] = 32

    @classmethod
    def quick(cls, seed: int = 0) -> "ChaosConfig":
        """CI-sized variant (< a second per scenario)."""
        return cls(
            num_entries=3_000,
            batch_keys=512,
            num_batches=8,
            onset=3.0,
            duration=2.0,
            seed=seed,
        )


@dataclass
class ScenarioResult:
    """One scenario's verdict and headline numbers."""

    scenario: str
    ok: bool
    completed_batches: int = 0
    values_exact: bool = True
    baseline_time: float = 0.0
    degraded_time: float = 0.0
    recovered_time: float = 0.0
    rerouted_keys: int = 0
    notes: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def degradation(self) -> float:
        """During-fault latency relative to baseline (1.0 = unaffected)."""
        if self.baseline_time <= 0:
            return 1.0
        return self.degraded_time / self.baseline_time

    @property
    def recovery(self) -> float:
        """Post-fault latency relative to baseline (≈1.0 = fully recovered)."""
        if self.baseline_time <= 0:
            return 1.0
        return self.recovered_time / self.baseline_time

    def recovered(self, tolerance: float = DEFAULT_RECOVERY_TOLERANCE) -> bool:
        """Whether post-fault latency returned to within ``tolerance`` ×
        baseline.  Scenarios with no post-fault window (``recovered_time``
        is 0) can't be judged and count as recovered."""
        if tolerance < 1.0:
            raise ValueError("recovery tolerance must be >= 1.0")
        if self.baseline_time <= 0 or self.recovered_time <= 0:
            return True
        return self.recovery <= tolerance

    def to_dict(self, tolerance: float = DEFAULT_RECOVERY_TOLERANCE) -> dict:
        """JSON-able summary of this scenario (for ``--json-out``)."""
        doc = asdict(self)
        doc["degradation"] = self.degradation
        doc["recovery"] = self.recovery
        doc["recovered"] = self.recovered(tolerance)
        return doc


def build_fault_plan(scenario: str, cfg: ChaosConfig) -> FaultPlan:
    """The fault schedule a scenario of :data:`SCENARIO_TABLE` injects."""
    faults = SCENARIO_TABLE.get(scenario, (None, None))[1]
    if faults is None:
        raise ValueError(f"scenario {scenario!r} injects no fault plan")
    return FaultPlan(faults=faults(cfg), seed=cfg.seed, name=scenario)


def _sum_counter(name: str) -> float:
    """Sum one counter over all of its label combinations."""
    return float(sum(get_registry().counter_values(name).values()))


def _run_batch_loop(scenario: str, cfg: ChaosConfig) -> ScenarioResult:
    """Drive the extractor through onset → fault → recovery.

    The bit-rot scenarios are this drill with the anti-entropy scrubber
    and the read-path guard riding along, racing to catch the flipped
    bytes.  ``bit-rot`` is a burst (high event rate over the fault
    window); ``slow-leak-corruption`` drips a low rate across the *whole*
    run — the shape scrubbing exists for, since no single read pattern
    will sweep every rotten slot.  They pass when every *served* value
    stays bit-exact (the guard patches rot in flight), the drill detected
    the corruption at all, and a final full scrub + integrity scan comes
    back clean.
    """
    from repro.repair import CacheScrubber

    plan = build_fault_plan(scenario, cfg)
    stack = build_stack(cfg, platform_by_name(PLATFORM))
    injector = FaultInjector(plan, cache=stack.cache)
    extractor = FactoredExtractor(stack.cache, injector=injector)
    platform, table, rng = stack.platform, stack.table, stack.rng
    cdf = choice_cdf(stack.pmf)
    rot = plan.faults[0].kind is FaultKind.BIT_ROT
    scrubber = CacheScrubber(stack.cache) if rot else None
    rerouted_before = _sum_counter("faults.rerouted_keys")
    times: list[float] = []
    values_exact = True
    completed = 0
    patched = 0
    for t in range(cfg.num_batches):
        now = float(t)
        injector.advance(now)
        keys = [
            sample_cdf(cdf, rng, cfg.batch_keys) for _ in range(platform.num_gpus)
        ]
        values, report = extractor.extract(keys, now=now)
        for gpu, (got, want) in enumerate(zip(values, keys)):
            if scrubber is not None:
                got, n = scrubber.guard_read(gpu, want, got)
                patched += n
            if not np.array_equal(got, table[want]):
                values_exact = False
        if scrubber is not None:
            scrubber.tick(now)
        times.append(report.time)
        completed += 1

    ok = values_exact and completed == cfg.num_batches
    if scrubber is None:
        rerouted = int(_sum_counter("faults.rerouted_keys") - rerouted_before)
        notes = f"{rerouted} keys rerouted"
        extra = {}
    else:
        scrubber.scrub_all()
        violations = stack.cache.verify_integrity()
        detected = scrubber.mismatches_total + scrubber.read_repairs_total
        ok = ok and not violations and detected > 0
        rerouted = patched
        notes = (
            f"{scrubber.mismatches_total} scrub mismatch(es), "
            f"{scrubber.read_repairs_total} read-guard patch(es), "
            f"{scrubber.repaired_total} slot(s) repaired, "
            f"{len(violations)} integrity violation(s)"
        )
        extra = {
            "scrub_mismatches": scrubber.mismatches_total,
            "read_repairs": scrubber.read_repairs_total,
            "repaired": scrubber.repaired_total,
            "scanned": scrubber.scanned_total,
        }
    return ScenarioResult(
        scenario=scenario,
        ok=ok,
        completed_batches=completed,
        values_exact=values_exact,
        rerouted_keys=rerouted,
        notes=f"{completed}/{cfg.num_batches} batches, {notes}",
        extra=extra,
        # Mean batch time before the fault, inside it and after it (batch
        # ``t`` runs at time ``t``).
        **dict(zip(
            ("baseline_time", "degraded_time", "recovered_time"),
            phase_means(range(len(times)), times, plan.faults[0].onset,
                        plan.last_clear_time()),
        )),
    )


def _run_solver_timeout(cfg: ChaosConfig) -> ScenarioResult:
    """MILP times out → the fallback chain must answer within its deadline."""
    platform = platform_by_name(PLATFORM)
    stack = build_stack(cfg, platform, fill=False)

    def timed_out(*_args, **_kwargs):
        raise PolicySolveTimeout("injected: HiGHS budget exhausted")

    clear_policy_cache()
    deadline_seconds = 5.0
    start = _time.monotonic()
    outcome = solve_policy_with_fallback(
        platform,
        stack.hotness,
        stack.capacity,
        cfg.entry_bytes,
        fallback=FallbackConfig(deadline_seconds=deadline_seconds),
        solve_fn=timed_out,
    )
    elapsed = _time.monotonic() - start
    ok = outcome.source in ("greedy", "cached") and elapsed < deadline_seconds
    return ScenarioResult(
        scenario="solver-timeout",
        ok=ok,
        values_exact=True,
        baseline_time=outcome.est_time,
        degraded_time=outcome.est_time,
        recovered_time=outcome.est_time,
        notes=(
            f"fallback source={outcome.source} after {outcome.attempts} MILP "
            f"attempt(s) in {elapsed:.2f}s (deadline {deadline_seconds:.0f}s)"
        ),
        extra={"source": outcome.source, "attempts": outcome.attempts},
    )


def _run_refresh_interrupt(cfg: ChaosConfig) -> ScenarioResult:
    """Interrupt a refresh mid-flight; the cache must roll back bit-identically."""
    stack = build_stack(cfg, platform_by_name(PLATFORM))
    platform, cache, rng = stack.platform, stack.cache, stack.rng
    target = hot_replicate_warm_partition_policy(
        stack.hotness, stack.capacity, platform.num_gpus, 0.0
    )
    pre_map = cache.source_map.copy()
    probe = rng.integers(0, cfg.num_entries, size=256)
    pre_values = [cache.lookup(g, probe).values.copy() for g in range(platform.num_gpus)]

    calls = {"n": 0}

    def abort() -> bool:
        calls["n"] += 1
        return calls["n"] > 3  # let a few steps land, then pull the plug

    refresher = Refresher(cache, RefreshConfig(update_batch_entries=32))
    outcome = refresher.refresh(target, abort=abort)
    identical = bool(np.array_equal(cache.source_map, pre_map)) and all(
        np.array_equal(cache.lookup(g, probe).values, pre_values[g])
        for g in range(platform.num_gpus)
    )
    violations = cache.verify_integrity()

    # Recovery: the same refresh completes once the interruption clears.
    final = refresher.refresh(target)
    recovered = final.triggered and not final.interrupted
    ok = outcome.interrupted and outcome.rolled_back and identical and not violations
    return ScenarioResult(
        scenario="refresh-interrupt",
        ok=ok and recovered,
        values_exact=identical,
        notes=(
            f"rolled back after {outcome.steps} step(s), "
            f"bit-identical={identical}, integrity violations={len(violations)}, "
            f"retry moved {final.entries_moved} entries"
        ),
        extra={"rollback_steps": outcome.steps, "retry_moved": final.entries_moved},
    )


def run_scenario(scenario: str, cfg: ChaosConfig | None = None) -> ScenarioResult:
    """Run one scenario; raises ``ValueError`` for unknown names."""
    cfg = cfg or ChaosConfig()
    if scenario == "solver-timeout":
        result = _run_solver_timeout(cfg)
    elif scenario == "refresh-interrupt":
        result = _run_refresh_interrupt(cfg)
    elif scenario in SCENARIOS:
        result = _run_batch_loop(scenario, cfg)
    else:
        raise ValueError(f"unknown scenario {scenario!r}; try one of {SCENARIOS}")
    reg = get_registry()
    if reg.enabled:
        reg.counter(
            "chaos.scenarios", scenario=scenario, ok=str(result.ok).lower()
        ).inc()
    logger.info(
        "chaos %s: ok=%s (%s)", scenario, result.ok, result.notes or "no notes"
    )
    return result


def run_matrix(
    scenarios: tuple[str, ...] | list[str] | None = None,
    cfg: ChaosConfig | None = None,
) -> list[ScenarioResult]:
    """Run a list of scenarios (default: all of them)."""
    return [run_scenario(s, cfg) for s in (scenarios or SCENARIOS)]


def summarize_results(
    results: list[ScenarioResult],
    tolerance: float = DEFAULT_RECOVERY_TOLERANCE,
) -> dict:
    """Machine-readable matrix summary (what ``--json-out`` writes).

    ``ok`` is the CLI's exit gate: every scenario passed *and* recovered —
    a run whose degraded metrics never return within ``tolerance`` of
    baseline fails even if values stayed exact throughout.
    """
    unrecovered = [r.scenario for r in results if not r.recovered(tolerance)]
    failed = [r.scenario for r in results if not r.ok]
    return {
        "schema": "repro.chaos/v1",
        "recovery_tolerance": tolerance,
        "scenarios": [r.to_dict(tolerance) for r in results],
        "passed": len(results) - len(failed),
        "failed": failed,
        "unrecovered": unrecovered,
        "ok": not failed and not unrecovered,
    }


def render_results(
    results: list[ScenarioResult],
    tolerance: float = DEFAULT_RECOVERY_TOLERANCE,
) -> str:
    """Fixed-width verdict table for the CLI."""
    header = (
        f"{'scenario':18s} {'ok':4s} {'batches':>7s} {'exact':>5s} "
        f"{'degrade':>8s} {'recover':>8s} {'rerouted':>8s}  notes"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        recovered = r.recovered(tolerance)
        verdict = "PASS" if r.ok and recovered else "FAIL"
        note = r.notes if recovered else f"NEVER RECOVERED; {r.notes}"
        lines.append(
            f"{r.scenario:18s} {verdict:4s} "
            f"{r.completed_batches:7d} {'yes' if r.values_exact else 'NO':>5s} "
            f"{r.degradation:7.2f}x {r.recovery:7.2f}x "
            f"{r.rerouted_keys:8d}  {note}"
        )
    passed = sum(1 for r in results if r.ok and r.recovered(tolerance))
    lines.append(f"{passed}/{len(results)} scenarios passed")
    return "\n".join(lines)
