"""Hot policy swap: versioned cache-policy generations with guarded rollover.

The background solver periodically re-solves the cache policy under fresh
hotness (:func:`~repro.core.solver.solve_policy_with_fallback`).
Landing that new placement on a *serving* cache is the dangerous part: the
swap must not corrupt routing mid-flight, and a policy that looked better
to the solver can still regress tail latency in practice (the estimate is
a model; production traffic is the judge).  The :class:`PolicyManager`
makes the rollover safe:

0. **re-solve** — a re-solve that fails (a HiGHS time limit included)
   refuses the swap: the serving generation stays, as after a rollback;
1. **drain** — the runtime finishes in-flight batches against the old
   generation (the caller-supplied ``drain`` hook);
2. **probe (before)** — measure serving latency under the old generation;
3. **refresh** — apply the placement diff through
   :meth:`~repro.core.refresher.Refresher.refresh`, which is transactional:
   a mid-step failure rolls the cache back bit-identically and propagates;
4. **verify** — the full
   :meth:`~repro.core.cache.MultiGpuEmbeddingCache.verify_integrity` must
   come back clean, else the swap is rolled back;
5. **probe (after) + guardrail** — if post-swap latency regresses past
   :data:`P99_REGRESSION` × pre-swap, the previous generation is
   restored (again through a transactional refresh).

Every accepted generation is versioned and kept in history, so operators
can answer "which policy was serving at 14:03" from the swap log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.policy import Placement
from repro.core.refresher import Refresher
from repro.core.solver import (
    PolicyOutcome,
    PolicySolveError,
    SolvedPolicy,
    SolverConfig,
    solve_policy_with_fallback,
)
from repro.obs import get_registry
from repro.utils.logging import get_logger

logger = get_logger("serve.policy_manager")

__all__ = ["PolicyGeneration", "PolicyManager", "SwapReport"]


@dataclass(frozen=True)
class PolicyGeneration:
    """One accepted cache-policy version."""

    version: int
    placement: Placement
    #: what produced it: "seed", "milp", or "incremental".
    source: str
    est_time: float
    activated_at: float


#: Post-swap acceptance gate: the most a swap may raise the probe latency
#: (post/pre ratio) before it is rolled back.
P99_REGRESSION = 2.0


@dataclass
class SwapReport:
    """What one swap attempt did, for the swap log and the soak report."""

    attempted: bool
    swapped: bool = False
    rolled_back: bool = False
    reason: str = ""
    version: int = 0
    entries_moved: int = 0
    pre_probe: float = 0.0
    post_probe: float = 0.0
    integrity_violations: int = 0


class PolicyManager:
    """Holds versioned policy generations and lands swaps transactionally."""

    def __init__(
        self,
        cache: MultiGpuEmbeddingCache,
        refresher: Refresher | None = None,
        solver_config: SolverConfig | None = None,
    ) -> None:
        self._cache = cache
        self._refresher = refresher or Refresher(cache)
        self._solver_config = solver_config
        self._generations: list[PolicyGeneration] = [
            PolicyGeneration(
                version=0,
                placement=cache.placement,
                source="seed",
                est_time=0.0,
                activated_at=0.0,
            )
        ]
        self.swap_log: list[SwapReport] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current(self) -> PolicyGeneration:
        return self._generations[-1]

    @property
    def version(self) -> int:
        return self.current.version

    @property
    def generations(self) -> tuple[PolicyGeneration, ...]:
        return tuple(self._generations)

    # ------------------------------------------------------------------
    # Solve + swap
    # ------------------------------------------------------------------
    def solve(
        self,
        hotness: np.ndarray,
        capacity_entries: int | list[int],
        warm: SolvedPolicy | None = None,
    ) -> PolicyOutcome:
        """Solve the policy for the cache's platform (``warm``: the
        previous solve, for an incremental re-solve).  Raises
        :class:`~repro.core.solver.PolicySolveError` when the solve fails."""
        return solve_policy_with_fallback(
            self._cache.platform,
            hotness,
            capacity_entries,
            self._cache.entry_bytes,
            config=self._solver_config,
            warm=warm,
        )

    def resolve(
        self,
        hotness: np.ndarray,
        capacity_entries: int | list[int],
        warm: SolvedPolicy | None = None,
        **swap_args,
    ) -> tuple[PolicyOutcome | None, SwapReport]:
        """Re-solve under ``hotness`` and :meth:`swap` the result in
        (``swap_args`` go to :meth:`swap`).  A failed re-solve refuses the
        swap: the serving generation stays and the swap log records
        ``"solve-failed"``; the outcome is then ``None``."""
        try:
            outcome = self.solve(hotness, capacity_entries, warm=warm)
        except PolicySolveError as exc:
            report = SwapReport(attempted=True, reason="solve-failed", version=self.version)
            self.swap_log.append(report)
            get_registry().counter("serve.policy.swaps", result="solve-failed").inc()
            logger.warning("policy re-solve failed, v%d stays: %s", self.version, exc)
            return None, report
        return outcome, self.swap(outcome, **swap_args)

    def _rollback(self, placement: Placement, reason: str) -> int:
        """Refresh back to ``placement``; returns integrity violations."""
        outcome = self._refresher.refresh(placement)
        violations = self._cache.verify_integrity()
        reg = get_registry()
        reg.counter("serve.policy.rollbacks", reason=reason).inc()
        logger.warning(
            "policy swap rolled back (%s): %d entries moved back, "
            "%d integrity violation(s)",
            reason, outcome.entries_moved, len(violations),
        )
        return len(violations)

    def swap(
        self,
        outcome: PolicyOutcome,
        now: float = 0.0,
        drain=None,
        probe=None,
    ) -> SwapReport:
        """Atomically land ``outcome``'s placement on the serving cache.

        Args:
            outcome: a :class:`~repro.core.solver.PolicyOutcome` from
                :meth:`solve` (or any placement-bearing outcome).
            now: current (simulated) time, stamped on the new generation.
            drain: zero-arg hook; called before the refresh so the runtime
                can finish in-flight batches against the old generation.
            probe: zero-arg hook returning a latency measurement (seconds);
                called before and after the refresh for the p99 guardrail.

        The solver's estimate does not gate the swap: the serving
        generation's ``est_time`` was computed under older hotness, so the
        probe-based guardrail, which measures real traffic on both sides of
        the refresh, is the judge.

        Returns:
            A :class:`SwapReport`; ``swapped`` and ``rolled_back`` tell the
            caller what actually happened.  Never raises for guardrail or
            integrity failures — rollback is the error handling.  A refresh
            step that raises propagates once the refresher has rolled the
            cache back, logged as ``"refresh-failed"``; the generation stays.
        """
        reg = get_registry()
        report = SwapReport(attempted=True, version=self.version)
        self.swap_log.append(report)

        if drain is not None:
            drain()
        pre_placement = self._cache.placement
        report.pre_probe = float(probe()) if probe is not None else 0.0

        try:
            refresh = self._refresher.refresh(outcome.placement)
        except Exception:
            report.rolled_back = True
            report.reason = "refresh-failed"
            reg.counter("serve.policy.swaps", result="refresh-failed").inc()
            raise
        report.entries_moved = refresh.entries_moved

        violations = self._cache.verify_integrity()
        if violations:
            report.integrity_violations = len(violations)
            report.rolled_back = True
            report.reason = "integrity"
            self._rollback(pre_placement, "integrity")
            reg.counter("serve.policy.swaps", result="integrity-rollback").inc()
            return report

        report.post_probe = float(probe()) if probe is not None else 0.0
        if (
            probe is not None
            and report.pre_probe > 0
            and report.post_probe > P99_REGRESSION * report.pre_probe
        ):
            report.rolled_back = True
            report.reason = "p99-guardrail"
            self._rollback(pre_placement, "p99-guardrail")
            reg.counter("serve.policy.swaps", result="guardrail-rollback").inc()
            return report

        generation = PolicyGeneration(
            version=self.version + 1,
            placement=outcome.placement,
            source=outcome.source,
            est_time=outcome.est_time,
            activated_at=now,
        )
        self._generations.append(generation)
        report.swapped = True
        report.version = generation.version
        report.reason = "swapped"
        reg.counter("serve.policy.swaps", result="swapped").inc()
        reg.gauge("serve.policy.version").set(generation.version)
        logger.info(
            "policy swap landed: v%d (%s, est %.3es, %d entries moved) at t=%.2f",
            generation.version, generation.source, generation.est_time,
            report.entries_moved, now,
        )
        return report
