"""The online serving runtime: request loop over the multi-GPU cache.

:class:`ServingRuntime` is what sits between a request stream and the
cache machinery built in earlier PRs.  Per request it:

1. admits through the bounded per-GPU queue (backpressure + SLO shed);
2. plans extraction with the degraded-mode
   :class:`~repro.core.extractor.FactoredExtractor`, excluding any source
   whose circuit breaker is open;
3. prices the plan with the factored timing model under the current
   health view (the simulated clock advances by this price);
4. if the deadline is close, races a **hedged host-DRAM gather** against
   the planned extraction and takes whichever completes first;
5. feeds per-source outcomes (reroutes, group timeouts) back into the
   breakers, and every latency into the obs histograms the admission
   controller's estimator reads.

Everything is simulated-clock aware: no wall time is read anywhere, so
soak runs are deterministic and fast.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.extractor import FactoredExtractor
from repro.core.pipeline import backing_fallback_demand, price_demand
from repro.faults.injector import FaultInjector
from repro.faults.spec import HealthView
from repro.hardware.platform import HOST
from repro.obs import get_registry
from repro.serve.breaker import BreakerBoard, BreakerConfig
from repro.serve.coalesce import CoalesceOutcome, coalesce_keys
from repro.serve.queueing import AdmissionConfig, AdmissionController
from repro.serve.request import Request, RequestStatus, Response
from repro.sim.mechanisms import GpuDemand
from repro.utils.logging import get_logger

logger = get_logger("serve.runtime")

__all__ = ["ServeConfig", "ServingRuntime"]


@dataclass(frozen=True)
class ServeConfig:
    """Runtime knobs beyond admission and breaker thresholds.

    Attributes:
        admission: queue capacity and SLO shedding.
        breaker: circuit-breaker thresholds.
        hedge_enabled: issue a parallel host-DRAM gather when a request's
            remaining deadline budget is under ``hedge_headroom`` × the
            planned extraction estimate.
        hedge_headroom: how nervous the hedger is; 1.0 hedges only when
            the plan already looks too slow, larger values hedge earlier.
        source_timeout_seconds: a source group whose simulated extraction
            time exceeds this counts as a breaker failure (degraded-link
            timeout).  ``inf`` disables timeout-based tripping.

    Only GPU sources get breakers: host DRAM is the fallback of last
    resort, and a runtime with nowhere to route is worse than a slow one.
    """

    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    hedge_enabled: bool = True
    hedge_headroom: float = 1.25
    source_timeout_seconds: float = math.inf

    def __post_init__(self) -> None:
        if self.hedge_headroom <= 0:
            raise ValueError("hedge headroom must be positive")
        if self.source_timeout_seconds <= 0:
            raise ValueError("source timeout must be positive")


class ServingRuntime:
    """Admission + breakers + hedging around a degraded-mode extractor."""

    def __init__(
        self,
        extractor: FactoredExtractor,
        config: ServeConfig | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        self._extractor = extractor
        self._cache = extractor.cache
        self.config = config or ServeConfig()
        self._injector = injector
        #: optional :class:`~repro.serve.adaptation.DriftAdapter`; when
        #: attached, every *offered* request's key batch (at submit,
        #: before admission control) feeds its streaming hotness
        #: estimator.  With no adapter the serving path is byte-identical
        #: to earlier revisions.
        self.adapter = None
        #: optional :class:`~repro.repair.scrub.CacheScrubber`: when set,
        #: every extraction's rows pass its read guard, as a cluster
        #: node's do, so a rotten slot never reaches a caller.
        self.read_guard = None
        platform = extractor.platform
        self.admission = AdmissionController(
            platform.num_gpus, self.config.admission
        )
        self.breakers = BreakerBoard(list(platform.gpu_ids), self.config.breaker)
        self.responses: list[Response] = []
        self._next_request_id = 0
        # make_request may be called from several serving threads; the id
        # bump is a read-modify-write, so serialize it.
        self._id_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Request construction / submission
    # ------------------------------------------------------------------
    def make_request(
        self, gpu: int, keys: np.ndarray, now: float, deadline: float = math.inf
    ) -> Request:
        with self._id_lock:
            self._next_request_id += 1
            request_id = self._next_request_id
        return Request(
            request_id=request_id,
            gpu=gpu,
            keys=np.ascontiguousarray(keys, dtype=np.int64),
            arrival=now,
            deadline=deadline,
        )

    def submit(self, request: Request, now: float) -> Response | None:
        """Admit one request; returns a Response iff it was dropped.

        A ``None`` return means the request is queued and will produce its
        Response from :meth:`poll`.
        """
        if self.adapter is not None:
            # Hotness estimation sees *offered* traffic, before admission
            # control: under a drifted policy most requests shed, and an
            # estimator fed only by survivors would starve exactly when
            # the detector needs fresh evidence most.
            self.adapter.observe(request.gpu, request.keys, now)
        result = self.admission.submit(request, now)
        if result.admitted:
            return None
        assert result.status is not None
        return self._finish_dropped(request, result.status, now)

    def _finish_dropped(
        self, request: Request, status: RequestStatus, now: float
    ) -> Response:
        """Record the response of a request that leaves without service."""
        get_registry().cached("counter", "serve.requests", status=status.value).inc()
        response = Response(request=request, status=status, completed_at=now)
        self.responses.append(response)
        return response

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------
    def _health(self, now: float) -> HealthView | None:
        if self._injector is None:
            return None
        return self._injector.advance(now)

    def _extract(self, gpu: int, keys: np.ndarray, now: float):
        """The one extraction under :meth:`serve_request` and
        :meth:`serve_batch`: health → breaker exclusions → plan + execute
        → price → breaker feedback.  Returns ``(plan, values,
        service_time, health)``."""
        health = self._health(now)
        excluded = self.breakers.excluded_sources(now)
        # Plan and execute under one read lock: the plan's slot offsets
        # must still be valid when the gather runs, so a refresher step
        # (a writer) cannot land between the two.
        with self._cache.reading():
            plan = self._extractor.plan(
                gpu,
                keys,
                health=health,
                now=now,
                exclude_sources=excluded,
            )
            values, demand = self._extractor.execute(plan)
        if self.read_guard is not None:
            values, _ = self.read_guard.guard_read(gpu, keys, values)
        # The pipeline's shared price stage — same call the simulators make.
        report = price_demand(self._extractor.platform, demand, health=health)
        self._feed_breakers(plan, report.time_by_source, now)
        return plan, values, report.time, health

    def _finish_served(
        self,
        request: Request,
        now: float,
        planned: float,
        values: np.ndarray,
        health: HealthView | None,
        rerouted_keys: int,
        coalesced: int = 1,
    ) -> Response:
        """Record the response of a request whose extraction, ``planned``
        seconds long, started at ``now`` — after the deadline hedge: when
        its remaining budget is under ``hedge_headroom`` × ``planned``, a
        gather of all its keys from the backing chain races the plan."""
        service_time, hedged, hedge_won = planned, False, False
        if (
            self.config.hedge_enabled
            and math.isfinite(request.deadline)
            and request.remaining(now) < self.config.hedge_headroom * planned
        ):
            hedged = True
            reg = get_registry()
            # Split the hedge across backing tiers by where entries
            # actually live ({HOST: 1.0} on a single-tier platform).
            nbytes = float(len(request.keys) * self._cache.entry_bytes)
            host_demand = backing_fallback_demand(
                GpuDemand(dst=request.gpu, volumes={HOST: nbytes}),
                self._cache.backing_shares(),
            )
            host_time = price_demand(
                self._extractor.platform, host_demand, health=health
            ).time
            reg.counter("serve.hedges", gpu=request.gpu).inc()
            if host_time < planned:
                # the host gather wins the race: same (exact) values, the
                # host path's price.
                hedge_won = True
                service_time = host_time
                values = self._cache.host_gather(request.keys)
                reg.counter("serve.hedge_wins", gpu=request.gpu).inc()
        completed_at = now + service_time
        response = Response(
            request=request,
            status=(
                RequestStatus.OK
                if completed_at <= request.deadline
                else RequestStatus.EXPIRED
            ),
            completed_at=completed_at,
            started_at=now,
            service_time=service_time,
            hedged=hedged,
            hedge_won=hedge_won,
            rerouted_keys=rerouted_keys,
            coalesced=coalesced,
            values=values,
        )
        self.responses.append(response)
        return response

    def serve_request(self, request: Request, now: float) -> Response:
        """Execute one admitted request at (simulated) time ``now``."""
        reg = get_registry()
        if request.expired(now):
            # Dead on arrival at the worker: don't waste extraction on it.
            return self._finish_dropped(request, RequestStatus.EXPIRED, now)

        plan, values, planned, health = self._extract(
            request.gpu, request.keys, now
        )
        response = self._finish_served(
            request, now, planned, values, health, plan.rerouted_keys
        )
        estimator = self.admission.queues[request.gpu].estimator
        estimator.observe(response.service_time)
        reg.cached("counter", "serve.requests", status=response.status.value).inc()
        reg.cached("histogram", "serve.latency.seconds").observe(
            response.completed_at - request.arrival
        )
        return response

    def serve_batch(self, requests: list[Request], now: float) -> CoalesceOutcome:
        """Serve a coalesced micro-batch of same-GPU requests at ``now``.

        The member key sets are unioned and deduplicated into one
        extraction demand (``union, total, inverse =``
        :func:`~repro.serve.coalesce.coalesce_keys`), planned and executed
        once, and priced once through the shared
        :func:`~repro.core.pipeline.price_demand` stage.  One
        ``values.take(inverse, axis=0)`` scatters the gathered rows: each
        member's ``values`` is its own row-slice of that one per-batch
        buffer, disjoint from the other members' slices, and each keeps
        its own deadline/hedging/latency accounting:

        * every live member completes at ``now + shared_time`` (they all
          wait for the shared extraction), except a member whose deadline
          hedge wins — its host-DRAM gather races the shared extraction
          exactly as in :meth:`serve_request`;
        * the per-member latency includes its queue wait and linger
          (``now - arrival``) plus the shared extraction time, so a
          member's latency is never below what serving it alone at its
          own arrival would have cost;
        * breakers are fed once per batch (one plan, one outcome) and the
          admission estimator observes the shared service time once.

        The union plan's rerouted-key count is attributed to the first
        live member's response (it counts unique keys moved, so spreading
        it across members would double-count).  A batch that names more
        than one GPU raises before anything is recorded.
        """
        if len({r.gpu for r in requests}) > 1:
            raise ValueError("a coalesced batch must target one GPU")
        reg = get_registry()
        responses: list[Response] = []
        live: list[Request] = []
        for request in requests:
            if request.expired(now):
                responses.append(
                    self._finish_dropped(request, RequestStatus.EXPIRED, now)
                )
            else:
                live.append(request)
        if not live:
            # No member reached extraction: nothing was fused, so the
            # batch size is 0, not the offered count — otherwise soak
            # mean_batch_size inflates over batches that did no work.
            return CoalesceOutcome(
                responses=responses,
                batch_size=0,
                completed_at=now,
            )
        gpu = live[0].gpu

        union, total_keys, inverse = coalesce_keys(live, self._cache.num_entries)
        plan, values, shared_time, health = self._extract(gpu, union, now)
        completed_at = now + shared_time

        self.admission.estimator(gpu).observe(shared_time)
        outcome = CoalesceOutcome(
            responses=responses,
            batch_size=len(live),
            union_size=len(union),
            total_keys=total_keys,
            service_time=shared_time,
            completed_at=completed_at,
        )
        reg.cached("histogram", "serve.coalesce.batch_size").observe(len(live))
        reg.cached("histogram", "serve.coalesce.dedup_ratio").observe(
            outcome.dedup_ratio
        )
        latency = reg.cached("histogram", "serve.latency.seconds")
        linger = reg.cached("histogram", "serve.coalesce.linger.seconds")

        # Every member's rows in one gather; each owns rows[start:stop].
        rows = values.take(inverse, axis=0)
        stop = 0
        rerouted_credit = plan.rerouted_keys
        statuses: dict[RequestStatus, int] = {}
        for request in live:
            start, stop = stop, stop + len(request.keys)
            response = self._finish_served(
                request, now, shared_time, rows[start:stop], health,
                rerouted_credit, coalesced=len(live),
            )
            rerouted_credit = 0
            statuses[response.status] = statuses.get(response.status, 0) + 1
            latency.observe(response.completed_at - request.arrival)
            linger.observe(now - request.arrival)
            responses.append(response)
        for status, members in statuses.items():
            reg.cached("counter", "serve.requests", status=status.value).inc(members)
        return outcome

    def _feed_breakers(
        self, plan, time_by_source: dict[int, float], now: float
    ) -> None:
        """Turn one plan's outcome into per-source breaker signals."""
        failed = set(plan.failed_sources)
        timeout = self.config.source_timeout_seconds
        for src, t in time_by_source.items():
            if src == plan.dst:
                continue
            if t > timeout:
                failed.add(src)
                get_registry().counter(
                    "serve.source_timeouts", source=src
                ).inc()
        for src in failed:
            self.breakers.record(src, ok=False, now=now)
        for src, _, _ in plan.per_source:
            if src == plan.dst or src in failed:
                continue
            self.breakers.record(src, ok=True, now=now)

    # ------------------------------------------------------------------
    # Loop helpers (the soak harness and the policy manager use these)
    # ------------------------------------------------------------------
    def poll(self, gpu: int, now: float) -> Response | None:
        """Serve the next queued request on ``gpu``, if any."""
        request = self.admission.queues[gpu].pop()
        if request is None:
            return None
        return self.serve_request(request, now)

    def probe(self, keys_per_gpu: list[np.ndarray], now: float) -> float:
        """Measure current serving latency (max over GPUs) for the swap
        guardrail, without touching queues, breakers, or metrics state."""
        health = self._health(now)
        platform = self._extractor.platform
        worst = 0.0
        for gpu, keys in enumerate(keys_per_gpu):
            plan = self._extractor.plan(gpu, keys, health=health, now=now)
            demand = plan.demand(self._cache.entry_bytes)
            worst = max(worst, price_demand(platform, demand, health=health).time)
        return worst
