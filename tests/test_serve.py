"""Admission control, bounded queues, breakers, and serving primitives."""

import math

import numpy as np
import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.serve import (
    queueing,
    AdmissionConfig,
    AdmissionController,
    BoundedRequestQueue,
    BreakerBoard,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    LatencyEstimator,
    QueuePolicy,
    Request,
    RequestStatus,
)

pytestmark = pytest.mark.serve


def _request(rid=1, gpu=0, arrival=0.0, deadline=math.inf):
    return Request(
        request_id=rid,
        gpu=gpu,
        keys=np.arange(4, dtype=np.int64),
        arrival=arrival,
        deadline=deadline,
    )


class TestRequest:
    def test_deadline_budget(self):
        r = _request(arrival=1.0, deadline=3.0)
        assert r.remaining(1.0) == 2.0
        assert not r.expired(2.9)
        assert r.expired(3.0)

    def test_best_effort_never_expires(self):
        assert not _request().expired(1e9)


class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(capacity=0)
        with pytest.raises(ValueError):
            AdmissionConfig(slo_seconds=0.0)


class TestLatencyEstimator:
    def test_ewma_and_histogram_agree(self, monkeypatch):
        monkeypatch.setattr(queueing, "ESTIMATOR_ALPHA", 0.5)
        registry = MetricsRegistry("t")
        with use_registry(registry):
            est = LatencyEstimator(gpu=0)
            assert est.estimate() == 0.0
            est.observe(1.0)
            assert est.estimate() == 1.0
            est.observe(2.0)
            assert est.estimate() == pytest.approx(1.5)
            # the same observations back the shared obs histogram
            hist = registry.histogram("serve.batch.seconds", gpu=0)
            assert hist.count == 2

    def test_prior_answers_before_first_sample(self):
        # Cold, the estimate is 0.0, which admission reads as "no samples
        # yet — admit and learn", however tight the SLO.
        queue = BoundedRequestQueue(0, AdmissionConfig(slo_seconds=1e-9))
        assert queue.estimator.estimate() == 0.0
        assert queue.offer(_request(), now=0.0).admitted
        queue.estimator.observe(1.0)
        assert not queue.offer(_request(rid=2), now=0.0).admitted

    def test_first_observation_overrides_prior(self, monkeypatch):
        monkeypatch.setattr(queueing, "ESTIMATOR_ALPHA", 0.5)
        registry = MetricsRegistry("t")
        with use_registry(registry):
            est = LatencyEstimator(gpu=0)
            est.observe(1.0)
            # seeded directly from the sample, not averaged with the cold 0.0
            assert est.estimate() == 1.0

    def test_no_prior_keeps_learn_from_zero(self):
        est = LatencyEstimator(gpu=0)
        assert est.estimate() == 0.0

    def test_rejects_bad_prior(self):
        # there is no cold-start prior to get wrong
        with pytest.raises(TypeError):
            LatencyEstimator(gpu=0, prior=0.0)

    def test_queue_passes_config_prior_to_estimator(self):
        # ... nor one to pass: the queue builds its GPU's estimator, cold
        with pytest.raises(TypeError):
            AdmissionConfig(estimator_prior=0.5)
        estimator = BoundedRequestQueue(3).estimator
        assert estimator.gpu == 3 and estimator.estimate() == 0.0


class TestBoundedQueue:
    def _full_queue(self, policy, capacity=2):
        cfg = AdmissionConfig(capacity=capacity, policy=policy)
        q = BoundedRequestQueue(0, cfg)
        for i in range(capacity):
            assert q.offer(_request(rid=i), now=0.0).admitted
        return q

    def test_reject_when_full(self):
        q = self._full_queue(QueuePolicy.REJECT)
        result = q.offer(_request(rid=9), now=0.0)
        assert not result.admitted
        assert result.status is RequestStatus.REJECTED
        assert q.depth == 2

    def test_expired_on_offer_is_shed(self):
        q = BoundedRequestQueue(0, AdmissionConfig())
        result = q.offer(_request(deadline=1.0), now=2.0)
        assert result.status is RequestStatus.SHED

    def test_slo_shedding_predicts_from_estimator(self):
        cfg = AdmissionConfig(capacity=8, slo_seconds=1.0)
        q = BoundedRequestQueue(0, cfg)
        # no samples yet: admit and learn
        assert q.offer(_request(rid=1), now=0.0).admitted
        q.estimator.observe(0.9)
        # depth 1 + newcomer → predicted 2 × 0.9 s > 1 s SLO → shed
        result = q.offer(_request(rid=2), now=0.0)
        assert result.status is RequestStatus.SHED
        # a request whose own deadline cannot be met is shed regardless
        q2 = BoundedRequestQueue(1, AdmissionConfig(capacity=8))
        q2.estimator.observe(5.0)
        assert (
            q2.offer(_request(rid=3, deadline=1.0), now=0.0).status
            is RequestStatus.SHED
        )

    def test_empty_queue_sheds_on_the_deadline_alone(self):
        q = BoundedRequestQueue(0, AdmissionConfig(capacity=8, slo_seconds=1.0))
        q.estimator.observe(2.0)  # a fault lifted the estimate past the SLO
        # depth 0: 2 s busts the SLO but not a 3 s deadline → admitted
        assert q.offer(_request(rid=1, deadline=3.0), now=0.0).admitted
        q.pop()
        # depth 0 again: 2 s busts a 1.5 s deadline → shed
        result = q.offer(_request(rid=2, deadline=1.5), now=0.0)
        assert result.status is RequestStatus.SHED

    def test_max_depth_tracks_high_water(self):
        q = BoundedRequestQueue(0, AdmissionConfig(capacity=4))
        for i in range(3):
            q.offer(_request(rid=i), now=0.0)
        q.pop()
        assert q.max_depth == 3
        assert q.depth == 2


class TestAdmissionController:
    def test_routes_by_gpu(self):
        ctl = AdmissionController(2, AdmissionConfig(capacity=1))
        assert ctl.submit(_request(rid=1, gpu=0), 0.0).admitted
        assert ctl.submit(_request(rid=2, gpu=1), 0.0).admitted
        assert sum(q.depth for q in ctl.queues) == 2
        assert ctl.max_depth == 1
        with pytest.raises(ValueError):
            ctl.submit(_request(gpu=7), 0.0)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        b = CircuitBreaker(0, BreakerConfig(failure_threshold=3))
        b.record_failure(0.0)
        b.record_failure(0.1)
        assert b.state is BreakerState.CLOSED
        b.record_failure(0.2)
        assert b.state is BreakerState.OPEN
        assert not b.allow(0.3)

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker(0, BreakerConfig(failure_threshold=2))
        b.record_failure(0.0)
        b.record_success(0.1)
        b.record_failure(0.2)
        assert b.state is BreakerState.CLOSED

    def test_half_open_probes_then_close(self):
        cfg = BreakerConfig(
            failure_threshold=1,
            cooldown_seconds=1.0,
            half_open_probes=2,
            success_threshold=2,
        )
        b = CircuitBreaker(0, cfg)
        b.record_failure(0.0)
        assert not b.allow(0.5)  # still cooling down
        assert b.allow(1.0)  # probe 1 admitted, now half-open
        assert b.state is BreakerState.HALF_OPEN
        assert b.allow(1.1)  # probe 2
        assert not b.allow(1.2)  # probes metered
        b.record_success(1.3)
        b.record_success(1.4)
        assert b.state is BreakerState.CLOSED
        assert [(frm.value, to.value) for _, frm, to in b.transitions] == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        cfg = BreakerConfig(failure_threshold=1, cooldown_seconds=1.0)
        b = CircuitBreaker(0, cfg)
        b.record_failure(0.0)
        assert b.allow(1.0)  # half-open probe
        b.record_failure(1.1)
        assert b.state is BreakerState.OPEN
        assert not b.allow(1.5)  # cooldown restarted at 1.1
        assert b.allow(2.2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(half_open_probes=0)


class TestBreakerBoard:
    def test_excluded_sources_and_counts(self):
        board = BreakerBoard(
            [0, 1, 2], BreakerConfig(failure_threshold=1, cooldown_seconds=10.0)
        )
        board.record(1, ok=False, now=0.0)
        assert board.excluded_sources(1.0) == frozenset({1})
        board.record(0, ok=True, now=1.0)
        assert board.breaker(0).state is BreakerState.CLOSED
        assert board.transition_counts() == {"open": 1}
        # unknown sources are ignored (host without a host breaker)
        board.record(99, ok=False, now=1.0)

    def test_transitions_metered_into_registry(self):
        registry = MetricsRegistry("t")
        with use_registry(registry):
            board = BreakerBoard([0], BreakerConfig(failure_threshold=1))
            board.record(0, ok=False, now=0.0)
        assert (
            registry.value("serve.breaker.transitions", source=0, to="open")
            == 1.0
        )
        assert registry.value("serve.breaker.state", source=0) == 2.0
