"""The simulated clock's own physics: one start rule, checked on every soak.

A service may not start before its request arrives, a GPU serves one
batch at a time, and every offered request is answered exactly once.
These tests cover the checker itself, the one traffic loop, and — over
the whole space of single-box soak configurations — that ``run_soak``
never breaks the rules it reports on.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serve.soak as soak_module
from repro.obs import MetricsRegistry, use_registry
from repro.serve import (
    BatchingMode,
    CoalesceOutcome,
    Request,
    RequestStatus,
    Response,
    ServingRuntime,
    SoakConfig,
    check_time_physics,
    run_soak,
)
from repro.serve.soak import drive_arrivals, poisson_schedule
from repro.utils.rng import make_rng

pytestmark = pytest.mark.serve


def _request(rid, gpu=0, arrival=0.0):
    return Request(
        request_id=rid, gpu=gpu, keys=np.arange(4, dtype=np.int64),
        arrival=arrival,
    )


def _served(rid, arrival, start, service, gpu=0, **extra):
    return Response(
        request=_request(rid, gpu, arrival),
        status=RequestStatus.OK,
        completed_at=start + service,
        started_at=start,
        service_time=service,
        **extra,
    )


class TestResponseLatency:
    def test_completion_before_arrival_raises(self):
        response = Response(
            request=_request(7, arrival=2.0),
            status=RequestStatus.OK,
            completed_at=1.5,
        )
        with pytest.raises(ValueError, match="before it arrived"):
            response.latency

    def test_admission_drop_completes_at_arrival_and_reads_zero(self):
        response = Response(
            request=_request(7, arrival=2.0),
            status=RequestStatus.SHED,
            completed_at=2.0,
        )
        assert response.latency == 0.0


class TestCheckTimePhysics:
    def test_clean_tape(self):
        tape = [
            _served(1, arrival=0.0, start=0.0, service=1.0),
            _served(2, arrival=0.5, start=1.0, service=1.0),
            _served(3, arrival=0.1, start=0.1, service=0.25, gpu=1),
            Response(_request(4, arrival=2.5), RequestStatus.SHED, 2.5),
        ]
        assert check_time_physics(tape, offered=4) == []

    def test_start_before_arrival(self):
        tape = [_served(1, arrival=1.0, start=0.5, service=1.0)]
        assert any("started before" in v for v in check_time_physics(tape))

    def test_completion_is_start_plus_service_exactly(self):
        r = _served(1, arrival=0.0, start=0.1, service=0.2)
        r.completed_at = 0.3  # 0.1 + 0.2 != 0.3 in floating point
        assert 0.1 + 0.2 != 0.3
        assert any("completed_at !=" in v for v in check_time_physics([r]))

    def test_overlapping_services_on_one_gpu(self):
        tape = [
            _served(1, arrival=0.0, start=0.0, service=1.0),
            _served(2, arrival=0.0, start=0.5, service=1.0),
        ]
        assert any("still serving" in v for v in check_time_physics(tape))
        # the same two intervals on different GPUs are fine
        tape[1] = _served(2, arrival=0.0, start=0.5, service=1.0, gpu=1)
        assert check_time_physics(tape) == []

    def test_services_out_of_order(self):
        tape = [
            _served(1, arrival=0.0, start=2.0, service=1.0),
            _served(2, arrival=0.0, start=0.0, service=1.0),
        ]
        assert any("still serving" in v for v in check_time_physics(tape))

    def test_unanswered_request(self):
        tape = [_served(1, arrival=0.0, start=0.0, service=1.0)]
        assert any("offered" in v for v in check_time_physics(tape, offered=2))

    def test_coalesced_batch_is_one_interval_at_one_price(self):
        members = [
            _served(1, arrival=0.0, start=1.0, service=2.0, coalesced=3),
            _served(2, arrival=0.5, start=1.0, service=2.0, coalesced=3),
            # a hedge winner leaves early at its own price
            _served(3, arrival=0.9, start=1.0, service=0.5, coalesced=3,
                    hedged=True, hedge_won=True),
        ]
        batch = CoalesceOutcome(
            responses=members, batch_size=3, union_size=9, total_keys=12,
            service_time=2.0, completed_at=3.0,
        )
        assert check_time_physics(members, 3, [batch]) == []
        # the next service may not start inside the batch's interval,
        # even though the last member to respond left at 1.5
        late = _served(4, arrival=0.0, start=2.0, service=1.0)
        assert any(
            "still serving" in v
            for v in check_time_physics([*members, late])
        )

    def test_batch_price_and_union_violations(self):
        members = [
            _served(1, arrival=0.0, start=1.0, service=2.0, coalesced=2),
            _served(2, arrival=0.0, start=1.0, service=1.0, coalesced=2),
        ]
        batch = CoalesceOutcome(
            responses=members, batch_size=2, union_size=9, total_keys=8,
            service_time=2.0, completed_at=3.0,
        )
        found = check_time_physics(members, 2, [batch])
        assert any("more keys than requested" in v for v in found)
        assert any(v.startswith("request 2 ") and "disagrees" in v for v in found)


class TestDriveArrivals:
    def test_poisson_schedule_is_per_stream_and_numbered(self):
        events = poisson_schedule(make_rng(0), rate=10.0, streams=3, per_stream=5)
        assert [s for _t, s, _g in events] == list(range(15))
        for g in range(3):
            times = [t for t, _s, who in events if who == g]
            assert len(times) == 5 and times == sorted(times) and times[0] > 0

    def test_open_loop_visits_every_event_in_time_order(self):
        seen = []
        drive_arrivals(
            [(3.0, 0, 0), (1.0, 1, 1), (1.0, 2, 0), (2.0, 3, 1)],
            lambda t, s, who: seen.append((t, s, who)),
        )
        assert seen == [(1.0, 1, 1), (1.0, 2, 0), (2.0, 3, 1), (3.0, 0, 0)]

    def test_closed_loop_resubmits_until_the_horizon(self):
        seen = []

        def arrive(t, s, who):
            seen.append((t, who))
            return t + 1.0 + who  # client 0 every 1 s, client 1 every 2 s

        drive_arrivals([(0.0, 0, 0), (0.0, 1, 1)], arrive, until=4.0)
        assert [t for t, who in seen if who == 0] == [0.0, 1.0, 2.0, 3.0]
        assert [t for t, who in seen if who == 1] == [0.0, 2.0]


@pytest.fixture
def runtimes(monkeypatch):
    """Every ServingRuntime ``run_soak`` builds while the test runs."""
    built = []

    class Recording(ServingRuntime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(soak_module, "ServingRuntime", Recording)
    return built


#: the configurations ISSUE 15 measured the hole on (early starts at the
#: parent commit in the comments).
HOLE = {
    "plain": dict(scenario="steady", load=0.8),  # 313/476
    "coalesce-2": dict(  # 63/456
        scenario="steady", load=0.8,
        batching=BatchingMode.COALESCE, max_batch=2,
    ),
    "coalesce-1": dict(  # 355/477
        scenario="steady", load=0.8,
        batching=BatchingMode.COALESCE, max_batch=1,
    ),
    "dgx": dict(scenario="dgx_a100_partial_failure"),  # 219/534
    "hps": dict(scenario="hps-multitenant"),  # 157/427 (its row's 3 tenants)
    "drift": dict(scenario="steady", drift="rotating-head"),  # 90/146
}


class TestSoakObeysItsClock:
    @pytest.mark.parametrize("name", sorted(HOLE))
    def test_no_service_starts_before_its_request_arrives(
        self, name, runtimes
    ):
        report = run_soak(SoakConfig.quick(seed=0, **HOLE[name]))
        served = [r for r in runtimes[-1].responses if r.started_at is not None]
        assert served
        assert not [r for r in served if r.started_at < r.request.arrival]
        assert report.integrity_failures == 0 and report.ok
        assert report.p50_latency > 0

    def test_latency_histogram_takes_no_negative_sample(self):
        registry = MetricsRegistry("physics")
        with use_registry(registry):
            run_soak(SoakConfig.quick(scenario="steady", load=0.8))
        (series,) = [
            s for s in registry.series() if s.name == "serve.latency.seconds"
        ]
        assert series.count > 0 and series.min >= 0.0

    def test_an_early_response_fails_the_report(self, monkeypatch):
        cfg = SoakConfig.quick(scenario="steady", requests_per_gpu=20)
        assert run_soak(cfg).ok
        honest = ServingRuntime.serve_request
        calls = []

        def early_once(self, request, now):
            calls.append(now)
            if len(calls) == 5:
                # starts a hair before it arrives, still completes after
                now = request.arrival - 1e-12
            return honest(self, request, now)

        monkeypatch.setattr(ServingRuntime, "serve_request", early_once)
        report = run_soak(cfg)
        assert report.integrity_failures >= 1
        assert not report.ok

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        load=st.floats(0.3, 2.0),
        batching=st.sampled_from(list(BatchingMode)),
        max_batch=st.sampled_from([1, 2, 3, 8]),
        linger_factor=st.floats(0.0, 2.0),
        closed_loop=st.booleans(),
        seed=st.integers(0, 3),
    )
    def test_every_configuration_obeys_time_physics(self, runtimes, **knobs):
        try:
            cfg = SoakConfig.quick(
                scenario="steady", requests_per_gpu=40, **knobs
            )
        except ValueError:
            return  # SoakConfig itself rejects the combination
        report = run_soak(cfg)
        runtime = runtimes[-1]
        assert check_time_physics(runtime.responses) == []
        assert report.integrity_failures == 0
        assert report.requests == (
            report.served_ok + report.shed + report.rejected
            + report.expired + report.failed
        )
        if report.served_ok:
            assert report.p50_latency > 0


@pytest.mark.cluster
class TestClusterSoakGate:
    CFG = dict(
        scenario="node-kill", nodes=3, replication=2, requests_per_gpu=40
    )

    def test_clean_run_balances_its_books(self):
        report = run_soak(SoakConfig.quick(**self.CFG))
        assert report.integrity_failures == 0
        assert report.requests == (
            report.served_ok + report.expired + report.failed
        )

    def test_a_response_from_the_future_fails_the_report(self, monkeypatch):
        from repro.cluster.frontend import ClusterFrontend

        honest = ClusterFrontend.serve
        calls = []

        def backwards_once(self, keys, now, **kwargs):
            resp = honest(self, keys, now, **kwargs)
            calls.append(now)
            if len(calls) == 3:
                resp = replace(resp, elapsed=-resp.elapsed)
            return resp

        monkeypatch.setattr(ClusterFrontend, "serve", backwards_once)
        report = run_soak(SoakConfig.quick(**self.CFG))
        assert report.integrity_failures >= 1 and not report.ok
