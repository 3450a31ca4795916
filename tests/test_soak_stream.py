"""Both soaks answer from one response stream: the one window ratio, the
gates' own constants, the runtime's one pricing path, the shape of the
two soak modules, the report's sections and the options that went."""

import ast
import itertools
import pathlib
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import build_parser
from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.extractor import FactoredExtractor
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
from repro.hardware.platform import parse_tier_spec, server_a, with_tiers
from repro.cluster.soak import (
    FAILOVER_GOODPUT_FLOOR,
    RECOVERY_GOODPUT_FLOOR,
    ClusterSection,
)
from repro.serve.runtime import ServingRuntime
from repro.serve.soak import (
    CLUSTER_SCENARIOS,
    DEFAULT_RECOVERY_TOLERANCE,
    SOAK_SCENARIOS,
    AdaptSection,
    BoxSection,
    BoxSoak,
    CoalesceSection,
    DriftSection,
    FaultSection,
    SoakConfig,
    SoakReport,
    TierSection,
    build_soak_plan,
    drive,
    in_windows,
    phase_means,
    render_soak_report,
    run_soak,
    window_ok_ratio,
)
from repro.utils.rng import make_rng
from repro.utils.stats import zipf_pmf

pytestmark = pytest.mark.serve


class TestWindowOkRatio:
    def test_no_request_inside_a_window_reads_one(self):
        assert window_ok_ratio([], [True, False]) == 1.0
        assert window_ok_ratio([], []) == 1.0

    def test_nothing_ok_outside_reads_zero(self):
        assert window_ok_ratio([True], [False, False]) == 0.0
        assert window_ok_ratio([True], []) == 0.0

    def test_is_the_rate_inside_over_the_rate_outside(self):
        assert window_ok_ratio([True, False], [True, True]) == 0.5
        assert window_ok_ratio([True], [True, False]) == 2.0

    @settings(max_examples=200, deadline=None)
    @given(
        tape=st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()), max_size=40),
        windows=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.5)).map(
                lambda w: (w[0], w[0] + w[1])
            ),
            max_size=3,
        ),
    )
    def test_equals_the_failover_formula_on_any_tape(self, tape, windows):
        """The tallies the cluster soak kept by hand before the records."""
        steady_ok = steady_total = window_ok = window_total = 0
        for arrival, ok in tape:
            if any(a <= arrival < b for a, b in windows):
                window_total += 1
                window_ok += int(ok)
            else:
                steady_total += 1
                steady_ok += int(ok)
        steady_rate = steady_ok / steady_total if steady_total else 0.0
        if window_total == 0:
            want = 1.0
        elif steady_rate > 0:
            want = (window_ok / window_total) / steady_rate
        else:
            want = 0.0
        inside = [ok for t, ok in tape if in_windows(t, windows)]
        outside = [ok for t, ok in tape if not in_windows(t, windows)]
        assert window_ok_ratio(inside, outside) == want


EMPTY = {"dict": {}, "list": []}


def _zeros(cls, **values):
    """A report or section whose required fields are zero (empty for a
    dict or list) but ``values``."""
    return cls(**{
        f.name: EMPTY.get(f.type, 0)
        for f in fields(cls) if f.default is MISSING
    } | values)


def _report(**sections):
    return _zeros(SoakReport, scenario="node-kill", served_ok=1, **sections)


class TestGateReadsItsConstants:
    def test_failover_floor(self):
        def report(ratio):
            return _report(cluster=_zeros(
                ClusterSection, failover_goodput_ratio=ratio,
                recovery_goodput_ratio=1.0,
            ))

        assert report(FAILOVER_GOODPUT_FLOOR).ok is True
        assert report(FAILOVER_GOODPUT_FLOOR - 1e-9).ok is False

    def test_recovery_floor(self):
        def report(ratio):
            return _report(cluster=_zeros(
                ClusterSection, failover_goodput_ratio=1.0,
                recovery_goodput_ratio=ratio,
            ))

        assert report(RECOVERY_GOODPUT_FLOOR).ok is True
        assert report(RECOVERY_GOODPUT_FLOOR - 1e-9).ok is False

    def test_the_node_drills_gates(self):
        """No partial response, and latency back within the chaos
        tolerance once the last node fault clears."""
        def report(**values):
            return _report(cluster=_zeros(
                ClusterSection, failover_goodput_ratio=1.0,
                recovery_goodput_ratio=1.0, **values,
            ))

        assert report(partial_responses=1).ok is False
        assert report(partial_responses=0).ok is True
        tolerance = DEFAULT_RECOVERY_TOLERANCE
        assert report(cleared_latency_ratio=tolerance).ok is True
        assert report(cleared_latency_ratio=tolerance + 1e-9).ok is False

    def test_the_cluster_package_exports_the_same_floor(self):
        from repro import cluster

        assert cluster.FAILOVER_GOODPUT_FLOOR is FAILOVER_GOODPUT_FLOOR
        assert cluster.RECOVERY_GOODPUT_FLOOR is RECOVERY_GOODPUT_FLOOR


class TestPhaseMeans:
    def test_splits_at_onset_and_clear(self):
        assert phase_means(
            [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 6.0, 8.0], 1.0, 3.0
        ) == (1.0, 3.0, 7.0)

    def test_an_empty_phase_reads_zero(self):
        assert phase_means([0.5], [2.0], 1.0, 2.0) == (2.0, 0.0, 0.0)
        assert phase_means([], [], 0.0, 1.0) == (0.0, 0.0, 0.0)


class TestBoxSoakRows:
    def test_a_wrong_row_fails_the_box_report(self, monkeypatch):
        """The box checks every row it served, as the cluster does."""
        cfg = SoakConfig.quick(scenario="steady", requests_per_gpu=20)
        assert run_soak(cfg).ok
        honest = ServingRuntime.serve_request
        calls = []

        def wrong_once(self, request, now):
            response = honest(self, request, now)
            calls.append(now)
            if len(calls) == 3:
                response.values = response.values.copy()
                response.values[0, 0] += 1.0
            return response

        monkeypatch.setattr(ServingRuntime, "serve_request", wrong_once)
        report = run_soak(cfg)
        assert report.integrity_failures == 1 and not report.ok

    def test_goodput_recovers_after_the_fault_clears(self):
        """Quick closed-loop host-stall at seed 0: 147/159 OK before the
        onset and 201/201 after the clear (an empty queue is never shed on
        the SLO alone, so the estimate a fault raised comes back down)."""
        soak = BoxSoak(SoakConfig.quick(
            seed=0, scenario="host-stall", closed_loop=True
        ))
        drive(soak)
        (fault,) = build_soak_plan("host-stall", soak.duration, 0).faults
        responses = soak.runtime.responses
        before, _, after = phase_means(
            [r.request.arrival for r in responses],
            [float(r.ok) for r in responses],
            fault.onset, fault.clears_at,
        )
        assert after >= RECOVERY_GOODPUT_FLOOR * before


N, D = 1200, 8


def _runtime(tiers=None, plan=None, replicate=0.5):
    platform = server_a()
    if tiers is not None:
        platform = with_tiers(
            platform, parse_tier_spec(tiers, platform.pcie_bandwidth)
        )
    table = make_rng(0).standard_normal((N, D)).astype(np.float32)
    hotness = zipf_pmf(N, 1.1) * 1000
    placement = hot_replicate_warm_partition_policy(
        hotness, N // 8, platform.num_gpus, replicate
    )
    cache = MultiGpuEmbeddingCache(
        platform, table, placement,
        tier_hotness=hotness if tiers is not None else None,
    )
    injector = FaultInjector(plan, cache=cache) if plan is not None else None
    return ServingRuntime(FactoredExtractor(cache), injector=injector), table


DEGRADED_LINK = FaultPlan(
    faults=(
        FaultSpec(FaultKind.LINK_DEGRADATION, onset=0.0, severity=0.99, link=(0, 1)),
    )
)


class TestOnePricingPath:
    """A request with unique keys costs the same alone and as a batch of one."""

    @pytest.mark.parametrize(
        "stack, deadline, remote_only",
        [
            (dict(), 1.0, False),
            (dict(tiers="dram:16KB,cxl:8KB,ssd:1GB"), 1.0, False),
            # a deadline already lost: the hedge is issued on both paths,
            # and priced across the three tiers on both
            (dict(), 1e-9, False),
            (dict(tiers="dram:16KB,cxl:8KB,ssd:1GB"), 1e-9, False),
            # reads over a link at 1% of its bandwidth lose to host DRAM
            (dict(plan=DEGRADED_LINK, replicate=0.0), 1e-6, True),
        ],
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_alone_and_as_a_batch_of_one_agree(
        self, stack, deadline, remote_only, seed
    ):
        (alone, table), (batched, _) = _runtime(**stack), _runtime(**stack)
        if remote_only:
            cache = alone._cache
            owned = cache.placement.per_gpu[1]
            keys = owned[cache.source_map[0][owned] == 1][:192]
        else:
            keys = make_rng(seed).permutation(N)[:256]
        a = alone.serve_request(
            alone.make_request(0, keys, now=0.0, deadline=deadline), 0.0
        )
        (b,) = batched.serve_batch(
            [batched.make_request(0, keys, now=0.0, deadline=deadline)], 0.0
        ).responses
        assert (a.service_time, a.hedged, a.hedge_won, a.status) == (
            b.service_time, b.hedged, b.hedge_won, b.status
        )
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, table[keys])
        assert a.hedged == (deadline < 1.0)
        assert a.hedge_won or not remote_only


SRC = pathlib.Path(repro.__file__).parent
SOAK_MODULES = (SRC / "serve" / "soak.py", SRC / "cluster" / "soak.py")
#: input validation: long by listing, not by nesting.
LONG_BY_NAME = {"__post_init__"}


class TestSoakModuleShape:
    @pytest.mark.parametrize("path", SOAK_MODULES, ids=lambda p: p.parent.name)
    def test_no_nonlocal_and_no_long_function(self, path):
        tree = ast.parse(path.read_text())
        assert not [n for n in ast.walk(tree) if isinstance(n, ast.Nonlocal)]
        long = {
            node.name: node.end_lineno - node.lineno + 1
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.end_lineno - node.lineno + 1 > 80
        }
        assert set(long) <= LONG_BY_NAME, long

    def test_one_report_site_for_both_soaks(self):
        text = "".join(p.read_text() for p in SOAK_MODULES)
        assert text.count("SoakReport(") == 1
        assert "lines.insert" not in text
        assert text.count("transition_counts_by_source") == 1
        assert text.count("np.percentile(") <= 4

    def test_cluster_only_is_read_off_the_table(self):
        assert CLUSTER_SCENARIOS == {
            "node-kill", "node-flap", "node-partition", "node-slow",
            "node-kill-bit-rot", "heal-storm",
        }
        assert SOAK_SCENARIOS["dgx_a100_partial_failure"][0] == "server-c"
        for name in CLUSTER_SCENARIOS:
            with pytest.raises(ValueError, match="nodes"):
                SoakConfig.quick(scenario=name)


#: each section's label in the rendered report (its first line's) and a
#: zero-filled instance, in the one render order.
SECTIONS = {
    "box": ("queues", lambda: _zeros(BoxSection)),
    "faults": ("faults", lambda: _zeros(FaultSection)),
    "coalesce": ("coalescing", lambda: _zeros(CoalesceSection)),
    "tiers": ("tiers", lambda: _zeros(TierSection)),
    "drift": ("drift", lambda: _zeros(
        DriftSection, adapt=_zeros(AdaptSection))),
    "cluster": ("cluster", lambda: _zeros(ClusterSection)),
}
CORE_LABELS = ["requests", "goodput", "latency", "breakers", "integrity"]


class TestReportSections:
    def test_every_combination_renders_and_serializes_in_one_order(self):
        names = list(SECTIONS)
        for r in range(len(names) + 1):
            for present in itertools.combinations(names, r):
                report = _report(**{n: SECTIONS[n][1]() for n in present})
                labels = [
                    line.split()[0]
                    for line in render_soak_report(report).splitlines()[1:]
                ]
                assert labels[:5] == CORE_LABELS
                firsts = [SECTIONS[n][0] for n in present]
                assert [x for x in labels if x in firsts] == firsts
                absent = {SECTIONS[n][0] for n in names if n not in present}
                assert not absent & set(labels), (present, labels)
                doc = report.to_dict()
                assert [k for k in doc if k in SECTIONS] == list(present)
                assert doc["schema"] == "repro.soak/v2"
                assert "repair_enabled" not in doc

    def test_adaptation_nests_under_drift_only_when_on(self):
        off = _zeros(DriftSection, adapt=None)
        assert "adapt" not in _report(drift=off).to_dict()["drift"]
        on = _report(drift=SECTIONS["drift"][1]()).to_dict()["drift"]
        assert on["adapt"]["drift_tape"] == []

    def test_a_section_gate_fails_the_report(self):
        assert _report(box=_zeros(BoxSection, max_queue_depth=1)).ok is False
        assert _report(faults=_zeros(FaultSection, probe_ratio=2.0)).ok is False
        assert _report(cluster=_zeros(
            ClusterSection, failover_goodput_ratio=1.0,
            recovery_goodput_ratio=1.0, corrupt_values_served=1,
        )).ok is False

    def test_a_box_run_reports_no_cluster_and_a_cluster_run_no_box(self):
        box = run_soak(SoakConfig.quick(scenario="steady", requests_per_gpu=20))
        cluster = run_soak(SoakConfig.quick(
            scenario="node-kill", nodes=3, replication=2, requests_per_gpu=20
        ))
        box_doc, cluster_doc = box.to_dict(), cluster.to_dict()
        assert {"box"} == {k for k in box_doc if k in SECTIONS}
        assert {"cluster"} == {k for k in cluster_doc if k in SECTIONS}
        box_text, cluster_text = map(render_soak_report, (box, cluster))
        for label in ("cluster", "recovery", "rpc", "scrubbing"):
            assert f"\n  {label} " not in box_text
        for label in ("queues", "rerouting", "policy swaps", "tenants"):
            assert f"\n  {label} " not in cluster_text
        assert "replica hedges" in cluster_text


class TestOptionsThatWent:
    def test_soak_config_has_17_fields_and_the_report_a_19_field_core(self):
        assert len(fields(SoakConfig)) == 17
        names = [f.name for f in fields(SoakReport)]
        assert len(names) == 19 + len(SECTIONS)
        assert names[19:] == list(SECTIONS)
        assert {
            cls.__name__: len(fields(cls))
            for cls in (BoxSection, FaultSection, CoalesceSection, TierSection,
                        DriftSection, AdaptSection, ClusterSection)
        } == {
            "BoxSection": 9, "FaultSection": 4, "CoalesceSection": 3,
            "TierSection": 2,
            "DriftSection": 6, "AdaptSection": 7, "ClusterSection": 25,
        }

    @pytest.mark.parametrize(
        "gone",
        [
            "slo_factor", "timeout_factor", "drift_window", "linger_ms",
            "lookahead", "prefetch_capacity", "repair", "restage",
            "queue_policy", "deadline_factor", "queue_capacity",
            "tenants", "adapt",
        ],
    )
    def test_a_removed_keyword_is_a_type_error(self, gone):
        with pytest.raises(TypeError):
            SoakConfig(**{gone: 1.0})

    def test_the_parser_rejects_linger_ms(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["soak", "--quick", "--linger-ms", "2"])
        assert "--linger-ms" in capsys.readouterr().err
        soak = build_parser()._subparsers._group_actions[0].choices["soak"]
        flags = [a for a in soak._actions if a.option_strings and a.dest != "help"]
        assert len(flags) == 16

    @pytest.mark.parametrize(
        "argv",
        [["--lookahead", "4"], ["--prefetch-capacity", "36"],
         ["--compare-lookahead"]],
    )
    def test_the_parser_rejects_the_lookahead_flags(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["soak", "--quick", *argv])
        assert argv[0] in capsys.readouterr().err
