"""Observability: registry semantics, exporters, and hot-path wiring."""

import threading
from unittest import mock
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_with_metrics
from repro.obs import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    get_registry,
    load_metrics,
    set_registry,
    summarize,
    use_registry,
    write_json,
)
from repro.obs import metrics


class TestCounter:
    def test_inc_defaults_to_one(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        assert reg.value("c") == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("keys", source="local").inc(3)
        reg.counter("keys", source="host").inc(4)
        assert reg.value("keys", source="local") == 3
        assert reg.value("keys", source="host") == 4
        assert reg.value("keys") is None

    def test_same_series_is_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1) is reg.counter("x", a=1)
        assert reg.counter("x", a=1) is not reg.counter("x", a=2)


class LockedCounter:
    """The counter as it was before append-and-fold: every ``inc`` a locked
    ``+=``.  The reference the fold-on-read counter must match bit for bit."""

    kind = "counter"

    def __init__(self, name, labels):
        self.name, self.labels = name, labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def snapshot(self):
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class LockedHistogram:
    """The histogram as it was: every ``observe`` five locked updates."""

    kind = "histogram"

    def __init__(self, name, labels):
        self.name, self.labels = name, labels
        self.count, self.sum = 0, 0.0
        self.min, self.max = float("inf"), float("-inf")
        self.bucket_counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self._lock = threading.Lock()

    def observe(self, value):
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self.bucket_counts[bisect_left(BUCKET_BOUNDS, value)] += 1

    def snapshot(self):
        buckets = [
            [BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else None, n]
            for i, n in enumerate(self.bucket_counts)
            if n
        ]
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": buckets,
        }


_amounts = st.one_of(
    st.floats(),  # NaN, ±inf, ±0.0, subnormals and negatives included
    st.integers(-(2**1000), 2**1000),
    st.sampled_from([0, 0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]),
)


class TestFoldOnRead:
    """Append-and-fold instruments read exactly what locked ``+=`` did."""

    @settings(max_examples=300, deadline=None)
    @given(
        ops=st.lists(st.tuples(st.sampled_from(["inc", "observe", "read"]), _amounts)),
        fold_length=st.sampled_from([1, 2, 3, metrics.FOLD_LENGTH]),  # inline folds too
    )
    # Order matters: (1e16 + 1) + 1 rounds to 1e16, 1e16 + (1 + 1) does not.
    @example(
        ops=[("inc", 1e16), ("observe", 1e16), ("read", 0)]
        + [("inc", 1.0), ("observe", 1.0)] * 2,
        fold_length=metrics.FOLD_LENGTH,
    )
    def test_matches_the_locked_instruments(self, ops, fold_length):
        with mock.patch.object(metrics, "FOLD_LENGTH", fold_length):
            self._compare(ops)

    def _compare(self, ops):
        counter, histogram = metrics.Counter("c", ()), metrics.Histogram("h", ())
        old_counter, old_histogram = LockedCounter("c", ()), LockedHistogram("h", ())
        for op, amount in ops:
            if op == "inc":
                if amount < 0:
                    for c in (counter, old_counter):
                        with pytest.raises(ValueError):
                            c.inc(amount)
                else:
                    counter.inc(amount)
                    old_counter.inc(amount)
            elif op == "observe":
                histogram.observe(amount)
                old_histogram.observe(amount)
            else:
                assert repr(counter.value) == repr(old_counter.value)
                for field in ("count", "sum", "min", "max", "bucket_counts"):
                    got, want = getattr(histogram, field), getattr(old_histogram, field)
                    assert repr(got) == repr(want), field
        assert repr(counter.snapshot()) == repr(old_counter.snapshot())
        assert repr(histogram.snapshot()) == repr(old_histogram.snapshot())

    def test_a_long_run_never_holds_more_than_the_fold_length(self):
        """10⁶ updates, half to each instrument, and no read among them."""
        counter, histogram = metrics.Counter("c", ()), metrics.Histogram("h", ())
        pending = 0
        for i in range(500_000):
            counter.inc(i)
            histogram.observe(i)
            pending = max(pending, len(counter._log), len(histogram._log))
        assert pending <= metrics.FOLD_LENGTH
        assert counter.value == sum(range(500_000)) and histogram.count == 500_000

    def test_a_bad_amount_raises_at_the_update(self):
        counter = metrics.Counter("c", ())
        with pytest.raises(OverflowError):
            counter.inc(10**400)
        with pytest.raises(TypeError):
            counter.inc(None)
        counter.inc(2)
        assert counter.value == 2.0


class TestGauge:
    def test_set_and_adjust(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(5.0)
        g.set(3.0)  # the latest observation wins
        assert reg.value("g") == 3.0


class TestHistogram:
    def test_count_sum_min_max(self):
        h = MetricsRegistry().histogram("h")
        for v in (0.001, 0.01, 0.1):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.111)
        assert h.min == pytest.approx(0.001)
        assert h.max == pytest.approx(0.1)

    def test_bucket_counts_total_matches(self):
        h = MetricsRegistry().histogram("h")
        rng = np.random.default_rng(0)
        for v in rng.lognormal(size=200):
            h.observe(v)
        assert sum(h.bucket_counts) == 200

    def test_overflow_and_nonpositive_observations(self):
        h = MetricsRegistry().histogram("h")
        h.observe(0.0)  # below the first bound
        h.observe(1e12)  # above the last bound
        assert h.bucket_counts[0] == 1
        assert h.bucket_counts[-1] == 1
        assert h.count == 2

    def test_buckets_are_fixed_and_increasing(self):
        bounds = np.asarray(BUCKET_BOUNDS)
        assert (np.diff(bounds) > 0).all()
        assert bounds[0] == pytest.approx(1e-9)


class TestRegistry:
    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(5)
        reg.gauge("g").set(1)
        reg.histogram("h").observe(1)
        assert list(reg.series()) == []
        assert reg.snapshot()["metrics"] == []

    def test_use_registry_swaps_and_restores(self):
        outer = get_registry()
        private = MetricsRegistry("private")
        with use_registry(private):
            assert get_registry() is private
            get_registry().counter("c").inc()
        assert get_registry() is outer
        assert private.value("c") == 1

    def test_set_registry_returns_previous(self):
        previous = set_registry(MetricsRegistry("tmp"))
        try:
            assert get_registry().name == "tmp"
        finally:
            set_registry(previous)

    def test_reset_clears_series(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert list(reg.series()) == []

    def test_handle_builds_once_per_key_per_registry_until_reset(self):
        first, second = MetricsRegistry("first"), MetricsRegistry("second")
        built = []

        def factory(reg):
            built.append(reg.name)
            return reg.counter("c", gpu=0), reg.histogram("h")

        for reg in (first, first, second):
            counter, _ = reg.handle("k", lambda: factory(reg))
            counter.inc()
        assert built == ["first", "second"]
        assert first.value("c", gpu=0) == 2 and second.value("c", gpu=0) == 1
        assert first.handle("other", lambda: 7) == 7  # keys are independent
        first.reset()
        first.handle("k", lambda: factory(first))[0].inc()
        assert built == ["first", "second", "first"]
        assert first.value("c", gpu=0) == 1  # not the dropped series


class TestTracing:
    def test_timer_observes_histogram(self, platform_a, small_table, skewed_hotness):
        """A stage observes its duration in a ``finally``: one that raises
        is timed too, and a disabled registry records nothing."""
        from repro.core.pipeline import resolve

        cache = TestHotPathWiring._cache(None, platform_a, small_table, skewed_hotness)
        reg = MetricsRegistry()
        with use_registry(reg):
            resolve(cache, 0, np.arange(10))
            with pytest.raises(KeyError):
                resolve(cache, 0, np.array([-1]))
        h = reg.histogram("pipeline.resolve.seconds")
        assert h.count == 2
        assert h.min >= 0
        off = MetricsRegistry(enabled=False)
        with use_registry(off):
            resolve(cache, 0, np.arange(10))
        assert off.snapshot()["metrics"] == []


class TestExport:
    def _populated(self):
        reg = MetricsRegistry("roundtrip")
        reg.counter("cache.lookup.keys", source="local").inc(10)
        reg.gauge("cache.hit_rate", source="local").set(0.9)
        h = reg.histogram("solver.solve.seconds")
        h.observe(0.5)
        h.observe(0.05)
        return reg

    def test_json_roundtrip(self, tmp_path):
        reg = self._populated()
        path = write_json(reg, tmp_path / "m.json")
        doc = load_metrics(path)
        assert doc["schema"] == "repro.obs/v1"
        assert doc["registry"] == "roundtrip"
        by_name = {(m["name"], tuple(sorted(m["labels"].items()))): m
                   for m in doc["metrics"]}
        assert by_name[("cache.lookup.keys", (("source", "local"),))]["value"] == 10
        hist = by_name[("solver.solve.seconds", ())]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.55)

    def test_summarize_mentions_series(self):
        text = summarize(self._populated().snapshot())
        assert "cache.lookup.keys{source=local}" in text
        assert "solver.solve.seconds" in text
        assert "count=2" in text

    def test_stage_shares_count_no_nested_time_twice(self):
        """``fanout`` encloses the node-side stages: it prints on its own
        line, and the per-extraction shares sum to 100 % without it."""
        def series(stage, seconds):
            return {"name": f"pipeline.{stage}.seconds", "type": "histogram",
                    "labels": {}, "count": 1, "sum": seconds}

        doc = {"registry": "nested", "metrics": [
            series("resolve", 1.0), series("price", 2.0),
            series("execute", 1.0), series("fanout", 10.0),
        ]}
        lines = summarize(doc).splitlines()
        start = lines.index("pipeline stage breakdown:")
        rows = {line.split()[0]: line for line in lines[start + 1:start + 5]}
        assert "(25.0%)" in rows["resolve"] and "(50.0%)" in rows["price"]
        assert "(25.0%)" in rows["execute"]
        assert rows["fanout"].split()[1] == "10s" and "%" not in rows["fanout"]
        assert "encloses" in rows["fanout"]

        only_fanout = {"metrics": [series("fanout", 3.0)]}
        assert "  fanout     3s (encloses" in summarize(only_fanout)


class TestHotPathWiring:
    """The instrumented runtime actually records what the README promises."""

    def _cache(self, platform, table, hotness):
        from repro.core.cache import MultiGpuEmbeddingCache
        from repro.core.policy import partition_policy

        placement = partition_policy(hotness, 200, platform.num_gpus)
        return MultiGpuEmbeddingCache(platform, table, placement)

    def test_lookup_records_hit_split(self, platform_a, small_table, skewed_hotness):
        cache = self._cache(platform_a, small_table, skewed_hotness)
        reg = MetricsRegistry("t")
        with use_registry(reg):
            cache.lookup(0, np.arange(800))
        total = sum(
            reg.value("cache.lookup.keys", source=s) or 0
            for s in ("local", "remote", "host")
        )
        assert total == 800
        assert reg.value("cache.lookup.calls") == 1

    def test_extractor_records_plan_and_execute(
        self, platform_a, small_table, skewed_hotness
    ):
        from repro.core.extractor import FactoredExtractor

        cache = self._cache(platform_a, small_table, skewed_hotness)
        extractor = FactoredExtractor(cache)
        reg = MetricsRegistry("t")
        with use_registry(reg):
            plan = extractor.plan(0, np.arange(800))
            extractor.execute(plan)
        assert reg.value("extractor.plan.calls") == 1
        assert reg.value("extractor.execute.calls") == 1
        assert reg.histogram("extractor.plan.seconds").count == 1
        assert reg.histogram("extractor.execute.seconds").count == 1
        executed = sum(
            reg.value("extractor.execute.bytes", source=s) or 0
            for s in ("local", "remote", "host")
        )
        assert executed == 800 * cache.entry_bytes

    def test_swapped_registries_each_get_their_own_series(
        self, platform_a, small_table, skewed_hotness
    ):
        """Timers and the plan's cached instrument handles follow the
        registry that is active when the stage runs, and a reset registry
        does not keep counting into dropped series."""
        from repro.core.extractor import FactoredExtractor

        extractor = FactoredExtractor(
            self._cache(platform_a, small_table, skewed_hotness)
        )
        first, second = MetricsRegistry("first"), MetricsRegistry("second")
        for reg, keys in ((first, 800), (second, 300), (first, 100)):
            with use_registry(reg):
                extractor.execute(extractor.plan(0, np.arange(keys)))
        for reg, keys, plans in ((first, 900, 2), (second, 300, 1)):
            assert reg.histogram("pipeline.resolve.seconds").count == plans
            assert reg.histogram("pipeline.group.seconds").count == plans
            assert sum(
                reg.value("extractor.plan.keys", source=s) or 0
                for s in ("local", "remote", "host")
            ) == keys
        second.reset()
        with use_registry(second):
            extractor.plan(0, np.arange(50))
        assert sum(
            second.value("extractor.plan.keys", source=s) or 0
            for s in ("local", "remote", "host")
        ) == 50

    def test_swapped_registries_serve_path_handles(
        self, platform_a, small_table, skewed_hotness
    ):
        """One queue, estimator and runtime under two registries: the
        cached admission / depth / batch-seconds / coalescing instruments
        follow the active registry, and a reset one starts from zero."""
        from repro.core.extractor import FactoredExtractor
        from repro.serve import ServingRuntime

        runtime = ServingRuntime(
            FactoredExtractor(self._cache(platform_a, small_table, skewed_hotness))
        )

        def batch_of(members):
            for _ in range(members):
                request = runtime.make_request(1, np.arange(40), now=0.0)
                assert runtime.submit(request, now=0.0) is None
            queue = runtime.admission.queue(1)
            runtime.serve_batch(
                [queue.pop() for _ in range(members)], now=0.0
            )

        first, second = MetricsRegistry("first"), MetricsRegistry("second")
        for reg, members in ((first, 3), (second, 2), (first, 1)):
            with use_registry(reg):
                batch_of(members)
        for reg, members, batches in ((first, 4, 2), (second, 2, 1)):
            assert reg.value("serve.admission", gpu=1, result="admitted") == members
            assert reg.value("serve.requests", status="ok") == members
            assert reg.value("serve.queue.depth", gpu=1) == 0
            assert reg.histogram("serve.batch.seconds", gpu=1).count == batches
            assert reg.histogram("serve.coalesce.batch_size").sum == members
            assert reg.histogram("serve.latency.seconds").count == members
            assert reg.histogram("serve.coalesce.linger.seconds").count == members
        second.reset()
        with use_registry(second):
            batch_of(1)
        assert second.value("serve.admission", gpu=1, result="admitted") == 1
        assert second.histogram("serve.batch.seconds", gpu=1).count == 1

    def test_simulate_batch_records_per_gpu_timing(self, platform_a):
        from repro.sim.engine import simulate_batch
        from repro.sim.mechanisms import GpuDemand

        demands = [
            GpuDemand(dst=i, volumes={i: 1e6}) for i in platform_a.gpu_ids
        ]
        reg = MetricsRegistry("t")
        with use_registry(reg):
            simulate_batch(platform_a, demands)
        for i in platform_a.gpu_ids:
            assert reg.histogram("extract.gpu_seconds", gpu=i).count == 1
        assert reg.value("extract.volume_bytes", source="local") == pytest.approx(
            4e6
        )

    def test_solver_records_build_and_solve(self, platform_a, skewed_hotness):
        from repro.core.solver import solve_policy

        reg = MetricsRegistry("t")
        with use_registry(reg):
            solve_policy(platform_a, skewed_hotness, 200, 32)
        assert reg.value("solver.solves") == 1
        assert reg.histogram("solver.solve.seconds").count == 1
        assert reg.histogram("solver.build.seconds").count == 1
        assert reg.value("solver.num_variables") > 0
        assert reg.value("solver.num_constraints") > 0

    def test_refresher_records_swap_and_staleness(
        self, platform_a, small_table, skewed_hotness
    ):
        from repro.core.policy import partition_policy, replication_policy
        from repro.core.refresher import Refresher

        cache = self._cache(platform_a, small_table, skewed_hotness)
        refresher = Refresher(cache)
        reg = MetricsRegistry("t")
        with use_registry(reg):
            outcome = refresher.refresh(
                replication_policy(skewed_hotness, 200, platform_a.num_gpus)
            )
        assert outcome.triggered
        assert reg.value("refresher.refreshes") == 1
        assert reg.value("refresher.entries_moved") == outcome.entries_moved
        assert reg.histogram("refresher.swap.seconds").count == 1
        assert reg.histogram("refresher.staleness.seconds").count == 1


class TestRunWithMetrics:
    def test_driver_artifact_is_parseable_and_complete(self, tmp_path):
        """One benchmark-driver run emits a machine-readable artifact."""
        from repro.bench.contexts import platform_by_name
        from repro.core.evaluate import evaluate_placement, hit_rates
        from repro.core.solver import SolverConfig, solve_policy
        from repro.bench.harness import ExperimentResult
        from repro.utils.stats import zipf_pmf

        def tiny_driver() -> ExperimentResult:
            platform = platform_by_name("server-a")
            hotness = zipf_pmf(600, 1.2) * 1000.0
            solved = solve_policy(
                platform, hotness, 60, 64, SolverConfig(coarse_block_frac=0.1)
            )
            placement = solved.realize()
            hit_rates(platform, placement, hotness)
            evaluate_placement(platform, placement, hotness, 64)
            return ExperimentResult(title="tiny")

        out = tmp_path / "metrics.json"
        result = run_with_metrics(tiny_driver, metrics_out=out)
        assert result.metrics is not None
        doc = load_metrics(out)
        names = {m["name"] for m in doc["metrics"]}
        # The acceptance triad: hit split, per-GPU timing, solver time.
        assert "cache.hit_rate" in names
        assert "extract.gpu_seconds" in names
        assert "solver.solve.seconds" in names

    def test_global_registry_untouched(self):
        from repro.bench.harness import ExperimentResult

        marker = "obs.test.isolated"

        def driver():
            get_registry().counter(marker).inc()
            return ExperimentResult(title="t")

        result = run_with_metrics(driver)
        assert get_registry().value(marker) is None
        assert any(m["name"] == marker for m in result.metrics["metrics"])
