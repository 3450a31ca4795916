"""Concurrency suite: shared state under real threads (`-m concurrency`).

Hammers the thread-safety contracts concurrent serving threads rely on:
the location table's single mutex, the cache's reader/writer lock against
the background refresher, per-instrument metric locks, per-breaker locks,
and the drift estimator's mutex.  Every test is deterministic in
its *assertions* (exact values, exact counts) even though the thread
interleavings are not.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.cache import MultiGpuEmbeddingCache
from repro.core.extractor import FactoredExtractor
from repro.core.location_table import LocationTable
from repro.core.policy import hot_replicate_warm_partition_policy
from repro.core.refresher import RefreshConfig, Refresher
from repro.hardware.platform import HOST, server_a
from repro.obs import MetricsRegistry, use_registry
from repro.serve import BreakerConfig, CircuitBreaker
from repro.utils.concurrency import ReadWriteLock
from repro.utils.rng import make_rng
from repro.utils.stats import zipf_pmf

pytestmark = pytest.mark.concurrency

N, D = 2000, 8
THREADS = 8


def _run_threads(targets):
    """Start, join, and re-raise the first worker exception."""
    errors: list[BaseException] = []

    def wrap(fn):
        def inner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        return inner

    threads = [threading.Thread(target=wrap(t)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestReadWriteLock:
    def test_readers_share_writer_excludes(self):
        lock = ReadWriteLock()
        in_read = threading.Barrier(3, timeout=5.0)
        wrote = threading.Event()

        def reader():
            with lock.read_locked():
                in_read.wait()  # both readers inside simultaneously
                time.sleep(0.05)
                assert not wrote.is_set()  # writer still excluded

        def writer():
            in_read.wait()  # wait until both readers hold the lock
            with lock.write_locked():
                wrote.set()

        _run_threads([reader, reader, writer])
        assert wrote.is_set()

    def test_reentrant_and_writer_may_read(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.write_locked():
                with lock.read_locked():
                    pass
        with lock.read_locked():
            with lock.read_locked():
                pass

    def test_upgrade_raises(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with pytest.raises(RuntimeError):
                lock.acquire_write()


class TestLocationTableConcurrency:
    """Writers re-assert the ground truth while readers verify no torn reads.

    Every key's value is a pure function of the key (source = key % 4,
    offset = key), so any hit a reader observes must return exactly that
    pair — a torn read (source from one write, offset from another) or a
    probe against a mid-rebuild array would break the equality.
    """

    def test_hammer_lookup_insert_remove(self):
        table = LocationTable(expected_entries=64)  # grows under load
        keys = np.arange(N, dtype=np.int64)
        sources = (keys % 4).astype(np.int64)
        table.insert_batch(keys, sources, keys)
        stop = threading.Event()

        def writer(seed):
            rng = make_rng(seed)
            while not stop.is_set():
                batch = rng.choice(N, size=128, replace=False).astype(np.int64)
                table.insert_batch(batch, batch % 4, batch)

        def churner(seed):
            """Remove a slice and immediately re-insert it."""
            rng = make_rng(seed)
            while not stop.is_set():
                batch = np.sort(
                    rng.choice(N, size=32, replace=False).astype(np.int64)
                )
                table.remove_batch(batch)
                table.insert_batch(batch, batch % 4, batch)

        def reader(seed):
            rng = make_rng(seed)
            while not stop.is_set():
                batch = rng.choice(N, size=256).astype(np.int64)
                src, off = table.lookup_batch(batch)
                hit = src != HOST
                assert np.array_equal(src[hit], batch[hit] % 4)
                assert np.array_equal(off[hit], batch[hit])
                # misses keep the host-by-key convention.
                assert np.array_equal(off[~hit], batch[~hit])

        def stopper():
            time.sleep(0.4)
            stop.set()

        _run_threads(
            [lambda s=i: writer(s) for i in range(2)]
            + [lambda s=i + 10: churner(s) for i in range(2)]
            + [lambda s=i + 20: reader(s) for i in range(THREADS - 4)]
            + [stopper]
        )
        # Steady state: every key present with its ground-truth value
        # once the churners' final re-inserts land.
        src, off = table.lookup_batch(keys)
        present = src != HOST
        assert np.array_equal(src[present], keys[present] % 4)
        assert np.array_equal(off[present], keys[present])


class TestCacheRefreshConcurrency:
    """Foreground lookups stay exact while a refresh rewires placement."""

    def _stack(self):
        platform = server_a()
        rng = make_rng(0)
        table = rng.standard_normal((N, D)).astype(np.float32)
        hotness = zipf_pmf(N, 1.2) * 1000.0
        placement = hot_replicate_warm_partition_policy(
            hotness, N // 8, platform.num_gpus, 0.5
        )
        cache = MultiGpuEmbeddingCache(platform, table, placement)
        # A genuinely different placement, so the diff is non-empty.
        drifted = hot_replicate_warm_partition_policy(
            hotness[::-1].copy(), N // 8, platform.num_gpus, 0.5
        )
        return platform, table, cache, drifted

    def test_lookups_exact_during_refresh(self):
        platform, table, cache, drifted = self._stack()
        refresher = Refresher(
            cache, RefreshConfig(update_batch_entries=64)
        )
        done = threading.Event()

        def refresh():
            try:
                outcome = refresher.refresh(drifted)
                assert outcome.entries_moved > 0
            finally:
                done.set()

        def reader(seed):
            rng = make_rng(seed)
            gpu = seed % platform.num_gpus
            while not done.is_set():
                keys = rng.integers(0, N, size=128)
                result = cache.lookup(gpu, keys)
                assert np.array_equal(result.values, table[keys])

        _run_threads(
            [refresh] + [lambda s=i: reader(s) for i in range(THREADS - 1)]
        )
        assert cache.verify_integrity() == []

    def test_extract_exact_during_refresh(self):
        """``extract`` plans every GPU, then gathers: a refresh step landing
        in between recycles planned slots unless ``extract`` holds the read
        side across both.  Small steps and a tiny switch interval put steps
        between plan and gather often."""
        platform = server_a()
        n = 4000
        table = make_rng(1).standard_normal((n, D)).astype(np.float32)
        hotness = zipf_pmf(n, 1.2) * 1000.0
        a, b = (
            hot_replicate_warm_partition_policy(h, n // 8, platform.num_gpus, 0.5)
            for h in (hotness, hotness[::-1].copy())
        )
        cache = MultiGpuEmbeddingCache(platform, table, a)
        refresher = Refresher(cache, RefreshConfig(update_batch_entries=16))
        extractor = FactoredExtractor(cache)
        done = threading.Event()
        wrong: list[int] = []

        def refresh():
            try:
                for target in (b, a) * 3:
                    refresher.refresh(target)
            finally:
                done.set()

        def extract():
            rng = make_rng(2)
            calls = 0
            while calls < 20 or not done.is_set():
                batches = [rng.integers(0, n, size=256) for _ in platform.gpu_ids]
                values, _ = extractor.extract(batches)
                if any(
                    got.tobytes() != table[keys].tobytes()
                    for got, keys in zip(values, batches)
                ):
                    wrong.append(calls)
                calls += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads([refresh, extract])
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [], f"wrong rows in extract calls {wrong}"
        assert cache.verify_integrity() == []


class TestMetricsConcurrency:
    def test_counter_increments_are_exact(self):
        registry = MetricsRegistry("conc")
        per_thread = 20_000

        def worker():
            counter = registry.counter("hits", gpu=0)
            for _ in range(per_thread):
                counter.inc()

        _run_threads([worker] * THREADS)
        assert registry.counter("hits", gpu=0).value == THREADS * per_thread

    def test_histogram_counts_stay_consistent(self):
        registry = MetricsRegistry("conc")
        per_thread = 5_000

        def worker(seed):
            rng = make_rng(seed)
            hist = registry.histogram("lat")
            for _ in range(per_thread):
                hist.observe(float(rng.uniform(1e-6, 10.0)))

        _run_threads([lambda s=i: worker(s) for i in range(THREADS)])
        hist = registry.histogram("lat")
        assert hist.count == THREADS * per_thread
        assert sum(hist.bucket_counts) == hist.count
        assert hist.min <= hist.sum / hist.count <= hist.max

    def test_a_reader_folding_beside_the_writers_loses_nothing(self):
        """Reads fold the pending logs while writers append to them: every
        update lands in exactly one fold, and each fold is self-consistent."""
        registry = MetricsRegistry("conc")
        counter, hist = registry.counter("hits"), registry.histogram("lat")
        writers, per_thread = THREADS - 1, 20_000
        values = (0.25, 0.5, 1.0, 2.0)  # dyadic: any summation order is exact
        finished, folds = [], []

        def writer():
            for i in range(per_thread):
                counter.inc()
                hist.observe(values[i % 4])
            finished.append(True)

        def reader():
            while len(finished) < writers or len(folds) < 2:
                snap = hist.snapshot()
                assert sum(n for _, n in snap["buckets"]) == snap["count"]
                buckets, count = hist.bucket_counts, hist.count
                assert sum(buckets) <= count
                folds.append(counter.value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave appends and folds finely
        try:
            _run_threads([writer] * writers + [reader])
        finally:
            sys.setswitchinterval(interval)
        total = writers * per_thread
        assert len(folds) > 1 and folds == sorted(folds)
        assert counter.value == total
        assert hist.count == sum(hist.bucket_counts) == total
        assert hist.sum == total * sum(values) / 4

    def test_series_creation_race_yields_one_instrument(self):
        registry = MetricsRegistry("conc")
        instruments = []
        barrier = threading.Barrier(THREADS, timeout=5.0)

        def worker():
            barrier.wait()
            instruments.append(registry.counter("race", gpu=1))

        _run_threads([worker] * THREADS)
        assert all(i is instruments[0] for i in instruments)


class TestBreakerConcurrency:
    def test_hammered_breaker_keeps_sane_state(self):
        breaker = CircuitBreaker(
            0, BreakerConfig(failure_threshold=3, cooldown_seconds=0.0)
        )
        registry = MetricsRegistry("conc")

        def worker(seed):
            rng = make_rng(seed)
            for i in range(2_000):
                now = i * 1e-3
                if breaker.allow(now):
                    if rng.random() < 0.5:
                        breaker.record_failure(now)
                    else:
                        breaker.record_success(now)

        with use_registry(registry):
            _run_threads([lambda s=i: worker(s) for i in range(THREADS)])
        # No torn transition: every recorded hop changes state.
        for _t, frm, to in breaker.transitions:
            assert frm != to
        assert breaker.consecutive_failures >= 0

    def test_half_open_probes_are_metered_across_threads(self):
        """Exactly ``half_open_probes`` threads pass — no thundering herd.

        An open breaker whose cooldown just elapsed is the dangerous
        moment: every serving worker calls ``allow`` at once, and an
        unmetered re-admit would stampede the recovering node with the
        full fleet.  The probe budget must hold under real contention.
        """
        probes = 2
        config = BreakerConfig(
            failure_threshold=1,
            cooldown_seconds=1.0,
            half_open_probes=probes,
            success_threshold=probes,
        )
        registry = MetricsRegistry("conc")
        with use_registry(registry):
            for _round in range(20):
                breaker = CircuitBreaker(0, config)
                breaker.record_failure(0.0)  # trip it
                assert not breaker.allow(0.5)  # still cooling down
                now = 2.0  # cooldown elapsed: next allows are probes
                barrier = threading.Barrier(THREADS)
                admitted: list[bool] = []
                lock = threading.Lock()

                def worker():
                    barrier.wait()
                    ok = breaker.allow(now)
                    with lock:
                        admitted.append(ok)

                _run_threads([worker] * THREADS)
                assert sum(admitted) == probes, (
                    f"half-open metering leaked: {sum(admitted)} probes "
                    f"admitted, budget {probes}"
                )
                # The probes' successes close it; the herd stays held off.
                for _ in range(probes):
                    breaker.record_success(now)
                assert breaker.state.value == "closed"


class TestStreamingEstimatorConcurrency:
    """The drift estimator is fed from several serving threads at once."""

    def test_no_lost_updates_under_racing_threads(self):
        """With decay=1.0 the estimator is a plain counter, so after
        racing records from four threads the counts must be exact —
        any lost update under the mutex shows as a shortfall."""
        from repro.core.drift_adapt import StreamingHotnessEstimator

        est = StreamingHotnessEstimator(N, decay=1.0)
        per_gpu, batch = 200, 64

        def feed(gpu):
            rng = make_rng(gpu)
            for _ in range(per_gpu):
                est.record(rng.integers(0, N, size=batch))

        _run_threads([lambda g=g: feed(g) for g in range(4)])
        assert est.batches_recorded == 4 * per_gpu
        assert est.counts().sum() == 4 * per_gpu * batch
        assert est.snapshot()[0].sum() == pytest.approx(batch)

    def test_snapshot_never_tears(self):
        """Each recorded batch holds exactly ``batch`` accesses, so on a
        decay=1.0 estimator every atomic (hotness, batches) snapshot
        satisfies counts == batches × batch exactly.  A torn read —
        counts from after a record paired with the batch count from
        before it — breaks the identity."""
        from repro.core.drift_adapt import StreamingHotnessEstimator

        batch = 128
        est = StreamingHotnessEstimator(N, decay=1.0)
        est.record(make_rng(99).integers(0, N, size=batch))  # a snapshot exists
        stop = threading.Event()

        def writer(seed):
            rng = make_rng(seed)
            while not stop.is_set():
                est.record(rng.integers(0, N, size=batch))

        def reader():
            while not stop.is_set():
                hot, batches = est.snapshot()
                if batches:
                    assert hot.sum() * batches == pytest.approx(
                        batches * batch
                    )

        def stopper():
            time.sleep(0.4)
            stop.set()

        _run_threads(
            [lambda s=i: writer(s) for i in range(4)]
            + [reader] * (THREADS - 4)
            + [stopper]
        )

    def test_observe_races_policy_swap(self):
        """Adapter observes from worker threads while the control thread
        lands PolicyManager swaps: every offered request is accounted and
        the swapped cache stays intact."""
        from repro.core.solver import PolicyOutcome
        from repro.serve import DriftAdapter, PolicyManager

        platform = server_a()
        rng = make_rng(0)
        table = rng.standard_normal((N, D)).astype(np.float32)
        hotness = zipf_pmf(N, 1.1) * 1000.0
        cap = N // 8
        placement = hot_replicate_warm_partition_policy(
            hotness, cap, platform.num_gpus, 0.5
        )
        cache = MultiGpuEmbeddingCache(platform, table, placement)
        manager = PolicyManager(
            cache, refresher=Refresher(cache, RefreshConfig(update_batch_entries=64))
        )
        adapter = DriftAdapter(manager, cap, hotness)
        per_gpu, batch = 150, 64
        swaps = 6

        def feed(gpu):
            feed_rng = make_rng(100 + gpu)
            for i in range(per_gpu):
                adapter.observe(
                    gpu, feed_rng.integers(0, N, size=batch), now=float(i)
                )
            return gpu

        def swapper():
            for k in range(swaps):
                target = hot_replicate_warm_partition_policy(
                    np.roll(hotness, (k + 1) * N // 7), cap,
                    platform.num_gpus, 0.5,
                )
                outcome = PolicyOutcome(
                    placement=target, source="milp", est_time=1.0
                )
                report = manager.swap(outcome, now=float(k))
                assert report.swapped

        _run_threads(
            [swapper]
            + [lambda g=g: feed(g) for g in range(platform.num_gpus)]
        )
        assert adapter.observed == platform.num_gpus * per_gpu
        assert adapter.estimator.batches_recorded == platform.num_gpus * per_gpu
        assert manager.version == swaps
        assert cache.verify_integrity() == []
