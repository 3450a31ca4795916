"""The traced run: timing wrappers around the product's public functions.

Installed from here, never from inside the product: every ``repro.*``
module attribute that *is* a target function is rebound to a wrapper, and
target methods are patched on their classes.  A wrapper records one span
per call — span id, parent span, name, start, end, op id, block — into an
in-memory list that is reduced (and, for the last pass, written out) only
after the pass ends.  A span's self time is its duration minus the time
its child spans cover, so the self times of one op sum to the op's
duration.

The target list is the benchmark's whole view of the product's API: a
target that no longer resolves is reported as ``trace.missing_targets``
with a warning, not a crash, so a refactor sees what it must keep or what
a follow-up benchmark issue must re-point.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from measure import Recorder

#: (module, qualified name, layer).  ``Class.method`` patches the class;
#: a bare name rebinds the function in every repro module that holds it.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.solver", "solve_policy", "core.solver"),
    ("repro.core.solver", "SolvedPolicy.realize", "core.solver"),
    ("repro.core.cache", "MultiGpuEmbeddingCache.__init__", "core.cache"),
    ("repro.core.cache", "MultiGpuEmbeddingCache.lookup", "core.cache"),
    ("repro.core.cache", "MultiGpuEmbeddingCache.replace_placement", "core.cache"),
    ("repro.core.cache", "MultiGpuEmbeddingCache.refresh_source_map", "core.cache"),
    ("repro.core.cache", "MultiGpuEmbeddingCache.verify_integrity", "core.cache"),
    ("repro.core.location_table", "LocationTable.lookup_batch", "core.location_table"),
    ("repro.core.location_table", "LocationTable.insert_batch", "core.location_table"),
    ("repro.core.location_table", "LocationTable.remove_batch", "core.location_table"),
    ("repro.core.pipeline", "resolve", "core.pipeline.resolve"),
    ("repro.core.pipeline", "reroute", "core.pipeline.reroute"),
    ("repro.core.pipeline", "group_by_source", "core.pipeline.group"),
    ("repro.core.pipeline", "dedicate", "core.pipeline.dedicate"),
    ("repro.core.pipeline", "price_demand", "core.pipeline.price"),
    ("repro.core.pipeline", "execute_plan", "core.pipeline.execute"),
    ("repro.core.pipeline", "plan_extraction", "core.pipeline.other"),
    ("repro.core.pipeline", "apply_health", "core.pipeline.other"),
    ("repro.core.pipeline", "host_fallback_demand", "core.pipeline.other"),
    ("repro.core.pipeline", "price_node_read", "core.pipeline.other"),
    ("repro.core.extractor", "FactoredExtractor.plan", "core.extractor"),
    ("repro.core.extractor", "FactoredExtractor.execute", "core.extractor"),
    ("repro.core.extractor", "FactoredExtractor.extract", "core.extractor"),
    ("repro.core.extractor", "FactoredExtractor.price", "core.extractor"),
    ("repro.core.refresher", "Refresher.refresh_steps", "core.refresher"),
    ("repro.core.filler", "apply_diff_step", "core.filler"),
    ("repro.sim.mechanisms", "factored_extraction", "sim.mechanisms"),
    ("repro.sim.event_sim", "simulate_hedged_extraction", "sim.event_sim"),
    ("repro.sim.event_sim", "simulate_rpc_exchange", "sim.event_sim"),
    ("repro.serve.queueing", "AdmissionController.submit", "serve.queueing"),
    ("repro.serve.queueing", "BoundedRequestQueue.offer", "serve.queueing"),
    ("repro.serve.queueing", "BoundedRequestQueue.pop", "serve.queueing"),
    ("repro.serve.breaker", "BreakerBoard.excluded_sources", "serve.breaker"),
    ("repro.serve.breaker", "BreakerBoard.record", "serve.breaker"),
    ("repro.serve.coalesce", "MicroBatcher.flush_at", "serve.coalesce"),
    ("repro.serve.coalesce", "MicroBatcher.take", "serve.coalesce"),
    ("repro.serve.coalesce", "coalesce_keys", "serve.coalesce"),
    ("repro.serve.runtime", "ServingRuntime.make_request", "serve.runtime"),
    ("repro.serve.runtime", "ServingRuntime.submit", "serve.runtime"),
    ("repro.serve.runtime", "ServingRuntime.poll", "serve.runtime"),
    ("repro.serve.runtime", "ServingRuntime.serve_request", "serve.runtime"),
    ("repro.serve.runtime", "ServingRuntime.serve_batch", "serve.runtime"),
    ("repro.cluster.ring", "HashRing.owners_for", "cluster.ring"),
    ("repro.cluster.frontend", "ClusterFrontend.serve", "cluster.frontend"),
    ("repro.cluster.node", "CacheNode.serve", "cluster.node"),
    ("repro.cluster.node", "CacheNode.service_seconds", "cluster.node"),
    ("repro.cluster.rpc", "attempt_profile", "cluster.rpc"),
    ("repro.obs.metrics", "MetricsRegistry.counter", "obs.metrics"),
    ("repro.obs.metrics", "MetricsRegistry.gauge", "obs.metrics"),
    ("repro.obs.metrics", "MetricsRegistry.histogram", "obs.metrics"),
)

#: Wrapped so a refactor that starts routing through them shows up, but no
#: workload reaches them at this commit (the self-check pins both facts).
UNREACHED = frozenset({
    "host_fallback_demand", "price_node_read", "simulate_hedged_extraction",
})

DRIVER_LAYER = "bench.driver"
LAYERS = tuple(dict.fromkeys([layer for *_, layer in TARGETS] + [DRIVER_LAYER]))

SPAN_COLUMNS = ("id", "parent", "name", "start", "end", "op", "block")


class Tracer:
    """Span storage plus the wrappers' shared cursor."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.names = [qual for _, qual, _ in targets] + [DRIVER_LAYER]
        self.layer_of = np.array(
            [LAYERS.index(layer) for *_, layer in targets] + [LAYERS.index(DRIVER_LAYER)]
        )
        self.missing: list[str] = []
        self.rows: list[tuple] = []
        self.next_id = 0
        self.current = -1
        self.op = -1
        self.block = -1
        #: (owner, attribute, original, wrapper), filled by the first install.
        self._bindings: list[tuple] | None = None

    # -- installation ---------------------------------------------------
    def resolve(self) -> None:
        """Find every target once; remember where its wrapper must go."""
        for name_id, (module_name, qual, _layer) in enumerate(self.targets):
            try:
                module = importlib.import_module(module_name)
                owner, attr = module, qual
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{qual}")
                warnings.warn(
                    f"trace target {module_name}.{qual} not found; its layer "
                    "will read low until the benchmark is re-pointed",
                    stacklevel=2,
                )
                continue
            wrapper = self._wrap(original, name_id)
            if owner is not module:
                self._bindings.append((owner, attr, original, wrapper))
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or name.split(".")[0] != "repro":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original, wrapper))

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = []
            self.resolve()
        for owner, attr, _original, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._bindings or ():
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrap(self, fn, name_id: int):
        tracer, rows, clock = self, self.rows, time.perf_counter

        def enter():
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent, tracer.current = tracer.current, sid
            return sid, parent, clock()

        def leave(sid, parent, t0):
            t1 = clock()
            tracer.current = parent
            rows.append((sid, parent, name_id, t0, t1, tracer.op, tracer.block))

        if inspect.isgeneratorfunction(fn):
            # One span per ``next``: the body only runs while being advanced.
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    span = enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(*span)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                span = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(*span)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # -- per-pass reduction ---------------------------------------------
    def take_pass(self) -> dict[str, np.ndarray]:
        """The spans recorded since the last call, as columns, plus each
        span's self time (duration minus its direct children's)."""
        cols = np.array(self.rows, dtype=np.float64).reshape(-1, len(SPAN_COLUMNS)).T
        self.rows.clear()
        spans = {
            key: col if key in ("start", "end") else col.astype(np.int64)
            for key, col in zip(SPAN_COLUMNS, cols)
        }
        duration = spans["end"] - spans["start"]
        sid, parent = spans["id"], spans["parent"]
        base = int(sid.min()) if len(sid) else 0
        covered = np.zeros(int(sid.max()) - base + 1 if len(sid) else 0)
        child = parent >= base
        np.add.at(covered, parent[child] - base, duration[child])
        spans["self"] = duration - covered[sid - base]
        return spans

    def layer_matrix(self, spans: dict[str, np.ndarray], blocks: int):
        """``(self seconds, calls)`` per (block, layer) of one pass."""
        # Spans outside the timed blocks (per-pass rebuilds before the first
        # mark, end-of-pass checks after the last) belong to no block.
        inside = (spans["block"] >= 0) & (spans["block"] < blocks)
        index = spans["block"][inside] * len(LAYERS) + self.layer_of[spans["name"][inside]]
        size = blocks * len(LAYERS)
        seconds = np.bincount(index, weights=spans["self"][inside], minlength=size)
        calls = np.bincount(index, minlength=size)
        return seconds.reshape(blocks, -1), calls.reshape(blocks, -1)

    def fired(self, spans: dict[str, np.ndarray]) -> set[str]:
        """Qualified names of the targets that recorded at least one span."""
        return {self.names[i] for i in np.unique(spans["name"])} - {DRIVER_LAYER}

    # -- output ---------------------------------------------------------
    def write(self, spans: dict[str, np.ndarray], pass_index: int, stem: Path) -> None:
        """Chrome trace + JSONL of one pass (the last traced one)."""
        origin = float(spans["start"].min()) if len(spans["start"]) else 0.0
        events = []
        with open(f"{stem}.spans.jsonl", "w") as out:
            for i in np.argsort(spans["start"], kind="stable"):
                name = self.names[spans["name"][i]]
                layer = LAYERS[self.layer_of[spans["name"][i]]]
                record = {
                    "id": int(spans["id"][i]), "parent": int(spans["parent"][i]),
                    "name": name, "layer": layer,
                    "start": float(spans["start"][i] - origin),
                    "end": float(spans["end"][i] - origin),
                    "self": float(spans["self"][i]), "op": int(spans["op"][i]),
                    "pass": pass_index, "block": int(spans["block"][i]),
                }
                out.write(json.dumps(record) + "\n")
                events.append({
                    "name": name, "cat": layer, "ph": "X", "pid": 0, "tid": 0,
                    "ts": record["start"] * 1e6,
                    "dur": (record["end"] - record["start"]) * 1e6,
                    "args": {"op": record["op"], "block": record["block"]},
                })
        with open(f"{stem}.trace.json", "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


class TracedRecorder(Recorder):
    """A :class:`Recorder` that also keeps one root span open between
    marks, so the driver's own loop shows up as the ``bench.driver`` layer."""

    def __init__(self, reference, tracer: Tracer) -> None:
        super().__init__(reference)
        self.tracer = tracer
        self._root: tuple[int, float] | None = None

    def _close_root(self) -> None:
        tracer = self.tracer
        if self._root is not None:
            sid, t0 = self._root
            tracer.rows.append((
                sid, -1, len(tracer.names) - 1, t0, time.perf_counter(),
                tracer.op, tracer.block,
            ))
            self._root = None
            tracer.current = -1

    def _open_root(self) -> None:
        tracer = self.tracer
        tracer.current = tracer.next_id
        tracer.next_id += 1
        self._root = (tracer.current, time.perf_counter())

    def start(self) -> None:
        self.tracer.block = 0
        super().start()

    def op(self, op_id: int) -> None:
        self._close_root()
        self.tracer.op = op_id
        self._open_root()

    def mark(self, kind: int = 0) -> None:
        self._close_root()
        super().mark(kind)
        self.tracer.block = len(self.durations)
        self._open_root()

    def stop(self) -> None:
        # The root opened by the last mark belongs to no block.
        self.tracer.block = -1
        self._close_root()
        self.tracer.op = -1
