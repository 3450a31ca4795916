"""Reachability ledger: which functions under ``src/`` does an entry point reach?

    python tools/reachability.py [--skip-figures] [ROOT]

Runs the entry-point set below from ROOT (default: this checkout) under a
``sitecustomize`` profile hook, so child processes and worker threads are
traced too.  Functions are keyed by ``(file, co_firstlineno)``: the first
decorator line of a decorated function.  Prints, per module, ``lines /
lines in functions no entry point reached / of those on the keep-list``,
and exits non-zero when an unreached function is not on KEEP, when a KEEP
entry names nothing or excuses no unreached line, when a ledger entry
names nothing, or when an entry point fails (DESIGN.md, "What ``src/`` is
allowed to contain").  The full mode also drives every paper-figure
driver (~40 min) and rewrites ``tools/reachability.ledger``;
``--skip-figures`` (~3 min) takes the functions only those drivers reach
from that checked-in ledger.

The same run asks the same question of options ("What may be an option",
same section): for every defaulted dataclass field, defaulted parameter and
CLI flag under ``src/`` it reads — statically, every call site is a literal
keyword — which non-test code sets it and to what, prints per module
``options / one-value / kept``, and fails on an option nobody sets, or
everybody sets to one value, that is not on OPTION_KEEP.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: The only reasons an unreached function may stay in ``src/``.
REASONS = {
    "fault": "error / rollback / fault path",
    "reference": "reference a test compares production code against",
    "tracing": "a name benchmarks/e2e/tracing.py wraps",
    "protocol": "protocol / dunder method",
}

#: ``"module:qualname"`` or ``"module:Class"`` → (reason, what it is).
KEEP: dict[str, tuple[str, str]] = {
    "repro.serve.policy_manager:PolicyManager._rollback": ("fault", "swap rollback"),
    "repro.core.refresher:Refresher._rollback": (
        "fault", "a failed refresh replays its undo log"),
    "repro.core.cache:MultiGpuEmbeddingCache.restore_location_state": (
        "fault", "and restores the snapshotted routes"),
    "repro.core.cache:MultiGpuEmbeddingCache.check_integrity": (
        "fault", "then checks the restored cache"),
    "repro.core.tiers:not_resident": ("fault", "a key routed to a tier that lacks it"),
    "repro.cli:_Parser.error": ("fault", "a usage error: no entry point misspells a flag"),
    "repro.faults.degrade:reroute_demand": (
        "fault", "a batch simulator's demand under an unhealthy view"),
    "repro.faults.degrade:DegradedPlatform.sources_for": ("fault", "degraded-mode view"),
    "repro.faults.degrade:DegradedPlatform.peak_pair_bandwidth": (
        "fault", "of Platform's questions"),
    "repro.faults.degrade:DegradedPlatform.is_connected": ("fault", "as sources_for"),
    "repro.core.location_table:CorruptEntryError": ("fault", "corrupt-slot error"),
    "repro.core.location_table:LocationTable._checked_location": (
        "fault", "raises it on a scalar read"),
    "repro.core.location_table:unpack_location": ("fault", "which decodes with it"),
    "repro.core.location_table:LocationTable.corrupt_slot": ("fault", "injection hook"),
    "repro.core.location_table:LocationTable._slot": ("fault", "its scalar probe"),
    "repro.core.location_table:LocationTable._rebuild": (
        "fault", "growth when a table was sized too small"),
    "repro.serve.request:check_time_physics.<locals>.flag": (
        "fault", "words one physics violation"),
    "repro.core.location_table:LocationTable.get": (
        "reference", "scalar probe the batch forms are tested against"),
    "repro.core.location_table:LocationTable.insert": ("reference", "as get"),
    "repro.core.location_table:LocationTable.remove": ("reference", "as get"),
    "repro.core.location_table:LocationTable.capacity": (
        "reference", "what the load-limit tests read"),
    "repro.core.location_table:LocationTable.load_factor": ("reference", "as capacity"),
    "repro.core.location_table:pack_location": ("reference", "scalar slot packing"),
    "repro.core.filler:GpuCacheStore.read": ("reference", "scalar row read, as get"),
    "repro.hardware.memory:SlotArena.allocate": (
        "reference", "one slot, which the write-path oracle allocates per entry"),
    "repro.hardware.memory:SlotArena.free": ("reference", "as allocate"),
    "repro.core.policy:Placement.validate_capacity": (
        "reference", "capacity invariant tests hold every policy to"),
    "repro.core.solver:SolvedPolicy.access_volume_fractions": (
        "reference", "the LP's split, compared with the realized placement"),
    "repro.core.tiers:TierChain.capacity_entries": (
        "reference", "the budget tier-residency tests hold a chain to"),
    "repro.gnn.graph:CSRGraph.neighbors": (
        "reference", "adjacency the sampler and graph tests check draws against"),
    "repro.serve.adaptation:DriftAdapter.observed": (
        "reference", "how concurrency tests count recorded batches"),
    "repro.obs.metrics:MetricsRegistry.value": (
        "reference", "how tests read production counters"),
    "repro.obs.metrics:MetricsRegistry.reset": ("reference", "and isolate them"),
    "repro.core.pipeline:price_node_read": ("tracing", "wrapped, pinned UNREACHED"),
    "repro.core.pipeline:host_fallback_demand": ("tracing", "wrapped, pinned UNREACHED"),
    "repro.sim.event_sim:simulate_hedged_extraction": (
        "tracing", "wrapped, pinned UNREACHED"),
    "repro.baselines.base:EmbCacheSystem.plan": (
        "protocol", "abstract: every system overrides it"),
    "repro.baselines.base:EmbCacheSystem.mechanism": ("protocol", "as plan"),
    "repro.core.location_table:LocationTable.__len__": ("protocol", "dunder"),
    "repro.serve.breaker:BreakerBoard.__iter__": ("protocol", "dunder"),
    "repro.obs.metrics:_NoopGauge.set": (
        "protocol", "Gauge's interface on a disabled registry"),
}

PY = sys.executable
REPRO = [PY, "-m", "repro"]
QUICK = REPRO + ["soak", "--quick", "--seed", "0", "--scenario"]
CLUSTER = ["--nodes", "3", "--replication", "2"]
DRIFT = ["steady", "--drift"]


def entry_points(root: Path, out: Path) -> tuple[list, list]:
    """``(base, figures)`` commands: ci.yml's and README's CLI invocations,
    the e2e smoke and the examples; then every registered experiment,
    EXPERIMENTS.md's generator and the bench scripts (whose timed region
    pytest-benchmark runs with the hook cleared, hence the first two)."""
    art = lambda name: str(out / name)  # noqa: E731
    base = [
        REPRO + ["platforms"],
        REPRO + ["solve", "--entries", "500", "--cache-ratio", "0.1", "--platform",
                 "server-a", "--coarse-frac", "0.1", "--metrics-out", art("solve.json")],
        REPRO + ["metrics", art("solve.json")],
        REPRO + ["list-experiments"],
        REPRO + ["experiment", "table3", "--metrics-out", art("table3.json")],
        QUICK + ["gpu-failure", "--json-out", art("gpu-failure.json")],
        QUICK + ["link-degradation"],
        QUICK + ["link-partition"],
        QUICK + ["bit-rot", "--metrics-out", art("bit-rot-m.json")],
        QUICK + ["slow-leak-corruption"],
        QUICK + ["dgx_a100_partial_failure", "--json-out", art("soak.json"),
                 "--metrics-out", art("soak-m.json")],
        QUICK + ["steady", "--batching", "coalesce", "--load", "2.0"],
        QUICK + ["steady", "--load", "2.0"],
        QUICK + ["corrupt-slot-storm", "--closed-loop"],
        QUICK + ["host-stall"],
        QUICK + ["node-kill", *CLUSTER],
        QUICK + ["node-flap", *CLUSTER, "--placement", "solver"],
        QUICK + ["node-partition", *CLUSTER, "--closed-loop"],
        QUICK + ["node-slow", *CLUSTER],
        QUICK + ["node-kill-bit-rot", *CLUSTER],
        QUICK + ["heal-storm", *CLUSTER],
        QUICK + ["hps-multitenant", "--tiers", "dram:100KB,ssd:1GB"],
        QUICK + [*DRIFT, "rotating-head+adapt"],
        QUICK + [*DRIFT, "table-shift+adapt"],
        QUICK + [*DRIFT, "flash-crowd+adapt"],
        REPRO + ["tiers", "--json-out", art("tiers.json")],
        REPRO + ["cluster", *CLUSTER, "--placement", "solver"],
        [PY, "benchmarks/e2e/run.py", "--smoke", "--trace"],
    ]
    base += [[PY, str(p)] for p in sorted((root / "examples").glob("*.py"))]
    listed = subprocess.run(REPRO + ["list-experiments"], cwd=root, env=_env(root),
                            text=True, capture_output=True).stdout.split()
    figures = [REPRO + ["experiment", exp_id] for exp_id in listed]
    figures += [[PY, "-m", "repro.bench.report", art("EXPERIMENTS.md")],
                [PY, "-m", "pytest", "-q", "-m", "not perf", "-p", "no:cacheprovider",
                 *sorted(map(str, (root / "benchmarks").glob("bench_*.py")))]]
    return base, figures


HOOK = '''\
import atexit, os, sys, threading
_seen = set()
def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
def _dump():
    sys.setprofile(None)
    src = os.environ["REACH_SRC"]
    with open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt"), "a") as fh:
        for code in _seen:
            if code.co_filename.startswith(src):
                fh.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")
atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def _env(root: Path, *extra_path: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([*extra_path, str(root / "src")])
    return env


def collect(root: Path, commands: list[list[str]], out: Path) -> tuple[set, list[str]]:
    """Run ``commands`` from ``root`` under the hook.  Returns the reached
    ``(file, first line)`` keys and the commands that exited non-zero."""
    hook_dir, reach_dir = out / "hook", out / "reached"
    hook_dir.mkdir(parents=True)
    reach_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    env = _env(root, str(hook_dir))
    env["REACH_SRC"] = str(root / "src") + os.sep
    env["REACH_OUT"] = str(reach_dir)
    failed = []
    for command in commands:
        shown = " ".join(command).replace(PY, "python")
        print(f"$ {shown}", flush=True)
        done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL)
        if done.returncode:
            failed.append(f"entry point failed: {shown} (exit {done.returncode})")
    reached = set()
    for dump in reach_dir.iterdir():
        for line in dump.read_text().splitlines():
            path, first = line.rsplit("\t", 1)
            reached.add((path, int(first)))
    return reached, failed


def _module(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(p for p in parts if p != "__init__")


def functions(src: Path):
    """Every ``def`` under ``src`` as ``(module, qualname, file, first line,
    lines, enclosing def's key or None)``, every class's ``module:qualname``
    and every module's line count."""
    defs, classes, sizes = [], set(), {}

    def walk(node, module, path, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                key = (str(path), first)
                defs.append((module, prefix + child.name, *key,
                             child.end_lineno - first + 1, outer))
                walk(child, module, path, f"{prefix}{child.name}.<locals>.", key)
            elif isinstance(child, ast.ClassDef):
                classes.add(f"{module}:{prefix}{child.name}")
                walk(child, module, path, f"{prefix}{child.name}.", outer)
            else:
                walk(child, module, path, prefix, outer)

    for path in sorted(src.rglob("*.py")):
        module = _module(path, src)
        text = path.read_text()
        sizes[module] = len(text.splitlines())
        walk(ast.parse(text), module, path, "", None)
    return defs, classes, sizes


def _keep_errors(keep: dict, names, reasons: dict) -> list[str]:
    """A keep-list entry names something under ``src/`` and gives a known reason."""
    return [f"keep-list entry {name!r} names nothing under src/"
            for name in keep if name not in names] + [
        f"keep-list entry {name!r}: unknown reason {reason!r}"
        for name, (reason, _) in keep.items() if reason not in reasons]


def audit(parsed, reached: set, keep: dict) -> tuple[list[str], list[str]]:
    """The ledger's lines and the gate's failures (``parsed``: :func:`functions`)."""
    defs, classes, sizes = parsed
    names = classes | {f"{m}:{q}" for m, q, *_ in defs}
    errors = _keep_errors(keep, names, REASONS)
    unreached = {(f, first) for _, _, f, first, _, _ in defs} - reached
    rows = {module: [lines, 0, 0] for module, lines in sizes.items()}
    used = set()
    for module, qual, path, first, lines, outer in defs:
        if (path, first) not in unreached or outer in unreached:
            continue  # reached, or already counted inside an unreached def
        full = f"{module}:{qual}"
        rows[module][1] += lines
        excused = {k for k in keep if full == k or full.startswith(k + ".")}
        if excused:
            rows[module][2] += lines
            used |= excused
        else:
            errors.append(f"unreached, {lines} lines, not on the keep-list: {full}")
    errors += [f"keep-list entry {name!r} excuses no unreached line"
               for name in keep if name in names and name not in used]
    out = [f"{'module':40s} {'lines':>7s} {'unreached':>9s} {'kept':>6s}"]
    out += [f"{module:40s} {lines:7d} {dead:9d} {on_list:6d}"
            for module, (lines, dead, on_list) in rows.items() if dead]
    total = [sum(r[i] for r in rows.values()) for i in range(3)]
    out.append(f"{'TOTAL (' + str(len(rows)) + ' modules)':40s} "
               f"{total[0]:7d} {total[1]:9d} {total[2]:6d}")
    return out, errors


#: The only reasons an option nobody varies may stay settable.
OPTION_REASONS = {
    "paper": "the paper names it and a registered experiment varies it (cite its id)",
    "seam": "a test substitutes a fake or pins time, randomness or problem size through it",
    "benchmark": "the frozen benchmarks/e2e passes it",
    "deployment": "a path",
}

#: ``"module:Owner.name"`` (a dataclass field or a parameter; ``"module:--flag"``
#: for a CLI flag) → (reason, what it is; a ``paper`` entry starts with the
#: ``bench/report.SPECS`` experiment id that varies it).
OPTION_KEEP: dict[str, tuple[str, str]] = {
    # The paper's own switches, reached here through a second door.
    "repro.core.extractor:FactoredExtractor.extract.local_padding": (
        "paper", "ablation-padding varies §5.3's local-group padding (through "
        "evaluate_placement); the extractor prices the same switch"),
    "repro.sim.trace:trace_factored.local_padding": (
        "paper", "ablation-padding: Figure 8 drawn with and without the padding"),
    "repro.bench.runner:replay_workload.mechanism": (
        "paper", "fig4 compares message / naive peer / factored (§5); a replay "
        "prices the same three"),
    # Fakes, pinned time and randomness, and test-sized problems.
    "repro.core.extractor:FactoredExtractor.extract.health": (
        "seam", "steps an injector's fault plan through a batch loop"),
    "repro.cli:main.argv": ("seam", "how tests drive the CLI in-process"),
    "repro.sim.event_sim:simulate_naive_event_driven.seed": ("seam", "dispatch shuffle"),
    "repro.dlr.nn:DlrmNet.__init__.seed": ("seam", "weight init"),
    "repro.dlr.nn:DcnNet.__init__.seed": ("seam", "weight init"),
    "repro.gnn.nn:GraphSageModel.__init__.seed": ("seam", "weight init"),
    "repro.gnn.graph:power_law_graph.seed": ("seam", "graph draw"),
    "repro.dlr.workload:DlrWorkload.take_batches.seed": ("seam", "key draws"),
    "repro.dlr.workload:DlrWorkload.permutations": (
        "seam", "pins which entries are hot (the popularity permutation)"),
    "repro.gnn.workload:GnnWorkload.fanouts": ("seam", "test-sized neighbourhoods"),
    "repro.hardware.platform:pcie_only.num_gpus": ("seam", "test-sized platform"),
    "repro.bench.runner:replay_workload.max_iterations": ("seam", "test-sized replay"),
    "repro.bench.validation:validate_model_agreement.num_entries": (
        "seam", "test-sized sweep"),
    "repro.bench.validation:validate_model_agreement.alphas": ("seam", "test-sized sweep"),
    "repro.bench.validation:validate_model_agreement.ratios": ("seam", "test-sized sweep"),
    "repro.core.embedding_layer:EmbeddingLayerConfig.solver": (
        "seam", "tests coarsen the LP (coarse_block_frac=0.05) to toy-table size"),
    "repro.core.location_table:LocationTable.__init__.max_offset": (
        "seam", "fault tests arm the corrupt-offset bound through it"),
    # ... through files this round may not edit: the golden generators and
    # tests/test_time_physics.py pass these, so the keyword has to exist.
    "repro.core.extractor:FactoredExtractor.price.health": (
        "seam", "tests/golden/generate_golden.py prices under a pinned health view"),
    "repro.serve.queueing:AdmissionConfig.shed_on_slo": (
        "seam", "tests/golden/generate_coalesce_golden.py turns admission "
        "shedding off to pin the batcher's own policy"),
    "repro.serve.runtime:ServeConfig.hedge_headroom": (
        "seam", "tests/golden/generate_golden.py pins it at 1e6"),
    "repro.serve.soak:SoakConfig.linger_factor": (
        "seam", "tests/test_time_physics.py draws it (hypothesis)"),
    # What benchmarks/e2e/drivers.py constructs, with the defaults' values.
    "repro.serve.breaker:BreakerConfig.failure_threshold": ("benchmark", "serve drivers"),
    "repro.serve.breaker:BreakerConfig.half_open_probes": ("benchmark", "serve drivers"),
    "repro.serve.breaker:BreakerConfig.success_threshold": ("benchmark", "serve drivers"),
    "repro.serve.runtime:ServeConfig.hedge_enabled": ("benchmark", "serve drivers"),
    "repro.serve.queueing:AdmissionConfig.policy": ("benchmark", "serve drivers"),
}

#: Where an option's traffic is looked for: everything except ``tests/``.
TRAFFIC = ("src", "benchmarks", "examples", "tools")
#: ... and, for a CLI flag, these files beside the entry-point list above.
FLAG_TRAFFIC = (".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md")
#: Their parameters are the figure's axes, not options.
FIGURE_DRIVERS = ("repro.bench.experiments", "repro.bench.report")


def _literal(node) -> bool:
    """A value readable off the page: a constant, ``-1``, a tuple of them, or
    a dotted name such as ``QueuePolicy.REJECT`` / ``math.inf``."""
    if isinstance(node, ast.UnaryOp):
        return _literal(node.operand)
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(_literal(e) for e in node.elts)
    return isinstance(node, ast.Constant) or (
        isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and (node.value.id[0].isupper() or node.value.id == "math"))


def _scopes(tree):
    """``(scope, enclosing class name)`` for the module and every def in it."""
    out = [(tree, None)]

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((child, cls))
            walk(child, child.name if isinstance(child, ast.ClassDef) else cls)

    walk(tree, None)
    return out


def _own(scope):
    """The nodes of one scope: nested defs are scopes of their own."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _callee(func) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def options(src: Path):
    """What is settable under ``src``: ``found`` maps ``"module:Owner.name"``
    to the default's text for every defaulted dataclass field, defaulted
    parameter and ``--flag``; ``callables`` maps a simple name to the
    ``(owner, parameter names in order)`` of everything a call by that name
    could bind (a class name stands for its fields or its ``__init__``);
    ``experiments`` is the registered ``ExperimentSpec`` ids; ``fields`` is
    the dataclass fields among ``found`` (``replace(...)`` can set one) mapped
    to whether the class is unfrozen (an attribute store can set it too)."""
    found: dict[str, str] = {}
    callables: dict[str, list] = {}
    experiments: set[str] = set()
    fields: dict[str, bool] = {}

    def walk(node, module, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                ordered = [p.arg for p in a.posonlyargs + a.args]
                defaults = dict(zip(ordered[len(ordered) - len(a.defaults):], a.defaults))
                defaults.update({p.arg: d for p, d in zip(a.kwonlyargs, a.kw_defaults)
                                 if d is not None})
                static = any(ast.unparse(d) == "staticmethod" for d in child.decorator_list)
                owner = f"{module}:{prefix}{child.name}"
                name = cls if cls and child.name == "__init__" else child.name
                callables.setdefault(name, []).append(
                    (owner, ordered[1:] if cls and not static else ordered))
                if module not in FIGURE_DRIVERS:
                    found.update({f"{owner}.{p}": ast.unparse(d) for p, d in defaults.items()})
                walk(child, module, f"{prefix}{child.name}.<locals>.", None)
            elif isinstance(child, ast.ClassDef):
                marks = [ast.unparse(d) for d in child.decorator_list]
                if any("dataclass" in mark for mark in marks):
                    members = [s for s in child.body if isinstance(s, ast.AnnAssign)
                              and "ClassVar" not in ast.unparse(s.annotation)
                              and "init=False" not in ast.unparse(s.value or s.target)]
                    owner = f"{module}:{prefix}{child.name}"
                    callables.setdefault(child.name, []).append(
                        (owner, [s.target.id for s in members]))
                    if module not in FIGURE_DRIVERS:
                        found.update({f"{owner}.{s.target.id}": ast.unparse(s.value)
                                      for s in members if s.value is not None})
                    unfrozen = not any("frozen=True" in mark for mark in marks)
                    fields.update({f"{owner}.{s.target.id}": unfrozen for s in members})
                walk(child, module, f"{prefix}{child.name}.", child.name)
            else:
                walk(child, module, prefix, cls)

    for path in sorted(src.rglob("*.py")):
        module, tree = _module(path, src), ast.parse(path.read_text())
        walk(tree, module, "", None)
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and call.args
                    and isinstance(call.args[0], ast.Constant)
                    and isinstance(call.args[0].value, str)):
                continue
            first = call.args[0].value
            if _callee(call.func) == "add_argument" and first.startswith("--"):
                found[f"{module}:{first}"] = "flag"
            elif _callee(call.func) == "ExperimentSpec":
                experiments.add(first)
    return found, callables, experiments, fields


def setters(root: Path, found: dict, callables: dict, fields: dict,
            commands: list) -> tuple[dict, dict]:
    """The traffic: ``sets[option] = [(site, value text or None)]`` — None for
    a value that is computed rather than written out — over every call (bound
    by simple name, to every owner of that name), ``replace(...)`` keyword,
    ``**dict`` and, on an unfrozen dataclass, attribute store in the non-test
    code under ``root``; and ``calls[owner]``, the number of sites calling
    it.  A flag's sites are the ``commands`` and FLAG_TRAFFIC files that
    spell it."""
    sets: dict[str, list] = {key: [] for key in found}
    calls: dict[str, int] = {}
    named: dict[str, list[str]] = {}  # field name -> the dataclass fields so named
    for key in fields:
        named.setdefault(key.rsplit(".", 1)[1], []).append(key)

    def record(key, site, node):
        if key in sets:
            sets[key].append((site, ast.unparse(node) if _literal(node) else None))

    def store(name, site):  # obj.k = v on an unfrozen dataclass: whose k is unknown
        for key in named.get(name, ()):
            if fields[key] and key in sets:
                sets[key].append((site, None))

    def bind(callee, args, keywords, splat, site):
        for owner, ordered in callables.get(callee, ()):
            calls[owner] = calls.get(owner, 0) + 1
            for name, node in [*zip(ordered, args), *keywords]:
                record(f"{owner}.{name}", site, node)
            for key in sets if splat else ():  # f(**computed) may set anything
                if key.startswith(owner + "."):
                    sets[key].append((site, None))

    def scan(scope, cls, forwards, site_of):
        dicts: dict[str, list] = {}  # name -> [(key, value)] of a dict built here
        nodes = list(_own(scope))
        for n in nodes:
            if not (isinstance(n, ast.Assign) and len(n.targets) == 1):
                continue
            target, value = n.targets[0], n.value
            if isinstance(target, ast.Name) and isinstance(value, ast.Call) \
                    and _callee(value.func) == "dict":
                dicts.setdefault(target.id, []).extend(
                    (k.arg, k.value) for k in value.keywords if k.arg)
            elif isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name) \
                    and isinstance(target.slice, ast.Constant):
                dicts.setdefault(target.value.id, []).append((target.slice.value, value))
        for n in nodes:
            if isinstance(n, (ast.Assign, ast.AugAssign)):
                for t in n.targets if isinstance(n, ast.Assign) else [n.target]:
                    store(getattr(t, "attr", None), site_of(n))
            if not isinstance(n, ast.Call):
                continue
            func, args, site = n.func, list(n.args), site_of(n)
            if getattr(func, "attr", None) in ("append", "extend", "update", "add"):
                store(getattr(func.value, "attr", None), site)  # obj.k.append(v)
            keywords = [(k.arg, k.value) for k in n.keywords if k.arg]
            splat = False
            for k in n.keywords:
                if k.arg is None and getattr(k.value, "id", None) in dicts:
                    keywords += dicts[k.value.id]
                elif k.arg is None:
                    splat = True
            callee = _callee(func)
            if callee == "partial" and args:
                callee, args = _callee(args[0]), args[1:]
            if callee == "cls":
                callee = cls
            if "replace" in (callee, forwards.get(callee)):
                for name, node in keywords:  # replace(cfg, k=v): whose k is unknown
                    for key in named.get(name, ()):
                        record(key, site, node)
            bind(callee, args, keywords, splat, site)
            if callee in forwards:  # def f(**kw): g(**kw) -- f's keywords reach g
                bind(forwards[callee], [], keywords, splat, site)
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                # X.quick(k=v) hands k to X(k=v)
                bind(cls if func.value.id == "cls" else func.value.id, [], keywords,
                     splat, site)

    for top in TRAFFIC:
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root)
            if "tests" in rel.parts or rel.name.startswith(("test_", "conftest")):
                continue
            tree = ast.parse(path.read_text())
            forwards = {}
            for fn in ast.walk(tree):
                kwarg = getattr(getattr(fn, "args", None), "kwarg", None)
                for call in ast.walk(fn) if kwarg else ():
                    if isinstance(call, ast.Call) and any(
                            k.arg is None and getattr(k.value, "id", None) == kwarg.arg
                            for k in call.keywords):
                        forwards[fn.name] = _callee(call.func)
            for scope, cls in _scopes(tree):
                scan(scope, cls, forwards, lambda n, rel=rel: f"{rel}:{n.lineno}")
    spelled = {word for command in commands for word in command}
    for name in FLAG_TRAFFIC:
        if (root / name).exists():
            spelled |= set((root / name).read_text().replace("`", " ").split())
    for key in found:
        flag = key.split(":", 1)[1]
        if flag.startswith("--") and flag in spelled:
            sets[key].append(("an entry point or a doc", None))
    return sets, calls


def audit_options(found: dict, sets: dict, calls: dict, experiments: set,
                  keep: dict, excused: dict) -> tuple[list[str], list[str]]:
    """The options table and the gate's failures: an option is *varied* when
    some site passes a value that is computed or named elsewhere, or that
    differs from another site's or from the default (counted while any site
    of its owner leaves it out); anything else must be on ``keep``.  The
    options of a function ``excused`` (the reachability keep-list) already
    lets stand unreached are not counted: no entry point calls it, so it has
    no traffic to read, and it is the function that is on trial there."""
    errors = _keep_errors(keep, found, OPTION_REASONS)
    errors += [f"keep-list entry {key!r}: a paper keep starts with the id "
               f"of a registered experiment, not {what.split()[:1]}"
               for key, (reason, what) in keep.items()
               if reason == "paper"
               and (what.split() or [""])[0].rstrip(":,;") not in experiments]
    rows: dict[str, list[int]] = {}
    for key, default in found.items():
        module, owner = key.split(":")[0], key.rsplit(".", 1)[0]
        if any(owner == k or owner.startswith(k + ".") for k in excused):
            continue
        row = rows.setdefault(module, [0, 0, 0])
        row[0] += 1
        sites = sets[key]
        values = {text for _, text in sites}
        if len(sites) < calls.get(owner, 0) or not calls.get(owner):
            values.add(default)  # some caller relies on the default
        if None in values or len(values) > 1:
            continue  # a computed value, or two written-out ones
        row[1] += 1
        if key in keep:
            row[2] += 1
        elif not sites:
            errors.append(f"option no non-test code sets: {key} (= {default})")
        else:
            errors.append(f"option with one value in use: {key} = {values.pop()} "
                          f"at {', '.join(site for site, _ in sites)}")
    out = [f"{'module':40s} {'options':>7s} {'one-value':>9s} {'kept':>6s}"]
    out += [f"{module:40s} {n:7d} {one:9d} {kept:6d}"
            for module, (n, one, kept) in sorted(rows.items()) if one]
    total = [sum(r[i] for r in rows.values()) for i in range(3)]
    out.append(f"{'TOTAL OPTIONS':40s} {total[0]:7d} {total[1]:9d} {total[2]:6d}")
    return out, errors


def options_pass(root: Path, commands: list, keep: dict, excused: dict):
    """The options table and failures for ``root`` (static; about a second)."""
    found, callables, experiments, fields = options(root / "src")
    sets, calls = setters(root, found, callables, fields, commands)
    return audit_options(found, sets, calls, experiments, keep, excused)


def run(root: Path, keep: dict, option_keep: dict, commands=None,
        figures: bool = True) -> int:
    """Collect over ``commands`` (default: the entry-point set), audit
    functions and options, print the ledger and return the exit code."""
    ledger = root / "tools" / "reachability.ledger"
    marker = "reached by the figure drivers only:"
    parsed = functions(root / "src")
    names = {(f, first): f"{m}:{q}" for m, q, f, first, *_ in parsed[0]}
    with tempfile.TemporaryDirectory() as tmp:
        figure_commands = []
        if commands is None:
            commands, figure_commands = entry_points(root, Path(tmp))
        option_lines, option_failures = options_pass(
            root, commands + figure_commands, option_keep, keep)
        reached, errors = collect(root, commands, Path(tmp) / "base")
        only: set = set()
        if figures and figure_commands:
            more, failed = collect(root, figure_commands, Path(tmp) / "figures")
            errors += failed
            only = {k for k in more - reached if k in names}
        elif figure_commands and ledger.exists():
            listed = ledger.read_text().split(marker)[1].split()
            keys = {name: key for key, name in names.items()}
            errors += [f"{ledger.name} names {n!r}, which is gone: rerun the "
                       "full mode" for n in listed if n not in keys]
            only = {keys[n] for n in listed if n in keys}
    lines, failures = audit(parsed, reached | only, keep)
    lines += ["", *option_lines]
    failures += option_failures
    print("\n" + "\n".join(lines))
    for error in errors + failures:
        print(f"FAIL: {error}")
    if figures and figure_commands and ledger.parent.is_dir():
        only_names = sorted(names[k] for k in only)
        ledger.write_text("\n".join([*lines, "", marker, *only_names]) + "\n")
    return 1 if errors or failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=Path(__file__).resolve().parents[1],
                        type=Path, help="checkout to audit (default: this one)")
    parser.add_argument("--skip-figures", action="store_true",
                        help="take what only the figure drivers reach from the ledger")
    args = parser.parse_args(argv)
    return run(args.root.resolve(), KEEP, OPTION_KEEP, figures=not args.skip_figures)


if __name__ == "__main__":
    raise SystemExit(main())
