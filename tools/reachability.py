"""Reachability ledger: which functions under ``src/`` does an entry point reach?

    python tools/reachability.py [--skip-figures] [ROOT]

Runs the entry-point set below from ROOT (default: this checkout) under a
``sitecustomize`` profile hook, so child processes and worker threads are
traced too.  Functions are keyed by ``(file, co_firstlineno)``: the first
decorator line of a decorated function.  Prints, per module, ``lines /
lines in functions no entry point reached / of those on the keep-list``,
and exits non-zero when an unreached function of at least GATE_LINES
source lines is not on KEEP, when a KEEP or ledger entry names nothing, or
when an entry point fails (DESIGN.md, "What ``src/`` is allowed to
contain").  The full mode also drives every paper-figure driver (~40 min)
and rewrites ``tools/reachability.ledger``; ``--skip-figures`` (~3 min)
takes the functions only those drivers reach from that checked-in ledger.
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

#: Shorter unreached functions (properties, dunders, one-line accessors) are
#: printed, not gated.
GATE_LINES = 6

#: The only reasons an unreached function may stay in ``src/``.
REASONS = {
    "paper": "paper surface per DESIGN.md §2",
    "fault": "error / rollback / fault path",
    "reference": "reference a test compares production code against",
    "tracing": "a name benchmarks/e2e/tracing.py wraps",
    "protocol": "protocol / dunder method",
}

#: ``"module:qualname"`` or ``"module:Class"`` → (reason, what it is).
KEEP: dict[str, tuple[str, str]] = {
    "repro.baselines.lru:LruCache": ("paper", "HPS's online LRU (§8.1 baseline)"),
    "repro.baselines.lru:steady_state_overlap": ("paper", "LRU vs static top-K, §3"),
    "repro.framework.torch_like:UGacheEmbedding": ("paper", "§7.1 PyTorch layer"),
    "repro.framework.tf_like:UGacheKerasEmbedding.get_config": (
        "paper", "§7.1 Keras layer surface"),
    "repro.core.hotness:HotnessTracker": ("paper", "§6.1 hotness metric"),
    "repro.core.hotness:degree_hotness": ("paper", "§6.1 degree estimator"),
    "repro.gnn.workload:GnnWorkload.degree_hotness": ("paper", "§6.1, per workload"),
    "repro.core.policy:empty_placement": ("paper", "Table 1's no-cache case"),
    "repro.core.pipeline:ExtractionPlan.local_group": ("paper", "§5.3 local group"),
    "repro.core.evaluate:HitRates.as_percent": ("paper", "Fig. 14's percent split"),
    "repro.hardware.platform:Platform.cache_capacity_entries": (
        "paper", "§8.1 cache-ratio rule"),
    "repro.hardware.platform:Platform.max_cache_ratio": ("paper", "§8.1, its bound"),
    "repro.cluster.node:CacheNode.restage_all": ("fault", "burst refill after a death"),
    "repro.serve.policy_manager:PolicyManager._rollback": ("fault", "swap rollback"),
    "repro.repair.scrub:CacheScrubber.drain": ("fault", "repair every quarantine"),
    "repro.core.solver:_cached_compatible": ("fault", "fallback chain's last-good check"),
    "repro.serve.queueing:BoundedRequestQueue._pump_blocked": (
        "fault", "backpressure: producers parked behind a full queue (no CLI flag fills it)"),
    "repro.faults.degrade:DegradedPlatform.sources_for": ("fault", "degraded-mode view"),
    "repro.core.location_table:CorruptEntryError": ("fault", "corrupt-slot error"),
    "repro.core.location_table:LocationTable._checked_location": (
        "fault", "raises it on a scalar read"),
    "repro.core.location_table:LocationTable.corrupt_slot": ("fault", "injection hook"),
    "repro.core.location_table:LocationTable._rebuild": (
        "fault", "growth when a table was sized too small"),
    "repro.core.location_table:LocationTable.get": (
        "reference", "scalar probe the batch forms are tested against"),
    "repro.core.location_table:LocationTable.insert": ("reference", "as get"),
    "repro.core.location_table:pack_location": ("reference", "scalar slot packing"),
    "repro.core.filler:GpuCacheStore.read": ("reference", "scalar row read, as get"),
    "repro.core.policy:Placement.validate_capacity": (
        "reference", "capacity invariant tests hold every policy to"),
    "repro.core.solver:SolvedPolicy.access_volume_fractions": (
        "reference", "the LP's split, compared with the realized placement"),
    "repro.obs.metrics:MetricsRegistry.value": (
        "reference", "how tests read production counters"),
    "repro.obs.metrics:MetricsRegistry.reset": ("reference", "and isolate them"),
    "repro.core.pipeline:price_node_read": ("tracing", "wrapped, pinned UNREACHED"),
    "repro.core.pipeline:host_fallback_demand": ("tracing", "wrapped, pinned UNREACHED"),
    "repro.sim.event_sim:simulate_hedged_extraction": (
        "tracing", "wrapped, pinned UNREACHED"),
    "repro.core.drift_adapt:StreamingHotnessEstimator": (
        "protocol", "locked overrides of the HotnessTracker interface"),
}

PY = sys.executable
REPRO = [PY, "-m", "repro"]
QUICK = REPRO + ["soak", "--quick", "--seed", "0", "--scenario"]
CLUSTER = ["--nodes", "3", "--replication", "2"]
DRIFT = ["steady", "--adapt", "--drift"]


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
        REPRO + ["chaos", "--list-scenarios"],
        REPRO + ["chaos", "--scenario", "all", "--quick", "--seed", "0",
                 "--json-out", art("chaos.json"), "--metrics-out", art("chaos-m.json")],
        QUICK + ["dgx_a100_partial_failure", "--json-out", art("soak.json"),
                 "--metrics-out", art("soak-m.json")],
        QUICK + ["steady", "--lookahead", "4", "--compare-lookahead"],
        QUICK + ["steady", "--batching", "coalesce", "--load", "2.0"],
        QUICK + ["steady", "--queue-policy", "block", "--load", "2.0"],
        QUICK + ["corrupt-slot-storm", "--closed-loop", "--queue-policy", "shed-oldest"],
        QUICK + ["host-stall"],
        QUICK + ["node-kill", *CLUSTER],
        QUICK + ["node-flap", *CLUSTER, "--placement", "solver"],
        QUICK + ["node-partition", *CLUSTER, "--closed-loop"],
        QUICK + ["node-slow", *CLUSTER],
        QUICK + ["node-kill-bit-rot", *CLUSTER, "--repair", "--compare-restage"],
        QUICK + ["hps-multitenant", "--tiers", "dram:100KB,ssd:1GB"],
        QUICK + [*DRIFT, "rotating-head", "--compare-adapt"],
        QUICK + [*DRIFT, "table-shift"],
        QUICK + [*DRIFT, "flash-crowd"],
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
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__")
        text = path.read_text()
        sizes[module] = len(text.splitlines())
        walk(ast.parse(text), module, path, "", None)
    return defs, classes, sizes


def audit(parsed, reached: set, keep: dict) -> tuple[list[str], list[str]]:
    """The ledger's lines and the gate's failures (``parsed``: :func:`functions`)."""
    defs, classes, sizes = parsed
    names = classes | {f"{m}:{q}" for m, q, *_ in defs}
    errors = [f"keep-list entry {name!r} names nothing under src/"
              for name in keep if name not in names]
    errors += [f"keep-list entry {name!r}: unknown reason {reason!r}"
               for name, (reason, _) in keep.items() if reason not in REASONS]
    unreached = {(f, first) for _, _, f, first, _, _ in defs} - reached
    rows = {module: [lines, 0, 0] for module, lines in sizes.items()}
    short = []
    for module, qual, path, first, lines, outer in defs:
        if (path, first) not in unreached or outer in unreached:
            continue  # reached, or already counted inside an unreached def
        full = f"{module}:{qual}"
        rows[module][1] += lines
        if any(full == k or full.startswith(k + ".") for k in keep):
            rows[module][2] += lines
        elif lines >= GATE_LINES:
            errors.append(f"unreached, {lines} lines, not on the keep-list: {full}")
        else:
            short.append(full)
    out = [f"{'module':40s} {'lines':>7s} {'unreached':>9s} {'kept':>6s}"]
    out += [f"{module:40s} {lines:7d} {dead:9d} {on_list:6d}"
            for module, (lines, dead, on_list) in rows.items() if dead]
    total = [sum(r[i] for r in rows.values()) for i in range(3)]
    out += [f"{'TOTAL (' + str(len(rows)) + ' modules)':40s} "
            f"{total[0]:7d} {total[1]:9d} {total[2]:6d}", "",
            f"{len(short)} unreached functions under {GATE_LINES} lines "
            "(printed, not gated):", *(f"  {name}" for name in short)]
    return out, errors


def run(root: Path, keep: dict, commands=None, figures: bool = True) -> int:
    """Collect over ``commands`` (default: the entry-point set), audit,
    print the ledger and return the exit code."""
    ledger = root / "tools" / "reachability.ledger"
    marker = "reached by the figure drivers only:"
    parsed = functions(root / "src")
    names = {(f, first): f"{m}:{q}" for m, q, f, first, *_ in parsed[0]}
    with tempfile.TemporaryDirectory() as tmp:
        figure_commands = []
        if commands is None:
            commands, figure_commands = entry_points(root, Path(tmp))
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
    return run(args.root.resolve(), KEEP, figures=not args.skip_figures)


if __name__ == "__main__":
    raise SystemExit(main())
