"""The two-clock end-to-end benchmark (see README.md in this directory).

    python benchmarks/e2e/run.py                       # all five workloads
    python benchmarks/e2e/run.py --trace               # ... plus the per-layer ledger
    python benchmarks/e2e/run.py --check-agreement     # two sets must agree
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form measures one workload in this process and prints, as its
last line, one JSON object ``{correct, attempted, failed, metrics}`` whose
metrics are BENCHMARK.json's ``end_to_end`` (``--trace 0``) or
``per_layer`` (``--trace 1``) entries.  The other forms run that form once
per workload, each in a fresh child process.  Any failed output check
makes the exit code non-zero.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time is counted from here

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the product, from source

# Siblings of this script; drivers and tracing import the product and are
# imported where they are used.
import measure  # noqa: E402
import workloads  # noqa: E402

WALL_METRICS = ("setup_s", "wall_keys_per_s", "wall_requests_per_s")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
#: Printed beside the wall metrics so a disturbed box can be told from a regression.
HOST_METRICS = {"host.noise_ratio": "ratio", "host.reference_us": "us", "host.calibration_ms": "ms"}


def catalogue() -> dict:
    """BENCHMARK.json is the one list of metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def replay(driver, rec, expected):
    """One measured pass; it must reproduce the warm-up pass's simulated
    results and counts exactly."""
    driver.new_pass()
    result = driver.run_pass(rec, check=False)
    rec.stop()
    if result.signature() != expected.signature():
        driver.fail("a measured pass's simulated results differ from the warm-up pass")
    return rec


def pass_arrays(recorders):
    """``(passes, blocks)`` block times and each pass's mean reference sample."""
    return (np.array([r.durations for r in recorders]),
            np.array([statistics.fmean(r.references) for r in recorders]))


def pass_reference_seconds(recorders) -> float:
    """What one pass of the trace costs, in reference seconds."""
    blocks, references = pass_arrays(recorders)
    return measure.reference_seconds(blocks.sum(axis=1), references)


def count_python_calls(driver) -> int:
    """Python-level function calls of one untimed pass (an exact-repeat
    cost proxy: it moves only when the code path does)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    driver.new_pass()
    rec = measure.Recorder(lambda: 0.0)  # the reference kernel is not product code
    sys.setprofile(profiler)
    try:
        driver.run_pass(rec, check=False)
    finally:
        sys.setprofile(None)
    return calls


def traced_ledger(driver, expected, kinds, seconds: float, reference, smoke: bool):
    """The per-layer numbers of one workload, and the untraced passes
    measured between the traced ones (so both see the same host)."""
    import drivers
    import tracing

    tracer = tracing.Tracer()
    plain, traced, layer_seconds, layer_calls, fired = [], [], [], [], set()

    # The traced warm-up pass repeats every output check under the wrappers.
    with tracer:
        driver.new_pass()
        rec = tracing.TracedRecorder(reference, tracer)
        checked = driver.run_pass(rec, check=True)
        rec.stop()
    if checked.signature() != expected.signature():
        driver.fail("traced check pass: simulated results differ from the untraced pass")
    fired.update(tracer.fired(tracer.take_pass()))

    stop_at = time.perf_counter() + seconds
    while len(traced) < 3 or time.perf_counter() < stop_at:
        plain.append(replay(driver, measure.Recorder(reference), expected))
        with tracer:
            traced.append(replay(driver, tracing.TracedRecorder(reference, tracer), expected))
        spans = tracer.take_pass()
        seconds_, calls = tracer.layer_matrix(spans, len(kinds))
        layer_seconds.append(seconds_.sum(axis=0))
        layer_calls.append(calls.sum(axis=0))
        fired.update(tracer.fired(spans))
    if any((c != layer_calls[0]).any() for c in layer_calls):
        driver.fail("per-layer call counts differ between traced passes")

    blocks, references = pass_arrays(traced)
    in_ref_s = lambda per_pass: measure.reference_seconds(np.asarray(per_pass), references)
    layer_seconds = np.array(layer_seconds)
    traced_s = in_ref_s(blocks.sum(axis=1))
    ledger: dict[str, float] = {}
    for i, layer in enumerate(tracing.LAYERS):
        ledger[f"{layer}.self_s"] = in_ref_s(layer_seconds[:, i])
        ledger[f"{layer}.calls"] = int(layer_calls[0][i])
    attributed = [i for i, layer in enumerate(tracing.LAYERS) if layer != tracing.DRIVER_LAYER]
    steps = blocks[:, kinds == drivers.STEP]
    refresh = blocks[:, np.isin(kinds, (drivers.SOLVE, drivers.REALIZE, drivers.STEP))]
    ledger.update(expected.counts)
    ledger.update({
        "core.refresher.step_s_p50": in_ref_s(np.median(steps, axis=1)) if steps.size else 0.0,
        # one full refresh (solve + realize + steps), mean of the A->B and B->A halves
        "core.refresher.wall_refresh_s": in_ref_s(refresh.sum(axis=1)) / 2,
        "core.solver.solve_s": float(np.mean([s.solve_seconds for s in driver.solves] or [0.0])),
        "core.solver.blocks": driver.solves[-1].blocks.num_blocks if driver.solves else 0,
        "core.solver.est_time_s": driver.solves[-1].est_time if driver.solves else 0.0,
        "core.cache.fill_s": driver.setup_seconds.get("fill", 0.0),
        "py.calls_per_op": count_python_calls(driver) / expected.requests,
        "trace.overhead_ratio": traced_s / pass_reference_seconds(plain),
        "trace.unattributed_share": 1.0 - in_ref_s(layer_seconds[:, attributed].sum(axis=1)) / traced_s,
        "trace.missing_targets": len(tracer.missing),
    })

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(spans, len(traced), out / driver.name)
    (out / f"{driver.name}.fired.json").write_text(json.dumps(sorted(fired)))

    repeats = 1 if smoke else 3
    ledger["import.repro_s"] = measure.fresh_import_seconds(
        "import repro.serve, repro.cluster", repeats
    )
    ledger["import.scipy_s"] = measure.fresh_import_seconds("import scipy.optimize", repeats)
    ledger["serve.soak.quick_closed_wall_s"] = soak_quick_seconds(1 if smoke else 5)
    return ledger, plain


def soak_quick_seconds(repeats: int) -> float:
    """The only place the soak harness itself is timed (ROADMAP item 3)."""
    from repro.serve.soak import SoakConfig, run_soak

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_soak(SoakConfig.quick(scenario="steady", closed_loop=True))
        best = min(best, time.perf_counter() - t0)
    return best


def run_workload(args) -> int:
    t0 = time.perf_counter()
    inputs = workloads.generate(args.workload, args.seed, smoke=args.smoke)
    generate_s = time.perf_counter() - t0

    import drivers  # imports the product: part of set-up

    driver = drivers.DRIVERS[args.workload](inputs)
    driver.setup()
    setup_samples = [time.perf_counter() - T0 - generate_s]
    if args.setup_only:
        print(repr(setup_samples[0]))
        return 0
    if args.corrupt_row:
        driver.corrupt_hottest_row()

    cat = catalogue()
    seconds = 0.2 if args.smoke else args.seconds
    reference = measure.ReferenceKernel()
    recorder = lambda: measure.Recorder(reference)

    # Warm-up pass: discarded for timing, and the pass every output check runs on.
    driver.new_pass()
    rec = recorder()
    expected = driver.run_pass(rec, check=True)
    kinds = np.array(rec.kinds)

    measure.quiesce()
    if args.trace:
        ledger, plain = traced_ledger(driver, expected, kinds, seconds, reference, args.smoke)
    else:
        plain = []
        stop_at = time.perf_counter() + seconds
        while len(plain) < 3 or time.perf_counter() < stop_at:
            plain.append(replay(driver, recorder(), expected))
        # Two more fresh processes: setup_s is the median of three.
        for _ in range(0 if args.smoke else 2):
            setup_samples.append(measure.fresh_setup_seconds(args.workload, args.seed, args.smoke))
    driver.finish()

    blocks, references = pass_arrays(plain)
    wall_s = pass_reference_seconds(plain)
    undisturbed_s = measure.undisturbed(blocks)
    median_s = float(np.median(blocks.sum(axis=1)))
    ok = expected.requests - expected.failed - expected.refused
    latencies = expected.latencies
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "wall_keys_per_s": expected.keys_ok / wall_s,
        "wall_requests_per_s": expected.requests / wall_s,
        "sim_goodput_rps": ok / expected.sim_span,
        "sim_latency_s_p50": float(np.percentile(latencies, 50)),
        "sim_latency_s_p95": float(np.percentile(latencies, 95)),
        "host_key_share": driver.host_key_share,
    }
    info = {
        "host.median_pass_s": median_s,
        "host.undisturbed_s": undisturbed_s,
        "host.noise_ratio": median_s / undisturbed_s,
        "host.reference_us": 1e6 * float(np.median(references)),  # of the passes' means
        "host.calibration_ms": measure.calibration_ms(),
    }

    print(f"== {driver.name} ({driver.loop}) seed {args.seed}"
          f"{' smoke' if args.smoke else ''}: {blocks.shape[0]} passes x "
          f"{blocks.shape[1]} blocks, median block "
          f"{1e3 * float(np.median(blocks)):.2f} ms")
    if driver.open_loop:
        print(f"   {workloads.LATENESS_NOTE}")
    print(f"   ops: {expected.requests} attempted, {ok} ok, {expected.refused} refused "
          f"(shed/rejected/expired), {expected.failed + driver.wrong_ops} failed; "
          f"latency samples {len(latencies)}; set-up samples {len(setup_samples)}")
    print(f"   one pass: {wall_s:.4f} reference s; raw median {median_s:.4f} s, "
          f"undisturbed {undisturbed_s:.4f} s (information only)")
    print_metrics("end-to-end", cat["end_to_end"], end_to_end)
    if args.trace:
        ledger.update({k: info[k] for k in HOST_METRICS})
        # A metric that does not apply to this workload reads 0.
        per_layer = {m["name"]: ledger.pop(m["name"], 0) for m in cat["per_layer"]}
        if ledger:
            driver.fail(f"metrics not in BENCHMARK.json: {sorted(ledger)}")
        print("   *.self_s are reference seconds of one traced pass; *_bytes are computed")
        print("   from demand volumes, not measured on hardware")
        print_metrics("per-layer", cat["per_layer"], per_layer)
        print(f"   spans: {HERE / 'out' / driver.name}.trace.json, .spans.jsonl")
    else:
        print_metrics("information", [
            {"name": name, "unit": unit} for name, unit in HOST_METRICS.items()
        ], info)

    for problem in driver.problems:
        print(f"CHECK FAILED {problem}")
    signature = hashlib.sha256(repr(expected.signature()).encode()).hexdigest()[:16]
    print("INFO " + json.dumps({**info, "signature": signature, "passes": int(blocks.shape[0])}))
    metrics, listed = (per_layer, cat["per_layer"]) if args.trace else (end_to_end, cat["end_to_end"])
    print(json.dumps({
        "correct": not driver.problems,
        "attempted": expected.requests,
        "failed": expected.failed + driver.wrong_ops,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 1 if driver.problems else 0


def print_metrics(title: str, listed: list[dict], values: dict) -> None:
    print(f"   {title}:")
    for m in listed:
        value = values[m["name"]]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        bound = f"  ({m['better']} is better, bound {m['bound']})" if "bound" in m else ""
        print(f"     {m['name']:<42} {shown:>14} {m['unit']}{bound}")


# ----------------------------------------------------------------------
# All workloads, one fresh process each
# ----------------------------------------------------------------------
def run_child_workload(name: str, seed: int, args, trace: int) -> tuple[dict, dict] | None:
    """Run one workload in a fresh process; echo its report; parse its
    INFO line and result line.  None if it failed."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("INFO "):
        print(f"FAILED {name} (exit {done.returncode})")
        return None
    result = json.loads(lines[-1])
    if tuple(result) != RESULT_KEYS or not result["correct"]:
        return None
    return json.loads(lines[-2][5:]), result


def run_set(names: list[str], args, record: dict | None = None) -> dict | None:
    """One run of every workload; {workload: (info, result)} or None."""
    results = {}
    for name in names:
        for trace in ((0, 1) if args.trace else (0,)):
            outcome = run_child_workload(name, args.seed, args, trace)
            if outcome is None:
                return None
            if trace == 0:
                results[name] = outcome
            if record is not None:
                kind = "per_layer" if trace else "end_to_end"
                record.setdefault(name, {})[kind] = outcome[1]
    return results


def run_spread(names: list[str], args, cat: dict, record: dict) -> int:
    """``--spread N``: N seeds per workload; the quartile spread of every
    end-to-end metric as a share of its median (the driver's rule)."""
    seeds = range(args.seed, args.seed + args.spread)
    status = 0
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in cat["end_to_end"]}
        raw: dict[str, list[float]] = {"host.median_pass_s": [], "host.undisturbed_s": []}
        for seed in seeds:
            outcome = run_child_workload(name, seed, args, 0)
            if outcome is None:
                return 1
            for metric, entry in outcome[1]["metrics"].items():
                values[metric].append(entry["value"])
            for key in raw:
                raw[key].append(outcome[0][key])
        print(f"== spread of {name} over seeds {seeds.start}..{seeds.stop - 1}")
        for key, seconds in raw.items():
            print(f"     {key:<22} median {statistics.median(seconds):>12.6g} {'s':<11}"
                  f" spread {measure.quartile_spread(seconds):.4f}  (raw seconds, information)")
        for m in cat["end_to_end"]:
            median = statistics.median(values[m["name"]])
            spread = measure.quartile_spread(values[m["name"]])
            verdict = "" if spread <= m["bound"] else "  ABOVE ITS BOUND"
            if verdict and m["name"] != "setup_s":
                status = 1
            print(f"     {m['name']:<22} median {median:>12.6g} {m['unit']:<11}"
                  f" spread {spread:.4f}  bound {m['bound']}{verdict}")
            record.setdefault(name, {}).setdefault("spread", {})[m["name"]] = {
                "median": median, "spread": spread, "seeds": list(seeds),
            }
    return status


def agreement_problems(first: dict, second: dict, bounds: dict) -> list[str]:
    """Wall metrics within their bounds; simulated metrics and counts equal."""
    problems = []
    for name in first:
        (info_a, a), (info_b, b) = first[name], second[name]
        print(f"   {name}: noise {info_a['host.noise_ratio']:.3f} / "
              f"{info_b['host.noise_ratio']:.3f}, reference "
              f"{info_a['host.reference_us']:.0f} / {info_b['host.reference_us']:.0f} us, calibration "
              f"{info_a['host.calibration_ms']:.2f} / {info_b['host.calibration_ms']:.2f} ms")
        if info_a["signature"] != info_b["signature"]:
            problems.append(f"{name}: simulated results or counts differ between the sets")
        for metric, bound in bounds.items():
            va, vb = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
            if metric in WALL_METRICS:
                if abs(va - vb) > bound * min(va, vb):
                    problems.append(f"{name}: {metric} {va:.6g} vs {vb:.6g} differ by more than {bound}")
            elif va != vb:
                problems.append(f"{name}: {metric} {va!r} != {vb!r} (must repeat exactly)")
    return problems


def run_all(args) -> int:
    cat = catalogue()
    known = [w["name"] for w in cat["workloads"]]
    names = args.workloads.split(",") if args.workloads else known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"unknown workloads {unknown}; choose from {known}")
        return 2
    record: dict = {}
    if args.spread:
        status = run_spread(names, args, cat, record)
    else:
        status = run_checked_sets(names, args, cat, record)
    if args.json_out:
        # Merged into the file, so a --trace run and a --spread run can share one.
        path = Path(args.json_out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        for name, entry in record.items():
            merged.setdefault(name, {}).update(entry)
        path.write_text(json.dumps(merged, indent=1) + "\n")
    return status


def run_checked_sets(names: list[str], args, cat: dict, record: dict) -> int:
    first = run_set(names, args, record)
    if first is None:
        return 1
    if args.check_agreement:
        second = run_set(names, args)
        if second is None:
            return 1
        print("== agreement of the two sets")
        problems = agreement_problems(
            first, second, {m["name"]: m["bound"] for m in cat["end_to_end"]}
        )
        for problem in problems:
            print(f"DISAGREE {problem}")
        if problems:
            return 1
        print("   the two sets agree within every bound")
    print(f"== all {len(names)} workloads passed their output checks")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", help="measure this one workload in this process")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long one run measures")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="also (or, with --workload, instead) produce the per-layer ledger")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-check")
    parser.add_argument("--check-agreement", action="store_true",
                        help="run the set twice and fail if the two disagree")
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="run N seeds per workload and print every metric's quartile spread")
    parser.add_argument("--json-out", metavar="PATH",
                        help="also merge the result lines (or spreads) into the JSON file PATH")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-row", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.spread == 1:
        parser.error("--spread needs at least 2 seeds")
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
