"""Command-line interface: ``python -m repro <command>``.

Sub-commands:

* ``platforms`` — describe the modelled testbeds (topology, bandwidths,
  tolerances);
* ``solve`` — run the cache-policy solver on a synthetic Zipf workload and
  print the placement summary and Figure-8 Gantt chart;
* ``experiment`` — run one of the paper's table/figure drivers by id
  (``fig2``, ``fig10``, ``table1``, …) and print its rows;
* ``list-experiments`` — enumerate available experiment ids;
* ``metrics`` — summarize a metrics artifact written by ``--metrics-out``.

``solve`` and ``experiment`` accept ``--metrics-out PATH`` to capture the
run's instrumentation (cache hit splits, per-GPU extraction timings,
solver build/solve times) into a JSON artifact.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import render_table, run_with_metrics
from repro.bench.report import SPECS, ExperimentSpec

#: Experiment id → spec, derived from the one list in ``bench/report``.
EXPERIMENTS: dict[str, ExperimentSpec] = {spec.exp_id: spec for spec in SPECS}

#: ``solve``'s workload beyond its flags: bytes per embedding entry and
#: expected keys per batch per GPU.
SOLVE_ENTRY_BYTES = 512
SOLVE_BATCH_KEYS = 100_000


def _bad_workload(args: argparse.Namespace) -> int | None:
    """Exit code 2, with one line on stderr, when a Zipf workload's flags
    (``--entries``, ``--alpha``, and ``solve``'s ratios) are out of range."""
    problems = [
        ("--entries must be at least 1", args.entries < 1),
        ("--alpha must be non-negative", args.alpha < 0),
        ("--cache-ratio must be in [0, 1]",
         not 0 <= getattr(args, "cache_ratio", 0) <= 1),
        ("--coarse-frac must be in (0, 1]",
         not 0 < getattr(args, "coarse_frac", 1) <= 1),
    ]
    for message, bad in problems:
        if bad:
            print(f"bad {args.command} workload: {message}", file=sys.stderr)
            return 2
    return None


def _cmd_platforms(args: argparse.Namespace) -> int:
    from repro.hardware import PRESETS, tolerance_curves

    for name, factory in PRESETS.items():
        platform = factory()
        print(f"{name}: {platform.num_gpus}x {platform.gpu.name} "
              f"({platform.topology.kind.value}), "
              f"PCIe {platform.pcie_bandwidth / 1e9:.0f} GB/s")
        for curve in tolerance_curves(platform):
            print(f"  {curve.source_label:22s} "
                  f"{curve.plateau_bandwidth / 1e9:6.1f} GB/s "
                  f"@ {curve.saturation_cores}/{platform.gpu.num_cores} SMs")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.bench.contexts import platform_by_name
    from repro.core.evaluate import evaluate_placement, expected_demands, hit_rates
    from repro.core.solver import SolverConfig, solve_policy
    from repro.obs import MetricsRegistry, use_registry, write_json
    from repro.sim.trace import trace_factored
    from repro.utils.stats import zipf_pmf

    if (code := _bad_workload(args)) is not None:
        return code
    registry = MetricsRegistry("solve")
    with use_registry(registry):
        platform = platform_by_name(args.platform)
        hotness = zipf_pmf(args.entries, args.alpha) * SOLVE_BATCH_KEYS
        capacity = int(args.cache_ratio * args.entries)
        solved = solve_policy(
            platform,
            hotness,
            capacity,
            SOLVE_ENTRY_BYTES,
            SolverConfig(coarse_block_frac=args.coarse_frac),
        )
        placement = solved.realize()
        hits = hit_rates(platform, placement, hotness)
        report = evaluate_placement(platform, placement, hotness, SOLVE_ENTRY_BYTES)
        demand = expected_demands(platform, placement, hotness, SOLVE_ENTRY_BYTES)[0]
    print(f"solved in {solved.solve_seconds:.2f}s: "
          f"{solved.blocks.num_blocks} blocks, "
          f"{solved.num_variables} variables")
    print(f"estimated extraction time: {solved.est_time * 1e3:.4f} ms/iteration")
    print(f"realized placement extraction time: {report.time * 1e3:.4f} ms/iteration")
    print(f"replication factor: {placement.replication_factor():.2f}; "
          f"hit rates: local {hits.local:.1%} / remote {hits.remote:.1%} / "
          f"host {hits.host:.1%}")
    print()
    print(trace_factored(platform, demand).gantt())
    if args.metrics_out:
        path = write_json(registry, args.metrics_out)
        print(f"metrics written to {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = EXPERIMENTS.get(args.id)
    if spec is None:
        print(f"unknown experiment {args.id!r}; "
              f"try: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    result = run_with_metrics(spec.driver, metrics_out=args.metrics_out)
    print(render_table(result))
    print(f"measured: {spec.summarize(result)}")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for name in EXPERIMENTS:
        print(name)
    return 0


def _write_summary(path: str, doc: dict) -> None:
    """What every ``--json-out`` writes: one sorted, indented document."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"summary written to {path}")


def _cmd_soak(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.obs import MetricsRegistry, use_registry, write_json
    from repro.serve.coalesce import BatchingMode
    from repro.serve.soak import SoakConfig, render_soak_report, run_soak

    overrides = dict(
        scenario=args.scenario,
        load=args.load,
        closed_loop=args.closed_loop,
        clients=args.clients,
        batching=BatchingMode(args.batching),
        max_batch=args.max_batch,
        nodes=args.nodes,
        replication=args.replication,
        placement=args.placement,
        tiers=args.tiers,
        drift=args.drift,
        adapt=args.adapt,
        seed=args.seed,
    )
    if args.scenario == "hps-multitenant":
        overrides["tenants"] = 3
    if args.requests is not None:
        overrides["requests_per_gpu"] = args.requests
    try:
        cfg = (
            SoakConfig.quick(**overrides)
            if args.quick
            else SoakConfig(**overrides)
        )
        # A comparison whose arm cannot run must fail loudly, not print
        # nothing and exit 0: CI gates on it.
        if args.compare_adapt and not cfg.adapt:
            raise ValueError(
                "--compare-adapt reruns with adaptation off; it needs "
                "--drift and --adapt"
            )
    except ValueError as exc:
        print(f"bad soak configuration: {exc}", file=sys.stderr)
        return 2
    registry = MetricsRegistry("soak")
    with use_registry(registry):
        report = run_soak(cfg)
    print(render_soak_report(report))

    adapt_regressed = False
    if args.compare_adapt:
        # Adaptation off, everything else (trace included) held equal,
        # under its own registry: the transition-window goodput delta is
        # what the detector → incremental-re-solve → guarded-swap loop buys.
        with use_registry(MetricsRegistry("soak-baseline")):
            off = run_soak(replace(cfg, adapt=False)).drift
        on = report.drift
        print(
            f"  vs adapt off: transition-window goodput "
            f"{off.transition_goodput_ratio:.1%} -> "
            f"{on.transition_goodput_ratio:.1%} of steady "
            f"(ok rate {off.transition_ok_rate:.1%} -> "
            f"{on.transition_ok_rate:.1%} over "
            f"{on.transition_requests} requests)"
        )
        adapt_regressed = (
            on.transition_goodput_ratio < off.transition_goodput_ratio
        )
        if adapt_regressed:
            print(
                "  FAIL: adaptation did not beat the unadapted baseline "
                "inside the transition windows",
                file=sys.stderr,
            )
    if args.json_out:
        _write_summary(args.json_out, report.to_dict())
    if args.metrics_out:
        path = write_json(registry, args.metrics_out)
        print(f"metrics written to {path}")
    return 0 if report.ok and not adapt_regressed else 1


def _cmd_tiers(args: argparse.Namespace) -> int:
    """What-if across backing-tier budgets: where the table lands on each
    chain and what that does to goodput and tail latency.

    Runs the same steady quick soak once per spec (same seed, same
    trace), so the only thing that moves between rows is the chain.
    """
    from repro.obs import MetricsRegistry, use_registry
    from repro.serve.soak import SoakConfig, run_soak

    rows = []
    for spec in args.specs:
        overrides = dict(
            scenario="steady", tiers=spec, load=args.load, seed=args.seed
        )
        if args.entries is not None:
            overrides["num_entries"] = args.entries
        try:
            cfg = SoakConfig.quick(**overrides)
        except (TypeError, ValueError) as exc:
            print(f"bad tier spec {spec!r}: {exc}", file=sys.stderr)
            return 2
        with use_registry(MetricsRegistry("tiers")):
            report = run_soak(cfg)
        rows.append((spec, report))

    base = rows[0][1]
    print(
        f"tier budget what-if: steady soak, {base.requests} requests, "
        f"seed {args.seed} (p99 relative to the first chain)"
    )
    print(
        f"{'chain':36s} {'homed (backing)':30s} "
        f"{'goodput':>11s} {'p99':>11s} {'vs first':>9s}"
    )
    for spec, r in rows:
        homed = (
            ", ".join(f"{n} {s:.0%}" for n, s in r.tiers.tier_shares.items())
            if r.tiers is not None else f"{spec.split(':', 1)[0]} 100%"
        )
        rel = r.p99_latency / base.p99_latency if base.p99_latency else 1.0
        flag = "" if r.ok else "  FAIL"
        print(
            f"{spec:36s} {homed:30s} {r.goodput_rps:9.1f}/s "
            f"{r.p99_latency:11.3e} {rel:8.2f}x{flag}"
        )
    if args.json_out:
        doc = {
            "schema": "repro.tiers/v1",
            "seed": args.seed,
            "rows": [
                {"spec": spec, **r.to_dict()} for spec, r in rows
            ],
        }
        _write_summary(args.json_out, doc)
    return 0 if all(r.ok for _, r in rows) else 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.cluster.frontend import ClusterConfig, ClusterFrontend
    from repro.cluster.placement import analyze_node_loss
    from repro.utils.stats import zipf_pmf

    try:
        cfg = ClusterConfig(
            nodes=args.nodes,
            replication=args.replication,
            placement=args.placement,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"bad cluster shape: {exc}", file=sys.stderr)
        return 2
    if (code := _bad_workload(args)) is not None:
        return code
    pmf = zipf_pmf(args.entries, args.alpha)
    hotness = pmf * args.entries  # scale-free: only ratios matter here
    placement = ClusterFrontend.build_placement(cfg, hotness)
    entries = np.arange(args.entries, dtype=np.int64)
    primary = placement.owners_for(entries)[:, 0]
    total_hot = float(hotness.sum())

    print(
        f"cluster placement: {cfg.placement}, {cfg.nodes} nodes, "
        f"replication {cfg.replication}, {args.entries} entries "
        f"(zipf alpha={args.alpha})"
    )
    print(f"{'node':>4s} {'key share':>9s} {'load share':>10s}")
    for node in range(cfg.nodes):
        mine = primary == node
        key_share = float(mine.sum()) / args.entries
        load_share = float(hotness[mine].sum()) / total_hot if total_hot else 0.0
        print(f"{node:4d} {key_share:8.1%} {load_share:9.1%}")

    impact = analyze_node_loss(placement, range(cfg.nodes), args.entries)
    print("\nwhat-if: losing one node")
    print(
        f"{'node':>4s} {'moved':>7s} {'replica-covered':>15s} "
        f"{'uncovered':>9s} {'survivor max share':>18s}"
    )
    for row in impact:
        print(
            f"{row['node']:4d} {row['moved_primaries']:7d} "
            f"{row['replica_covered']:14.1%} {row['uncovered_keys']:9d} "
            f"{row['post_loss_max_share']:17.1%}"
        )
    if args.json_out:
        doc = {
            "schema": "repro.cluster/v1",
            "nodes": cfg.nodes,
            "replication": cfg.replication,
            "placement": cfg.placement,
            "entries": args.entries,
            "node_loss": impact,
        }
        _write_summary(args.json_out, doc)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import load_metrics, summarize

    try:
        doc = load_metrics(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics artifact {args.path!r}: {exc}", file=sys.stderr)
        return 2
    print(summarize(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UGache (SOSP 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("platforms", help="describe the modelled testbeds")
    p.set_defaults(func=_cmd_platforms)

    p = sub.add_parser("solve", help="solve a cache policy for a Zipf workload")
    p.add_argument("--platform", default="server-c",
                   choices=["server-a", "server-b", "server-c"])
    p.add_argument("--entries", type=int, default=50_000)
    p.add_argument("--alpha", type=float, default=1.2,
                   help="Zipf skew of the access distribution")
    p.add_argument("--cache-ratio", type=float, default=0.08,
                   help="per-GPU capacity as a fraction of all entries")
    p.add_argument("--coarse-frac", type=float, default=0.01,
                   help="coarse blocking cap (paper: 0.005)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the run's metrics as a JSON artifact")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("experiment", help="run one paper table/figure driver")
    p.add_argument("id", help="experiment id, e.g. fig2, fig10, table1")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the run's metrics as a JSON artifact")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("list-experiments", help="list experiment ids")
    p.set_defaults(func=_cmd_list)

    from repro.serve.soak import SOAK_SCENARIOS as _SOAK_SCENARIOS

    p = sub.add_parser(
        "soak", help="sustained serving-load soak with faults and policy swaps"
    )
    p.add_argument("--scenario", default="dgx_a100_partial_failure",
                   choices=list(_SOAK_SCENARIOS),
                   help="node-* scenarios require --nodes > 1; "
                        "hps-multitenant runs the parameter-server shape "
                        "(tiered backing, multi-model trace)")
    p.add_argument("--tiers", default=None, metavar="SPEC",
                   help="backing-tier chain override, e.g. "
                        "'dram:8GB,ssd:1TB' (kind:capacity[:GB/s[:lat_us]] "
                        "per tier, tier 0 first)")
    p.add_argument("--nodes", type=int, default=1,
                   help="cache-server nodes; > 1 soaks the cluster tier")
    p.add_argument("--replication", type=int, default=1,
                   help="replicas per key across nodes (<= --nodes)")
    p.add_argument("--placement", default="ring",
                   choices=["ring", "solver"],
                   help="keyspace partitioning: consistent-hash ring or "
                        "solver-driven node placement")
    p.add_argument("--quick", action="store_true",
                   help="CI-sized soak (seconds of wall time)")
    p.add_argument("--requests", type=int, default=None, metavar="N",
                   help="requests per GPU (sets the run length)")
    p.add_argument("--load", type=float, default=0.8,
                   help="offered load per GPU as a fraction of capacity; "
                        ">1 is sustained overload")
    p.add_argument("--closed-loop", action="store_true",
                   help="closed-loop clients instead of open-loop Poisson")
    p.add_argument("--clients", type=int, default=4,
                   help="outstanding clients per GPU (closed loop)")
    p.add_argument("--batching", default="off",
                   choices=["off", "coalesce"],
                   help="cross-request coalescing of each GPU's queue "
                        "(off reproduces the un-batched path exactly)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="most requests fused into one extraction")
    p.add_argument("--drift", default=None,
                   choices=["rotating-head", "table-shift", "flash-crowd"],
                   help="hotness-drift scenario: the key distribution "
                        "changes mid-run on a piecewise schedule")
    p.add_argument("--adapt", action="store_true",
                   help="with --drift: online adaptation (streaming "
                        "hotness estimator, drift detector, incremental "
                        "warm-started re-solves through the guarded swap "
                        "path)")
    p.add_argument("--compare-adapt", action="store_true",
                   help="with --drift --adapt: also run the same drifting "
                        "trace with adaptation off and gate on the "
                        "transition-window goodput delta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="write the soak report as JSON")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the run's metrics as a JSON artifact")
    p.set_defaults(func=_cmd_soak)

    p = sub.add_parser(
        "tiers",
        help="what-if: placement, goodput, and p99 across backing-tier "
             "budgets",
    )
    p.add_argument("specs", nargs="*",
                   default=["dram:1MB", "dram:96KB,ssd:1GB",
                            "dram:32KB,ssd:1GB"],
                   help="tier chains to compare, e.g. 'dram:8GB,ssd:1TB' "
                        "(defaults sized for the quick soak's 192 KB table)")
    p.add_argument("--entries", type=int, default=None,
                   help="table entries (default: quick soak's 3000)")
    p.add_argument("--load", type=float, default=0.8,
                   help="offered load per GPU as a fraction of capacity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="write every chain's soak report as JSON")
    p.set_defaults(func=_cmd_tiers)

    p = sub.add_parser(
        "cluster",
        help="analyze a cluster placement: shares and node-loss what-ifs",
    )
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--replication", type=int, default=2)
    p.add_argument("--placement", default="ring",
                   choices=["ring", "solver"])
    p.add_argument("--entries", type=int, default=20_000)
    p.add_argument("--alpha", type=float, default=1.1,
                   help="Zipf skew of the hotness profile")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="write the analysis as JSON")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("metrics", help="summarize a metrics artifact")
    p.add_argument("path", help="artifact written by --metrics-out")
    p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
