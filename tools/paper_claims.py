"""The paper's headline claims as a trajectory, gated against BENCH_paper.json.

    python -m pytest benchmarks/bench_fig04_mechanism_motivation.py \\
        benchmarks/bench_fig10_end_to_end.py benchmarks/bench_fig11_extraction_time.py \\
        benchmarks/bench_fig12_breakdown.py benchmarks/bench_fig13_link_utilization.py \\
        benchmarks/bench_fig16_vs_optimal.py --results-out results.json
    python tools/paper_claims.py results.json                  # gate
    python tools/paper_claims.py results.json --record NAME    # store as NAME

The benches assert the claims themselves (UGache beats every baseline,
fig-16's mean gap < 5 %, ...).  This tool summarizes their rows into the
numbers a solver or pricing change could bend — fig-16's per-row gaps to
the per-entry optimum, the fig-10/11 geomean speed-ups, the fig-12
``UGache_ms`` cells and the fig-13 utilisation ratios — adds the policy
LP's size and HiGHS time per platform, and fails when a number is worse
than the ``parent`` block of ``BENCH_paper.json`` by more than BOUNDS.
Solve and figure seconds are wall clock and only recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

LEDGER = Path(__file__).resolve().parent.parent / "BENCH_paper.json"

#: How much worse than the parent a number may get: fig-16 gaps in
#: percentage points, the rest relative.
BOUNDS = {"fig16_gap_pt": 0.5, "geomean_rel": 0.01, "fig12_rel": 0.02,
          "fig13_rel": 0.01}

#: The instance whose LP size is recorded per platform: the fig-10 GNN cell
#: (PA, supervised SAGE) under the figures' solver knobs.
SOLVER_PLATFORMS = ("server-a", "server-b", "server-c", "dgx2")


def solver_probe() -> dict:
    from repro.bench.contexts import gnn_cell, platform_by_name
    from repro.bench.experiments import BENCH_SOLVER
    from repro.core.solver import solve_policy

    out = {}
    for name in SOLVER_PLATFORMS:
        ctx = gnn_cell(platform_by_name(name), "pa", "sage-sup").context
        solved = solve_policy(ctx.platform, ctx.hotness, ctx.capacity_entries,
                              ctx.entry_bytes, BENCH_SOLVER)
        out[name] = {"blocks": solved.blocks.num_blocks,
                     "variables": solved.num_variables,
                     "constraints": solved.num_constraints,
                     "solve_s": round(solved.solve_seconds, 4)}
    return out


def geomean(rows: list[dict], base: str) -> float:
    ratios = [r[base] / r["UGache"] for r in rows
              if r.get(base) is not None and r.get("UGache")]
    return float(np.exp(np.mean(np.log(ratios))))


def summarize(results: dict) -> dict:
    fig16 = {f"{r['platform']} {r['workload']}": r["gap_pct"]
             for r in results["fig16"]["rows"]}
    fig13 = results["fig13"]["rows"]
    return {
        "fig16": {"mean_gap_pct": float(np.mean(list(fig16.values()))),
                  "gap_pct": fig16},
        "fig10": {b: geomean(results["fig10"]["rows"], b)
                  for b in ("GNNLab", "PartU", "HPS", "SOK")},
        "fig11": {b: geomean(results["fig11"]["rows"], b)
                  for b in ("GNNLab", "WholeGraph", "RepU", "PartU")},
        "fig12": {f"{r['dataset']} {r['cache_ratio_pct']:g}%": r["UGache_ms"]
                  for r in results["fig12"]["rows"]},
        # Mean FEM / naive utilisation over the cells whose link carries
        # traffic (a placement that reads no peer has no NVLink ratio).
        "fig13": {
            link: float(np.mean([r[f"{link}_w_fem_pct"] / r[f"{link}_wo_fem_pct"]
                                 for r in fig13 if r[f"{link}_wo_fem_pct"] > 0]))
            for link in ("pcie", "nvlink")
        },
        "figure_s": {k: round(v["seconds"], 1) for k, v in results.items()
                     if "seconds" in v},
        "solver": solver_probe(),
    }


def check(now: dict, parent: dict) -> list[str]:
    """Every way ``now`` is worse than ``parent`` beyond BOUNDS."""
    bad = []
    for key, gap in parent["fig16"]["gap_pct"].items():
        if now["fig16"]["gap_pct"][key] > gap + BOUNDS["fig16_gap_pt"]:
            bad.append(f"fig16 {key}: gap {now['fig16']['gap_pct'][key]:.3f} "
                       f"vs {gap:.3f} %")
    for fig in ("fig10", "fig11"):
        for base, value in parent[fig].items():
            if now[fig][base] < value * (1 - BOUNDS["geomean_rel"]):
                bad.append(f"{fig} vs {base}: {now[fig][base]:.4f}x vs {value:.4f}x")
    for cell, ms in parent["fig12"].items():
        if now["fig12"][cell] > ms * (1 + BOUNDS["fig12_rel"]):
            bad.append(f"fig12 {cell}: {now['fig12'][cell]:.5f} vs {ms:.5f} ms")
    for link, ratio in parent["fig13"].items():
        if now["fig13"][link] < ratio * (1 - BOUNDS["fig13_rel"]):
            bad.append(f"fig13 {link}: {now['fig13'][link]:.3f}x vs {ratio:.3f}x")
    for name, probe in parent["solver"].items():
        if now["solver"][name]["variables"] > probe["variables"]:
            bad.append(f"solver {name}: {now['solver'][name]['variables']} "
                       f"variables vs {probe['variables']}")
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="the benches' --results-out JSON")
    parser.add_argument("--record", metavar="NAME",
                        help="store the summary in BENCH_paper.json as NAME")
    args = parser.parse_args(argv)
    now = summarize(json.loads(Path(args.results).read_text()))
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    if args.record:
        ledger[args.record] = now
        LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(json.dumps(now, indent=1, sort_keys=True))
    bad = check(now, ledger["parent"]) if "parent" in ledger else []
    for line in bad:
        print("WORSE THAN PARENT:", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
