"""The paper's headline claims as a trajectory, gated against BENCH_paper.json.

    python -m pytest benchmarks/bench_figures.py --results-out results.json
    python tools/paper_claims.py results.json                  # gate
    python tools/paper_claims.py results.json --record NAME    # store as NAME

The benches assert every claim of the figure table
(``repro.bench.report.SPECS``).  This tool keeps the headline numbers a
solver or pricing change could bend — fig-16's per-row gaps to the
per-entry optimum, the fig-10/11 geomean speed-ups, the fig-12
``UGache_ms`` cells and the fig-13 utilisation ratios, each the entry's
own ``headline`` — adds the policy LP's size and HiGHS time per platform,
and fails when a number is worse than the ``parent`` block of
``BENCH_paper.json`` by more than BOUNDS.  Solve and figure seconds are
wall clock and only recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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


#: The experiments whose headline numbers are gated.
GATED = ("fig10", "fig11", "fig12", "fig13", "fig16")


def summarize(results: dict) -> dict:
    from repro.bench.report import SPECS

    out = {spec.exp_id: spec.headline(results[spec.exp_id]["rows"])
           for spec in SPECS if spec.exp_id in GATED}
    out["figure_s"] = {k: round(v["seconds"], 1) for k, v in results.items()
                       if "seconds" in v}
    out["solver"] = solver_probe()
    return out


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
