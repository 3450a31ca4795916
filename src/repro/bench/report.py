"""EXPERIMENTS.md generation: paper claims vs measured results.

Runs every experiment driver, summarizes each against the paper's stated
claim, and writes the whole record as markdown.  Regenerate with::

    python -m repro.bench.report [output-path]

(kept out of the default benchmark run — it re-executes every driver and
takes ~10 minutes on one core).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bench import experiments as E
from repro.bench.harness import ExperimentResult, speedup_summary


@dataclass(frozen=True)
class ExperimentSpec:
    """One table/figure: its driver, the paper's claim, and a summarizer."""

    exp_id: str
    paper_claim: str
    driver: Callable[[], ExperimentResult]
    summarize: Callable[[ExperimentResult], str]
    deviations: str = ""


def _sum_table1(r: ExperimentResult) -> str:
    rows = {row["component"]: row for row in r.rows}
    plain = rows["EMT (no cache)"]["time_ms"]
    cached = rows["EMT (w/ cache)"]["time_ms"]
    mlp = rows["MLP (dense+sample)"]["time_ms"]
    return (
        f"EMT/MLP = {plain / mlp:.1f}x without cache, {cached / mlp:.1f}x with; "
        f"cache hits {rows['EMT (w/ cache)']['gmem_access_ratio_pct']:.1f}% in GPU memory"
    )


def _sum_fig2(r: ExperimentResult) -> str:
    at12 = next(row for row in r.rows if row["cache_ratio_pct"] == 12)
    return (
        f"at 12% ratio: replication local hit {at12['rep_local_hit_pct']:.1f}%, "
        f"partition local {at12['part_local_hit_pct']:.1f}% / global "
        f"{at12['part_global_hit_pct']:.1f}%; partition time plateaus at "
        f"{r.rows[-1]['part_time_ms']:.3f} ms while replication keeps improving"
    )


def _sum_fig4(r: ExperimentResult) -> str:
    peer_vs_msg = np.mean([row["message_ms"] / row["peer_ms"] for row in r.rows])
    ug_vs_peer = np.mean([row["peer_ms"] / row["ugache_ms"] for row in r.rows])
    return (
        f"peer beats message by {peer_vs_msg:.2f}x and UGache beats peer by "
        f"{ug_vs_peer:.2f}x on average across platforms/datasets"
    )


def _sum_fig6(r: ExperimentResult) -> str:
    cpu = next(row for row in r.rows if row["platform"] == "server-c" and row["source"] == "CPU")
    seven = next(
        row for row in r.rows if "7 concurrent" in str(row["source"])
    )
    return (
        f"host saturates at {cpu['saturation_cores']}/{cpu['total_cores']} SMs; "
        f"7 concurrent readers shrink a switch source to "
        f"{seven['plateau_gbps']:.0f} GB/s per reader"
    )


def _sum_fig10(r: ExperimentResult) -> str:
    parts = []
    for base in ("GNNLab", "PartU", "HPS", "SOK"):
        s = speedup_summary(r.rows, base, "UGache")
        parts.append(f"vs {base}: {s['geomean']:.2f}x (max {s['max']:.2f}x)")
    return "; ".join(parts)


def _sum_fig11(r: ExperimentResult) -> str:
    parts = []
    for base in ("GNNLab", "WholeGraph", "RepU", "PartU"):
        s = speedup_summary(r.rows, base, "UGache")
        if s["count"]:
            parts.append(f"vs {base}: {s['geomean']:.2f}x")
    return "extraction speedups — " + "; ".join(parts)


def _sum_fig12(r: ExperimentResult) -> str:
    pa = [row for row in r.rows if row["dataset"] == "pa"]
    low, high = pa[0], pa[-1]
    return (
        f"PA at {low['cache_ratio_pct']:.0f}%: mechanism contributes "
        f"{low['plus_policy_ms'] / low['UGache_ms']:.2f}x; at "
        f"{high['cache_ratio_pct']:.0f}%: policy contributes "
        f"{high['PartU_ms'] / high['plus_policy_ms']:.2f}x — policy dominates "
        f"at high ratios, as §8.3 reports"
    )


def _sum_fig13(r: ExperimentResult) -> str:
    pcie = np.mean([row["pcie_w_fem_pct"] / max(row["pcie_wo_fem_pct"], 1e-9) for row in r.rows])
    nv = np.mean([row["nvlink_w_fem_pct"] / row["nvlink_wo_fem_pct"] for row in r.rows
                  if row["nvlink_wo_fem_pct"] > 0])  # cells that read a peer
    return f"FEM improves PCIe utilization {pcie:.2f}x and NVLink {nv:.2f}x on average"


def _sum_fig14(r: ExperimentResult) -> str:
    def pick(ds, ratio, pol):
        return next(
            row for row in r.rows
            if row["dataset"] == ds and row["cache_ratio_pct"] == ratio
            and row["policy"] == pol
        )

    ug = pick("pa", 8.0, "UGache")
    part = pick("pa", 8.0, "PartU")
    return (
        f"PA at 8%: UGache local {ug['local_pct']:.1f}% vs partition "
        f"{part['local_pct']:.1f}%, while host stays at {ug['host_pct']:.1f}% "
        f"(paper: 86.7% vs 12.4%, global 99.1→98.1%)"
    )


def _sum_fig15(r: ExperimentResult) -> str:
    def pick(ratio, pol):
        return next(
            row for row in r.rows
            if row["dataset"] == "pa" and row["cache_ratio_pct"] == ratio
            and row["policy"] == pol
        )

    gain = pick(8.0, "PartU")["total_ms"] / pick(8.0, "UGache")["total_ms"]
    return f"PA at 8%: trading remote for local time wins {gain:.2f}x over partition (paper: 2.0x)"


def _sum_fig16(r: ExperimentResult) -> str:
    gaps = [row["gap_pct"] for row in r.rows]
    return f"mean gap to per-entry optimal: {np.mean(gaps):.2f}% (paper: 1.9%)"


def _sum_fig17(r: ExperimentResult) -> str:
    row = r.rows[0]
    return (
        f"refresh takes {row['duration_s']:.1f} s with {row['impact_pct']:.0f}% "
        f"foreground impact (paper: 28.69 s, <10%)"
    )


def _sum_table3(r: ExperimentResult) -> str:
    return f"{len(r.rows)} datasets generated at scales " + ", ".join(
        f"{row['dataset']}={row['scale']:.4%}" for row in r.rows
    )


def _sum_solver_scale(r: ExperimentResult) -> str:
    big = [row for row in r.rows if row["entries"] > 1000]
    return (
        f"blocking keeps {max(row['entries'] for row in big):,}-entry tables at "
        f"≤{max(row['blocks'] for row in big)} blocks, solved in "
        f"≤{max(row['solve_s'] for row in big):.2f} s"
    )


def _sum_padding(r: ExperimentResult) -> str:
    best = max(row["speedup"] for row in r.rows)
    return f"local padding speeds extraction up to {best:.2f}x"


def _sum_blocking(r: ExperimentResult) -> str:
    rows = {row["strategy"]: row for row in r.rows}
    paper = rows["log-scale coarse/fine (paper)"]
    return (
        f"paper blocking: {paper['blocks']} blocks, est {paper['est_ms']:.3f} ms — "
        f"matches 512 uniform blocks at far lower solve cost"
    )


def _sum_heuristic(r: ExperimentResult) -> str:
    worst = min(row["solver_advantage"] for row in r.rows)
    return f"one solve reaches >= {worst:.2f}x the grid-searched heuristic's best time"


def _sum_generalization(r: ExperimentResult) -> str:
    return "replication factor " + ", ".join(
        f"{row['platform']} {row['replication_factor']:.2f}" for row in r.rows
    )


def _sum_model_agreement(r: ExperimentResult) -> str:
    return r.notes[0]  # the driver's own "mean |error| …, worst …"


def _sum_measured(r: ExperimentResult) -> str:
    return "replay bias " + ", ".join(
        f"{row['workload']} {row['bias_pct']:+.1f}%" for row in r.rows
    )


def _sum_event_sim(r: ExperimentResult) -> str:
    return (
        f"worst disagreement: factored "
        f"{max(row['factored_err_pct'] for row in r.rows):.1f}%, naive peer "
        f"{max(row['naive_err_pct'] for row in r.rows):.1f}%"
    )


#: The one experiment list: ``python -m repro experiment <exp_id>``,
#: ``benchmarks/bench_*.py`` and EXPERIMENTS.md all run these drivers.
SPECS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        "table1",
        "Embedding extraction dominates: 113.3 ms EMT vs 10.6 ms MLP "
        "(10.7x); a single-GPU cache cuts EMT to 20.7 ms (2.0x MLP) with "
        "84.6% of accesses in GPU memory.",
        E.table1_breakdown,
        _sum_table1,
        "the with-cache ratio differs (stand-in gets the scaled-memory "
        "capacity rule, not the paper's 87%-of-80GB single-GPU cache), so "
        "the cached-EMT multiple deviates while the no-cache 10x holds.",
    ),
    ExperimentSpec(
        "fig2",
        "Replication reaches 95% local hit at 12% ratio; partition pins "
        "local hit at 1/8 while global hit saturates (99% at 12.5%); their "
        "extraction times cross over and partition plateaus.",
        E.fig2_policy_motivation,
        _sum_fig2,
        "stand-in skew has a heavier head, so the crossover sits at a "
        "lower ratio (~4%) than the paper's 12%.",
    ),
    ExperimentSpec(
        "fig4",
        "Peer-based extraction beats message passing, and UGache beats "
        "both, on 4xV100 and 8xA100.",
        E.fig4_mechanism_motivation,
        _sum_fig4,
    ),
    ExperimentSpec(
        "fig6",
        "Host extraction saturates below 10% of SMs; a hard-wired pair "
        "tolerates ~1/3 of cores; concurrent readers split a switch "
        "source's outbound bandwidth.",
        E.fig6_core_tolerance,
        _sum_fig6,
    ),
    ExperimentSpec(
        "fig10",
        "End-to-end, UGache outperforms GNNLab by 2.21x (max 5.25x), "
        "WholeGraph/PartU by 1.33x (max 1.85x), HPS by 1.51x (max 2.34x), "
        "SOK by 2.07x (max 3.45x); WholeGraph cannot launch on Server A "
        "(capacity) or Server B (unconnected pairs).",
        E.fig10_end_to_end,
        _sum_fig10,
        "speedup magnitudes shift with the scaled dense/extraction balance "
        "but every ordering and every launch failure reproduces.",
    ),
    ExperimentSpec(
        "fig11",
        "On extraction alone UGache beats GNNLab by 3.57x and WholeGraph "
        "by 2.62x (GNN); RepU and PartU improve on HPS/SOK by 2.39x/3.18x "
        "and UGache adds 1.79x/2.19x more (DLR).",
        E.fig11_extraction_time,
        _sum_fig11,
    ),
    ExperimentSpec(
        "fig12",
        "At 2% ratio UGache's policy is partition-like and the 1.72x gain "
        "comes from the extraction mechanism; as the ratio grows the "
        "policy diverges from partition and dominates the improvement.",
        E.fig12_incremental,
        _sum_fig12,
    ),
    ExperimentSpec(
        "fig13",
        "The factored mechanism raises PCIe utilization 1.91x and NVLink "
        "utilization 3.47x on average during extraction.",
        E.fig13_link_utilization,
        _sum_fig13,
        "our analytic utilization improves ~2x on both link classes; the "
        "paper's larger NVLink factor reflects measured switch collisions "
        "beyond the fluid model.",
    ),
    ExperimentSpec(
        "fig14",
        "PA at 8%: UGache lifts local hit from partition's 12.4% to 86.7% "
        "while global hit drops only 99.1%→98.1%; on low-skew CF it stays "
        "partition-like until capacity is plentiful.",
        E.fig14_access_split,
        _sum_fig14,
    ),
    ExperimentSpec(
        "fig15",
        "The local/remote trade gives UGache 2.0x over partition on PA; "
        "on CF replication stays host-bound at every ratio.",
        E.fig15_time_split,
        _sum_fig15,
    ),
    ExperimentSpec(
        "fig16",
        "The blocked solve is within 1.9% of the theoretically optimal "
        "policy on average (<2% claimed), with per-entry solves only "
        "feasible on reduced datasets.",
        E.fig16_vs_optimal,
        _sum_fig16,
        "universes stratified to 600 entries for per-entry tractability "
        "(the paper reduces to SYN-As/Bs for the same reason).",
    ),
    ExperimentSpec(
        "fig17",
        "A full refresh takes 28.69 s on average and degrades foreground "
        "inference by less than 10%.",
        E.fig17_refresh,
        _sum_fig17,
    ),
    ExperimentSpec(
        "table3",
        "Three GNN datasets (PA/CF/MAG: 53-349 GB embeddings) and three "
        "DLR datasets (CR/SYN-A/SYN-B: 381-421 GB).",
        E.table3_datasets,
        _sum_table3,
        "each stand-in is ~500-1000x scaled with skew/dim/dtype preserved; "
        "GPU cache budgets shrink by the same factor.",
    ),
    ExperimentSpec(
        "solver-scale",
        "Blocking reduces the MILP from billions of entries to under a "
        "thousand blocks, solving in ~10 s.",
        E.misc_solver_scale,
        _sum_solver_scale,
    ),
    ExperimentSpec(
        "ablation-padding",
        "(§5.3, not plotted in the paper) local extraction padding absorbs "
        "the ragged finishing times of the non-local groups.",
        E.ablation_padding,
        _sum_padding,
    ),
    ExperimentSpec(
        "ablation-blocking",
        "(§6.3, not plotted) log-scale coarse/fine blocking preserves "
        "solution quality at a fraction of the block count.",
        E.ablation_blocking,
        _sum_blocking,
    ),
    ExperimentSpec(
        "heuristic",
        "(§6.3) the hot-replicate/warm-partition heuristic matches the "
        "MILP on uniform fully-connected platforms but does not generalize "
        "to non-uniform ones.",
        E.misc_heuristic_vs_solver,
        _sum_heuristic,
    ),
    ExperimentSpec(
        "generalization",
        "(§8.1) the three servers are a generalization study; the solver "
        "needs no platform-specific code.",
        E.misc_generalization,
        _sum_generalization,
        "extended to DGX-2 (16 GPUs) and a PCIe-only box the paper does "
        "not evaluate.",
    ),
    ExperimentSpec(
        "model-agreement",
        "(§6.2) the solver's time estimate is the Extractor's time model.",
        E.misc_model_agreement,
        _sum_model_agreement,
    ),
    ExperimentSpec(
        "measured-vs-expected",
        "(not in the paper) every figure prices expected per-source "
        "volumes; replayed sampled batches check that shortcut.",
        E.misc_measured_vs_expected,
        _sum_measured,
    ),
    ExperimentSpec(
        "event-sim",
        "(not in the paper) the analytic congestion and padding models "
        "agree with an independent chunk-level event simulation.",
        E.misc_event_sim_agreement,
        _sum_event_sim,
    ),
)


def generate_markdown() -> str:
    """Run every driver and render the full EXPERIMENTS.md contents."""
    from repro.bench.harness import render_table

    lines = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Generated by `python -m repro.bench.report`.  Every table and figure",
        "of the paper's evaluation is regenerated by a benchmark in",
        "`benchmarks/`; this file records the paper's claim next to the",
        "measured outcome on the simulated substrate.  All times are",
        "*simulated seconds on the modelled hardware* — absolute numbers are",
        "not comparable to the paper's testbeds (datasets are ~1000x scaled),",
        "but the shapes, orderings and ratios are the reproduction targets.",
        "",
    ]
    for spec in SPECS:
        result = spec.driver()
        lines.append(f"## {spec.exp_id}: {result.title}")
        lines.append("")
        lines.append(f"**Paper:** {spec.paper_claim}")
        lines.append("")
        lines.append(f"**Measured:** {spec.summarize(result)}")
        if spec.deviations:
            lines.append("")
            lines.append(f"**Known deviation:** {spec.deviations}")
        lines.append("")
        lines.append("```")
        lines.append(render_table(result))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else "EXPERIMENTS.md"
    content = generate_markdown()
    with open(path, "w") as fh:
        fh.write(content)
    print(f"wrote {path} ({len(content.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
