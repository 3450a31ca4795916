"""The figure table: each experiment of the paper's evaluation, written once.

One :class:`ExperimentSpec` per table/figure holds its driver, the paper's
claim and the known deviation of the scaled stand-ins, its ``headline``
numbers (one dict computed from the driver's rows), the measured line
formatted from them, and the claim predicates over rows and headline.
Everything else is derived from :data:`SPECS`:

* ``python -m repro experiment <id>`` and ``list-experiments``;
* EXPERIMENTS.md, regenerated with ``python -m repro.bench.report [path]``
  (it re-runs every driver, ~10 minutes on one core);
* ``benchmarks/bench_figures.py``, one bench per entry asserting every
  predicate;
* ``tools/paper_claims.py``, which gates the fig-10/11/12/13/16 headlines
  against ``BENCH_paper.json``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.bench import experiments as E
from repro.bench.harness import ExperimentResult, render_table, speedup_summary

Rows = list[dict[str, Any]]
#: A claim: what it says, and whether it holds on ``(rows, headline)``.
Claim = tuple[str, Callable[[Rows, dict[str, Any]], bool]]


@dataclass(frozen=True)
class ExperimentSpec:
    """One table/figure: driver, paper claim, headline numbers and claims."""

    exp_id: str
    driver: Callable[[], ExperimentResult]
    paper_claim: str
    headline: Callable[[Rows], dict[str, Any]]
    #: the measured line, ``str.format``-ed from the headline
    measured: str
    claims: tuple[Claim, ...]
    deviations: str = ""

    def run(self) -> ExperimentResult:
        """Run the driver; the result carries this entry's id."""
        result = self.driver()
        result.experiment = self.exp_id
        return result

    def summary(self, rows: Rows) -> str:
        return self.measured.format_map(self.headline(rows))

    def failures(self, rows: Rows) -> list[str]:
        """The claims that do not hold on ``rows``."""
        numbers = self.headline(rows)
        return [text for text, holds in self.claims if not holds(rows, numbers)]


def _row(rows: Rows, **match: Any) -> dict[str, Any]:
    """The first row whose fields equal ``match``."""
    return next(r for r in rows if all(r[k] == v for k, v in match.items()))


def _speedups(rows: Rows, bases: tuple[str, ...]) -> dict[str, float]:
    """UGache's geomean speed-up over each baseline, and its largest single
    one as ``<base>_max`` (a baseline with no rows reads NaN)."""
    out = {}
    for base in bases:
        s = speedup_summary(rows, base, "UGache")
        out[base], out[f"{base}_max"] = s["geomean"], s["max"]
    return out


def _table1(rows: Rows) -> dict[str, float]:
    mlp = _row(rows, component="MLP (dense+sample)")["time_ms"]
    cached = _row(rows, component="EMT (w/ cache)")
    return {"plain_x": _row(rows, component="EMT (no cache)")["time_ms"] / mlp,
            "cached_x": cached["time_ms"] / mlp,
            "gmem_pct": cached["gmem_access_ratio_pct"]}


def _fig2(rows: Rows) -> dict[str, float]:
    at12 = _row(rows, cache_ratio_pct=12)
    return {"rep_local": at12["rep_local_hit_pct"],
            "part_local": at12["part_local_hit_pct"],
            "part_global": at12["part_global_hit_pct"],
            "part_plateau_ms": rows[-1]["part_time_ms"]}


def _fig6(rows: Rows) -> dict[str, float]:
    cpu = _row(rows, platform="server-c", source="CPU")
    seven = _row(rows, platform="server-c", source="Remote(7 concurrent readers)")
    return {"host_cores": cpu["saturation_cores"], "total_cores": cpu["total_cores"],
            "seven_gbps": seven["plateau_gbps"]}


def _fig12(rows: Rows) -> dict[str, float]:
    pa = [r for r in rows if r["dataset"] == "pa"]
    low, high = pa[0], pa[-1]
    return {
        **{f"{r['dataset']} {r['cache_ratio_pct']:g}%": r["UGache_ms"] for r in rows},
        "low_pct": low["cache_ratio_pct"], "high_pct": high["cache_ratio_pct"],
        "mechanism_low": low["plus_policy_ms"] / low["UGache_ms"],
        "policy_low": low["PartU_ms"] / low["plus_policy_ms"],
        "policy_high": high["PartU_ms"] / high["plus_policy_ms"],
    }


def _fig13(rows: Rows) -> dict[str, float]:
    """Mean FEM / naive utilisation over the cells whose link carries
    traffic (a placement that reads no peer has no NVLink ratio)."""
    return {link: float(np.mean([r[f"{link}_w_fem_pct"] / r[f"{link}_wo_fem_pct"]
                                 for r in rows if r[f"{link}_wo_fem_pct"] > 0]))
            for link in ("pcie", "nvlink")}


def _fig14(rows: Rows) -> dict[str, float]:
    def local(dataset, ratio, policy):
        return _row(rows, dataset=dataset, cache_ratio_pct=ratio, policy=policy)["local_pct"]

    return {"ugache_local": local("pa", 8.0, "UGache"),
            "partu_local": local("pa", 8.0, "PartU"),
            "ugache_host": _row(rows, dataset="pa", cache_ratio_pct=8.0,
                                policy="UGache")["host_pct"],
            "cf4_local_gap": abs(local("cf", 4.0, "UGache") - local("cf", 4.0, "PartU"))}


def _fig15(rows: Rows) -> dict[str, float]:
    def total(policy):
        return _row(rows, dataset="pa", cache_ratio_pct=8.0, policy=policy)["total_ms"]

    return {"pa8_gain": total("PartU") / total("UGache")}


def _solver_scale(rows: Rows) -> dict[str, float]:
    big = [r for r in rows if r["entries"] > 1000]
    return {key: max(r[key] for r in big) for key in ("entries", "blocks", "solve_s")}


def _ablation_blocking(rows: Rows) -> dict[str, float]:
    paper = _row(rows, strategy="log-scale coarse/fine (paper)")
    return {"blocks": paper["blocks"], "est_ms": paper["est_ms"],
            "uniform64_est_ms": _row(rows, strategy="uniform 64 blocks")["est_ms"]}


def _model_agreement(rows: Rows) -> dict[str, float]:
    errors = [abs(r["rel_error_pct"]) for r in rows]
    return {"mean_error_pct": sum(errors) / len(errors), "worst_error_pct": max(errors)}


FIG10_BASES = ("GNNLab", "PartU", "HPS", "SOK")
FIG11_BASES = ("GNNLab", "WholeGraph", "RepU", "PartU")

#: The one experiment table, in EXPERIMENTS.md order.
SPECS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        "table1", E.table1_breakdown,
        "Embedding extraction dominates: 113.3 ms EMT vs 10.6 ms MLP "
        "(10.7x); a single-GPU cache cuts EMT to 20.7 ms (2.0x MLP) with "
        "84.6% of accesses in GPU memory.",
        _table1,
        "EMT/MLP = {plain_x:.1f}x without cache, {cached_x:.1f}x with; "
        "cache hits {gmem_pct:.1f}% in GPU memory",
        (("EMT without a cache is over 5x MLP", lambda rows, h: h["plain_x"] > 5),
         ("the cache more than halves EMT",
          lambda rows, h: h["cached_x"] < h["plain_x"] / 2)),
        "the with-cache ratio differs (stand-in gets the scaled-memory "
        "capacity rule, not the paper's 87%-of-80GB single-GPU cache), so "
        "the cached-EMT multiple deviates while the no-cache 10x holds.",
    ),
    ExperimentSpec(
        "fig2", E.fig2_policy_motivation,
        "Replication reaches 95% local hit at 12% ratio; partition pins "
        "local hit at 1/8 while global hit saturates (99% at 12.5%); their "
        "extraction times cross over and partition plateaus.",
        _fig2,
        "at 12% ratio: replication local hit {rep_local:.1f}%, partition local "
        "{part_local:.1f}% / global {part_global:.1f}%; partition time plateaus "
        "at {part_plateau_ms:.3f} ms while replication keeps improving",
        (("partition's local hit stays pinned near 1/G",
          lambda rows, h: rows[-1]["part_local_hit_pct"] < 15),
         ("replication's local hit climbs with capacity",
          lambda rows, h: rows[-1]["rep_local_hit_pct"] > rows[0]["rep_local_hit_pct"]),
         ("partition's time plateaus",
          lambda rows, h: abs(h["part_plateau_ms"] - rows[-2]["part_time_ms"])
          < 0.05 * h["part_plateau_ms"] + 1e-6),
         ("UGache tracks the better of the two everywhere",
          lambda rows, h: all(r["ugache_time_ms"] <= min(r["rep_time_ms"], r["part_time_ms"])
                              * 1.05 for r in rows))),
        "stand-in skew has a heavier head, so the crossover sits at a "
        "lower ratio (~4%) than the paper's 12%.",
    ),
    ExperimentSpec(
        "fig4", E.fig4_mechanism_motivation,
        "Peer-based extraction beats message passing, and UGache beats "
        "both, on 4xV100 and 8xA100.",
        lambda rows: {
            "peer_x": np.mean([r["message_ms"] / r["peer_ms"] for r in rows]),
            "ugache_x": np.mean([r["peer_ms"] / r["ugache_ms"] for r in rows])},
        "peer beats message by {peer_x:.2f}x and UGache beats peer by "
        "{ugache_x:.2f}x on average across platforms/datasets",
        (("peer beats message in every cell",
          lambda rows, h: all(r["peer_ms"] < r["message_ms"] for r in rows)),
         ("UGache beats peer in every cell",
          lambda rows, h: all(r["ugache_ms"] < r["peer_ms"] for r in rows))),
    ),
    ExperimentSpec(
        "fig6", E.fig6_core_tolerance,
        "Host extraction saturates below 10% of SMs; a hard-wired pair "
        "tolerates ~1/3 of cores; concurrent readers split a switch "
        "source's outbound bandwidth.",
        _fig6,
        "host saturates at {host_cores}/{total_cores} SMs; 7 concurrent "
        "readers shrink a switch source to {seven_gbps:.0f} GB/s per reader",
        (("the host saturates within 10% of the SMs",
          lambda rows, h: all(r["saturation_cores"] <= 0.1 * r["total_cores"]
                              for r in rows if r["source"] == "CPU")),
         ("local extraction needs 90% of the SMs",
          lambda rows, h: all(r["saturation_cores"] >= 0.9 * r["total_cores"]
                              for r in rows if r["source"] == "Local")),
         ("7 concurrent readers split a switch source below 50 GB/s",
          lambda rows, h: h["seven_gbps"] < 50)),
    ),
    ExperimentSpec(
        "fig10", E.fig10_end_to_end,
        "End-to-end, UGache outperforms GNNLab by 2.21x (max 5.25x), "
        "WholeGraph/PartU by 1.33x (max 1.85x), HPS by 1.51x (max 2.34x), "
        "SOK by 2.07x (max 3.45x); WholeGraph cannot launch on Server A "
        "(capacity) or Server B (unconnected pairs).",
        lambda rows: _speedups(rows, FIG10_BASES),
        "; ".join(f"vs {b}: {{{b}:.2f}}x (max {{{b}_max:.2f}}x)" for b in FIG10_BASES),
        (("UGache beats every baseline on geomean",
          lambda rows, h: all(h[b] > 1.0 for b in FIG10_BASES)),
         ("WholeGraph cannot launch a GNN on Server A or B",
          lambda rows, h: all(r["WholeGraph"] is None for r in rows
                              if r["server"] in ("server-a", "server-b")
                              and r["unit"] == "s/epoch"))),
        "speedup magnitudes shift with the scaled dense/extraction balance "
        "but every ordering and every launch failure reproduces.  HPS is "
        "modelled, not run: its cache is the replicated frequency top-K (an "
        "LRU's steady state under a static skewed distribution) plus a fixed "
        "per-key LRU maintenance cost, so no online LRU evicts anything.",
    ),
    ExperimentSpec(
        "fig11", E.fig11_extraction_time,
        "On extraction alone UGache beats GNNLab by 3.57x and WholeGraph "
        "by 2.62x (GNN); RepU and PartU improve on HPS/SOK by 2.39x/3.18x "
        "and UGache adds 1.79x/2.19x more (DLR).",
        lambda rows: _speedups(rows, FIG11_BASES),
        "extraction speedups — vs GNNLab: {GNNLab:.2f}x; vs WholeGraph: "
        "{WholeGraph:.2f}x; vs RepU: {RepU:.2f}x; vs PartU: {PartU:.2f}x",
        (("UGache beats GNNLab, RepU and PartU on geomean",
          lambda rows, h: all(h[b] > 1.0 for b in ("GNNLab", "RepU", "PartU"))),),
    ),
    ExperimentSpec(
        "fig12", E.fig12_incremental,
        "At 2% ratio UGache's policy is partition-like and the 1.72x gain "
        "comes from the extraction mechanism; as the ratio grows the "
        "policy diverges from partition and dominates the improvement.",
        _fig12,
        "PA at {low_pct:.0f}%: mechanism contributes {mechanism_low:.2f}x; at "
        "{high_pct:.0f}%: policy contributes {policy_high:.2f}x — policy "
        "dominates at high ratios, as §8.3 reports",
        (("the solved policy never loses to PartU",
          lambda rows, h: all(r["plus_policy_ms"] <= r["PartU_ms"] * 1.05 for r in rows)),
         ("FEM never loses to naive extraction",
          lambda rows, h: all(r["UGache_ms"] <= r["plus_policy_ms"] * 1.01 for r in rows)),
         ("the policy's gain grows with the cache ratio",
          lambda rows, h: h["policy_high"] > h["policy_low"])),
    ),
    ExperimentSpec(
        "fig13", E.fig13_link_utilization,
        "The factored mechanism raises PCIe utilization 1.91x and NVLink "
        "utilization 3.47x on average during extraction.",
        _fig13,
        "FEM improves PCIe utilization {pcie:.2f}x and NVLink {nvlink:.2f}x on average",
        (("FEM never lowers PCIe utilization",
          lambda rows, h: all(r["pcie_w_fem_pct"] >= r["pcie_wo_fem_pct"] for r in rows)),
         ("FEM never lowers NVLink utilization",
          lambda rows, h: all(r["nvlink_w_fem_pct"] >= r["nvlink_wo_fem_pct"] for r in rows)),
         ("FEM lifts PCIe utilization over 1.5x on average",
          lambda rows, h: h["pcie"] > 1.5)),
        "our analytic utilization improves ~2x on both link classes; the "
        "paper's larger NVLink factor reflects measured switch collisions "
        "beyond the fluid model.",
    ),
    ExperimentSpec(
        "fig14", E.fig14_access_split,
        "PA at 8%: UGache lifts local hit from partition's 12.4% to 86.7% "
        "while global hit drops only 99.1%→98.1%; on low-skew CF it stays "
        "partition-like until capacity is plentiful.",
        _fig14,
        "PA at 8%: UGache local {ugache_local:.1f}% vs partition "
        "{partu_local:.1f}%, while host stays at {ugache_host:.1f}% "
        "(paper: 86.7% vs 12.4%, global 99.1→98.1%)",
        (("PA at 8%: UGache's local hit is over 5x partition's",
          lambda rows, h: h["ugache_local"] > 5 * h["partu_local"]),
         ("PA at 8%: UGache's host share stays under 10%",
          lambda rows, h: h["ugache_host"] < 10),
         ("CF at 4%: UGache's local hit stays within 10 points of partition's",
          lambda rows, h: h["cf4_local_gap"] < 10)),
    ),
    ExperimentSpec(
        "fig15", E.fig15_time_split,
        "The local/remote trade gives UGache 2.0x over partition on PA; "
        "on CF replication stays host-bound at every ratio.",
        _fig15,
        "PA at 8%: trading remote for local time wins {pa8_gain:.2f}x over "
        "partition (paper: 2.0x)",
        (("PA at 8%: UGache beats partition by over 1.5x",
          lambda rows, h: h["pa8_gain"] > 1.5),
         ("CF at 2, 8 and 12%: replication stays host-bound",
          lambda rows, h: all(r["host_ms"] > r["local_ms"] for r in rows
                              if r["dataset"] == "cf" and r["policy"] == "RepU"
                              and r["cache_ratio_pct"] in (2.0, 8.0, 12.0)))),
    ),
    ExperimentSpec(
        "fig16", E.fig16_vs_optimal,
        "The blocked solve is within 1.9% of the theoretically optimal "
        "policy on average (<2% claimed), with per-entry solves only "
        "feasible on reduced datasets.",
        lambda rows: {
            "mean_gap_pct": float(np.mean([r["gap_pct"] for r in rows])),
            "gap_pct": {f"{r['platform']} {r['workload']}": r["gap_pct"] for r in rows}},
        "mean gap to per-entry optimal: {mean_gap_pct:.2f}% (paper: 1.9%)",
        (("the blocked solve is on average within 5% of the per-entry optimum",
          lambda rows, h: h["mean_gap_pct"] < 5.0),
         ("no blocked solve beats the optimum",
          lambda rows, h: all(r["ugache_ms"] >= r["optimal_ms"] * 0.999 for r in rows))),
        "universes stratified to 600 entries for per-entry tractability "
        "(the paper reduces to SYN-As/Bs for the same reason).",
    ),
    ExperimentSpec(
        "fig17", E.fig17_refresh,
        "A full refresh takes 28.69 s on average and degrades foreground "
        "inference by less than 10%.",
        lambda rows: {"duration_s": rows[0]["duration_s"],
                      "impact_pct": rows[0]["impact_pct"]},
        "refresh takes {duration_s:.1f} s with {impact_pct:.0f}% foreground "
        "impact (paper: 28.69 s, <10%)",
        (("two refreshes, at ~40 s and ~150 s", lambda rows, h: len(rows) == 2),
         ("each refresh slows the foreground by at most 10.5%",
          lambda rows, h: all(r["impact_pct"] <= 10.5 for r in rows)),
         ("each refresh takes under a minute",
          lambda rows, h: all(r["duration_s"] < 60 for r in rows))),
    ),
    ExperimentSpec(
        "table3", E.table3_datasets,
        "Three GNN datasets (PA/CF/MAG: 53-349 GB embeddings) and three "
        "DLR datasets (CR/SYN-A/SYN-B: 381-421 GB).",
        lambda rows: {"datasets": len(rows), **{r["dataset"]: r["scale"] for r in rows}},
        "{datasets} datasets generated at scales pa={pa:.4%}, cf={cf:.4%}, "
        "mag={mag:.4%}, cr={cr:.4%}, syn-a={syn-a:.4%}, syn-b={syn-b:.4%}",
        (("the six datasets of Table 3",
          lambda rows, h: {r["dataset"] for r in rows}
          == {"pa", "cf", "mag", "cr", "syn-a", "syn-b"}),
         ("every stand-in has a volume", lambda rows, h: all(r["volume_mb"] > 0 for r in rows))),
        "each stand-in is ~500-1000x scaled with skew/dim/dtype preserved; "
        "GPU cache budgets shrink by the same factor.",
    ),
    ExperimentSpec(
        "solver-scale", E.misc_solver_scale,
        "Blocking reduces the MILP from billions of entries to under a "
        "thousand blocks, solving in ~10 s.",
        _solver_scale,
        "blocking keeps {entries:,}-entry tables at ≤{blocks} blocks, solved "
        "in ≤{solve_s:.2f} s",
        (("every instance stays under 1k blocks",
          lambda rows, h: all(r["blocks"] < 1000 for r in rows)),
         ("every instance solves within a minute",
          lambda rows, h: all(r["solve_s"] < 60 for r in rows))),
    ),
    ExperimentSpec(
        "ablation-padding", E.ablation_padding,
        "(§5.3, not plotted in the paper) local extraction padding absorbs "
        "the ragged finishing times of the non-local groups.",
        lambda rows: {"best_x": max(r["speedup"] for r in rows)},
        "local padding speeds extraction up to {best_x:.2f}x",
        (("padding never hurts", lambda rows, h: all(r["speedup"] >= 1.0 for r in rows)),
         ("padding wins over 5% somewhere", lambda rows, h: h["best_x"] > 1.05)),
    ),
    ExperimentSpec(
        "ablation-blocking", E.ablation_blocking,
        "(§6.3, not plotted) log-scale coarse/fine blocking preserves "
        "solution quality at a fraction of the block count.",
        _ablation_blocking,
        "paper blocking: {blocks} blocks, est {est_ms:.3f} ms — matches 512 "
        "uniform blocks at far lower solve cost",
        (("the paper's blocking does not lose to 64 uniform blocks",
          lambda rows, h: h["est_ms"] <= h["uniform64_est_ms"] * 1.02),
         ("the paper's blocking stays under 1k blocks", lambda rows, h: h["blocks"] < 1000)),
    ),
    ExperimentSpec(
        "heuristic", E.misc_heuristic_vs_solver,
        "(§6.3) the hot-replicate/warm-partition heuristic matches the "
        "MILP on uniform fully-connected platforms but does not generalize "
        "to non-uniform ones.",
        lambda rows: {"worst_x": min(r["solver_advantage"] for r in rows)},
        "one solve reaches >= {worst_x:.2f}x the grid-searched heuristic's best time",
        (("one solve stays within 5% of the grid-searched heuristic everywhere",
          lambda rows, h: h["worst_x"] >= 0.95),),
    ),
    ExperimentSpec(
        "generalization", E.misc_generalization,
        "(§8.1) the three servers are a generalization study; the solver "
        "needs no platform-specific code.",
        lambda rows: {r["platform"]: r["replication_factor"] for r in rows},
        "replication factor server-a {server-a:.2f}, server-c {server-c:.2f}, "
        "dgx2 {dgx2:.2f}, pcie-only-4gpu {pcie-only-4gpu:.2f}",
        (("with no NVLink the solver replicates fully",
          lambda rows, h: h["pcie-only-4gpu"] > 3.5),
         ("thin 16-way switch shares replicate about as much as server-c or more",
          lambda rows, h: h["dgx2"] >= h["server-c"] * 0.9),
         ("the solved policy never loses to replication or partition",
          lambda rows, h: all(r["ugache_ms"] <= min(r["replication_ms"], r["partition_ms"])
                              * 1.05 for r in rows))),
        "extended to DGX-2 (16 GPUs) and a PCIe-only box the paper does "
        "not evaluate.",
    ),
    ExperimentSpec(
        "model-agreement", E.misc_model_agreement,
        "(§6.2) the solver's time estimate is the Extractor's time model.",
        _model_agreement,
        "mean |error| {mean_error_pct:.1f}%, worst {worst_error_pct:.1f}%",
        (("the estimate is on average within 15% of the simulation",
          lambda rows, h: h["mean_error_pct"] < 15.0),
         ("the worst (tiny-capacity) cell stays within 80%",
          lambda rows, h: h["worst_error_pct"] < 80.0)),
    ),
    ExperimentSpec(
        "measured-vs-expected", E.misc_measured_vs_expected,
        "(not in the paper) every figure prices expected per-source "
        "volumes; replayed sampled batches check that shortcut.",
        lambda rows: {r["workload"]: r["bias_pct"] for r in rows},
        "replay bias sage-sup/pa {sage-sup/pa:+.1f}%, dlrm/syn-a {dlrm/syn-a:+.1f}%",
        (("DLR replay is unbiased within 10%", lambda rows, h: abs(h["dlrm/syn-a"]) < 10.0),
         ("GNN replay runs hotter, within -10% to +100% (Jensen gap)",
          lambda rows, h: -10.0 < h["sage-sup/pa"] < 100.0),
         ("per-iteration p99 stays under 1.8x the mean",
          lambda rows, h: all(r["measured_p99_ms"] < r["measured_mean_ms"] * 1.8
                              for r in rows))),
    ),
    ExperimentSpec(
        "event-sim", E.misc_event_sim_agreement,
        "(not in the paper) the analytic congestion and padding models "
        "agree with an independent chunk-level event simulation.",
        lambda rows: {"factored_pct": max(r["factored_err_pct"] for r in rows),
                      "naive_pct": max(r["naive_err_pct"] for r in rows)},
        "worst disagreement: factored {factored_pct:.1f}%, naive peer {naive_pct:.1f}%",
        (("the factored model agrees within 12% everywhere",
          lambda rows, h: h["factored_pct"] < 12.0),
         ("the naive-peer model agrees within 30% everywhere",
          lambda rows, h: h["naive_pct"] < 30.0)),
    ),
)


def generate_markdown() -> str:
    """Run every driver and render the full EXPERIMENTS.md contents."""
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
        result = spec.run()
        lines += [f"## {spec.exp_id}: {result.title}", "",
                  f"**Paper:** {spec.paper_claim}", "",
                  f"**Measured:** {spec.summary(result.rows)}"]
        if spec.deviations:
            lines += ["", f"**Known deviation:** {spec.deviations}"]
        lines += ["", "```", render_table(result), "```", ""]
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
