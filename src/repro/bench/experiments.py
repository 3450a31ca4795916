"""Per-figure/table experiment drivers (the paper's §2-§8 evaluation).

Each driver regenerates one table or figure of the paper and returns an
:class:`~repro.bench.harness.ExperimentResult` whose rows are the figure's
series.  ``bench/report.SPECS`` names each driver once, beside the
paper's claim, the headline numbers and the predicates its rows must meet.

Times reported here are *simulated* seconds on the modelled hardware, not
wall-clock on this machine (see DESIGN.md's substitution table).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import UnsupportedConfiguration, evaluate_system
from repro.baselines.systems import (
    GnnLabSystem,
    HpsSystem,
    PartUSystem,
    RepUSystem,
    SokSystem,
    UGacheSystem,
    WholeGraphSystem,
)
from repro.bench.contexts import (
    DLR_MODELS,
    GNN_MODES,
    dlr_cell,
    gnn_cell,
    platform_by_name,
)
from repro.bench.harness import ExperimentResult
from repro.core.evaluate import evaluate_placement, expected_demands, hit_rates
from repro.core.optimal import approximation_gap, solve_optimal
from repro.core.policy import partition_policy, replication_policy
from repro.core.refresher import simulate_refresh_timeline
from repro.core.solver import SolverConfig, solve_policy
from repro.datasets.registry import all_dataset_summaries
from repro.hardware.bandwidth import tolerance_curves
from repro.hardware.platform import server_a, server_c, single_gpu
from repro.sim.engine import simulate_batch
from repro.sim.mechanisms import GpuDemand, Mechanism
from repro.sim.utilization import batch_utilization
from repro.utils.units import seconds_to_ms

#: Solver knobs used across benchmark sweeps: slightly coarser blocking
#: than the paper's 0.5% keeps each LP solve in the tens of ms per GPU
#: orbit (about 0.5 s on server-b's full LP) while staying within ~2% of
#: the finer solution (the solver-scale experiment quantifies this).
BENCH_SOLVER = SolverConfig(coarse_block_frac=0.01)

#: The systems the drivers plan through; UGache's solved plans are
#: memoized per cell across figures.
REPU, PARTU, UGACHE = RepUSystem(), PartUSystem(), UGacheSystem(BENCH_SOLVER)


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds_to_ms(seconds)


# ----------------------------------------------------------------------
# Table 1 — single-GPU breakdown
# ----------------------------------------------------------------------
def table1_breakdown() -> ExperimentResult:
    """Runtime/data breakdown of unsupervised GraphSAGE on one A100 (Table 1).

    EMT time without cache (all host traffic) vs with a single-GPU
    replication cache; MLP time from the dense cost model.
    """
    platform = single_gpu()
    ctx = gnn_cell(platform, "mag", "sage-unsup").context

    no_cache = replication_policy(ctx.hotness, 0, 1)
    emt_plain = evaluate_placement(
        platform, no_cache, ctx.hotness, ctx.entry_bytes, Mechanism.PEER_NAIVE
    )
    cached = replication_policy(ctx.hotness, ctx.capacity_entries, 1)
    emt_cached = evaluate_placement(
        platform, cached, ctx.hotness, ctx.entry_bytes, Mechanism.PEER_NAIVE
    )
    hit = hit_rates(platform, cached, ctx.hotness)
    mlp = ctx.dense_time + ctx.sampling_time
    batch_bytes = ctx.batch_keys * ctx.entry_bytes

    result = ExperimentResult(
        "Single-GPU breakdown: unsup. GraphSAGE + MAG stand-in, 1×A100"
    )
    result.add(
        component="MLP (dense+sample)",
        time_ms=_ms(mlp),
        data_bytes_per_iter=0.0,
        gmem_access_ratio_pct=100.0,
    )
    result.add(
        component="EMT (no cache)",
        time_ms=_ms(emt_plain.time),
        data_bytes_per_iter=batch_bytes,
        gmem_access_ratio_pct=0.0,
    )
    result.add(
        component="EMT (w/ cache)",
        time_ms=_ms(emt_cached.time),
        data_bytes_per_iter=batch_bytes,
        gmem_access_ratio_pct=100.0 * hit.local,
    )
    result.add(
        component="Total (w/ cache)",
        time_ms=_ms(mlp + emt_cached.time),
        data_bytes_per_iter=batch_bytes,
        gmem_access_ratio_pct=100.0 * hit.local,
    )
    result.notes.append(
        f"EMT dominates: {emt_plain.time / mlp:.1f}x MLP without cache, "
        f"{emt_cached.time / mlp:.1f}x with cache "
        f"(paper: 113.3/10.6 ≈ 10.7x and 20.7/10.6 ≈ 2.0x)"
    )
    return result


# ----------------------------------------------------------------------
# Figure 2 — replication vs partition motivation
# ----------------------------------------------------------------------
def fig2_policy_motivation(
    ratios: tuple[float, ...] = (0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25),
) -> ExperimentResult:
    """Hit rate and extraction time of replication vs partition (Figure 2).

    Supervised GraphSAGE + PA stand-in on 8×A100, sweeping per-GPU cache
    ratio; partition shows the marginal-utility plateau, replication the
    PCIe bottleneck, UGache tracks the better of both.
    """
    platform = server_c()
    result = ExperimentResult(
        "Replication vs partition vs UGache (SAGE sup. + PA, 8×A100)"
    )
    for ratio in ratios:
        ctx = gnn_cell(platform, "pa", "sage-sup", cache_ratio=ratio).context
        rep, part, ug = REPU.plan(ctx), PARTU.plan(ctx), UGACHE.plan(ctx)
        rep_hits = hit_rates(platform, rep, ctx.hotness)
        part_hits = hit_rates(platform, part, ctx.hotness)
        rep_time = evaluate_placement(
            platform, rep, ctx.hotness, ctx.entry_bytes, Mechanism.PEER_NAIVE
        ).time
        part_time = evaluate_placement(
            platform, part, ctx.hotness, ctx.entry_bytes, Mechanism.PEER_NAIVE
        ).time
        ug_time = evaluate_placement(
            platform, ug, ctx.hotness, ctx.entry_bytes, Mechanism.FACTORED
        ).time
        result.add(
            cache_ratio_pct=100 * ratio,
            rep_local_hit_pct=100 * rep_hits.local,
            part_local_hit_pct=100 * part_hits.local,
            part_global_hit_pct=100 * part_hits.global_hit,
            rep_time_ms=_ms(rep_time),
            part_time_ms=_ms(part_time),
            ugache_time_ms=_ms(ug_time),
        )
    return result


# ----------------------------------------------------------------------
# Figure 4 — extraction mechanism motivation
# ----------------------------------------------------------------------
def fig4_mechanism_motivation() -> ExperimentResult:
    """Message vs naive peer vs UGache extraction time (Figure 4).

    DLR inference with the CR stand-in and the Zipf(1.2) synthetic on
    4×V100 and 8×A100.  Message/peer run the partition policy the source
    systems use; UGache runs its solved policy with FEM.
    """
    result = ExperimentResult("Extraction mechanism comparison (DLR inference)")
    for platform in (server_a(), server_c()):
        for dataset in ("cr", "syn-a"):
            ctx = dlr_cell(platform, dataset, "dlrm").context
            part, ug = PARTU.plan(ctx), UGACHE.plan(ctx)
            message = evaluate_placement(
                platform, part, ctx.hotness, ctx.entry_bytes, Mechanism.MESSAGE
            ).time
            peer = evaluate_placement(
                platform, part, ctx.hotness, ctx.entry_bytes, Mechanism.PEER_NAIVE
            ).time
            ugache = evaluate_placement(
                platform, ug, ctx.hotness, ctx.entry_bytes, Mechanism.FACTORED
            ).time
            result.add(
                platform=platform.name,
                dataset=dataset,
                message_ms=_ms(message),
                peer_ms=_ms(peer),
                ugache_ms=_ms(ugache),
            )
    return result


# ----------------------------------------------------------------------
# Figure 6 — link tolerance microbenchmark
# ----------------------------------------------------------------------
def fig6_core_tolerance() -> ExperimentResult:
    """Bandwidth vs participating SMs per source (Figure 6)."""
    result = ExperimentResult(
        "Per-source bandwidth vs number of cores (Servers A and C)"
    )
    for platform in (server_a(), server_c()):
        for curve in tolerance_curves(platform):
            result.add(
                platform=platform.name,
                source=curve.source_label,
                plateau_gbps=curve.plateau_bandwidth / 1e9,
                saturation_cores=curve.saturation_cores,
                total_cores=platform.gpu.num_cores,
            )
        # Right half of Fig. 6(b): collisions on a switch platform.
        if platform.topology.kind.value == "switch":
            for readers in (1, 2, 4, 7):
                curves = tolerance_curves(platform, concurrent_readers=readers)
                remote = [c for c in curves if c.source_label.startswith("Remote")][0]
                result.add(
                    platform=platform.name,
                    source=f"Remote({readers} concurrent readers)",
                    plateau_gbps=remote.plateau_bandwidth / 1e9,
                    saturation_cores=remote.saturation_cores,
                    total_cores=platform.gpu.num_cores,
                )
    return result


# ----------------------------------------------------------------------
# Figures 10/11 — overall performance
# ----------------------------------------------------------------------
def _score_row(row: dict, systems, ctx, score) -> dict:
    """``row`` with one ``score(result)`` per system (None where the
    system cannot run the configuration)."""
    for system in systems:
        try:
            row[system.name] = score(evaluate_system(system, ctx))
        except UnsupportedConfiguration:
            row[system.name] = None
    return row


def fig10_end_to_end(
    servers: tuple[str, ...] = ("server-a", "server-b", "server-c"),
) -> ExperimentResult:
    """End-to-end epoch (GNN) / iteration (DLR) time, all systems (Fig. 10)."""
    result = ExperimentResult("End-to-end time: GNN epoch (s) and DLR iteration (ms)")
    gnn_systems = (GnnLabSystem(), WholeGraphSystem(), PARTU, UGACHE)
    dlr_systems = (HpsSystem(), SokSystem(), UGACHE)
    for server in servers:
        platform = platform_by_name(server)
        for mode in GNN_MODES:
            for dataset in ("pa", "cf", "mag"):
                cell = gnn_cell(platform, dataset, mode)
                row = {"server": server, "app": mode, "dataset": dataset,
                       "unit": "s/epoch"}
                result.rows.append(_score_row(
                    row, gnn_systems, cell.context,
                    lambda res: res.epoch_time(cell.iterations_per_epoch),
                ))
        for model in DLR_MODELS:
            for dataset in ("cr", "syn-a", "syn-b"):
                row = {"server": server, "app": model, "dataset": dataset,
                       "unit": "ms/iter"}
                result.rows.append(_score_row(
                    row, dlr_systems, dlr_cell(platform, dataset, model).context,
                    lambda res: _ms(res.iteration_time),
                ))
    return result


def fig11_extraction_time(
    servers: tuple[str, ...] = ("server-a", "server-b", "server-c"),
) -> ExperimentResult:
    """Embedding extraction time per iteration, all systems (Figure 11).

    Adds RepU/PartU to the DLR side, as the paper does to isolate the
    contribution of UGache's techniques from engineering differences.
    """
    result = ExperimentResult("Embedding extraction time (ms/iteration)")

    def extraction_ms(res):
        return _ms(res.extraction_time)

    gnn_systems = (GnnLabSystem(), WholeGraphSystem(), PARTU, UGACHE)
    dlr_systems = (HpsSystem(), SokSystem(), REPU, PARTU, UGACHE)
    for server in servers:
        platform = platform_by_name(server)
        for mode in GNN_MODES:
            for dataset in ("pa", "cf", "mag"):
                row = {"server": server, "app": mode, "dataset": dataset}
                result.rows.append(_score_row(
                    row, gnn_systems, gnn_cell(platform, dataset, mode).context,
                    extraction_ms,
                ))
        for dataset in ("cr", "syn-a", "syn-b"):
            row = {"server": server, "app": "dlrm", "dataset": dataset}
            result.rows.append(_score_row(
                row, dlr_systems, dlr_cell(platform, dataset, "dlrm").context,
                extraction_ms,
            ))
    return result


# ----------------------------------------------------------------------
# Figure 12 — incremental technique breakdown
# ----------------------------------------------------------------------
def fig12_incremental(
    datasets: tuple[str, ...] = ("pa", "cf"),
    ratios: tuple[float, ...] = (0.02, 0.05, 0.10, 0.15, 0.20, 0.25),
) -> ExperimentResult:
    """Apply UGache's techniques incrementally (Figure 12, Server C).

    RepU / PartU → ``+Policy`` (solved placement, naive extraction) →
    UGache (solved placement + FEM).
    """
    platform = server_c()
    result = ExperimentResult(
        "Incremental techniques: extraction time (SAGE sup., Server C)"
    )
    for dataset in datasets:
        for ratio in ratios:
            ctx = gnn_cell(platform, dataset, "sage-sup", cache_ratio=ratio).context
            rep, part, solved = REPU.plan(ctx), PARTU.plan(ctx), UGACHE.plan(ctx)
            rep_t = evaluate_placement(
                platform, rep, ctx.hotness, ctx.entry_bytes, Mechanism.PEER_NAIVE
            ).time
            part_t = evaluate_placement(
                platform, part, ctx.hotness, ctx.entry_bytes, Mechanism.PEER_NAIVE
            ).time
            policy_t = evaluate_placement(
                platform, solved, ctx.hotness, ctx.entry_bytes, Mechanism.PEER_NAIVE
            ).time
            ugache_t = evaluate_placement(
                platform, solved, ctx.hotness, ctx.entry_bytes, Mechanism.FACTORED
            ).time
            result.add(
                dataset=dataset,
                cache_ratio_pct=100 * ratio,
                RepU_ms=_ms(rep_t),
                PartU_ms=_ms(part_t),
                plus_policy_ms=_ms(policy_t),
                UGache_ms=_ms(ugache_t),
            )
    return result


# ----------------------------------------------------------------------
# Figure 13 — link utilization with/without FEM
# ----------------------------------------------------------------------
def fig13_link_utilization() -> ExperimentResult:
    """PCIe/NVLink utilization during extraction w/ and w/o FEM (Fig. 13).

    Same solved placement, both mechanisms, Server C; locally hit keys
    are excluded as in the paper's measurement.
    """
    platform = server_c()
    cells = [
        ("gcn", "cf", gnn_cell(platform, "cf", "gcn").context),
        ("gcn", "mag", gnn_cell(platform, "mag", "gcn").context),
        ("dlrm", "cr", dlr_cell(platform, "cr", "dlrm").context),
        ("dlrm", "syn-a", dlr_cell(platform, "syn-a", "dlrm").context),
    ]
    result = ExperimentResult("Link utilization during extraction (Server C)")
    for app, dataset, ctx in cells:
        solved = UGACHE.plan(ctx)
        demands = expected_demands(platform, solved, ctx.hotness, ctx.entry_bytes)
        # Remove locally hit traffic, as the paper does for a fair probe.
        demands = [
            GpuDemand(
                dst=d.dst,
                volumes={s: v for s, v in d.volumes.items() if s != d.dst},
            )
            for d in demands
        ]
        naive = simulate_batch(platform, demands, Mechanism.PEER_NAIVE)
        fem = simulate_batch(platform, demands, Mechanism.FACTORED)
        u_naive = batch_utilization(platform, naive)
        u_fem = batch_utilization(platform, fem)
        result.add(
            app=app,
            dataset=dataset,
            pcie_wo_fem_pct=100 * u_naive.pcie,
            pcie_w_fem_pct=100 * u_fem.pcie,
            nvlink_wo_fem_pct=100 * u_naive.nvlink,
            nvlink_w_fem_pct=100 * u_fem.nvlink,
        )
    return result


# ----------------------------------------------------------------------
# Figures 14/15 — cache policy: access and time split
# ----------------------------------------------------------------------
def fig14_access_split(
    datasets: tuple[str, ...] = ("pa", "cf"),
    ratios: tuple[float, ...] = (0.02, 0.04, 0.06, 0.08, 0.10, 0.12),
) -> ExperimentResult:
    """Local/remote/host access split per policy vs cache ratio (Fig. 14)."""
    platform = server_c()
    result = ExperimentResult("Access split by source (SAGE sup., Server C)")
    for dataset in datasets:
        for ratio in ratios:
            ctx = gnn_cell(platform, dataset, "sage-sup", cache_ratio=ratio).context
            for system in (REPU, PARTU, UGACHE):
                placement = system.plan(ctx)
                hits = hit_rates(platform, placement, ctx.hotness)
                result.add(
                    dataset=dataset,
                    cache_ratio_pct=100 * ratio,
                    policy=system.name,
                    local_pct=100 * hits.local,
                    remote_pct=100 * hits.remote,
                    host_pct=100 * hits.host,
                )
    return result


def fig15_time_split(
    datasets: tuple[str, ...] = ("pa", "cf"),
    ratios: tuple[float, ...] = (0.02, 0.04, 0.06, 0.08, 0.10, 0.12),
) -> ExperimentResult:
    """Per-source extraction time per policy vs cache ratio (Figure 15).

    All policies use UGache's factored extraction, as in the paper.
    """
    platform = server_c()
    result = ExperimentResult("Extraction time split by source (SAGE sup., Server C)")
    for dataset in datasets:
        for ratio in ratios:
            ctx = gnn_cell(platform, dataset, "sage-sup", cache_ratio=ratio).context
            for system in (REPU, PARTU, UGACHE):
                placement = system.plan(ctx)
                report = evaluate_placement(
                    platform, placement, ctx.hotness, ctx.entry_bytes, Mechanism.FACTORED
                )
                split = report.time_split()
                result.add(
                    dataset=dataset,
                    cache_ratio_pct=100 * ratio,
                    policy=system.name,
                    total_ms=_ms(report.time),
                    local_ms=_ms(split["local"]),
                    remote_ms=_ms(split["remote"]),
                    host_ms=_ms(split["host"]),
                )
    return result


# ----------------------------------------------------------------------
# Figure 16 — UGache vs theoretically optimal policy
# ----------------------------------------------------------------------
def fig16_vs_optimal() -> ExperimentResult:
    """Blocked solve vs per-entry optimal reference (Figure 16).

    Per-entry solves are only tractable on reduced universes, exactly as
    in the paper (SYN-As/Bs); GNN hotness is subsampled to a reduced
    universe for the same reason (documented in EXPERIMENTS.md).
    """
    result = ExperimentResult("UGache vs theoretically optimal cache policy")
    #: Reduced universe for per-entry tractability (the paper shrinks the
    #: dataset to SYN-As/Bs for the same reason; §8.5).  600 entries keeps
    #: every per-entry HiGHS solve under ~30 s on one core: server-b's full
    #: LP takes ~25 s on SYN-As, the symmetric servers' per-orbit LPs < 0.1 s.
    # The reduction is *stratified*: every k-th entry of the hotness-
    # descending order, so the reduced instance keeps the distribution's
    # shape and the blocked-vs-optimal gap is measured in the same regime.
    reduced = 600

    def _compare(workload, ctx):
        platform, entry_bytes = ctx.platform, ctx.entry_bytes
        hotness, capacity = ctx.hotness, ctx.capacity_entries
        if len(hotness) > reduced:
            order = np.argsort(-hotness)
            stride = len(order) // reduced
            idx = order[::stride][:reduced]
            capacity = max(1, int(capacity * reduced / len(hotness)))
            hotness = hotness[idx]
        fine = SolverConfig(coarse_block_frac=0.005)
        ug = solve_policy(platform, hotness, capacity, entry_bytes, fine)
        opt = solve_optimal(platform, hotness, capacity, entry_bytes)
        result.add(
            platform=platform.name,
            workload=workload,
            optimal_ms=_ms(opt.est_time),
            ugache_ms=_ms(ug.est_time),
            gap_pct=100 * approximation_gap(ug, opt),
        )

    # DLR on Servers A and B with the reduced synthetic datasets.
    from repro.hardware.platform import server_b

    for platform in (server_a(), server_b()):
        for dataset in ("syn-as", "syn-bs"):
            ctx = dlr_cell(platform, dataset, "dlrm", cache_ratio=0.10).context
            _compare(f"dlrm/{dataset}", ctx)
    # GNN on Server C, hotness subsampled to the reduced universe.  The
    # cache ratio is pinned at a regime with meaningful host/remote
    # traffic — at the platform-derived ratios the reduced instances are
    # fully cacheable and both times collapse to ~zero, making relative
    # gaps noise.
    platform = server_c()
    for mode in GNN_MODES:
        for dataset in ("pa", "cf", "mag"):
            ctx = gnn_cell(platform, dataset, mode, cache_ratio=0.08).context
            _compare(f"{mode}/{dataset}", ctx)
    return result


# ----------------------------------------------------------------------
# Figure 17 — refresh timeline
# ----------------------------------------------------------------------
def fig17_refresh() -> ExperimentResult:
    """DLRM inference latency while refreshes run (Figure 17)."""
    platform = server_c()
    ctx = dlr_cell(platform, "cr", "dlrm").context
    solved = UGACHE.plan(ctx)
    baseline = (
        evaluate_placement(
            platform, solved, ctx.hotness, ctx.entry_bytes, Mechanism.FACTORED
        ).time
        + ctx.dense_time
    )
    # Entries a refresh moves: roughly one GPU cache's worth across GPUs.
    entries_moved = ctx.capacity_entries * platform.num_gpus // 2
    timeline = simulate_refresh_timeline(
        baseline_latency=baseline,
        total_duration=200.0,
        refresh_starts=(40.0, 150.0),
        entries_to_move=entries_moved,
    )
    result = ExperimentResult(
        "Inference latency during cache refresh (DLRM + CR, Server C)"
    )
    for start, stop in timeline.refresh_windows:
        inside = timeline.mean_latency(start, stop)
        before = timeline.mean_latency(max(0.0, start - 20.0), start)
        result.add(
            refresh_start_s=start,
            refresh_stop_s=stop,
            duration_s=stop - start,
            latency_before_ms=_ms(before),
            latency_during_ms=_ms(inside),
            impact_pct=100 * (inside / before - 1) if before else 0.0,
        )
    result.notes.append(
        "paper: refresh takes 28.69 s on average with <10% foreground impact"
    )
    return result


# ----------------------------------------------------------------------
# Table 3 — datasets
# ----------------------------------------------------------------------
def table3_datasets() -> ExperimentResult:
    """The dataset inventory with stand-in scales (Table 3)."""
    result = ExperimentResult("Dataset stand-ins (scaled)")
    for summary in all_dataset_summaries():
        result.add(
            dataset=summary.key,
            paper_name=summary.paper_name,
            kind=summary.kind,
            entries=summary.num_entries,
            dim=summary.dim,
            volume_mb=summary.volume_bytes / 1e6,
            scale=summary.scale,
        )
    return result


# ----------------------------------------------------------------------
# Beyond-the-paper ablations (DESIGN.md §6)
# ----------------------------------------------------------------------
def misc_solver_scale() -> ExperimentResult:
    """§6.3's scale claims: block counts, problem size, solve time, and the
    LP-relaxation vs binary-MILP gap on a small instance."""
    result = ExperimentResult("Blocking keeps the MILP small (§6.3)")
    platform = server_c()
    for dataset, kind in (("pa", "gnn"), ("cf", "gnn"), ("syn-a", "dlr")):
        if kind == "gnn":
            ctx = gnn_cell(platform, dataset, "sage-sup").context
        else:
            ctx = dlr_cell(platform, dataset, "dlrm").context
        solved = solve_policy(
            platform,
            ctx.hotness,
            ctx.capacity_entries,
            ctx.entry_bytes,
            SolverConfig(coarse_block_frac=0.005),
        )
        result.add(
            dataset=dataset,
            entries=ctx.num_entries,
            blocks=solved.blocks.num_blocks,
            variables=solved.num_variables,
            constraints=solved.num_constraints,
            solve_s=solved.solve_seconds,
            est_ms=_ms(solved.est_time),
        )
    result.notes.append(
        "paper: blocking reduces E from billions to <1k blocks, ~10 s solves"
    )

    # LP relaxation vs true binary MILP on a small instance.
    from repro.utils.stats import zipf_pmf

    hot = zipf_pmf(400, 1.2) * 5000
    platform = server_a()
    relaxed = solve_policy(platform, hot, 40, 512, SolverConfig(coarse_block_frac=0.05))
    integral = solve_policy(
        platform, hot, 40, 512, SolverConfig(coarse_block_frac=0.05, integral=True)
    )
    gap = (integral.est_time - relaxed.est_time) / max(relaxed.est_time, 1e-12)
    result.add(
        dataset="zipf-400 (LP vs binary MILP)",
        entries=400,
        blocks=integral.blocks.num_blocks,
        variables=integral.num_variables,
        constraints=integral.num_constraints,
        solve_s=integral.solve_seconds,
        est_ms=_ms(integral.est_time),
    )
    result.notes.append(f"binary-MILP vs LP-relaxation objective gap: {100*gap:.2f}%")
    return result


def ablation_padding() -> ExperimentResult:
    """FEM's local-extraction padding (§5.3) switched off."""
    platform = server_c()
    result = ExperimentResult("FEM with vs without local-extraction padding")
    for dataset, mode in (("pa", "sage-sup"), ("cf", "gcn"), ("mag", "sage-unsup")):
        ctx = gnn_cell(platform, dataset, mode).context
        solved = UGACHE.plan(ctx)
        padded = evaluate_placement(
            platform, solved, ctx.hotness, ctx.entry_bytes,
            Mechanism.FACTORED, local_padding=True,
        ).time
        serial = evaluate_placement(
            platform, solved, ctx.hotness, ctx.entry_bytes,
            Mechanism.FACTORED, local_padding=False,
        ).time
        result.add(
            workload=f"{mode}/{dataset}",
            with_padding_ms=_ms(padded),
            without_padding_ms=_ms(serial),
            speedup=serial / padded if padded > 0 else None,
        )
    return result


def ablation_blocking() -> ExperimentResult:
    """Log-scale coarse/fine blocking (Fig. 9) vs uniform blocking."""
    from repro.core.blocks import build_blocks, build_uniform_blocks

    platform = server_c()
    ctx = gnn_cell(platform, "pa", "sage-sup", cache_ratio=0.04).context
    result = ExperimentResult("Blocking strategy vs solution quality (PA, 4% ratio)")
    strategies = {
        "log-scale coarse/fine (paper)": build_blocks(
            ctx.hotness, num_gpus=8, coarse_frac=0.005
        ),
        "log-scale, coarse only": build_blocks(
            ctx.hotness, num_gpus=1, coarse_frac=0.005
        ),
        "uniform 64 blocks": build_uniform_blocks(ctx.hotness, 64),
        "uniform 512 blocks": build_uniform_blocks(ctx.hotness, 512),
    }
    for label, blocks in strategies.items():
        solved = solve_policy(
            platform,
            ctx.hotness,
            ctx.capacity_entries,
            ctx.entry_bytes,
            SolverConfig(),
            blocks=blocks,
        )
        simulated = evaluate_placement(
            platform, solved.realize(), ctx.hotness, ctx.entry_bytes, Mechanism.FACTORED
        ).time
        result.add(
            strategy=label,
            blocks=blocks.num_blocks,
            solve_s=solved.solve_seconds,
            est_ms=_ms(solved.est_time),
            simulated_ms=_ms(simulated),
        )
    return result


def misc_heuristic_vs_solver() -> ExperimentResult:
    """The hot-replicate/warm-partition heuristic [39] vs the MILP (§6.3).

    The heuristic searches one split point (replicate the hottest prefix
    everywhere, partition the warm band).  §6.3 notes it matches well on
    uniform fully-connected platforms but "cannot be generalized to
    non-uniform platforms" — so we compare on Server A (uniform) and
    Server B (DGX-1, non-uniform with unconnected pairs).
    """
    from repro.core.policy import hot_replicate_warm_partition_policy
    from repro.hardware.platform import server_b

    result = ExperimentResult(
        "Hot-replicate/warm-partition heuristic [39] vs UGache's MILP",
    )
    for platform in (server_a(), server_b()):
        for dataset in ("pa", "cf"):
            ctx = gnn_cell(platform, dataset, "sage-sup", cache_ratio=0.08).context
            best_heuristic = np.inf
            best_frac = 0.0
            for frac in np.linspace(0.0, 1.0, 11):
                placement = hot_replicate_warm_partition_policy(
                    ctx.hotness, ctx.capacity_entries, platform.num_gpus, float(frac)
                )
                t = evaluate_placement(
                    platform, placement, ctx.hotness, ctx.entry_bytes,
                    Mechanism.FACTORED,
                ).time
                if t < best_heuristic:
                    best_heuristic, best_frac = t, float(frac)
            solved = UGACHE.plan(ctx)
            solver_time = evaluate_placement(
                platform, solved, ctx.hotness, ctx.entry_bytes, Mechanism.FACTORED
            ).time
            result.add(
                platform=platform.name,
                dataset=dataset,
                heuristic_best_ms=_ms(best_heuristic),
                heuristic_replicate_frac=best_frac,
                ugache_ms=_ms(solver_time),
                solver_advantage=best_heuristic / solver_time
                if solver_time > 0 else None,
            )
    result.notes.append(
        "the heuristic needs a uniform fully-connected platform; the MILP "
        "adapts to DGX-1's non-uniform links and unconnected pairs (§6.3)"
    )
    return result


def misc_generalization() -> ExperimentResult:
    """UGache beyond the paper's testbeds: DGX-2 (16 GPU) and PCIe-only.

    §8.1 frames the three servers as a generalization study; this
    extension pushes further: a 16-GPU switch box (thin 1/15 fair shares)
    and a commodity box with no NVLink at all.  The solver must adapt its
    replication factor to each regime without any platform-specific code.
    """
    from repro.core.evaluate import hit_rates as _hit_rates
    from repro.hardware.platform import dgx2, pcie_only
    from repro.utils.stats import zipf_pmf

    result = ExperimentResult("Solved policies on out-of-paper platforms")
    entries = 40_000
    hotness = zipf_pmf(entries, 1.2) * 200_000
    entry_bytes = 512
    # Coarser blocks + generous limit: the 16-GPU instance has ~4x the
    # variables of Server C and must never hit the time limit mid-suite.
    config = SolverConfig(coarse_block_frac=0.02, time_limit=300.0)
    for platform in (server_a(), server_c(), dgx2(), pcie_only()):
        capacity = int(0.06 * entries)
        solved = solve_policy(
            platform, hotness, capacity, entry_bytes, config
        )
        placement = solved.realize()
        hits = _hit_rates(platform, placement, hotness)
        ug_time = evaluate_placement(
            platform, placement, hotness, entry_bytes, Mechanism.FACTORED
        ).time
        rep_time = evaluate_placement(
            platform,
            replication_policy(hotness, capacity, platform.num_gpus),
            hotness,
            entry_bytes,
            Mechanism.FACTORED,
        ).time
        part_time = evaluate_placement(
            platform,
            partition_policy(hotness, capacity, platform.num_gpus),
            hotness,
            entry_bytes,
            Mechanism.FACTORED,
        ).time
        result.add(
            platform=platform.name,
            gpus=platform.num_gpus,
            replication_factor=placement.replication_factor(),
            local_hit_pct=100 * hits.local,
            global_hit_pct=100 * hits.global_hit,
            ugache_ms=_ms(ug_time),
            replication_ms=_ms(rep_time),
            partition_ms=_ms(part_time),
        )
    result.notes.append(
        "no NVLink -> the solver converges to pure replication; thin "
        "switch shares -> it replicates more than on Server C"
    )
    return result


def misc_model_agreement() -> ExperimentResult:
    """Solver estimate vs simulator across a randomized sweep."""
    from repro.bench.validation import validate_model_agreement

    report = validate_model_agreement(
        [server_a(), platform_by_name("server-b"), server_c()],
        num_entries=2000,
        solver=SolverConfig(coarse_block_frac=0.02),
    )
    result = ExperimentResult("Solver time estimate vs simulated extraction time")
    for s in report.samples:
        result.add(
            platform=s.platform,
            alpha=s.alpha,
            cache_ratio=s.cache_ratio,
            estimated_ms=_ms(s.estimated_time),
            simulated_ms=_ms(s.simulated_time),
            rel_error_pct=100 * s.relative_error,
        )
    result.notes.append(
        f"mean |error| {100 * report.mean_abs_error:.1f}%, "
        f"worst {100 * report.worst_abs_error:.1f}%"
    )
    return result


def misc_measured_vs_expected() -> ExperimentResult:
    """Replayed batches vs the expected-value pricing used by the figures.

    Every figure prices placements from expected per-source volumes; this
    experiment replays actual sampled batches and compares the measured
    mean extraction time with the expectation, per workload type.
    """
    from repro.bench.contexts import GNN_BATCH_SIZE
    from repro.bench.runner import replay_workload
    from repro.datasets.gnn_datasets import build_gnn_dataset
    from repro.gnn.workload import GnnWorkload

    result = ExperimentResult(
        "Replayed batch timings vs expected-value pricing (Server C)",
    )
    platform = server_c()

    # GNN: supervised SAGE over the PA stand-in.
    ctx = gnn_cell(platform, "pa", "sage-sup", cache_ratio=0.06).context
    solved = UGACHE.plan(ctx)
    expected = evaluate_placement(
        platform, solved, ctx.hotness, ctx.entry_bytes, Mechanism.FACTORED
    ).time
    ds = build_gnn_dataset("pa")
    workload = GnnWorkload(
        ds.graph, ds.train_ids, "sage-sup",
        batch_size=GNN_BATCH_SIZE, num_gpus=platform.num_gpus,
    )
    stats = replay_workload(
        platform, solved, workload.epoch(seed=123), ctx.entry_bytes,
        max_iterations=8,
    )
    result.add(
        workload="sage-sup/pa",
        iterations=stats.iterations,
        expected_ms=_ms(expected),
        measured_mean_ms=_ms(stats.mean_time),
        measured_p99_ms=_ms(stats.p99_time),
        bias_pct=100 * (stats.mean_time - expected) / expected,
    )

    # DLR: DLRM over SYN-A.
    dctx = dlr_cell(platform, "syn-a", "dlrm").context
    dsolved = UGACHE.plan(dctx)
    dexpected = evaluate_placement(
        platform, dsolved, dctx.hotness, dctx.entry_bytes, Mechanism.FACTORED
    ).time
    from repro.datasets.dlr_datasets import dlr_spec as _dlr_spec

    dworkload = _dlr_spec("syn-a").workload(num_gpus=platform.num_gpus)
    dstats = replay_workload(
        platform, dsolved, dworkload.batches(seed=5), dctx.entry_bytes,
        max_iterations=8,
    )
    result.add(
        workload="dlrm/syn-a",
        iterations=dstats.iterations,
        expected_ms=_ms(dexpected),
        measured_mean_ms=_ms(dstats.mean_time),
        measured_p99_ms=_ms(dstats.p99_time),
        bias_pct=100 * (dstats.mean_time - dexpected) / dexpected,
    )
    result.notes.append(
        "DLR replay is unbiased (<1%); GNN replay runs hotter than the "
        "expectation because batch time is a max over 8 GPUs and GNN "
        "batches have high per-GPU variance (Jensen gap) — the figure "
        "drivers share this bias across all systems, so comparisons hold"
    )
    return result


def misc_event_sim_agreement() -> ExperimentResult:
    """Fluid analytic models vs the chunk-level discrete simulator.

    The §5 congestion fixed point and the factored padding estimate were
    both derived analytically; this experiment replays representative
    demands through an independent event-driven simulation and reports
    the relative differences.
    """
    from repro.sim.event_sim import (
        simulate_factored_event_driven,
        simulate_naive_event_driven,
    )
    from repro.sim.mechanisms import factored_extraction, naive_peer_extraction
    from repro.hardware.platform import HOST

    result = ExperimentResult("Analytic extraction models vs discrete event simulation")
    cases = {
        "balanced": {0: 40e6, 1: 20e6, 2: 10e6, HOST: 5e6},
        "host-heavy": {0: 10e6, HOST: 30e6},
        "remote-heavy": {0: 5e6, 1: 30e6, 2: 30e6, 3: 30e6},
        "local-only": {0: 100e6},
    }
    for platform in (server_a(), server_c()):
        for label, volumes in cases.items():
            demand = GpuDemand(dst=0, volumes=volumes)
            an_f = factored_extraction(platform, demand).time
            ev_f = simulate_factored_event_driven(
                platform, demand, chunk_bytes=16 * 1024
            ).total_time
            readers = {s: 1 for s in volumes if s not in (0, HOST)}
            an_n = naive_peer_extraction(platform, demand, readers).time
            ev_n = simulate_naive_event_driven(
                platform, demand, chunk_bytes=16 * 1024,
                readers_per_source=readers,
            ).total_time
            result.add(
                platform=platform.name,
                case=label,
                factored_analytic_ms=_ms(an_f),
                factored_event_ms=_ms(ev_f),
                factored_err_pct=100 * abs(ev_f - an_f) / max(an_f, 1e-12),
                naive_analytic_ms=_ms(an_n),
                naive_event_ms=_ms(ev_n),
                naive_err_pct=100 * abs(ev_n - an_n) / max(an_n, 1e-12),
            )
    return result
