//! Declarative specs for every table, figure, and ablation of the paper.
//!
//! Each spec is an [`ExperimentSpec`]: metadata plus a `run` function that builds the
//! independent cells of its method × workload × substrate matrix and fans them out via
//! [`crate::scheduler::run_keyed_cells`].  The `xp` binary executes these specs; DESIGN.md §5
//! holds the table/figure → id index.

use std::collections::BTreeSet;
use std::time::Instant;

use dsm::{
    DsmConfig, DsmRunResult, HlrcSim, NetworkCostModel, PageHistorySink, PageWriteHistory,
    TreadMarksSim,
};
use memsim::{
    page_update_map, CostModel, OriginPreset, PageSharingReport, ReferenceSim, SimSink,
    SimulationResult,
};
use molecular::{Moldyn, MoldynParams};
use nbody::{BarnesHut, BarnesHutParams};
use reorder::permute::Permutation;
use reorder::{compute_reordering_from_points, pack_keys, sort_keys, KeyWidth, Method, Quantizer};
use smtrace::{ObjectLayout, UnitSetsSink};
use workloads::{cubic_lattice, two_plummer, UnstructuredMesh};

use crate::cache::{CellKey, KeyBuilder};
use crate::row;
use crate::runner::{ExperimentSpec, Row, RunConfig, Value};
use crate::scheduler::run_keyed_cells;
use crate::{stream_run, AppKind, Ordering, Scale};

/// All experiments, in the order of the paper's evaluation section.
pub static EXPERIMENTS: &[ExperimentSpec] = &[
    ExperimentSpec {
        id: "table1",
        aliases: &["t1", "table1_apps"],
        title: "Table 1: applications, inputs, synchronization (b=barrier, l=lock), object sizes",
        columns: &["app", "paper_input", "run_objects", "run_iterations", "sync", "object_bytes", "category"],
        notes: &["Paper sizes are selected with --scale paper; the run_* columns show this run."],
        run: run_table1,
    },
    ExperimentSpec {
        id: "table2",
        aliases: &["t2", "table2_origin"],
        title: "Table 2: Origin 2000 model — time (s), reorder cost (s), L2 and TLB misses on 1 and N processors",
        columns: &[
            "app", "version", "reorder_s", "seq_time_s", "seq_l2_misses", "seq_tlb_misses",
            "par_time_s", "par_l2_misses", "par_tlb_misses",
        ],
        notes: &[
            "Expected shapes (paper): reordering cuts TLB misses by ~an order of magnitude for",
            "Barnes-Hut and FMM on 1 processor; 16-processor L2 misses drop ~2x for the improved",
            "apps; Water-Spatial is essentially unchanged because its 680-byte object exceeds the",
            "128-byte L2 line; for Moldyn/Unstructured, Hilbert beats column at cache-line grain.",
            "reorder_s is wall-clock and measured while sibling cells run in parallel; on a busy",
            "host it can read high (miss counts and model times are contention-free).",
        ],
        run: run_table2,
    },
    ExperimentSpec {
        id: "table3",
        aliases: &["t3", "table3_dsm"],
        title: "Table 3: software DSM model — times (s), data (MB) and messages on N processors",
        columns: &[
            "app", "version", "seq_time_s", "reorder_s", "tmk_time_s", "tmk_data_mb",
            "tmk_messages", "hlrc_time_s", "hlrc_data_mb", "hlrc_messages",
        ],
        notes: &[
            "Expected shapes (paper): reordering reduces TreadMarks data ~2-3.7x and messages",
            "up to ~12x; HLRC data ~1.2-5x and messages ~1.4-3.5x; for Moldyn and Unstructured,",
            "column ordering sends less data and fewer messages than Hilbert on the page-based",
            "protocols; TreadMarks sends more messages than HLRC for the same sharing.",
            "reorder_s is wall-clock and measured while sibling cells run in parallel; on a busy",
            "host it can read high (message counts and model times are contention-free).",
        ],
        run: run_table3,
    },
    ExperimentSpec {
        id: "table4",
        aliases: &["t4", "table4_fmm_breakdown"],
        title: "Table 4: FMM phase breakdown on the TreadMarks model (estimated seconds)",
        columns: &["phase", "original_s", "reordered_s"],
        notes: &[
            "Expected shape (paper): the phases that touch the particle array (tree build,",
            "tree traversal, inter- and intra-particle interactions) shrink dramatically after",
            "Hilbert reordering; the reordered total is several times smaller than the original.",
        ],
        run: run_table4,
    },
    ExperimentSpec {
        id: "fig01_04",
        aliases: &["fig1", "fig4", "fig01", "fig04", "fig01_04_particle_pages"],
        title: "Figures 1 & 4: pages updated per processor, 168 particles, 4 KB pages",
        columns: &["figure", "processor", "pages_updated", "num_pages"],
        notes: &[
            "Expected shape: the original order touches every page from every processor;",
            "after Hilbert reordering each processor's writes collapse onto 1-2 pages",
            "(X = writes on that page, . = untouched).",
        ],
        run: run_fig01_04,
    },
    ExperimentSpec {
        id: "fig02_05",
        aliases: &["fig2", "fig5", "fig02", "fig05", "fig02_05_page_sharing"],
        title: "Figures 2 & 5: processors sharing each page of the Barnes-Hut particle array (8 KB pages)",
        columns: &[
            "procs", "ordering", "pages", "mean_sharers", "mean_writers", "max_sharers",
            "falsely_shared_pages",
        ],
        notes: &[
            "Expected shape (paper, 32K bodies): original order ≈ 9.5 mean sharers at P=16,",
            "Hilbert-reordered ≈ 3; at smaller problem/processor scales the gap narrows but the",
            "ordering of the two curves is preserved.",
        ],
        run: run_fig02_05,
    },
    ExperimentSpec {
        id: "fig03",
        aliases: &["fig3", "fig03_orderings"],
        title: "Figure 3: visiting rank of every cell of an 8x8 grid under the four orderings",
        columns: &["method", "row_y", "ranks"],
        notes: &[
            "Reading the ranks in order traces the curve of the paper's figure: Hilbert visits",
            "only edge-adjacent cells; Morton makes occasional jumps; column-major sweeps",
            "x-slabs; row-major sweeps y-slabs.  row_y is printed top-down.",
        ],
        run: run_fig03,
    },
    ExperimentSpec {
        id: "fig06",
        aliases: &["fig6", "fig06_boundary"],
        title: "Figure 6: remote consistency units touched by a processor's interaction list (Moldyn)",
        columns: &["ordering", "unit", "mean_remote_units_per_proc", "mean_remote_owners_per_proc"],
        notes: &[
            "Expected shape: with 4 KB pages, column ordering touches fewer remote pages and",
            "fewer distinct owners than Hilbert; with 128-byte lines the ranking flips because",
            "the slab's larger surface spreads the boundary over more lines.",
        ],
        run: run_fig06,
    },
    ExperimentSpec {
        id: "fig07",
        aliases: &["fig7", "fig07_origin_speedups"],
        title: "Figure 7: Origin 2000 model speedups on N processors",
        columns: &["app", "original", "hilbert", "column"],
        notes: &[
            "Expected shape (paper): every application except Water-Spatial speeds up with",
            "reordering (12%-99% better than original); for Moldyn and Unstructured the Hilbert",
            "ordering beats column ordering on the cache-line-grained hardware model.",
        ],
        run: run_fig07,
    },
    ExperimentSpec {
        id: "fig08_09",
        aliases: &["fig8", "fig9", "fig08", "fig09", "fig08_09_dsm_speedups"],
        title: "Figures 8 & 9: software DSM model speedups (reordered = paper's recommended method)",
        columns: &[
            "app", "tmk_original", "hlrc_original", "tmk_reordered", "hlrc_reordered",
            "tmk_gain_pct", "hlrc_gain_pct",
        ],
        notes: &[
            "Expected shape (paper): every application improves; TreadMarks improves more than",
            "HLRC (30-366% vs 14-269%); Moldyn benefits the least and FMM the most.",
        ],
        run: run_fig08_09,
    },
    ExperimentSpec {
        id: "ablation_reorder_frequency",
        aliases: &["reorder-frequency", "reorder_frequency"],
        title: "Ablation: reordering frequency over 8 Barnes-Hut steps",
        columns: &["reorder_every", "mean_writers_final_iter", "mean_sharers", "total_reorder_s"],
        notes: &[
            "Expected shape: a single initial reordering retains most of its benefit over this",
            "horizon (bodies drift slowly relative to the page granularity), so the paper's",
            "reorder-once-at-initialization recipe is sound; re-reordering every step buys little",
            "extra locality for proportionally more reordering time.",
        ],
        run: run_ablation_reorder_frequency,
    },
    ExperimentSpec {
        id: "bench_reorder_cost",
        aliases: &["reorder-cost", "reorder_cost", "bench-reorder-cost"],
        title: "Reorder-cost bench: sort + permute throughput of the ranking pipelines (Hilbert keys)",
        columns: &[
            "workload", "n", "pipeline", "key_bits", "threads", "key_ms", "rank_ms",
            "permute_ms", "sort_mobj_s", "permute_mobj_s",
        ],
        notes: &[
            "Pipelines: `comparison` is the serial baseline (u128 (key, object) tuples through",
            "sort_by_key + clone-the-world gather); `radix*` is the packed-key LSD radix sort",
            "with cycle-following in-place permutation.  Expected shape: radix beats comparison",
            "by several-fold on every workload; u64 keys beat forced u128 keys; the parallel",
            "rows add near-linear speedup on multi-core hosts (identical permutations are",
            "asserted across all pipelines).  Cells run sequentially for honest wall-clock.",
        ],
        run: run_bench_reorder_cost,
    },
    ExperimentSpec {
        id: "bench_sim_throughput",
        aliases: &["sim-throughput", "sim_throughput", "bench-sim-throughput"],
        title: "Sim-throughput bench: trace replay paths through the Origin 2000 model",
        columns: &[
            "app", "n", "procs", "path", "accesses", "replay_ms", "maccess_s", "l2_misses",
            "tlb_misses", "coherence_misses", "speedup_vs_reference",
        ],
        notes: &[
            "Paths: `reference` is the preserved scan-based simulator (positional LRU,",
            "O(P*assoc) coherence probes, per-interval cursor allocation); `materialized`",
            "replays the same ProgramTrace through the directory machine (sharer bitmasks,",
            "generation-timestamp LRU, batched intervals); `streaming` feeds the accesses",
            "through a SimSink interval-by-interval, the path applications use to simulate",
            "without materializing a trace.  All three paths are asserted to produce",
            "identical per-processor cache/TLB/coherence counters; expected shape: the",
            "directory paths beat the reference by >=3x on every application.  FMM is sized",
            "like Barnes-Hut (not Scale::size_of, which reflects FMM's compute cost) so its",
            "object array exceeds the simulated TLB reach, the regime every paper-scale",
            "workload replays in.  Cells run sequentially for honest wall-clock.",
        ],
        run: run_bench_sim_throughput,
    },
    ExperimentSpec {
        id: "bench_dsm_throughput",
        aliases: &["dsm-throughput", "dsm_throughput", "bench-dsm-throughput"],
        title: "DSM-throughput bench: trace-to-stats paths through the TreadMarks/HLRC models",
        columns: &[
            "app", "workload", "n", "procs", "path", "accesses", "replay_ms", "maccess_s",
            "tmk_messages", "tmk_mb", "hlrc_messages", "hlrc_mb", "speedup_vs_reference",
        ],
        notes: &[
            "Paths: `reference` is the preserved map-based serial pipeline (nested-BTreeMap",
            "trace reduction re-run per protocol, BTreeSet/BTreeMap fault loops);",
            "`materialized` reduces the ProgramTrace once through the flat sorted-vec",
            "reduction and feeds both parallel simulators; `streaming` replays the trace",
            "through a PageHistorySink — the path applications use to evaluate the DSM models",
            "without materializing a trace — and feeds the same simulators.  Every path's",
            "DsmRunResult (aggregate and per-processor, both protocols) is asserted",
            "bit-identical; expected shape: the streaming path beats the reference by >=2x",
            "geomean.  Cells run sequentially for honest wall-clock.",
        ],
        run: run_bench_dsm_throughput,
    },
    ExperimentSpec {
        id: "bench_gen_throughput",
        aliases: &["gen-throughput", "gen_throughput", "bench-gen-throughput"],
        title: "Gen-throughput bench: trace generation paths from live application to the Origin 2000 model",
        columns: &[
            "app", "n", "procs", "path", "accesses", "gen_ms", "maccess_s", "l2_misses",
            "tlb_misses", "coherence_misses", "speedup_vs_serial",
        ],
        notes: &[
            "Paths: `serial` loops the applications' preserved step_traced/sweep_traced",
            "executable specs — one virtual processor after another, one access at a time —",
            "into a streaming SimSink; `sharded` is the stream_* path, where each virtual",
            "processor's chunk (tree traversal, force/sweep compute, access recording) runs",
            "as a rayon task into its own smtrace::Shard and the shards drain into the same",
            "sink in deterministic processor order.  Both paths run the full live",
            "application (physics included), so this measures the end-to-end producer",
            "pipeline the consumers of sim-/dsm-throughput are fed by.  Per-processor",
            "cache/TLB/coherence counters are asserted identical across paths — the shard",
            "drain is bit-faithful, not approximately equivalent.  Expected shape: on a",
            "multi-core host the sharded path wins roughly in proportion to min(cores,",
            "procs) on the evaluation-heavy apps; on a 1-core host the rayon shim runs the",
            "tasks inline and the two paths should be within noise of each other (the",
            "sharded path pays only the buffer drain).  Cells run sequentially for honest",
            "wall-clock.",
        ],
        run: run_bench_gen_throughput,
    },
    ExperimentSpec {
        id: "bench_trace_throughput",
        aliases: &["trace-throughput", "trace_throughput", "bench-trace-throughput"],
        title: "Trace-throughput bench: live generation vs on-disk corpus replay into the Origin 2000 model",
        columns: &[
            "app", "n", "procs", "path", "accesses", "ms", "maccess_s", "corpus_bytes",
            "bytes_per_access", "l2_misses", "tlb_misses", "coherence_misses",
            "speedup_vs_live",
        ],
        notes: &[
            "Paths: `live` runs the full application (physics + tree builds + sweeps) into",
            "a streaming SimSink — what every experiment paid per run before the corpus",
            "existed; `replay` decodes a previously recorded corpus (delta/varint blocks,",
            "checksum-validated) into the identical sink.  The corpus is recorded once per",
            "app outside the timed region; both paths' SimulationResults are asserted",
            "bit-identical, so replay is a faithful substitute, not an approximation.",
            "corpus_bytes/bytes_per_access row the compression headline (the packed",
            "in-memory Access is 4 bytes).  Expected shape: replay wins on every app —",
            "decode is a linear varint scan while generation pays the physics — with the",
            "margin largest on the evaluation-heavy apps (Barnes-Hut, FMM, Water-Spatial).",
            "Cells run sequentially for honest wall-clock.",
        ],
        run: run_bench_trace_throughput,
    },
    ExperimentSpec {
        id: "ablation_unit_sweep",
        aliases: &["unit-sweep", "unit_sweep"],
        title: "Ablation: consistency-unit-size sweep, Moldyn (TreadMarks-model messages/data)",
        columns: &[
            "unit_bytes", "hilbert_messages", "hilbert_mb", "column_messages", "column_mb",
            "fewer_messages",
        ],
        notes: &[
            "Expected shape: Hilbert produces less traffic at small units (cache-line scale),",
            "column at large units (page scale); the crossover sits between a few hundred bytes",
            "and a few kilobytes, consistent with the paper's platform-dependent recommendation.",
        ],
        run: run_ablation_unit_sweep,
    },
];

/// All experiment specs.
pub fn all() -> &'static [ExperimentSpec] {
    EXPERIMENTS
}

/// Look an experiment up by id or alias.
pub fn find(name: &str) -> Option<&'static ExperimentSpec> {
    EXPERIMENTS.iter().find(|spec| spec.matches(name))
}

fn orderings_for(app: AppKind, dsm_order: bool) -> Vec<Ordering> {
    if app.is_category2() {
        // Category-2 applications are reported under both families; the paper lists
        // column first for the DSM table and Hilbert first for the hardware table.
        if dsm_order {
            vec![
                Ordering::Original,
                Ordering::Reordered(Method::Column),
                Ordering::Reordered(Method::Hilbert),
            ]
        } else {
            vec![
                Ordering::Original,
                Ordering::Reordered(Method::Hilbert),
                Ordering::Reordered(Method::Column),
            ]
        }
    } else {
        vec![Ordering::Original, Ordering::Reordered(Method::Hilbert)]
    }
}

/// One Origin 2000 run: stream `app` at `scale` under `ordering` once into a `SimSink`
/// over `procs` processors — with its processor-folded one-processor twin when `fold`
/// is set, so the same generation also yields the sequential counters.  Returns the
/// `procs`-processor result, the twin's result (`None` unless `fold`) and the reorder
/// seconds.
fn origin_run(
    app: AppKind,
    ordering: Ordering,
    scale: Scale,
    procs: usize,
    seed: u64,
    fold: bool,
) -> (SimulationResult, Option<SimulationResult>, f64) {
    let (sink, reorder_seconds) =
        stream_run(app, ordering, scale.size_of(app), scale.iterations_of(app), seed, |layout| {
            let machine = OriginPreset::origin2000(procs).build_machine();
            if fold {
                SimSink::with_folded_twin(machine, layout.clone())
            } else {
                SimSink::new(machine, layout.clone())
            }
        });
    let (result, twin) = sink.finish_with_twin();
    (result, twin, reorder_seconds)
}

/// One software-DSM cell: stream `app` at `scale` under `ordering` into one
/// `PageHistorySink`, then evaluate TreadMarks and HLRC on that single history.
/// Returns both protocols' results and the reorder seconds.
fn dsm_cell(
    app: AppKind,
    ordering: Ordering,
    scale: Scale,
    config: DsmConfig,
    seed: u64,
) -> (DsmRunResult, DsmRunResult, f64) {
    let (sink, reorder_seconds) =
        stream_run(app, ordering, scale.size_of(app), scale.iterations_of(app), seed, |layout| {
            PageHistorySink::new(layout.clone(), config.num_procs, config.page_bytes)
        });
    let history = sink.finish();
    let tmk = TreadMarksSim::new(config).run_history(&history);
    let hlrc = HlrcSim::new(config).run_history(&history);
    (tmk, hlrc, reorder_seconds)
}

fn run_table1(cfg: &RunConfig) -> Vec<Row> {
    let scale = cfg.scale;
    let paper = [
        (AppKind::BarnesHut, "65536, 6 iter", "b", 104usize),
        (AppKind::Fmm, "65536, 3 iter", "b,l", 104),
        (AppKind::WaterSpatial, "32768, 10 iter", "b,l", 680),
        (AppKind::Moldyn, "32000, 40 iter", "b", 72),
        (AppKind::Unstructured, "mesh.10k, 40 iter", "b,l", 32),
    ];
    paper
        .iter()
        .map(|&(app, paper_input, sync, obj_bytes)| {
            row![
                app.name(),
                paper_input,
                scale.size_of(app),
                scale.iterations_of(app),
                sync,
                obj_bytes,
                if app.is_category2() { 2i64 } else { 1i64 }
            ]
        })
        .collect()
}

fn run_table2(cfg: &RunConfig) -> Vec<Row> {
    let scale = cfg.scale;
    let par_procs = cfg.procs_or(16);
    let seed = cfg.seed_or(123);
    let cost = CostModel::default();
    // Key on the *effective* knobs (procs_or/seed_or applied): a `--procs 16` run
    // and a default run describe the same cells, so they share cache entries.
    let cells: Vec<(CellKey, (AppKind, Ordering))> = AppKind::ALL
        .into_iter()
        .flat_map(|app| orderings_for(app, false).into_iter().map(move |o| (app, o)))
        .map(|(app, ordering)| {
            let key = KeyBuilder::new("table2")
                .field_str("scale", scale.name())
                .field_u64("seed", seed)
                .field_usize("procs", par_procs)
                .field_str("app", app.name())
                .field_str("ordering", &ordering.name())
                .finish();
            (key, (app, ordering))
        })
        .collect();
    run_keyed_cells(cells, |(app, ordering)| {
        let (par, seq, reorder_seconds) = origin_run(app, ordering, scale, par_procs, seed, true);
        let seq = seq.expect("a folded run carries the one-processor twin");
        vec![row![
            app.name(),
            ordering.name(),
            reorder_seconds,
            cost.machine_time(&seq),
            seq.l2_misses(),
            seq.tlb_misses(),
            cost.machine_time(&par),
            par.l2_misses(),
            par.tlb_misses()
        ]]
    })
}

fn run_table3(cfg: &RunConfig) -> Vec<Row> {
    let scale = cfg.scale;
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(99);
    let config = DsmConfig::cluster(procs);
    let cost = NetworkCostModel::default();
    let cells: Vec<(CellKey, (AppKind, Ordering))> = AppKind::ALL
        .into_iter()
        .flat_map(|app| orderings_for(app, true).into_iter().map(move |o| (app, o)))
        .map(|(app, ordering)| {
            let key = KeyBuilder::new("table3")
                .field_str("scale", scale.name())
                .field_u64("seed", seed)
                .field_usize("procs", procs)
                .field_str("app", app.name())
                .field_str("ordering", &ordering.name())
                .finish();
            (key, (app, ordering))
        })
        .collect();
    run_keyed_cells(cells, |(app, ordering)| {
        let (tmk, hlrc, reorder_seconds) = dsm_cell(app, ordering, scale, config, seed);
        let tmk_est = cost.estimate(&tmk);
        let hlrc_est = cost.estimate(&hlrc);
        vec![row![
            app.name(),
            ordering.name(),
            tmk_est.sequential_seconds,
            reorder_seconds,
            tmk_est.parallel_seconds,
            tmk.stats.data_mbytes(),
            tmk.stats.messages,
            hlrc_est.parallel_seconds,
            hlrc.stats.data_mbytes(),
            hlrc.stats.messages
        ]]
    })
}

/// Phase labels for the traced intervals of one FMM iteration (see `Fmm::step_traced`).
const FMM_INTERVAL_PHASES: [&str; 4] =
    ["Build tree", "Tree traversal (P2M)", "Inter/Intra particle", "Other (update)"];

fn run_table4(cfg: &RunConfig) -> Vec<Row> {
    let n = if cfg.scale == Scale::Paper { 16_384 } else { 4_096 };
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(77);
    let config = DsmConfig::cluster(procs);
    let cost = NetworkCostModel::default();
    let cells: Vec<(CellKey, Ordering)> =
        [Ordering::Original, Ordering::Reordered(Method::Hilbert)]
            .into_iter()
            .map(|ordering| {
                let key = KeyBuilder::new("table4")
                    .field_usize("bodies", n)
                    .field_usize("procs", procs)
                    .field_u64("seed", seed)
                    .field_str("ordering", &ordering.name())
                    .finish();
                (key, ordering)
            })
            .collect();
    let phase_rows = run_keyed_cells(cells, |ordering| {
        let (sink, _) = stream_run(AppKind::Fmm, ordering, n, 1, seed, |layout| {
            PageHistorySink::new(layout.clone(), procs, config.page_bytes)
        });
        let history = sink.finish();
        let tmk = TreadMarksSim::new(config);
        // Evaluate each interval prefix separately and charge each phase the increment
        // its interval adds.  (The protocol state is rebuilt per prefix; this slightly
        // over-counts cold fetches per phase but identically for both versions.)
        let mut previous = 0.0;
        (1..=FMM_INTERVAL_PHASES.len().min(history.intervals.len()))
            .map(|len| {
                let t = cost.estimate(&tmk.run_history(&history.prefix(len))).parallel_seconds;
                let seconds = if len == 1 { t } else { (t - previous).max(0.0) };
                previous = t;
                row![ordering.name(), seconds]
            })
            .collect()
    });
    let seconds = |ordering: &'static str| -> Vec<f64> {
        labelled(&phase_rows, ordering).map(|r| as_f64(&r.cells[1])).collect()
    };
    let (original, reordered) = (seconds("original"), seconds("hilbert"));
    if original.is_empty() || reordered.is_empty() {
        return Vec::new(); // a terminally failed cell: its fault is reported instead
    }
    let total = row!["Total", original.iter().sum::<f64>(), reordered.iter().sum::<f64>()];
    FMM_INTERVAL_PHASES
        .iter()
        .zip(original.iter().zip(&reordered))
        .map(|(&phase, (&orig, &reord))| row![phase, orig, reord])
        .chain([total])
        .collect()
}

/// The rows of a per-column spec's cells whose first cell is `label`.
fn labelled<'a>(rows: &'a [Row], label: &'static str) -> impl Iterator<Item = &'a Row> {
    rows.iter().filter(move |r| matches!(&r.cells[0], Value::Str(s) if s == label))
}

/// A numeric cell as `f64` (strings read as 0).
fn as_f64(value: &Value) -> f64 {
    match value {
        Value::Int(v) => *v as f64,
        Value::Float(v) => *v,
        Value::Str(_) => 0.0,
    }
}

fn run_fig01_04(cfg: &RunConfig) -> Vec<Row> {
    const PARTICLES: usize = 168;
    const PAGE_BYTES: usize = 4096;
    let procs = cfg.procs_or(4);
    let seed = cfg.seed_or(42);
    let cells: Vec<(CellKey, (&str, Ordering))> = [
        ("Figure 1 (original)", Ordering::Original),
        ("Figure 4 (hilbert)", Ordering::Reordered(Method::Hilbert)),
    ]
    .into_iter()
    .map(|(label, ordering)| {
        let key = KeyBuilder::new("fig01_04")
            .field_usize("particles", PARTICLES)
            .field_usize("procs", procs)
            .field_u64("seed", seed)
            .field_str("label", label)
            .field_str("ordering", &ordering.name())
            .finish();
        (key, (label, ordering))
    })
    .collect();
    run_keyed_cells(cells, |(label, ordering)| {
        let (sink, _) = stream_run(AppKind::BarnesHut, ordering, PARTICLES, 1, seed, |layout| {
            UnitSetsSink::new(layout.clone(), procs, PAGE_BYTES)
        });
        let num_pages = sink.num_units();
        page_update_map(sink)
            .iter()
            .enumerate()
            .map(|(p, pages)| {
                let marks: String =
                    (0..num_pages).map(|pg| if pages.contains(&pg) { 'X' } else { '.' }).collect();
                row![label, format!("P{p}"), marks, pages.len()]
            })
            .collect()
    })
}

fn run_fig02_05(cfg: &RunConfig) -> Vec<Row> {
    // The paper uses 32 768 bodies on 8 KB pages (384 pages of 96-byte records).
    let bodies = if cfg.scale == Scale::Paper { 32_768 } else { 8_192 };
    let page_bytes = 8 * 1024;
    let seed = cfg.seed_or(7);
    // --procs narrows the sweep to one processor count; default is the paper's 2-16.
    let proc_counts = cfg.procs.map(|p| vec![p]).unwrap_or_else(|| vec![2, 4, 8, 16]);
    // Keyed on (bodies, procs, seed, ordering): a narrowed `--procs 8` run shares
    // cache entries with the default 2-16 ladder, and tiny/small share `bodies`.
    let cells: Vec<(CellKey, (usize, &str, Ordering))> = proc_counts
        .into_iter()
        .flat_map(|procs| {
            [
                (procs, "original", Ordering::Original),
                (procs, "hilbert", Ordering::Reordered(Method::Hilbert)),
            ]
        })
        .map(|(procs, label, ordering)| {
            let key = KeyBuilder::new("fig02_05")
                .field_usize("bodies", bodies)
                .field_usize("page_bytes", page_bytes)
                .field_u64("seed", seed)
                .field_usize("procs", procs)
                .field_str("label", label)
                .field_str("ordering", &ordering.name())
                .finish();
            (key, (procs, label, ordering))
        })
        .collect();
    run_keyed_cells(cells, |(procs, label, ordering)| {
        let (sink, _) = stream_run(AppKind::BarnesHut, ordering, bodies, 1, seed, |layout| {
            UnitSetsSink::new(layout.clone(), procs, page_bytes)
        });
        let report = PageSharingReport::from_sink(sink);
        let max = report.sharers.iter().copied().max().unwrap_or(0);
        vec![row![
            procs,
            label,
            report.num_units,
            report.mean_sharers(),
            report.mean_writers(),
            u64::from(max),
            report.falsely_shared_units
        ]]
    })
}

fn run_fig03(_cfg: &RunConfig) -> Vec<Row> {
    const SIDE: usize = 8;
    let points: Vec<[f64; 2]> =
        (0..SIDE * SIDE).map(|i| [(i % SIDE) as f64, (i / SIDE) as f64]).collect();
    let cells: Vec<(CellKey, Method)> = Method::ALL
        .iter()
        .map(|&method| {
            let key = KeyBuilder::new("fig03")
                .field_usize("side", SIDE)
                .field_str("method", method.name())
                .finish();
            (key, method)
        })
        .collect();
    run_keyed_cells(cells, |method| {
        let reordering = compute_reordering_from_points(method, &points);
        // rank_of(cell) = position along the curve; rows are printed top-down as in
        // the paper's figure.
        (0..SIDE)
            .rev()
            .map(|y| {
                let ranks: Vec<String> =
                    (0..SIDE).map(|x| format!("{:3}", reordering.rank_of(y * SIDE + x))).collect();
                row![method.name(), y, ranks.join(" ")]
            })
            .collect()
    })
}

fn fig06_remote_stats(sim: &Moldyn, procs: usize, unit_bytes: usize) -> (f64, f64) {
    let layout = ObjectLayout::new(sim.num_molecules(), molecular::moldyn::MOLECULE_BYTES);
    let n = sim.num_molecules();
    let mut total_units = 0usize;
    let mut total_owners = 0usize;
    for p in 0..procs {
        let mut remote_units = BTreeSet::new();
        let mut remote_owners = BTreeSet::new();
        for &(i, j) in &sim.pairs {
            let (i, j) = (i as usize, j as usize);
            let oi = i * procs / n;
            let oj = j * procs / n;
            // Partner molecules of processor p's pairs that belong to someone else.
            if oi == p && oj != p {
                remote_units.insert(layout.unit_of(j, unit_bytes));
                remote_owners.insert(oj);
            }
            if oj == p && oi != p {
                remote_units.insert(layout.unit_of(i, unit_bytes));
                remote_owners.insert(oi);
            }
        }
        total_units += remote_units.len();
        total_owners += remote_owners.len();
    }
    (total_units as f64 / procs as f64, total_owners as f64 / procs as f64)
}

fn run_fig06(cfg: &RunConfig) -> Vec<Row> {
    let n = if cfg.scale == Scale::Paper { 32_000 } else { 8_000 };
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(11);
    let cells: Vec<(CellKey, (&str, Option<Method>))> =
        [("hilbert", Some(Method::Hilbert)), ("column", Some(Method::Column)), ("original", None)]
            .into_iter()
            .map(|(label, method)| {
                let key = KeyBuilder::new("fig06")
                    .field_usize("molecules", n)
                    .field_usize("procs", procs)
                    .field_u64("seed", seed)
                    .field_str("ordering", label)
                    .finish();
                (key, (label, method))
            })
            .collect();
    run_keyed_cells(cells, |(label, method)| {
        let mut sim = Moldyn::lattice(n, seed, MoldynParams::default());
        if let Some(m) = method {
            sim.reorder(m);
        }
        [("4 KB page", 4096usize), ("128 B line", 128)]
            .into_iter()
            .map(|(unit_label, unit_bytes)| {
                let (units, owners) = fig06_remote_stats(&sim, procs, unit_bytes);
                row![label, unit_label, units, owners]
            })
            .collect()
    })
}

fn run_fig07(cfg: &RunConfig) -> Vec<Row> {
    let scale = cfg.scale;
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(321);
    let cost = CostModel::default();
    let cells: Vec<(CellKey, AppKind)> = AppKind::ALL
        .iter()
        .map(|&app| {
            let key = KeyBuilder::new("fig07")
                .field_str("scale", scale.name())
                .field_usize("procs", procs)
                .field_u64("seed", seed)
                .field_str("app", app.name())
                .finish();
            (key, app)
        })
        .collect();
    run_keyed_cells(cells, |app| {
        // The original version's run also yields the sequential baseline: its
        // processor-folded twin is the original version on one processor.
        let (original, seq, _) = origin_run(app, Ordering::Original, scale, procs, seed, true);
        let seq_time = cost.machine_time(&seq.expect("a folded run carries the twin"));
        let speedup_of = |ordering: Ordering| -> f64 {
            let (r, _, reorder_seconds) = origin_run(app, ordering, scale, procs, seed, false);
            seq_time / (cost.machine_time(&r) + reorder_seconds)
        };
        let original = seq_time / cost.machine_time(&original);
        let hilbert = speedup_of(Ordering::Reordered(Method::Hilbert));
        let column = if app.is_category2() {
            Value::Float(speedup_of(Ordering::Reordered(Method::Column)))
        } else {
            Value::Str("-".to_string())
        };
        vec![Row { cells: vec![app.name().into(), original.into(), hilbert.into(), column] }]
    })
}

fn run_fig08_09(cfg: &RunConfig) -> Vec<Row> {
    let scale = cfg.scale;
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(55);
    let config = DsmConfig::cluster(procs);
    let cost = NetworkCostModel::default();
    let cells: Vec<(CellKey, AppKind)> = AppKind::ALL
        .iter()
        .map(|&app| {
            let key = KeyBuilder::new("fig08_09")
                .field_str("scale", scale.name())
                .field_usize("procs", procs)
                .field_u64("seed", seed)
                .field_str("app", app.name())
                .finish();
            (key, app)
        })
        .collect();
    run_keyed_cells(cells, |app| {
        let speedups = |ordering: Ordering| -> (f64, f64) {
            let (tmk, hlrc, reorder_seconds) = dsm_cell(app, ordering, scale, config, seed);
            let tmk_est = cost.estimate(&tmk);
            let hlrc_est = cost.estimate(&hlrc);
            (
                tmk_est.sequential_seconds / (tmk_est.parallel_seconds + reorder_seconds),
                hlrc_est.sequential_seconds / (hlrc_est.parallel_seconds + reorder_seconds),
            )
        };
        let (tmk_orig, hlrc_orig) = speedups(Ordering::Original);
        let (tmk_reord, hlrc_reord) = speedups(Ordering::Reordered(app.dsm_reordering()));
        vec![row![
            app.name(),
            tmk_orig,
            hlrc_orig,
            tmk_reord,
            hlrc_reord,
            (tmk_reord / tmk_orig - 1.0) * 100.0,
            (hlrc_reord / hlrc_orig - 1.0) * 100.0
        ]]
    })
}

fn run_ablation_reorder_frequency(cfg: &RunConfig) -> Vec<Row> {
    let n = if cfg.scale == Scale::Paper { 32_768 } else { 8_192 };
    let steps = 8;
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(17);
    let periods: Vec<usize> = vec![0, 1, 2, 4, 8];
    // This is the one wall-clock-timing experiment: cells run *sequentially* so each
    // step_parallel gets the whole machine and total_reorder_s is measured without
    // contention from sibling cells.
    periods
        .into_iter()
        .flat_map(|period| {
            // period 0 = never reorder; otherwise reorder before step i when
            // i % period == 0.
            let mut sim = BarnesHut::two_plummer(n, seed, BarnesHutParams::default());
            let mut reorder_cost = 0.0;
            for step in 0..steps {
                if period != 0 && step % period == 0 {
                    let t0 = Instant::now();
                    sim.reorder(Method::Hilbert);
                    reorder_cost += t0.elapsed().as_secs_f64();
                }
                sim.step_parallel(rayon::current_num_threads());
            }
            // Measure the sharing of one final traced iteration.
            let mut sink = UnitSetsSink::new(sim.layout(), procs, 8 * 1024);
            sim.stream_iterations(1, &mut sink);
            let sharing = PageSharingReport::from_sink(sink);
            let label = if period == 0 { "never".to_string() } else { format!("every {period}") };
            vec![row![label, sharing.mean_writers(), sharing.mean_sharers(), reorder_cost]]
        })
        .collect()
}

/// Time one ranking pipeline over a flat coordinate buffer.  Returns
/// (key_ms, rank_ms, permute_ms, permutation) where the permute phase uses the
/// clone-the-world gather for the comparison baseline and the in-place cycle walk for
/// the radix pipelines.
fn time_pipeline(
    pipeline: &str,
    points: &[[f64; 3]],
    coords: &[f64],
    quantizer: &Quantizer,
    width: KeyWidth,
    parallel: bool,
) -> (f64, f64, f64, Permutation) {
    if pipeline == "comparison" {
        let (key_ms, keys) = time_ms(|| {
            sort_keys(Method::Hilbert, points.len(), 3, quantizer, |i, d| coords[i * 3 + d])
        });
        let (rank_ms, permutation) = time_ms(|| Permutation::from_sort_keys_comparison(&keys));
        let objects = points.to_vec();
        let (permute_ms, gathered) = time_ms(|| permutation.apply_cloned(&objects));
        assert_eq!(gathered.len(), points.len());
        (key_ms, rank_ms, permute_ms, permutation)
    } else {
        let (key_ms, keys) =
            time_ms(|| pack_keys(Method::Hilbert, 3, quantizer, coords, width, parallel));
        let (rank_ms, permutation) = time_ms(|| keys.rank(parallel));
        let mut objects = points.to_vec();
        let (permute_ms, ()) = time_ms(|| permutation.apply_in_place(&mut objects));
        assert_eq!(objects.len(), points.len());
        (key_ms, rank_ms, permute_ms, permutation)
    }
}

fn run_bench_reorder_cost(cfg: &RunConfig) -> Vec<Row> {
    let n = match cfg.scale {
        Scale::Tiny => 20_000,
        Scale::Small => 200_000,
        Scale::Paper => 1_000_000,
    };
    let seed = cfg.seed_or(41);
    let workloads: Vec<(&str, Vec<[f64; 3]>)> = vec![
        ("plummer", two_plummer(n, 3, 1.0, 6.0, seed).0),
        ("mesh", UnstructuredMesh::with_approx_nodes(n, 0.25, seed).positions),
        ("lattice", cubic_lattice(n, 12.0, 0.3, seed)),
    ];
    let threads = rayon::current_num_threads();
    // (pipeline label, key width, parallel) — `comparison` ignores width/parallel.
    let pipelines: [(&str, KeyWidth, bool); 5] = [
        ("comparison", KeyWidth::Wide, false),
        ("radix_serial", KeyWidth::Auto, false),
        ("radix_parallel", KeyWidth::Auto, true),
        ("radix_serial_wide", KeyWidth::Wide, false),
        ("radix_parallel_wide", KeyWidth::Wide, true),
    ];
    // This is a wall-clock-timing experiment: cells run *sequentially* so each
    // pipeline gets the whole machine (like the reorder-frequency ablation).
    let mut rows = Vec::new();
    for (workload, points) in &workloads {
        let n = points.len();
        let coords: Vec<f64> = points.iter().flat_map(|p| p.iter().copied()).collect();
        let quantizer = Quantizer::fit(n, 3, |i, d| coords[i * 3 + d]);
        let mut baseline: Option<Permutation> = None;
        for (pipeline, width, parallel) in pipelines {
            let (key_ms, rank_ms, permute_ms, permutation) =
                time_pipeline(pipeline, points, &coords, &quantizer, width, parallel);
            // Every pipeline must produce the same permutation as the baseline; a
            // divergence here is a correctness bug, not a performance difference.
            match &baseline {
                None => baseline = Some(permutation),
                Some(b) => assert_eq!(
                    b.ranks(),
                    permutation.ranks(),
                    "{pipeline} diverged from the comparison baseline on {workload}"
                ),
            }
            let key_bits: i64 = if pipeline == "comparison" {
                128
            } else {
                match width {
                    KeyWidth::Auto => 64,
                    KeyWidth::Wide => 128,
                }
            };
            let sort_mobj_s = n as f64 / ((key_ms + rank_ms) * 1e-3) / 1e6;
            let permute_mobj_s = n as f64 / (permute_ms * 1e-3) / 1e6;
            rows.push(row![
                *workload,
                n,
                pipeline,
                key_bits,
                if parallel { threads } else { 1 },
                key_ms,
                rank_ms,
                permute_ms,
                sort_mobj_s,
                permute_mobj_s
            ]);
        }
    }
    rows
}

/// Wall-clock milliseconds of `f`, with its result.
fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let result = f();
    (t0.elapsed().as_secs_f64() * 1e3, result)
}

/// The fastest of the timed samples, with the last sample's result.
fn fastest<R>(samples: impl IntoIterator<Item = (f64, R)>) -> (f64, R) {
    samples
        .into_iter()
        .reduce(|(best, _), (ms, result)| (best.min(ms), result))
        .expect("at least one repetition")
}

/// Best-of-`reps` wall clock of one bench path: each repetition's state comes from
/// `setup`, off the clock, and only `timed` is measured.  Every path the benches
/// time is deterministic, so repetition only filters scheduler noise.
fn best_of<S, R>(reps: usize, setup: impl Fn() -> S, timed: impl Fn(S) -> R) -> (f64, R) {
    fastest((0..reps).map(|_| {
        let state = setup();
        time_ms(|| timed(state))
    }))
}

fn run_bench_sim_throughput(cfg: &RunConfig) -> Vec<Row> {
    let scale = cfg.scale;
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(61);
    let repetitions = if scale == Scale::Tiny { 1 } else { 3 };
    // This is a wall-clock-timing experiment: cells run *sequentially* so each replay
    // gets the whole machine (like the reorder-cost bench).
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        // Replay-representative sizing: `Scale` picks FMM's object count for its
        // *compute* cost (FMM builds expansions per iteration), which at small scale
        // leaves the object array inside the simulated TLB reach — a regime paper-scale
        // FMM (65 536 bodies, 6 MB) is never in.  The replay bench sizes FMM like
        // Barnes-Hut so every trace exercises the same TLB/cache pressure as Table 2.
        let n = if app == AppKind::Fmm {
            scale.size_of(app).max(scale.size_of(AppKind::BarnesHut))
        } else {
            scale.size_of(app)
        };
        // Timing replay of a materialized trace is this bench's job.
        let (builder, _) =
            stream_run(app, Ordering::Original, n, scale.iterations_of(app), seed, |l| {
                smtrace::TraceBuilder::new(l.clone(), procs)
            });
        let trace = builder.finish();
        let accesses = trace.total_accesses() as u64;
        let preset = OriginPreset::origin2000(procs);

        // Path 1 — the preserved scan-based baseline over the materialized trace.
        let (ref_ms, ref_result) = best_of(
            repetitions,
            || ReferenceSim::new(procs, preset.l2, preset.tlb),
            |mut reference| reference.run_trace_with_layout(&trace, &trace.layout),
        );

        // Path 2 — the directory machine over the same materialized trace.
        let (mat_ms, mat_result) = best_of(
            repetitions,
            || preset.build_machine(),
            |mut machine| machine.run_trace_with_layout(&trace, &trace.layout),
        );

        // Path 3 — the directory machine fed through the streaming sink.
        let (stream_ms, stream_result) = best_of(
            repetitions,
            || SimSink::new(preset.build_machine(), trace.layout.clone()),
            |mut sink| {
                trace.replay_into(&mut sink);
                sink.finish()
            },
        );

        // Identical counters across all three paths is a hard correctness requirement,
        // not a statistical expectation — a divergence here is a simulator bug.
        assert_eq!(
            ref_result,
            mat_result,
            "directory replay diverged from the reference for {}",
            app.name()
        );
        assert_eq!(
            ref_result,
            stream_result,
            "streaming replay diverged from the reference for {}",
            app.name()
        );

        let paths: [(&str, f64, &SimulationResult); 3] = [
            ("reference", ref_ms, &ref_result),
            ("materialized", mat_ms, &mat_result),
            ("streaming", stream_ms, &stream_result),
        ];
        for (path, path_ms, result) in paths {
            rows.push(row![
                app.name(),
                trace.layout.num_objects,
                procs,
                path,
                accesses,
                path_ms,
                accesses as f64 / (path_ms * 1e-3) / 1e6,
                result.l2_misses(),
                result.tlb_misses(),
                result.coherence_misses(),
                ref_ms / path_ms
            ]);
        }
    }
    // Summary rows: aggregate throughput over all five applications plus the geomean
    // per-application speedup — the headline replay-throughput claim.
    for s in summarize_bench_paths(
        &rows,
        &["reference", "materialized", "streaming"],
        3,
        4,
        5,
        &[7, 8, 9],
        10,
    ) {
        rows.push(row![
            "(all)",
            0usize,
            procs,
            s.path,
            s.accesses,
            s.ms,
            s.maccess_s,
            s.col_sums[0],
            s.col_sums[1],
            s.col_sums[2],
            s.geomean_speedup
        ]);
    }
    rows
}

/// The per-path summary of a throughput bench's rows.
struct PathSummary {
    path: &'static str,
    accesses: u64,
    ms: f64,
    maccess_s: f64,
    /// Sums of the caller's extra counter columns, in the order requested.
    col_sums: Vec<u64>,
    /// Geometric mean of the per-application speedup column.
    geomean_speedup: f64,
}

/// Aggregate the `(all)` summary per path: total accesses and wall-clock, aggregate
/// throughput, sums of the requested counter columns, and the geomean per-application
/// speedup.  Shared by the sim-, dsm- and gen-throughput benches, which differ only in
/// column layout and path names.
fn summarize_bench_paths(
    rows: &[Row],
    paths: &[&'static str],
    path_col: usize,
    accesses_col: usize,
    ms_col: usize,
    sum_cols: &[usize],
    speedup_col: usize,
) -> Vec<PathSummary> {
    let cell = |r: &Row, i: usize| as_f64(&r.cells[i]);
    paths
        .iter()
        .copied()
        .map(|path| {
            let path_rows: Vec<&Row> =
                rows.iter().filter(|r| r.cells[path_col] == Value::Str(path.into())).collect();
            let accesses: f64 = path_rows.iter().map(|r| cell(r, accesses_col)).sum();
            let ms: f64 = path_rows.iter().map(|r| cell(r, ms_col)).sum();
            let geomean_speedup =
                (path_rows.iter().map(|r| cell(r, speedup_col).ln()).sum::<f64>()
                    / path_rows.len() as f64)
                    .exp();
            PathSummary {
                path,
                accesses: accesses as u64,
                ms,
                maccess_s: accesses / (ms * 1e-3) / 1e6,
                col_sums: sum_cols
                    .iter()
                    .map(|&c| path_rows.iter().map(|r| cell(r, c)).sum::<f64>() as u64)
                    .collect(),
                geomean_speedup,
            }
        })
        .collect()
}

/// The applications the DSM-throughput bench replays, with the workload each one's
/// generator draws from (the reorder-cost bench's point sets come from the same three).
const DSM_THROUGHPUT_APPS: [(AppKind, &str); 3] = [
    (AppKind::BarnesHut, "plummer"),
    (AppKind::Unstructured, "mesh"),
    (AppKind::Moldyn, "lattice"),
];

fn run_bench_dsm_throughput(cfg: &RunConfig) -> Vec<Row> {
    let scale = cfg.scale;
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(71);
    let config = DsmConfig::cluster(procs);
    let repetitions = if scale == Scale::Tiny { 1 } else { 3 };
    // Both parallel protocol simulators over one reduced history.
    let protocols = |history: &PageWriteHistory| {
        (TreadMarksSim::new(config).run_history(history), HlrcSim::new(config).run_history(history))
    };
    // This is a wall-clock-timing experiment: cells run *sequentially* so each path
    // gets the whole machine (like the sim-throughput bench).
    let mut rows = Vec::new();
    for (app, workload) in DSM_THROUGHPUT_APPS {
        // Timing the reduction of a materialized trace is this bench's job.
        let (n, iters) = (scale.size_of(app), scale.iterations_of(app));
        let (builder, _) = stream_run(app, Ordering::Original, n, iters, seed, |l| {
            smtrace::TraceBuilder::new(l.clone(), procs)
        });
        let trace = builder.finish();
        let (layout, accesses) = (&trace.layout, trace.total_accesses() as u64);

        // Path 1 — the preserved map-based serial pipeline; each protocol re-reduces
        // the trace from scratch.
        let (ref_ms, ref_results) = best_of(
            repetitions,
            || (),
            |()| {
                let tmk = dsm::reference::run_treadmarks(config, &trace, layout);
                let hlrc = dsm::reference::run_hlrc(config, &trace, layout);
                (tmk, hlrc)
            },
        );

        // Path 2 — one flat reduction of the materialized trace feeds both parallel
        // simulators.
        let (mat_ms, mat_results) = best_of(
            repetitions,
            || (),
            |()| protocols(&PageWriteHistory::build(&trace, layout, config.page_bytes)),
        );

        // Path 3 — the trace streams through a PageHistorySink (the no-materialized-
        // trace path Table 3 and Figures 8/9 use) into the same simulators.
        let (stream_ms, stream_results) = best_of(
            repetitions,
            || (),
            |()| {
                let mut sink = PageHistorySink::new(layout.clone(), procs, config.page_bytes);
                trace.replay_into(&mut sink);
                protocols(&sink.finish())
            },
        );

        // Bit-identical DsmRunResults (aggregate + per-processor, both protocols)
        // across all three paths is a hard correctness requirement, not a statistical
        // expectation — a divergence here is a pipeline bug.
        assert_eq!(
            ref_results,
            mat_results,
            "materialized DSM pipeline diverged from the reference for {}",
            app.name()
        );
        assert_eq!(
            ref_results,
            stream_results,
            "streaming DSM pipeline diverged from the reference for {}",
            app.name()
        );

        // Each path's row reports that path's *own* protocol counters (asserted
        // identical above), so the CI artifact check can independently re-verify the
        // cross-path agreement.
        let paths: [(&str, f64, &(dsm::DsmRunResult, dsm::DsmRunResult)); 3] = [
            ("reference", ref_ms, &ref_results),
            ("materialized", mat_ms, &mat_results),
            ("streaming", stream_ms, &stream_results),
        ];
        for (path, path_ms, (tmk, hlrc)) in paths {
            rows.push(row![
                app.name(),
                workload,
                layout.num_objects,
                procs,
                path,
                accesses,
                path_ms,
                accesses as f64 / (path_ms * 1e-3) / 1e6,
                tmk.stats.messages,
                tmk.stats.data_mbytes(),
                hlrc.stats.messages,
                hlrc.stats.data_mbytes(),
                ref_ms / path_ms
            ]);
        }
    }
    // Summary rows: aggregate throughput over the three applications plus the geomean
    // per-application speedup — the headline pipeline-throughput claim.
    for s in
        summarize_bench_paths(&rows, &["reference", "materialized", "streaming"], 4, 5, 6, &[], 12)
    {
        rows.push(row![
            "(all)",
            "-",
            0usize,
            procs,
            s.path,
            s.accesses,
            s.ms,
            s.maccess_s,
            0u64,
            0.0f64,
            0u64,
            0.0f64,
            s.geomean_speedup
        ]);
    }
    rows
}

fn run_bench_gen_throughput(cfg: &RunConfig) -> Vec<Row> {
    let scale = cfg.scale;
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(81);
    let repetitions = if scale == Scale::Tiny { 1 } else { 3 };
    // This is a wall-clock-timing experiment: cells run *sequentially*, and the
    // sharded path fans each cell's virtual processors out over all host cores (like
    // the sim-throughput bench, which times the consumer side of the same pipeline).
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        let n = scale.size_of(app);
        let iters = scale.iterations_of(app);
        let initial = crate::LiveApp::build(app, n, seed);
        let layout = initial.layout();
        let preset = OriginPreset::origin2000(procs);

        // Path 1 — the preserved serial traced specs feeding the streaming sink.
        let fresh = || (initial.clone(), SimSink::new(preset.build_machine(), layout.clone()));
        let (serial_ms, serial_result) = best_of(repetitions, fresh, |(mut live, mut sink)| {
            live.stream_serial(iters, &mut sink);
            sink.finish()
        });

        // Path 2 — sharded parallel generation into the identical sink.
        let (sharded_ms, sharded_result) = best_of(repetitions, fresh, |(mut live, mut sink)| {
            live.stream_sharded(iters, &mut sink);
            sink.finish()
        });

        // Identical counters across both producers is a hard correctness requirement,
        // not a statistical expectation — a divergence here is a sharding bug.
        assert_eq!(
            serial_result,
            sharded_result,
            "sharded generation diverged from the serial spec for {}",
            app.name()
        );

        let accesses = serial_result.totals().accesses;
        let paths: [(&str, f64, &SimulationResult); 2] =
            [("serial", serial_ms, &serial_result), ("sharded", sharded_ms, &sharded_result)];
        for (path, path_ms, result) in paths {
            rows.push(row![
                app.name(),
                initial.num_objects(),
                procs,
                path,
                accesses,
                path_ms,
                accesses as f64 / (path_ms * 1e-3) / 1e6,
                result.l2_misses(),
                result.tlb_misses(),
                result.coherence_misses(),
                serial_ms / path_ms
            ]);
        }
    }
    // Summary rows: aggregate generation throughput over all five applications plus
    // the geomean per-application speedup — the headline producer-throughput claim.
    for s in summarize_bench_paths(&rows, &["serial", "sharded"], 3, 4, 5, &[7, 8, 9], 10) {
        rows.push(row![
            "(all)",
            0usize,
            procs,
            s.path,
            s.accesses,
            s.ms,
            s.maccess_s,
            s.col_sums[0],
            s.col_sums[1],
            s.col_sums[2],
            s.geomean_speedup
        ]);
    }
    rows
}

fn run_bench_trace_throughput(cfg: &RunConfig) -> Vec<Row> {
    use smtrace::codec::{CorpusReader, CorpusWriter};

    let scale = cfg.scale;
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(101);
    let repetitions = if scale == Scale::Tiny { 1 } else { 5 };
    // Wall-clock-timing experiment: cells run sequentially (see the gen-throughput
    // bench, which times the producer side of the same pipeline).
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        let n = scale.size_of(app);
        let iters = scale.iterations_of(app);
        let initial = crate::LiveApp::build(app, n, seed);
        let layout = initial.layout();
        let preset = OriginPreset::origin2000(procs);

        // Record the corpus once, outside the timed region: recording cost amortizes
        // over every future replay, which is the whole point of the format.
        let corpus_path = std::env::temp_dir().join(format!(
            "xp-trace-throughput-{}-{}.smtc",
            std::process::id(),
            app.name()
        ));
        let corpus = {
            let mut live = initial.clone();
            let mut writer = CorpusWriter::create(&corpus_path, layout.clone(), procs)
                .expect("create trace corpus");
            live.stream_sharded(iters, &mut writer);
            writer.finish_durable().expect("write trace corpus")
        };

        // The two paths, interleaved: alternating live/replay repetitions sample the
        // same scheduler and frequency conditions, so the marginal apps — where the
        // paths are within a few percent — are not decided by drift between two
        // back-to-back timing blocks.
        let (live, replay): (Vec<_>, Vec<_>) = (0..repetitions)
            .map(|_| {
                // Path 1 — live generation into the streaming sink (the status quo).
                let mut app = initial.clone();
                let mut sink = SimSink::new(preset.build_machine(), layout.clone());
                let live = time_ms(|| {
                    app.stream_sharded(iters, &mut sink);
                    sink.finish()
                });
                // Path 2 — decode the corpus from disk into the identical sink.
                let mut reader = CorpusReader::open(&corpus_path).expect("open trace corpus");
                let mut sink = SimSink::new(preset.build_machine(), layout.clone());
                let replay = time_ms(|| {
                    reader.replay_into(&mut sink).expect("decode trace corpus");
                    sink.finish()
                });
                (live, replay)
            })
            .unzip();
        let (live_ms, live_result) = fastest(live);
        let (replay_ms, replay_result) = fastest(replay);
        std::fs::remove_file(&corpus_path).ok();

        // Bit-identical counters across both paths is a hard correctness requirement —
        // a divergence here is a codec bug, not measurement noise.
        assert_eq!(
            live_result,
            replay_result,
            "corpus replay diverged from live generation for {}",
            app.name()
        );

        let accesses = live_result.totals().accesses;
        assert_eq!(accesses, corpus.accesses, "corpus summary disagrees with the sink");
        let paths: [(&str, f64, &SimulationResult); 2] =
            [("live", live_ms, &live_result), ("replay", replay_ms, &replay_result)];
        for (path, path_ms, result) in paths {
            rows.push(row![
                app.name(),
                initial.num_objects(),
                procs,
                path,
                accesses,
                path_ms,
                accesses as f64 / (path_ms * 1e-3) / 1e6,
                corpus.file_bytes,
                corpus.bytes_per_access(),
                result.l2_misses(),
                result.tlb_misses(),
                result.coherence_misses(),
                live_ms / path_ms
            ]);
        }
    }
    // Summary rows: aggregate throughput over all five applications plus the geomean
    // per-application speedup — the headline decode-bound-replay claim.
    for s in summarize_bench_paths(&rows, &["live", "replay"], 3, 4, 5, &[9, 10, 11], 12) {
        rows.push(row![
            "(all)",
            0usize,
            procs,
            s.path,
            s.accesses,
            s.ms,
            s.maccess_s,
            0u64,
            0.0f64,
            s.col_sums[0],
            s.col_sums[1],
            s.col_sums[2],
            s.geomean_speedup
        ]);
    }
    rows
}

/// Consistency-unit sizes of the unit-size ablation, cache line to large page.
const UNIT_SWEEP_BYTES: [usize; 6] = [128, 512, 1024, 4096, 8192, 16384];

fn run_ablation_unit_sweep(cfg: &RunConfig) -> Vec<Row> {
    let n = if cfg.scale == Scale::Paper { 32_000 } else { 6_000 };
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(31);
    let cells: Vec<(CellKey, Method)> = [Method::Hilbert, Method::Column]
        .into_iter()
        .map(|method| {
            let key = KeyBuilder::new("ablation_unit_sweep")
                .field_usize("molecules", n)
                .field_usize("procs", procs)
                .field_u64("seed", seed)
                .field_str("method", method.name())
                .finish();
            (key, method)
        })
        .collect();
    // One cell per method: a single streamed pass reduces the run at every unit size.
    let unit_rows = run_keyed_cells(cells, |method| {
        let (sink, _) = stream_run(AppKind::Moldyn, Ordering::Reordered(method), n, 2, seed, |l| {
            PageHistorySink::with_granularities(l.clone(), procs, &UNIT_SWEEP_BYTES)
        });
        sink.finish_all()
            .iter()
            .map(|history| {
                let config = DsmConfig::new(history.page_bytes, procs);
                let r = TreadMarksSim::new(config).run_history(history);
                row![method.name(), history.page_bytes, r.stats.messages, r.stats.data_mbytes()]
            })
            .collect()
    });
    labelled(&unit_rows, Method::Hilbert.name())
        .zip(labelled(&unit_rows, Method::Column.name()))
        .map(|(h, c)| {
            let fewer =
                if as_f64(&h.cells[2]) <= as_f64(&c.cells[2]) { "hilbert" } else { "column" };
            let mut cells = h.cells[1..].to_vec();
            cells.extend_from_slice(&c.cells[2..]);
            cells.push(fewer.into());
            Row { cells }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Format;

    #[test]
    fn registry_ids_and_aliases_are_unique() {
        let mut seen = BTreeSet::new();
        for spec in all() {
            assert!(seen.insert(spec.id), "duplicate id {}", spec.id);
            for alias in spec.aliases {
                assert!(seen.insert(alias), "duplicate alias {alias}");
            }
        }
        assert_eq!(
            all().len(),
            17,
            "12 paper specs + the reorder-cost, sim-, dsm-, gen- and trace-throughput benches"
        );
    }

    #[test]
    fn former_binary_names_resolve_to_their_specs() {
        // `xp run <name>` keeps every name the per-experiment binaries used to have.
        for (name, id) in [
            ("table1_apps", "table1"),
            ("table2_origin", "table2"),
            ("table3_dsm", "table3"),
            ("table4_fmm_breakdown", "table4"),
            ("fig01_04_particle_pages", "fig01_04"),
            ("fig02_05_page_sharing", "fig02_05"),
            ("fig03_orderings", "fig03"),
            ("fig06_boundary", "fig06"),
            ("fig07_origin_speedups", "fig07"),
            ("fig08_09_dsm_speedups", "fig08_09"),
            ("ablation_reorder_frequency", "ablation_reorder_frequency"),
            ("ablation_unit_sweep", "ablation_unit_sweep"),
        ] {
            assert_eq!(find(name).map(|spec| spec.id), Some(id), "{name}");
        }
    }

    #[test]
    fn every_figure_number_resolves() {
        for n in 1..=9 {
            assert!(find(&format!("fig{n}")).is_some(), "fig{n} must resolve");
        }
        for n in 1..=4 {
            assert!(find(&format!("table{n}")).is_some());
        }
    }

    #[test]
    fn fig03_runs_quickly_and_produces_full_grid() {
        let spec = find("fig03").unwrap();
        let result = spec.execute(&RunConfig::default());
        // 4 methods × 8 grid rows.
        assert_eq!(result.rows.len(), 32);
        for row in &result.rows {
            assert_eq!(row.cells.len(), 3);
        }
    }

    #[test]
    fn reorder_cost_bench_produces_all_pipeline_rows() {
        let spec = find("reorder-cost").unwrap();
        assert_eq!(spec.id, "bench_reorder_cost");
        let result = spec.execute(&RunConfig { scale: Scale::Tiny, procs: None, seed: None });
        // 3 workloads × 5 pipelines; the run itself asserts that every pipeline
        // produced the identical permutation.
        assert_eq!(result.rows.len(), 15);
        let json = result.render(Format::Json);
        assert!(json.contains("\"pipeline\": \"radix_parallel\""));
        assert!(json.contains("\"key_bits\": 64"));
    }

    #[test]
    fn sim_throughput_bench_covers_all_apps_and_paths() {
        let spec = find("sim-throughput").unwrap();
        assert_eq!(spec.id, "bench_sim_throughput");
        let result = spec.execute(&RunConfig { scale: Scale::Tiny, procs: Some(4), seed: None });
        // 5 applications × 3 replay paths, plus one summary row per path; the run
        // itself asserts that every path produced identical per-processor counters.
        assert_eq!(result.rows.len(), 18);
        let json = result.render(Format::Json);
        assert!(json.contains("\"path\": \"reference\""));
        assert!(json.contains("\"path\": \"materialized\""));
        assert!(json.contains("\"path\": \"streaming\""));
        assert!(json.contains("\"app\": \"(all)\""));
    }

    #[test]
    fn dsm_throughput_bench_covers_all_apps_and_paths() {
        let spec = find("dsm-throughput").unwrap();
        assert_eq!(spec.id, "bench_dsm_throughput");
        let result = spec.execute(&RunConfig { scale: Scale::Tiny, procs: Some(4), seed: None });
        // 3 applications × 3 pipeline paths, plus one summary row per path; the run
        // itself asserts that every path produced bit-identical DsmRunResults.
        assert_eq!(result.rows.len(), 12);
        let json = result.render(Format::Json);
        assert!(json.contains("\"path\": \"reference\""));
        assert!(json.contains("\"path\": \"materialized\""));
        assert!(json.contains("\"path\": \"streaming\""));
        assert!(json.contains("\"workload\": \"plummer\""));
        assert!(json.contains("\"workload\": \"mesh\""));
        assert!(json.contains("\"workload\": \"lattice\""));
        assert!(json.contains("\"app\": \"(all)\""));
    }

    #[test]
    fn gen_throughput_bench_covers_all_apps_and_paths() {
        let spec = find("gen-throughput").unwrap();
        assert_eq!(spec.id, "bench_gen_throughput");
        let result = spec.execute(&RunConfig { scale: Scale::Tiny, procs: Some(4), seed: None });
        // 5 applications × 2 producer paths, plus one summary row per path; the run
        // itself asserts that both producers fed identical counters into the sink.
        assert_eq!(result.rows.len(), 12);
        let json = result.render(Format::Json);
        assert!(json.contains("\"path\": \"serial\""));
        assert!(json.contains("\"path\": \"sharded\""));
        assert!(json.contains("\"app\": \"(all)\""));
        assert!(json.contains("\"speedup_vs_serial\": 1"), "serial speedup vs itself is 1.0");
    }

    #[test]
    fn trace_throughput_bench_covers_all_apps_and_paths() {
        let spec = find("trace-throughput").unwrap();
        assert_eq!(spec.id, "bench_trace_throughput");
        let result = spec.execute(&RunConfig { scale: Scale::Tiny, procs: Some(4), seed: None });
        // 5 applications × 2 paths, plus one summary row per path; the run itself
        // asserts bit-identical SimulationResults between live gen and corpus replay.
        assert_eq!(result.rows.len(), 12);
        let json = result.render(Format::Json);
        assert!(json.contains("\"path\": \"live\""));
        assert!(json.contains("\"path\": \"replay\""));
        assert!(json.contains("\"app\": \"(all)\""));
        assert!(json.contains("\"speedup_vs_live\": 1"), "live speedup vs itself is 1.0");
        // Every recorded corpus must beat the packed 4-byte in-memory stream.
        for row in &result.rows {
            if let (Value::Str(app), Value::Float(bpa)) = (&row.cells[0], &row.cells[8]) {
                if app != "(all)" {
                    assert!(*bpa < 4.0, "{app}: {bpa} bytes/access");
                }
            }
        }
    }

    #[test]
    fn table1_reflects_scale() {
        let spec = find("table1").unwrap();
        let small = spec.execute(&RunConfig { scale: Scale::Small, procs: None, seed: None });
        assert_eq!(small.rows.len(), 5);
    }

    #[test]
    fn fig01_04_produces_one_row_per_processor_per_figure() {
        let spec = find("fig01_04").unwrap();
        let result = spec.execute(&RunConfig::default());
        assert_eq!(result.rows.len(), 8, "2 figures x 4 processors");
        let json = result.render(Format::Json);
        assert!(json.contains("\"figure\": \"Figure 1 (original)\""));
    }
}
