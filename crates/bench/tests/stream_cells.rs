//! The streaming cell pipeline of Tables 2–4 and Figures 7–9 against the
//! materialized path it replaced, for every application × ordering those tables
//! report, at `Scale::Tiny` on 16 processors.
//!
//! * DSM cells: `stream_run` into one `PageHistorySink` must reduce to the same
//!   `PageWriteHistory` as `PageWriteHistory::build` over the same run streamed into a
//!   `TraceBuilder`, and both protocols evaluated on that one history must return the
//!   full `DsmRunResult`s of the map-based `dsm::reference` spec.
//! * Origin cells: `stream_run` into a `SimSink` must return the counters of
//!   `run_trace_with_layout` on the materialized trace, bit for bit, and its folded
//!   one-processor twin those of the materialized one-processor trace.
//! * Table 4 cells: every interval prefix of one streamed FMM history must equal
//!   `PageWriteHistory::build` over the trace truncated after that interval.
//! * Figures 1/2/4/5: the rows `fig01_04` and `fig02_05` stream through
//!   `UnitSetsSink` must equal rows computed from `IntervalTrace::unit_sets` over
//!   a trace of the serial `step_traced` spec.

use dsm::{reference, DsmConfig, HlrcSim, PageHistorySink, PageWriteHistory, TreadMarksSim};
use memsim::{OriginPreset, PageSharingReport, SimSink};
use reorder::Method;
use repro_bench::runner::RunConfig;
use repro_bench::{experiments, row, stream_run, AppKind, LiveApp, Ordering, Scale};
use smtrace::{ProgramTrace, SharingHistogram, TraceBuilder, UnitAccessSets};

const PROCS: usize = 16;
const SCALE: Scale = Scale::Tiny;
const SEED: u64 = 5;

/// The (application, ordering) rows of Tables 2 and 3.
fn table_cells() -> Vec<(AppKind, Ordering)> {
    let mut cells = Vec::new();
    for app in AppKind::ALL {
        cells.push((app, Ordering::Original));
        cells.push((app, Ordering::Reordered(Method::Hilbert)));
        if app.is_category2() {
            cells.push((app, Ordering::Reordered(Method::Column)));
        }
    }
    // 3 Category-1 apps × 2 orderings + 2 Category-2 apps × 3 orderings.
    assert_eq!(cells.len(), 12);
    cells
}

/// The run a cell streams, materialized instead: the oracle side of every check.
fn materialized(app: AppKind, ordering: Ordering, iters: usize) -> ProgramTrace {
    materialized_on(app, ordering, iters, PROCS)
}

fn materialized_on(app: AppKind, ordering: Ordering, iters: usize, procs: usize) -> ProgramTrace {
    let (builder, _) = stream_run(app, ordering, SCALE.size_of(app), iters, SEED, |layout| {
        TraceBuilder::new(layout.clone(), procs)
    });
    builder.finish()
}

#[test]
fn streamed_dsm_cells_match_the_materialized_history_and_the_reference_protocols() {
    let config = DsmConfig::cluster(PROCS);
    for (app, ordering) in table_cells() {
        let label = format!("{} / {}", app.name(), ordering.name());
        let (n, iters) = (SCALE.size_of(app), SCALE.iterations_of(app));
        let (sink, _) = stream_run(app, ordering, n, iters, SEED, |layout| {
            PageHistorySink::new(layout.clone(), PROCS, config.page_bytes)
        });
        let streamed = sink.finish();

        let trace = materialized(app, ordering, iters);
        let built = PageWriteHistory::build(&trace, &trace.layout, config.page_bytes);
        assert_eq!(streamed, built, "{label}: streamed history diverged");

        let tmk = TreadMarksSim::new(config).run_history(&streamed);
        let hlrc = HlrcSim::new(config).run_history(&streamed);
        assert_eq!(tmk, reference::run_treadmarks(config, &trace, &trace.layout), "{label}");
        assert_eq!(hlrc, reference::run_hlrc(config, &trace, &trace.layout), "{label}");
        assert!(tmk.stats.messages > 0, "{label}: a 16-processor run must communicate");
    }
}

#[test]
fn streamed_origin_cells_match_materialized_replay() {
    for (app, ordering) in table_cells() {
        let label = format!("{} / {}", app.name(), ordering.name());
        let (n, iters) = (SCALE.size_of(app), SCALE.iterations_of(app));
        let preset = OriginPreset::origin2000(PROCS);
        let (sink, _) = stream_run(app, ordering, n, iters, SEED, |layout| {
            SimSink::with_folded_twin(preset.build_machine(), layout.clone())
        });
        let (streamed, twin) = sink.finish_with_twin();

        let trace = materialized(app, ordering, iters);
        let replayed = preset.build_machine().run_trace_with_layout(&trace, &trace.layout);
        assert_eq!(streamed, replayed, "{label}: streamed Origin counters diverged");
        assert_eq!(streamed.totals().accesses, trace.total_accesses() as u64, "{label}");

        let serial = materialized_on(app, ordering, iters, 1);
        let sequential = OriginPreset::origin2000(1)
            .build_machine()
            .run_trace_with_layout(&serial, &serial.layout);
        assert_eq!(twin, Some(sequential), "{label}: folded twin diverged from the P=1 run");
    }
}

/// Table 4 charges each FMM phase the TreadMarks cost its interval prefix adds, on
/// prefixes of one streamed history.  Every prefix must be the history of the
/// truncated trace — `barriers` included, since the cost model charges them.
#[test]
fn table4_prefix_histories_match_building_the_truncated_trace() {
    let config = DsmConfig::cluster(PROCS);
    let app = AppKind::Fmm;
    for ordering in [Ordering::Original, Ordering::Reordered(Method::Hilbert)] {
        let label = ordering.name();
        let (sink, _) = stream_run(app, ordering, SCALE.size_of(app), 1, SEED, |layout| {
            PageHistorySink::new(layout.clone(), PROCS, config.page_bytes)
        });
        let history = sink.finish();
        assert_eq!(history.intervals.len(), 4, "{label}: one interval per traced FMM phase");
        let trace = materialized(app, ordering, 1);
        for len in 1..=history.intervals.len() {
            let mut truncated = trace.clone();
            truncated.intervals.truncate(len);
            let built = PageWriteHistory::build(&truncated, &trace.layout, config.page_bytes);
            let prefix = history.prefix(len);
            assert_eq!(prefix.barriers, len as u64, "{label}: barriers of {len} intervals");
            assert_eq!(prefix, built, "{label}: prefix of {len} intervals diverged");
        }
    }
}

/// The kept oracle for Figures 1/2/4/5: Barnes-Hut traced by the serial
/// `step_traced` spec into a materialized trace, each processor's unit sets unioned
/// over its intervals via `IntervalTrace::unit_sets`.  Returns the sets and the
/// unit count.
fn unit_sets_oracle(
    ordering: Ordering,
    bodies: usize,
    procs: usize,
    seed: u64,
    unit_bytes: usize,
) -> (Vec<UnitAccessSets>, usize) {
    let mut live = LiveApp::build(AppKind::BarnesHut, bodies, seed);
    if let Ordering::Reordered(method) = ordering {
        live.reorder(method);
    }
    let mut builder = TraceBuilder::new(live.layout(), procs);
    live.stream_serial(1, &mut builder);
    let trace = builder.finish();
    let mut per_proc = vec![UnitAccessSets::default(); procs];
    for interval in &trace.intervals {
        let sets = interval.unit_sets(&trace.layout, unit_bytes);
        for (total, sets) in per_proc.iter_mut().zip(sets) {
            total.read_units.extend(sets.read_units);
            total.write_units.extend(sets.write_units);
            total.read_objects.extend(sets.read_objects);
            total.written_objects.extend(sets.written_objects);
        }
    }
    (per_proc, trace.layout.num_units(unit_bytes))
}

#[test]
fn fig01_04_page_maps_match_the_materialized_unit_sets_oracle() {
    let result = experiments::find("fig01_04").unwrap().execute(&RunConfig::default());
    let mut expected = Vec::new();
    for (label, ordering) in [
        ("Figure 1 (original)", Ordering::Original),
        ("Figure 4 (hilbert)", Ordering::Reordered(Method::Hilbert)),
    ] {
        let (per_proc, num_pages) = unit_sets_oracle(ordering, 168, 4, 42, 4096);
        for (p, sets) in per_proc.iter().enumerate() {
            let marks: String =
                (0..num_pages).map(|pg| if sets.wrote_unit(pg) { 'X' } else { '.' }).collect();
            expected.push(row![label, format!("P{p}"), marks, sets.write_units.len()]);
        }
    }
    assert_eq!(result.rows, expected);
}

#[test]
fn fig02_05_sharing_matches_the_materialized_unit_sets_oracle() {
    let config = RunConfig { scale: SCALE, procs: Some(4), seed: None };
    let result = experiments::find("fig02_05").unwrap().execute(&config);
    let mut expected = Vec::new();
    for (label, ordering) in
        [("original", Ordering::Original), ("hilbert", Ordering::Reordered(Method::Hilbert))]
    {
        let (per_proc, num_units) = unit_sets_oracle(ordering, 8_192, 4, 7, 8 * 1024);
        let hist = SharingHistogram::from_unit_sets(&per_proc, num_units);
        let report = PageSharingReport {
            unit_bytes: 8 * 1024,
            num_units,
            falsely_shared_units: hist.falsely_shared_units(),
            sharers: hist.sharers,
            writers: hist.writers,
        };
        expected.push(row![
            4usize,
            label,
            num_units,
            report.mean_sharers(),
            report.mean_writers(),
            u64::from(report.sharers.iter().copied().max().unwrap_or(0)),
            report.falsely_shared_units
        ]);
    }
    assert_eq!(result.rows, expected);
}
