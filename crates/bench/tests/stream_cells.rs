//! The streaming cell pipeline of Tables 2/3 and Figures 7–9 against the
//! materialized path it replaced, for every application × ordering those tables
//! report, at `Scale::Tiny` on 16 processors.
//!
//! * DSM cells: `stream_run` into one `PageHistorySink` must reduce to the same
//!   `PageWriteHistory` as `PageWriteHistory::build` over `build_run_sized`'s trace,
//!   and both protocols evaluated on that one history must return the full
//!   `DsmRunResult`s of the map-based `dsm::reference` spec.
//! * Origin cells: `stream_run` into a `SimSink` must return the counters of
//!   `run_trace_with_layout` on the materialized trace, bit for bit.

use dsm::{reference, DsmConfig, HlrcSim, PageHistorySink, PageWriteHistory, TreadMarksSim};
use memsim::{OriginPreset, SimSink};
use reorder::Method;
use repro_bench::{build_run_sized, stream_run, AppKind, Ordering, Scale};

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

fn materialized(app: AppKind, ordering: Ordering) -> repro_bench::AppRun {
    build_run_sized(app, ordering, SCALE.size_of(app), SCALE.iterations_of(app), PROCS, SEED)
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

        let run = materialized(app, ordering);
        let built = PageWriteHistory::build(&run.trace, &run.layout, config.page_bytes);
        assert_eq!(streamed, built, "{label}: streamed history diverged");

        let tmk = TreadMarksSim::new(config).run_history(&streamed);
        let hlrc = HlrcSim::new(config).run_history(&streamed);
        assert_eq!(tmk, reference::run_treadmarks(config, &run.trace, &run.layout), "{label}");
        assert_eq!(hlrc, reference::run_hlrc(config, &run.trace, &run.layout), "{label}");
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
            SimSink::new(preset.build_machine(), layout.clone())
        });
        let streamed = sink.finish();

        let run = materialized(app, ordering);
        let replayed = preset.build_machine().run_trace_with_layout(&run.trace, &run.layout);
        assert_eq!(streamed, replayed, "{label}: streamed Origin counters diverged");
        assert_eq!(streamed.totals().accesses, run.trace.total_accesses() as u64, "{label}");
    }
}
