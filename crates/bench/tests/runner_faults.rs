//! Fault-isolation contract of the guarded cell runner: a panicking, failing or
//! over-budget cell never takes the experiment (or the worker pool) down with it —
//! siblings complete, the cell is retried under a deterministic backoff schedule,
//! and whatever remains terminally failed is reported per cell instead of aborting.
//!
//! The nested `join`/`par_iter` tests double as the proof obligation for the pool's
//! panic contract (DESIGN.md §7): after a cell panics *inside* nested pool
//! constructs, the very next round — scheduled on the same persistent pool — must
//! run normally, or retries would deadlock.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use repro_bench::row;
use repro_bench::runner::{ExperimentSpec, Format, Row, RunConfig};
use repro_bench::scheduler::{run_cells, run_cells_with_policy, CellStatus, FaultPolicy};

/// A policy with no backoff sleeps, so the retry tests run in microseconds.
fn quick(max_attempts: u32) -> FaultPolicy {
    FaultPolicy { max_attempts, backoff: Duration::ZERO, timeout: None }
}

#[test]
fn a_panicking_cell_is_isolated_and_its_siblings_complete() {
    let (rows, outcomes) = run_cells_with_policy(vec![0u32, 1, 2, 3], quick(2), |cell| {
        if cell == 2 {
            panic!("cell two exploded");
        }
        vec![row![cell as u64]]
    });
    // Three survivors, in cell order, with the failed cell's rows absent.
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[2].cells[0], repro_bench::runner::Value::Int(3));
    assert_eq!(outcomes.len(), 1);
    let outcome = &outcomes[0];
    assert_eq!(outcome.cell, 2);
    assert_eq!(outcome.status, CellStatus::Panicked);
    assert_eq!(outcome.attempts, 2, "a deterministic panic exhausts every attempt");
    assert!(
        outcome.error.as_deref().unwrap().contains("cell two exploded"),
        "the original panic payload is preserved: {:?}",
        outcome.error
    );
}

#[test]
fn a_flaky_cell_recovers_on_retry_and_reports_ok() {
    let first_attempt_done = AtomicU32::new(0);
    let (rows, outcomes) = run_cells_with_policy(vec![10u32, 20], quick(3), |cell| {
        if cell == 20 && first_attempt_done.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("transient");
        }
        vec![row![cell as u64]]
    });
    assert_eq!(rows.len(), 2, "the recovered cell's rows are kept");
    assert_eq!(outcomes.len(), 1, "only the interesting (retried) cell is reported");
    let outcome = &outcomes[0];
    assert_eq!((outcome.cell, outcome.status), (1, CellStatus::Ok));
    assert_eq!(outcome.attempts, 2);
    assert!(outcome.error.is_none(), "a recovery clears the failure message");
}

#[test]
fn a_panic_inside_nested_join_and_par_iter_leaves_the_pool_usable_for_the_retry() {
    // The failing cell panics from a par_iter nested inside a join, on a pool
    // worker, on its first attempt only.  The retry round reuses the same
    // persistent pool — if the panic killed a worker or poisoned a lock, this
    // test hangs or fails instead of recovering.
    rayon::with_num_threads(4, || {
        let failed_once = AtomicU32::new(0);
        let (rows, outcomes) = run_cells_with_policy(vec![0u32, 1, 2], quick(2), |cell| {
            let (sum, _) = rayon::join(
                || {
                    use rayon::prelude::*;
                    (0..16u64)
                        .collect::<Vec<_>>()
                        .par_iter()
                        .map(|&i| {
                            if cell == 1 && i == 7 && failed_once.load(Ordering::SeqCst) == 0 {
                                failed_once.store(1, Ordering::SeqCst);
                                panic!("worker task died mid-interval");
                            }
                            i
                        })
                        .collect::<Vec<_>>()
                        .iter()
                        .sum::<u64>()
                },
                || (0..100u64).sum::<u64>(),
            );
            vec![row![cell as u64, sum]]
        });
        assert_eq!(rows.len(), 3, "every cell completes once the flaky one is retried");
        assert!(rows.iter().all(|r| r.cells[1] == repro_bench::runner::Value::Int(120)));
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].status, CellStatus::Ok);
        assert_eq!(outcomes[0].attempts, 2);
        // And the pool is still fully operational after the whole episode.
        use rayon::prelude::*;
        let check: u64 =
            (0..32u64).collect::<Vec<_>>().par_iter().map(|&i| i).collect::<Vec<_>>().iter().sum();
        assert_eq!(check, 496);
    });
}

#[test]
fn an_over_budget_cell_is_classified_timed_out_and_its_rows_discarded() {
    let policy = FaultPolicy {
        max_attempts: 2,
        backoff: Duration::ZERO,
        timeout: Some(Duration::from_millis(1)),
    };
    let (rows, outcomes) = run_cells_with_policy(vec![0u32, 1], policy, |cell| {
        if cell == 1 {
            std::thread::sleep(Duration::from_millis(25));
        }
        vec![row![cell as u64]]
    });
    assert_eq!(rows.len(), 1, "the slow cell's rows are discarded, not half-kept");
    assert_eq!(outcomes.len(), 1);
    let outcome = &outcomes[0];
    assert_eq!(outcome.status, CellStatus::TimedOut);
    assert_eq!(outcome.attempts, 2);
    assert!(
        outcome.error.as_deref().unwrap().contains("budget"),
        "the watchdog names the budget: {:?}",
        outcome.error
    );
}

/// A spec whose second cell always panics: the experiment still completes with the
/// first cell's row plus a per-cell failure report.
fn half_failing_run(_config: &RunConfig) -> Vec<Row> {
    run_cells(vec![0u32, 1], |cell| {
        if cell == 1 {
            panic!("simulated cell crash");
        }
        vec![row!["survivor", cell as u64]]
    })
}

const HALF_FAILING: ExperimentSpec = ExperimentSpec {
    id: "test_half_failing",
    aliases: &[],
    title: "Fault rendering fixture",
    columns: &["label", "cell"],
    notes: &["note line"],
    run: half_failing_run,
};

#[test]
fn experiments_complete_with_partial_results_and_render_the_failures() {
    let config = RunConfig::default();
    let result = HALF_FAILING.execute_with_policy(&config, quick(2));
    assert_eq!(result.rows.len(), 1, "partial results survive");
    assert_eq!(result.failed_cells(), 1);
    let reason = result.failure_error().expect("a failed cell must surface");
    assert!(
        reason.contains("test_half_failing") && reason.contains("cell 1 panicked"),
        "got: {reason}"
    );

    let text = result.render(Format::Text);
    assert!(text.contains("cell faults (1 failed):"), "text: {text}");
    assert!(text.contains("simulated cell crash"), "text: {text}");

    let json = result.render(Format::Json);
    assert!(json.contains("\"cells_failed\": 1"), "json: {json}");
    assert!(json.contains("\"status\": \"panicked\""), "json: {json}");

    let csv = result.render(Format::Csv);
    assert!(
        csv.lines().any(|l| l.starts_with("# cell-fault,cell=1,status=panicked")),
        "csv: {csv}"
    );
}

#[test]
fn clean_runs_render_byte_identically_to_the_pre_fault_harness() {
    fn clean_run(_config: &RunConfig) -> Vec<Row> {
        run_cells(vec![1u32, 2], |cell| vec![row!["ok", cell as u64]])
    }
    const CLEAN: ExperimentSpec = ExperimentSpec {
        id: "test_clean",
        aliases: &[],
        title: "Clean fixture",
        columns: &["label", "cell"],
        notes: &[],
        run: clean_run,
    };
    let result = CLEAN.execute_with_policy(&RunConfig::default(), quick(3));
    assert!(result.cell_faults.is_empty());
    assert!(result.failure_error().is_none());
    for format in [Format::Text, Format::Json, Format::Csv] {
        let rendered = result.render(format);
        assert!(!rendered.contains("cell_faults") && !rendered.contains("cell faults"));
        assert!(!rendered.contains("cell-fault"));
    }
}

#[test]
fn run_cells_without_a_collector_panics_loudly_on_terminal_failure() {
    // Outside ExperimentSpec::execute there is nowhere to report a terminally
    // failed cell, and silently dropping its rows would corrupt downstream
    // aggregation — the legacy abort-loudly contract stands.
    let payload = std::panic::catch_unwind(|| {
        run_cells(vec![0u32], |_| -> Vec<Row> { panic!("unrecoverable") })
    })
    .expect_err("a terminal failure with no collector must panic");
    let msg = payload.downcast_ref::<String>().expect("formatted message");
    assert!(msg.contains("cell 0 panicked"), "got: {msg}");
    assert!(msg.contains("unrecoverable"), "got: {msg}");
}
