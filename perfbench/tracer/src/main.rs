//! The traced half of the perfbench benchmark, plus two helpers `run.py` needs.
//!
//! ```text
//! perfbench-tracer trace --workload <origin|dsm|corpus|resubmit> --work <dir>
//!                        [--seed N] [--jobs <file>] [--mem-entries N]
//! perfbench-tracer live --seed N          live (generated, never encoded) counters
//! perfbench-tracer load --socket <path> --jobs <file>
//!                                         the resubmit clients against `xp serve`
//! perfbench-tracer calibrate --bytes N    host read bandwidth over an N-byte array
//! ```
//!
//! `trace` makes one pass of a workload by calling each layer's public functions
//! itself, with a span around every call: name, start, end, parent, thread.  The
//! spans go to `<work>/trace_<workload>.json` as Chrome trace-event JSON, a
//! self-time table goes to stderr, and one JSON object with the per-layer metrics
//! and the model counters goes to stdout.  The counters let `run.py` check that
//! this split describes the same program as the untraced `xp` pass.
//!
//! The passes mirror the cells of the `xp` specs they stand for (`table2` +
//! `fig07`, `table3` + `fig08_09`, `xp trace record/replay`, `xp serve`): same
//! sizes, seeds, processor counts and presets.  A seed override replaces every
//! spec's own default seed, exactly as `xp --seed` does.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dsm::{DsmConfig, DsmRunResult, HlrcSim, PageWriteHistory, TreadMarksSim};
use memsim::{OriginPreset, SimulationResult};
use rayon::prelude::*;
use reorder::Method;
use repro_bench::cache::{CacheConfig, CellCache, KeyBuilder, MemBudget};
use repro_bench::runner::Row;
use repro_bench::serve::{serve_session, Json, ServeShared};
use repro_bench::{row, AppKind, LiveApp, Ordering, Scale};
use smtrace::{CorpusReader, CorpusWriter, NullSink, ObjectLayout, ProgramTrace, TraceBuilder};

/// Worker threads and scheduler slots: the benchmark's `--jobs 2`.
const SLOTS: usize = 2;
/// Virtual processors of every parallel cell (the specs' default).
const PROCS: usize = 16;
/// Bytes one in-memory access takes (`smtrace::Access` is packed into 4 bytes).
const ACCESS_BYTES: f64 = 4.0;

// ---------------------------------------------------------------------------
// Spans.

struct SpanRec {
    name: &'static str,
    tid: u64,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, AtomicOrdering::Relaxed);
}

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer { t0: Instant::now(), spans: Mutex::new(Vec::new()) })
}

fn now_s() -> f64 {
    tracer().t0.elapsed().as_secs_f64()
}

/// Run `f` inside a span named `name` under `parent`; `f` gets the span's id so
/// that nested calls can name it as their parent.
fn span<R>(name: &'static str, parent: Option<usize>, f: impl FnOnce(usize) -> R) -> R {
    let id = {
        let mut spans = tracer().spans.lock().expect("span table poisoned");
        spans.push(SpanRec { name, tid: TID.with(|t| *t), start: now_s(), end: 0.0, parent });
        spans.len() - 1
    };
    let out = f(id);
    tracer().spans.lock().expect("span table poisoned")[id].end = now_s();
    out
}

/// Record a span that has already ended, timed on the tracer clock; returns its id.
fn record_span(name: &'static str, parent: usize, start: f64, end: f64) -> usize {
    let tid = TID.with(|t| *t);
    let mut spans = tracer().spans.lock().expect("span table poisoned");
    spans.push(SpanRec { name, tid, start, end, parent: Some(parent) });
    spans.len() - 1
}

/// Busy seconds per span name, summed over every span of that name.
fn busy_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut busy = BTreeMap::new();
    for s in spans {
        *busy.entry(s.name).or_insert(0.0) += s.end - s.start;
    }
    busy
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span).
fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

fn write_chrome_trace(spans: &[SpanRec], path: &Path) -> std::io::Result<()> {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}{}",
            s.name,
            s.tid,
            s.start * 1e6,
            (s.end - s.start) * 1e6,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

fn print_self_time_table(spans: &[SpanRec]) {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let entry = rows.entry(s.name).or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        entry.1 += s.end - s.start;
        entry.2 += own;
    }
    eprintln!("{:<28} {:>6} {:>10} {:>10}", "span", "count", "total_s", "self_s");
    for (name, (count, total, own)) in rows {
        eprintln!("{name:<28} {count:>6} {total:>10.4} {own:>10.4}");
    }
}

/// This process's user + system CPU seconds (`/proc/self/stat`, USER_HZ = 100).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

// ---------------------------------------------------------------------------
// Shared layer calls.

/// Counters a pass accumulates outside the spans.
#[derive(Default)]
struct Work {
    accesses: AtomicU64,
    replayed: AtomicU64,
    history_builds: AtomicU64,
}

/// Build, optionally reorder, and generate one app's trace (`bench::build_run`,
/// split into its layers).
fn generate(
    app: AppKind,
    ordering: Ordering,
    procs: usize,
    seed: u64,
    parent: usize,
    work: &Work,
) -> (ObjectLayout, ProgramTrace) {
    let scale = Scale::Small;
    let mut live =
        span("workloads.build", Some(parent), |_| LiveApp::build(app, scale.size_of(app), seed));
    if let Ordering::Reordered(method) = ordering {
        span("reorder.reorder", Some(parent), |_| live.reorder(method));
    }
    let layout = live.layout();
    let trace = span("apps.stream", Some(parent), |_| {
        let mut builder = TraceBuilder::new(layout.clone(), procs);
        live.stream_sharded(scale.iterations_of(app), &mut builder);
        builder.finish()
    });
    work.accesses.fetch_add(trace.total_accesses() as u64, AtomicOrdering::Relaxed);
    (layout, trace)
}

fn origin_replay(
    trace: &ProgramTrace,
    layout: &ObjectLayout,
    procs: usize,
    parent: usize,
    work: &Work,
) -> SimulationResult {
    work.replayed.fetch_add(trace.total_accesses() as u64, AtomicOrdering::Relaxed);
    span("memsim.replay", Some(parent), |_| {
        OriginPreset::origin2000(procs).build_machine().run_trace_with_layout(trace, layout)
    })
}

/// TreadMarks then HLRC; `history_per_protocol` mirrors `run_with_layout`, which
/// builds the page history once per protocol.
fn dsm_eval(
    trace: &ProgramTrace,
    layout: &ObjectLayout,
    history_per_protocol: bool,
    parent: usize,
    work: &Work,
) -> (DsmRunResult, DsmRunResult) {
    let config = DsmConfig::cluster(PROCS);
    let history = || {
        work.history_builds.fetch_add(1, AtomicOrdering::Relaxed);
        span("dsm.history", Some(parent), |_| {
            PageWriteHistory::build(trace, layout, config.page_bytes)
        })
    };
    let first = history();
    let tmk =
        span("dsm.protocol", Some(parent), |_| TreadMarksSim::new(config).run_history(&first));
    let second = if history_per_protocol {
        drop(first);
        history()
    } else {
        first
    };
    let hlrc = span("dsm.protocol", Some(parent), |_| HlrcSim::new(config).run_history(&second));
    (tmk, hlrc)
}

/// Orderings of a spec row set, in the order `experiments.rs` lists them.
fn orderings_for(app: AppKind, dsm_order: bool) -> Vec<Ordering> {
    let mut out = vec![Ordering::Original];
    if app.is_category2() {
        let (a, b) = if dsm_order {
            (Method::Column, Method::Hilbert)
        } else {
            (Method::Hilbert, Method::Column)
        };
        out.extend([Ordering::Reordered(a), Ordering::Reordered(b)]);
    } else {
        out.push(Ordering::Reordered(Method::Hilbert));
    }
    out
}

fn dsm_counters(app: AppKind, version: &str, tmk: &DsmRunResult, hlrc: &DsmRunResult) -> String {
    format!(
        "{{\"app\": \"{}\", \"version\": \"{version}\", \"tmk_messages\": {}, \
         \"tmk_data_mb\": {}, \"hlrc_messages\": {}, \"hlrc_data_mb\": {}}}",
        app.name(),
        tmk.stats.messages,
        tmk.stats.data_mbytes(),
        hlrc.stats.messages,
        hlrc.stats.data_mbytes()
    )
}

// ---------------------------------------------------------------------------
// Passes.  Each returns its counter rows as JSON objects and adds layer metrics.

type Metrics = BTreeMap<&'static str, f64>;

enum OriginCell {
    Table2(AppKind, Ordering),
    Fig07(AppKind),
}

/// Cells of one spec after another, in waves of `SLOTS` cells at a time: the
/// way `xp sweep --jobs 2` meters them.
fn run_waves<C: Send, T: Send>(cells: Vec<C>, f: impl Fn(C) -> T + Sync) -> Vec<T> {
    let mut out = Vec::new();
    let mut cells = cells.into_iter().peekable();
    while cells.peek().is_some() {
        let wave: Vec<C> = cells.by_ref().take(SLOTS).collect();
        out.extend(wave.into_par_iter().map(&f).collect::<Vec<T>>());
    }
    out
}

fn origin_pass(seed: Option<u64>, root: usize, work: &Work) -> Vec<String> {
    let table2: Vec<OriginCell> = AppKind::ALL
        .into_iter()
        .flat_map(|app| orderings_for(app, false).into_iter().map(move |o| (app, o)))
        .map(|(app, o)| OriginCell::Table2(app, o))
        .collect();
    let fig07 = AppKind::ALL.into_iter().map(OriginCell::Fig07).collect();
    let run_cell = |cell| {
        span("cell", Some(root), |id| match cell {
            OriginCell::Table2(app, ordering) => {
                let seed = seed.unwrap_or(123);
                let mut misses = Vec::new();
                for procs in [1, PROCS] {
                    let (layout, trace) = generate(app, ordering, procs, seed, id, work);
                    let r = origin_replay(&trace, &layout, procs, id, work);
                    misses.push((r.l2_misses(), r.tlb_misses()));
                }
                Some(format!(
                    "{{\"app\": \"{}\", \"version\": \"{}\", \"seq_l2_misses\": {}, \
                         \"seq_tlb_misses\": {}, \"par_l2_misses\": {}, \"par_tlb_misses\": {}}}",
                    app.name(),
                    ordering.name(),
                    misses[0].0,
                    misses[0].1,
                    misses[1].0,
                    misses[1].1
                ))
            }
            OriginCell::Fig07(app) => {
                let seed = seed.unwrap_or(321);
                let (layout, trace) = generate(app, Ordering::Original, 1, seed, id, work);
                origin_replay(&trace, &layout, 1, id, work);
                let mut orderings = vec![Ordering::Original, Ordering::Reordered(Method::Hilbert)];
                if app.is_category2() {
                    orderings.push(Ordering::Reordered(Method::Column));
                }
                for ordering in orderings {
                    let (layout, trace) = generate(app, ordering, PROCS, seed, id, work);
                    origin_replay(&trace, &layout, PROCS, id, work);
                }
                None
            }
        })
    };
    let mut rows = run_waves(table2, run_cell);
    rows.extend(run_waves(fig07, run_cell));
    rows.into_iter().flatten().collect()
}

fn dsm_pass(seed: Option<u64>, root: usize, work: &Work) -> Vec<String> {
    let table3: Vec<(AppKind, Vec<Ordering>, bool)> = AppKind::ALL
        .into_iter()
        .flat_map(|app| orderings_for(app, true).into_iter().map(move |o| (app, vec![o], true)))
        .collect();
    let fig08_09 = AppKind::ALL
        .into_iter()
        .map(|app| {
            (app, vec![Ordering::Original, Ordering::Reordered(app.dsm_reordering())], false)
        })
        .collect();
    let run_cell = |(app, orderings, is_table3): (AppKind, Vec<Ordering>, bool)| {
        span("cell", Some(root), |id| {
            let seed = seed.unwrap_or(if is_table3 { 99 } else { 55 });
            let mut row = None;
            for ordering in orderings {
                let (layout, trace) = generate(app, ordering, PROCS, seed, id, work);
                let (tmk, hlrc) = dsm_eval(&trace, &layout, true, id, work);
                if is_table3 {
                    row = Some(dsm_counters(app, &ordering.name(), &tmk, &hlrc));
                }
            }
            row
        })
    };
    let mut rows = run_waves(table3, run_cell);
    rows.extend(run_waves(fig08_09, run_cell));
    rows.into_iter().flatten().collect()
}

/// `xp trace record` for every app, then replay into the Origin model and the DSM
/// protocols.  Without a corpus directory the codec is skipped: the counters are
/// then those of live generation, which the replays must reproduce.
fn corpus_pass(
    seed: Option<u64>,
    corpus_dir: Option<&Path>,
    root: usize,
    work: &Work,
    metrics: &mut Metrics,
) -> Result<Vec<String>, String> {
    let seed = seed.unwrap_or(91);
    let (mut file_bytes, mut encoded) = (0u64, 0u64);
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        let counters = span("cell", Some(root), |id| -> Result<String, String> {
            let (layout, trace) = generate(app, Ordering::Original, PROCS, seed, id, work);
            if let Some(dir) = corpus_dir {
                let path = dir.join(format!("{}.corpus", app.name()));
                let summary = span("codec.encode", Some(id), |_| {
                    let mut writer = CorpusWriter::create(&path, layout.clone(), PROCS)?;
                    trace.replay_into(&mut writer);
                    writer.finish_durable()
                })
                .map_err(|e| format!("encode {}: {e}", path.display()))?;
                span("codec.decode", Some(id), |_| {
                    CorpusReader::open(&path)?.replay_into(&mut NullSink::new(PROCS))
                })
                .map_err(|e| format!("decode {}: {e}", path.display()))?;
                file_bytes += summary.file_bytes;
                encoded += summary.accesses;
            }
            let sim = origin_replay(&trace, &layout, PROCS, id, work);
            let (tmk, hlrc) = dsm_eval(&trace, &layout, false, id, work);
            Ok(format!(
                "{{\"app\": \"{}\", \"accesses\": {}, \"l2_misses\": {}, \"tlb_misses\": {}, \
                 \"coherence_misses\": {}, \"tmk_messages\": {}, \"tmk_mb\": {}, \
                 \"hlrc_messages\": {}, \"hlrc_mb\": {}}}",
                app.name(),
                trace.total_accesses(),
                sim.l2_misses(),
                sim.tlb_misses(),
                sim.coherence_misses(),
                tmk.stats.messages,
                tmk.stats.data_mbytes(),
                hlrc.stats.messages,
                hlrc.stats.data_mbytes()
            ))
        })?;
        rows.push(counters);
    }
    if encoded > 0 {
        metrics.insert("codec.bytes_per_access", file_bytes as f64 / encoded as f64);
        metrics.insert("codec.corpus_mb", file_bytes as f64 / 1e6);
    }
    Ok(rows)
}

/// One job of the resubmit mix, as `run.py` generated it.
struct Job {
    client: usize,
    experiment: String,
    seed: u64,
}

fn read_jobs(path: &Path) -> Result<Vec<Job>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = Json::parse(line).map_err(|e| format!("job line {line:?}: {e}"))?;
            let num =
                |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("job {k} in {line:?}"));
            Ok(Job {
                client: num("client")? as usize,
                experiment: v
                    .get("experiment")
                    .and_then(Json::as_str)
                    .ok_or(format!("job experiment in {line:?}"))?
                    .to_string(),
                seed: num("seed")?,
            })
        })
        .collect()
}

/// What one client saw of one job; times are seconds on the tracer clock.
#[derive(Default)]
struct JobSeen {
    submitted: f64,
    done: f64,
    first_cell_start: Option<f64>,
    computed: u64,
    /// `ok`, `failed` (done with another status) or `refused` (an error event).
    outcome: &'static str,
    /// When the result was requested and received, and the artifact it carried.
    result: Option<(f64, f64, String)>,
}

impl JobSeen {
    fn latency_ms(&self) -> f64 {
        (self.done - self.submitted) * 1e3
    }
}

fn next_event(reader: &mut impl BufRead) -> Result<Json, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("serve session closed the stream".to_string()),
        Ok(_) => Json::parse(line.trim_end()).map_err(|e| format!("bad event {line:?}: {e}")),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// Closed loop over one connection: submit, wait for `done` (or an `error`,
/// which refuses the job), fetch the result of an ok job, next job.
fn run_client(stream: UnixStream, jobs: &[Job]) -> Result<Vec<JobSeen>, String> {
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut seen = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let id = i as u64 + 1;
        let mut out = JobSeen { submitted: now_s(), ..JobSeen::default() };
        writeln!(
            writer,
            "{{\"cmd\": \"submit\", \"experiment\": \"{}\", \"job\": {id}, \
             \"scale\": \"tiny\", \"seed\": {}}}",
            job.experiment, job.seed
        )
        .map_err(|e| e.to_string())?;
        loop {
            let event = next_event(&mut reader)?;
            let at = now_s();
            match event.get("event").and_then(Json::as_str) {
                Some("cell") if event.get("cache_hit") == Some(&Json::Bool(false)) => {
                    let ran = match event.get("elapsed_ms") {
                        Some(Json::Num(ms)) => *ms / 1e3,
                        _ => 0.0,
                    };
                    let start = (at - ran).max(out.submitted);
                    out.first_cell_start =
                        Some(out.first_cell_start.map_or(start, |s| s.min(start)));
                }
                Some("done") => {
                    out.done = at;
                    let ok = event.get("status").and_then(Json::as_str) == Some("ok");
                    out.outcome = if ok { "ok" } else { "failed" };
                    out.computed = event.get("computed").and_then(Json::as_u64).unwrap_or(0);
                    break;
                }
                Some("error") => {
                    out.done = at;
                    out.outcome = "refused";
                    break;
                }
                _ => {}
            }
        }
        if out.outcome == "ok" {
            let asked = now_s();
            writeln!(writer, "{{\"cmd\": \"result\", \"job\": {id}, \"format\": \"json\"}}")
                .map_err(|e| e.to_string())?;
            let body = loop {
                let event = next_event(&mut reader)?;
                match event.get("event").and_then(Json::as_str) {
                    Some("result") => {
                        break event.get("body").and_then(Json::as_str).unwrap_or("").to_string()
                    }
                    Some("error") => break String::new(),
                    _ => {}
                }
            };
            out.result = Some((asked, now_s(), body));
        }
        seen.push(out);
    }
    Ok(seen)
}

/// Group a job list by client, in submission order.
fn per_client(jobs: Vec<Job>) -> Vec<Vec<Job>> {
    let clients = jobs.iter().map(|j| j.client + 1).max().unwrap_or(0);
    let mut out: Vec<Vec<Job>> = (0..clients).map(|_| Vec::new()).collect();
    for job in jobs {
        out[job.client].push(job);
    }
    out
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `load`: the resubmit clients, one thread each, against a running
/// `xp serve --socket`.  Prints every job's outcome, latency and result.
fn load(args: &Args) -> Result<String, String> {
    let socket = args.socket.as_deref().ok_or("load needs --socket <path>")?;
    let path = args.jobs.as_deref().ok_or("load needs --jobs <file>")?;
    let clients = per_client(read_jobs(path)?);
    let t0 = now_s();
    let seen = std::thread::scope(|scope| -> Result<Vec<Vec<JobSeen>>, String> {
        let handles: Vec<_> = clients
            .iter()
            .map(|jobs| {
                let stream = UnixStream::connect(socket)
                    .map_err(|e| format!("connect {}: {e}", socket.display()));
                scope.spawn(move || run_client(stream?, jobs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })?;
    let wall = now_s() - t0;
    let mut rows = Vec::new();
    for (client, jobs) in seen.iter().enumerate() {
        for job in jobs {
            let body = job.result.as_ref().map_or("null".to_string(), |(_, _, b)| json_str(b));
            rows.push(format!(
                "{{\"client\": {client}, \"outcome\": \"{}\", \"latency_ms\": {}, \"result\": {body}}}",
                job.outcome,
                job.latency_ms()
            ));
        }
    }
    Ok(format!("{{\"wall_s\": {wall}, \"jobs\": [{}]}}", rows.join(", ")))
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile.
fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

fn resubmit_pass(
    jobs: Vec<Job>,
    work_dir: &Path,
    mem_entries: usize,
    root: usize,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let cache = CellCache::with_config(CacheConfig {
        disk: Some(work_dir.join("cache")),
        single_flight: true,
        mem_budget: MemBudget { max_bytes: None, max_entries: Some(mem_entries) },
        disk_budget: None,
        lease: None,
    })
    .map_err(|e| format!("cannot open cell cache: {e}"))?;
    let cache = Arc::new(cache);
    let shared = Arc::new(ServeShared::new(SLOTS, Arc::clone(&cache)));
    let shutdown = Arc::new(AtomicBool::new(false));
    let seen: Vec<JobSeen> = std::thread::scope(|scope| -> Result<Vec<JobSeen>, String> {
        let mut handles = Vec::new();
        for jobs in per_client(jobs) {
            let (client_end, server_end) = UnixStream::pair().map_err(|e| e.to_string())?;
            let input = BufReader::new(server_end.try_clone().map_err(|e| e.to_string())?);
            let (shared, shutdown) = (Arc::clone(&shared), Arc::clone(&shutdown));
            let session = scope.spawn(move || serve_session(input, server_end, shared, shutdown));
            let client = scope.spawn(move || run_client(client_end, &jobs));
            handles.push((session, client));
        }
        let mut seen = Vec::new();
        for (session, client) in handles {
            // The client drops its end when it returns, which ends the session.
            seen.extend(client.join().map_err(|_| "client thread panicked")??);
            session
                .join()
                .map_err(|_| "serve session panicked")?
                .map_err(|e| format!("serve session: {e}"))?;
        }
        Ok(seen)
    })?;
    if seen.iter().any(|s| s.outcome != "ok") {
        return Err("a traced resubmit job did not finish ok".to_string());
    }
    for job in &seen {
        let id = record_span("bench.serve.job", root, job.submitted, job.done);
        if let Some(start) = job.first_cell_start {
            record_span("bench.scheduler.queue_wait", id, job.submitted, start);
        }
        if let Some((asked, got, _)) = &job.result {
            record_span("bench.runner.render", root, *asked, *got);
        }
    }

    let stats = cache.stats();
    metrics.insert("bench.cache.hit_ratio", stats.hits() as f64 / stats.lookups().max(1) as f64);
    metrics.insert("bench.cache.memory_hits", stats.memory_hits as f64);
    metrics.insert("bench.cache.disk_hits", stats.disk_hits as f64);
    metrics.insert("bench.cache.misses", stats.misses as f64);
    metrics.insert("bench.cache.evictions", stats.evictions as f64);
    metrics.insert("bench.cache.flight_waits", stats.flight_waits as f64);
    metrics.insert("bench.cache.flight_steals", stats.flight_steals as f64);
    metrics.insert("bench.cache.disk_errors", stats.disk_errors as f64);
    let waits: Vec<f64> =
        seen.iter().filter_map(|s| s.first_cell_start.map(|t| (t - s.submitted) * 1e3)).collect();
    metrics.insert("bench.scheduler.queue_wait_ms_p50", percentile(waits.clone(), 50.0));
    metrics.insert("bench.scheduler.queue_wait_ms_p95", percentile(waits, 95.0));
    metrics.insert(
        "bench.scheduler.cells_computed",
        seen.iter().map(|s| s.computed).sum::<u64>() as f64,
    );
    metrics.insert(
        "bench.serve.hit_job_ms",
        median(seen.iter().filter(|s| s.computed == 0).map(JobSeen::latency_ms).collect()),
    );
    let renders = seen.iter().filter_map(|s| s.result.as_ref().map(|(a, b, _)| (b - a) * 1e3));
    metrics.insert("bench.runner.render_ms", median(renders.collect()));

    // Direct calls into the cache: durable commits past the memory budget, then
    // lookups that find the oldest entries only on disk.
    let rows: Arc<Vec<Row>> = Arc::new(
        (0..12).map(|i| row!["perfbench", i as u64, 0.5 * i as f64, 1e6 + i as f64]).collect(),
    );
    let keys: Vec<_> = (0..(2 * mem_entries as u64).max(8))
        .map(|i| KeyBuilder::new("perfbench").field_u64("i", i).finish())
        .collect();
    let mut commits = Vec::new();
    for &key in &keys {
        let t0 = Instant::now();
        span("bench.cache.commit", Some(root), |_| cache.insert(key, Arc::clone(&rows)))
            .map_err(|e| format!("cache commit: {e}"))?;
        commits.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let mut lookups = Vec::new();
    for &key in &keys {
        let t0 = Instant::now();
        let hit = span("bench.cache.lookup", Some(root), |_| cache.get(key));
        lookups.push(t0.elapsed().as_secs_f64() * 1e6);
        if hit.is_none() {
            return Err("a committed cache entry was not found again".to_string());
        }
    }
    metrics.insert("bench.cache.commit_us", median(commits));
    metrics.insert("bench.cache.lookup_us", median(lookups));
    Ok(())
}

// ---------------------------------------------------------------------------
// Commands.

struct Args {
    workload: String,
    seed: Option<u64>,
    work: PathBuf,
    jobs: Option<PathBuf>,
    socket: Option<PathBuf>,
    mem_entries: usize,
    bytes: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: None,
        work: PathBuf::from("."),
        jobs: None,
        socket: None,
        mem_entries: 16,
        bytes: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} expects a number"));
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = Some(number()?),
            "--work" => out.work = PathBuf::from(value),
            "--jobs" => out.jobs = Some(PathBuf::from(value)),
            "--socket" => out.socket = Some(PathBuf::from(value)),
            "--mem-entries" => out.mem_entries = number()? as usize,
            "--bytes" => out.bytes = number()? as usize,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(out)
}

fn json_rows(rows: &[String]) -> String {
    format!("[{}]", rows.join(", "))
}

fn trace(args: &Args) -> Result<String, String> {
    let work = Work::default();
    let mut metrics = Metrics::new();
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    let rows = rayon::with_num_threads(SLOTS, || {
        span("pass", None, |root| -> Result<Vec<String>, String> {
            match args.workload.as_str() {
                "origin" => Ok(origin_pass(args.seed, root, &work)),
                "dsm" => Ok(dsm_pass(args.seed, root, &work)),
                "corpus" => corpus_pass(args.seed, Some(&args.work), root, &work, &mut metrics),
                "resubmit" => {
                    let path = args.jobs.as_deref().ok_or("resubmit needs --jobs <file>")?;
                    resubmit_pass(
                        read_jobs(path)?,
                        &args.work,
                        args.mem_entries,
                        root,
                        &mut metrics,
                    )
                    .map(|()| Vec::new())
                }
                other => Err(format!("unknown workload {other:?}")),
            }
        })
    })?;
    let wall = t0.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu0;

    let spans = std::mem::take(&mut *tracer().spans.lock().expect("span table poisoned"));
    let busy = busy_by_name(&spans);
    let busy_s = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    for (metric, name) in [
        ("workloads.build_s", "workloads.build"),
        ("reorder.reorder_s", "reorder.reorder"),
        ("apps.stream_s", "apps.stream"),
        ("memsim.replay_s", "memsim.replay"),
        ("dsm.history_s", "dsm.history"),
        ("dsm.protocol_s", "dsm.protocol"),
        ("codec.encode_s", "codec.encode"),
        ("codec.decode_s", "codec.decode"),
    ] {
        metrics.insert(metric, busy_s(name));
    }
    let accesses = work.accesses.load(AtomicOrdering::Relaxed) as f64;
    metrics.insert("smtrace.accesses", accesses);
    metrics.insert("smtrace.trace_mb", accesses * ACCESS_BYTES / 1e6);
    let replayed = work.replayed.load(AtomicOrdering::Relaxed) as f64;
    if busy_s("memsim.replay") > 0.0 {
        metrics.insert("memsim.maccess_per_s", replayed / busy_s("memsim.replay") / 1e6);
    }
    metrics.insert("dsm.history_builds", work.history_builds.load(AtomicOrdering::Relaxed) as f64);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    metrics.insert("rayon.cpu_util", cpu / (wall * cores as f64));

    let trace_path = args.work.join(format!("trace_{}.json", args.workload));
    write_chrome_trace(&spans, &trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    print_self_time_table(&spans);

    let mut out = format!(
        "{{\"wall_s\": {wall}, \"trace_file\": \"{}\", \"metrics\": {{",
        trace_path.display()
    );
    let body: Vec<String> = metrics.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let _ = write!(out, "{}}}, \"counters\": {}}}", body.join(", "), json_rows(&rows));
    Ok(out)
}

fn live(args: &Args) -> Result<String, String> {
    let work = Work::default();
    let mut unused = Metrics::new();
    let rows = rayon::with_num_threads(SLOTS, || {
        span("pass", None, |root| corpus_pass(args.seed, None, root, &work, &mut unused))
    })?;
    Ok(format!("{{\"counters\": {}}}", json_rows(&rows)))
}

/// Read bandwidth over `bytes`: one ordered pass, random 64-byte lines, random
/// 4 KiB blocks (each read touches every byte it counts).
fn calibrate(bytes: usize) -> Result<String, String> {
    let words = (bytes / 8).max(1 << 20);
    let data: Vec<u64> = (0..words as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let gb_s = |bytes_read: usize, t: Instant| bytes_read as f64 / t.elapsed().as_secs_f64() / 1e9;

    let t = Instant::now();
    std::hint::black_box(data.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
    let ordered = gb_s(words * 8, t);

    let lines = words / 8;
    let line_reads = (lines / 4).max(1);
    let t = Instant::now();
    let mut sum = 0u64;
    for _ in 0..line_reads {
        let at = (next() as usize % lines) * 8;
        sum = data[at..at + 8].iter().fold(sum, |a, &w| a.wrapping_add(w));
    }
    std::hint::black_box(sum);
    let random64 = gb_s(line_reads * 64, t);

    let pages = words / 512;
    let page_reads = (pages / 4).max(1);
    let t = Instant::now();
    for _ in 0..page_reads {
        let at = (next() as usize % pages) * 512;
        sum = data[at..at + 512].iter().fold(sum, |a, &w| a.wrapping_add(w));
    }
    std::hint::black_box(sum);
    let random4k = gb_s(page_reads * 4096, t);

    Ok(format!(
        "{{\"array_mb\": {:.1}, \"ordered_gb_s\": {ordered:.3}, \"random_64b_gb_s\": {random64:.3}, \
         \"random_4kb_gb_s\": {random4k:.3}}}",
        (words * 8) as f64 / 1e6
    ))
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((command, rest)) => parse_args(rest).and_then(|args| match command.as_str() {
            "trace" => trace(&args),
            "live" => live(&args),
            "load" => load(&args),
            "calibrate" => calibrate(args.bytes),
            other => Err(format!("unknown command {other:?} (try trace, live, load or calibrate)")),
        }),
        None => Err("usage: perfbench-tracer <trace|live|load|calibrate> [flags]".to_string()),
    };
    match outcome {
        Ok(json) => {
            println!("{json}");
            std::process::ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench-tracer: {message}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(experiment: &str, seed: u64) -> Job {
        Job { client: 0, experiment: experiment.to_string(), seed }
    }

    #[test]
    fn an_error_event_refuses_the_job_and_the_loop_goes_on() {
        let (client, server) = UnixStream::pair().expect("socket pair");
        let fake = std::thread::spawn(move || {
            let mut reader = BufReader::new(server.try_clone().expect("clone"));
            let mut out = server;
            let mut request = || {
                let mut line = String::new();
                reader.read_line(&mut line).expect("request");
                line
            };
            assert!(request().contains("\"submit\""));
            writeln!(out, "{{\"event\": \"error\", \"job\": 1, \"message\": \"queue full\"}}")
                .unwrap();
            assert!(request().contains("\"job\": 2"));
            writeln!(out, "{{\"event\": \"accepted\", \"job\": 2}}").unwrap();
            writeln!(
                out,
                "{{\"event\": \"done\", \"job\": 2, \"status\": \"ok\", \"computed\": 0}}"
            )
            .unwrap();
            assert!(request().contains("\"result\""));
            writeln!(
                out,
                "{{\"event\": \"result\", \"job\": 2, \"body\": \"{{\\\"rows\\\": []}}\"}}"
            )
            .unwrap();
        });
        let seen = run_client(client, &[job("fig06", 1), job("table3", 2)]).expect("client");
        fake.join().expect("fake server");
        assert_eq!(seen[0].outcome, "refused");
        assert!(seen[0].result.is_none());
        assert_eq!(seen[1].outcome, "ok");
        assert_eq!(seen[1].result.as_ref().map(|r| r.2.as_str()), Some("{\"rows\": []}"));
    }

    #[test]
    fn json_str_round_trips_through_the_serve_parser() {
        let text = "a \"quoted\" \\ line\nwith\ttabs";
        assert_eq!(Json::parse(&json_str(text)), Ok(Json::Str(text.to_string())));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let rec = |start, end, parent| SpanRec { name: "x", tid: 1, start, end, parent };
        let spans = [rec(0.0, 10.0, None), rec(1.0, 4.0, Some(0)), rec(3.0, 6.0, Some(0))];
        assert_eq!(self_times(&spans), vec![5.0, 3.0, 3.0]);
    }
}
