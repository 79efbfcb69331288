//! Fault injection at the codec's registered sites (`codec/write-block`,
//! `codec/finish`, `codec/commit`, `trace/drain`): errors latch instead of
//! panicking, durability holds (no partial corpus ever appears at a final path),
//! and the `.tmp` staging file left by an injected commit failure salvages cleanly.
//!
//! Compiled only under `--features failpoints`.
#![cfg(feature = "failpoints")]

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use smtrace::codec::{CodecError, CorpusReader, CorpusWriter};
use smtrace::{NullSink, ObjectLayout, TraceSink};

fn layout() -> ObjectLayout {
    ObjectLayout::new(64, 96)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smtrace-failpoints-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The two `trace/drain` tests configure the same global point, so they must not
/// run concurrently with each other (the harness runs tests in parallel).
fn serialize_drain() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn drive(sink: &mut dyn TraceSink, intervals: usize) {
    for interval in 0..intervals {
        for i in 0..20usize {
            sink.read(0, (i + interval) % 64);
            sink.write(1, (i * 3) % 64);
        }
        sink.barrier();
    }
}

#[test]
fn injected_write_block_failure_latches_into_finish() {
    let _guard = failpoint::configure_guard("codec/write-block", "1*return(disk full)").unwrap();
    let mut writer = CorpusWriter::new(Vec::new(), layout(), 2).unwrap();
    drive(&mut writer, 3);
    let err = writer.finish().expect_err("latched write failure must surface from finish");
    match err.root() {
        CodecError::Io(io) => assert!(io.to_string().contains("disk full"), "got {io}"),
        other => panic!("expected the injected Io error, got {other:?}"),
    }
}

#[test]
fn injected_finish_failure_surfaces_without_panicking() {
    let _guard = failpoint::configure_guard("codec/finish", "1*return(injected)").unwrap();
    let mut writer = CorpusWriter::new(Vec::new(), layout(), 2).unwrap();
    drive(&mut writer, 1);
    assert!(writer.finish().is_err());
}

#[test]
fn injected_commit_failure_leaves_no_final_file_and_a_salvageable_temp() {
    let dir = temp_dir("commit");
    let dest = dir.join("corpus.smtc");
    // `codec/commit` fires before the rename: finish_durable must fail, the final
    // path must not appear, and the staged `.tmp` bytes must salvage to exactly
    // the blocks the writer completed (that temp file is what a crashed recording
    // leaves behind for `xp trace recover`; commit's own error path deletes it, so
    // the test snapshots the staged bytes before finishing).
    let _guard = failpoint::configure_guard("codec/commit", "1*return(power cut)").unwrap();
    let mut writer = CorpusWriter::create(&dest, layout(), 2).unwrap();
    drive(&mut writer, 2);
    let (file, summary) = writer.finish_into_inner().unwrap();
    let staged = std::fs::read(file.staging_path()).unwrap();
    let err = file.commit().expect_err("injected commit failure");
    assert!(err.to_string().contains("power cut"), "got {err}");
    assert!(!dest.exists(), "a failed commit must never publish the final path");
    assert!(!dir.join("corpus.smtc.tmp").exists(), "a failed commit cleans its staging file");

    let mut reader = CorpusReader::new(&staged[..]).unwrap();
    let mut void = NullSink::new(reader.num_procs());
    let outcome = reader.salvage_into(&mut void);
    assert!(outcome.is_intact(), "finish wrote the end marker before commit failed");
    assert_eq!(outcome.valid_bytes, staged.len() as u64);
    assert_eq!(outcome.summary, summary, "staged bytes replay to the writer's summary");
    assert_eq!(outcome.summary.accesses, 80, "both drained intervals recovered");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn drain_failpoint_delay_does_not_corrupt_the_stream() {
    use smtrace::{ShardSet, TraceBuilder};
    let _serial = serialize_drain();
    let _guard = failpoint::configure_guard("trace/drain", "1*delay(10)").unwrap();
    let mut shards = ShardSet::new(2);
    shards.shard_mut(0).read(1);
    shards.shard_mut(1).write(2);
    let mut builder = TraceBuilder::new(layout(), 2);
    shards.drain_interval(&mut builder);
    let trace = builder.finish();
    assert_eq!(trace.total_accesses(), 2, "a delayed drain still delivers every event");
}

#[test]
fn drain_failpoint_panic_unwinds_cleanly_through_the_sink() {
    use smtrace::{ShardSet, TraceBuilder};
    let _serial = serialize_drain();
    let _guard = failpoint::configure_guard("trace/drain", "1*panic(drain died)").unwrap();
    let mut shards = ShardSet::new(1);
    shards.shard_mut(0).read(5);
    let mut builder = TraceBuilder::new(layout(), 1);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shards.drain_interval(&mut builder)
    }))
    .expect_err("configured drain panic must unwind");
    let msg = payload.downcast_ref::<String>().expect("string payload");
    assert!(msg.contains("trace/drain"), "got {msg}");
    // The failpoint fired before any event moved: nothing was half-delivered, and
    // the second drain (the retry path) delivers everything.
    shards.drain_interval(&mut builder);
    assert_eq!(builder.finish().total_accesses(), 1);
}
