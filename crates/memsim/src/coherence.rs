//! Multiprocessor simulation: per-processor caches and TLBs plus an invalidation-based
//! coherence model.
//!
//! The Origin 2000 keeps caches coherent with a directory protocol: when one processor
//! writes a line that other processors hold, their copies are invalidated and their next
//! access to that line misses.  That is precisely the mechanism by which false sharing
//! turns into extra L2 misses on the hardware platform (Section 2 of the paper), so the
//! model here is an invalidation protocol over the per-processor LRU caches:
//!
//! * each virtual processor has its own [`Cache`] (L2) and [`Tlb`];
//! * within a synchronization interval the per-processor access streams are interleaved
//!   round-robin (the paper's applications do not synchronize within an interval, so any
//!   interleaving is legal; round-robin is the deterministic choice);
//! * a write invalidates the line in every other cache; an access that misses because of
//!   such an invalidation is counted separately as a coherence miss.
//!
//! Coherence is resolved through a real [`Directory`]: a per-line sharer bitmask that
//! the simulator keeps as an exact mirror of the cache contents (updated on every
//! fill, eviction and invalidation).  A write consults the mask in O(1) and
//! invalidates only the actual sharers, instead of probing all P caches — see
//! [`crate::reference::ReferenceSim`] for the preserved scan-based baseline the
//! directory machine is verified against.
//!
//! Traces can be replayed from a materialized [`ProgramTrace`]
//! ([`MultiprocessorSim::run_trace`]) or streamed straight from a running application
//! through [`SimSink`], which replays one synchronization interval at a time — in
//! place from the generator's shards when it can — and never materializes the whole
//! trace.  A `SimSink` can also carry a one-processor twin that replays every
//! interval processor-folded, so one generation yields both the P-processor and the
//! sequential counters.

use smtrace::{Access, ObjectLayout, ProgramTrace, Shard, TraceSink};

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::directory::{procs_in, Directory};
use crate::tlb::{Tlb, TlbConfig, TlbStats};

/// Per-processor counters produced by a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessorStats {
    /// L2 cache counters.
    pub cache: CacheStats,
    /// TLB counters.
    pub tlb: TlbStats,
    /// Number of object accesses the processor performed.
    pub accesses: u64,
}

/// The result of simulating a whole trace on a P-processor machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationResult {
    /// Counters for each virtual processor.
    pub per_proc: Vec<ProcessorStats>,
}

impl SimulationResult {
    /// Machine-wide totals.
    pub fn totals(&self) -> ProcessorStats {
        let mut total = ProcessorStats::default();
        for p in &self.per_proc {
            total.cache.merge(&p.cache);
            total.tlb.merge(&p.tlb);
            total.accesses += p.accesses;
        }
        total
    }

    /// Total L2 misses across processors (the Table 2 counter).
    pub fn l2_misses(&self) -> u64 {
        self.per_proc.iter().map(|p| p.cache.misses).sum()
    }

    /// Total TLB misses across processors (the Table 2 counter).
    pub fn tlb_misses(&self) -> u64 {
        self.per_proc.iter().map(|p| p.tlb.misses).sum()
    }

    /// Total coherence (invalidation-induced) misses across processors.
    pub fn coherence_misses(&self) -> u64 {
        self.per_proc.iter().map(|p| p.cache.coherence_misses).sum()
    }

    /// The largest per-processor access count — a proxy for the critical-path work used
    /// by the cost model.
    pub fn max_proc_accesses(&self) -> u64 {
        self.per_proc.iter().map(|p| p.accesses).max().unwrap_or(0)
    }
}

/// A P-processor machine: caches, TLBs and the sharer-bitmask [`Directory`].
#[derive(Debug)]
pub struct MultiprocessorSim {
    caches: Vec<Cache>,
    tlbs: Vec<Tlb>,
    directory: Directory,
    accesses: Vec<u64>,
    /// `log2(line_bytes)` — line size is a power of two (asserted by `CacheConfig`),
    /// so line numbers are a shift, not a division, in the per-access hot path.
    line_shift: u32,
    /// `log2(page_bytes)` when the page size is a power of two (always, in practice);
    /// `None` falls back to division.
    page_shift: Option<u32>,
    page_bytes: usize,
}

impl MultiprocessorSim {
    /// Create a machine with `num_procs` processors, each with the given cache and TLB.
    ///
    /// # Panics
    /// Panics if `num_procs` is zero or exceeds [`Directory::MAX_PROCS`].
    pub fn new(num_procs: usize, cache: CacheConfig, tlb: TlbConfig) -> Self {
        assert!(num_procs > 0, "need at least one processor");
        assert!(
            num_procs <= Directory::MAX_PROCS,
            "directory masks support at most {} processors",
            Directory::MAX_PROCS
        );
        MultiprocessorSim {
            caches: (0..num_procs).map(|_| Cache::new(cache)).collect(),
            tlbs: (0..num_procs).map(|_| Tlb::new(tlb)).collect(),
            directory: Directory::new(),
            accesses: vec![0; num_procs],
            line_shift: cache.line_bytes.trailing_zeros(),
            page_shift: tlb.page_bytes.is_power_of_two().then(|| tlb.page_bytes.trailing_zeros()),
            page_bytes: tlb.page_bytes,
        }
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.caches.len()
    }

    /// A fresh one-processor machine with this machine's cache and TLB geometry.
    fn single_processor_twin(&self) -> MultiprocessorSim {
        MultiprocessorSim::new(1, self.caches[0].config(), self.tlbs[0].config())
    }

    /// Page number of a byte address (shift when the page size is a power of two).
    #[inline]
    fn page_of(&self, addr: usize) -> u64 {
        match self.page_shift {
            Some(shift) => (addr >> shift) as u64,
            None => (addr / self.page_bytes) as u64,
        }
    }

    /// Perform one access by processor `proc` to the byte range `[first_byte, last_byte]`
    /// (an object), with `write` indicating a store.
    #[inline]
    pub fn access(&mut self, proc: usize, first_byte: usize, last_byte: usize, write: bool) {
        self.accesses[proc] += 1;
        self.access_counted(proc, first_byte, last_byte, write);
    }

    /// [`MultiprocessorSim::access`] without the per-access counter update — the
    /// replay loop bulk-adds each stream's length per interval instead.
    ///
    /// Only the hit path is inlined into the replay loop; the miss and invalidation
    /// handling live in out-of-line helpers so the hot loop stays small.
    #[inline(always)]
    fn access_counted(&mut self, proc: usize, first_byte: usize, last_byte: usize, write: bool) {
        let first_line = (first_byte >> self.line_shift) as u64;
        let last_line = (last_byte >> self.line_shift) as u64;
        let mut line = first_line;
        loop {
            let (hit, evicted) = self.caches[proc].access_line_evicting(line);
            if !hit {
                self.handle_miss(proc, line, evicted);
            }
            if write {
                self.invalidate_sharers(proc, line);
            }
            if line >= last_line {
                break;
            }
            line += 1;
        }
        // The TLB translates the page(s) of the object; for objects smaller than a page
        // this is a single translation.
        let first_page = self.page_of(first_byte);
        let last_page = self.page_of(last_byte);
        self.tlbs[proc].access_page(first_page);
        if last_page != first_page {
            self.tlbs[proc].access_page(last_page);
        }
    }

    /// Directory bookkeeping for a cache miss: mirror the eviction, classify the miss,
    /// record the new sharer.
    #[inline(never)]
    fn handle_miss(&mut self, proc: usize, line: u64, evicted: Option<u64>) {
        if let Some(evicted) = evicted {
            self.directory.remove(evicted, proc);
        }
        // A miss to a line some other processor currently holds is a coherence miss
        // (the data had to come from a peer) — one O(1) mask lookup.
        if self.directory.others(line, proc) != 0 {
            self.caches[proc].note_coherence_miss();
        }
        // Hits need no directory update: a resident line's bit is already set.
        self.directory.insert(line, proc);
    }

    /// Invalidate exactly the sharers the directory records for a written line —
    /// O(sharers), not O(P · associativity).
    #[inline(never)]
    fn invalidate_sharers(&mut self, proc: usize, line: u64) {
        let others = self.directory.others(line, proc);
        for p in procs_in(others) {
            let was_resident = self.caches[p].invalidate_line(line);
            debug_assert!(was_resident, "directory claimed a non-resident sharer");
            self.directory.remove(line, p);
        }
    }

    /// Replay a whole [`ProgramTrace`]: every interval's per-processor streams are
    /// interleaved round-robin, one access at a time.
    pub fn run_trace(&mut self, trace: &ProgramTrace) -> SimulationResult {
        self.run_trace_with_layout(trace, &trace.layout)
    }

    /// Replay a trace using an explicit layout (lets the caller simulate the *same*
    /// logical trace under a different object placement, which is how the reordered
    /// versions are evaluated without re-running the application).
    pub fn run_trace_with_layout(
        &mut self,
        trace: &ProgramTrace,
        layout: &ObjectLayout,
    ) -> SimulationResult {
        assert_eq!(trace.num_procs, self.num_procs(), "trace and machine sizes differ");
        for interval in &trace.intervals {
            self.run_interval(&interval.accesses, layout);
        }
        self.result()
    }

    /// Replay one synchronization interval: `streams[p]` is processor `p`'s ordered
    /// access stream.  Produces the identical interleaving (and therefore identical
    /// counters) as the original one-access-at-a-time loop, but batched: intervals
    /// where only one processor is active — the sequential phases every application
    /// has — replay as a tight private loop with no interleaving machinery, and the
    /// round-robin loop only visits processors that still have accesses left.
    pub fn run_interval<S: AsRef<[Access]>>(&mut self, streams: &[S], layout: &ObjectLayout) {
        assert_eq!(streams.len(), self.num_procs(), "interval and machine sizes differ");
        // One multiply per access: last_byte = first_byte + size - 1 (the `ObjectLayout`
        // getters would compute the product twice).
        let size = layout.object_size;
        let base = layout.base_offset;
        for (p, stream) in streams.iter().enumerate() {
            self.accesses[p] += stream.as_ref().len() as u64;
        }
        let mut active: Vec<(usize, std::slice::Iter<'_, Access>)> = streams
            .iter()
            .map(AsRef::as_ref)
            .enumerate()
            .filter(|(_, stream)| !stream.is_empty())
            .map(|(p, stream)| (p, stream.iter()))
            .collect();
        // Round-robin over the processors that still have accesses left, in ascending
        // processor order per cycle (the deterministic interleaving every consumer of
        // these counters assumes).  The streams are balanced by construction, so run
        // whole *batches* of cycles — as many as the shortest remaining stream allows —
        // with no per-access active-list bookkeeping, then drop exhausted processors
        // and repeat.  `active` never holds an exhausted iterator, so every batch runs
        // at least one full cycle.
        loop {
            match active.as_mut_slice() {
                [] => return,
                [(p, stream)] => {
                    // One active processor — e.g. the sequential phases every
                    // application has: its interleaving with itself is program order,
                    // so the rest of its stream replays as one tight private loop.
                    let p = *p;
                    for a in stream {
                        let first = base + a.object() * size;
                        self.access_counted(p, first, first + size - 1, a.is_write());
                    }
                    return;
                }
                _ => {}
            }
            let cycles =
                active.iter().map(|(_, stream)| stream.len()).min().expect("active is non-empty");
            for _ in 0..cycles {
                for (p, stream) in active.iter_mut() {
                    let a = stream.next().expect("cycles bounds every active stream");
                    let first = base + a.object() * size;
                    self.access_counted(*p, first, first + size - 1, a.is_write());
                }
            }
            active.retain(|(_, stream)| stream.len() > 0);
        }
    }

    /// Snapshot the per-processor counters.
    pub fn result(&self) -> SimulationResult {
        SimulationResult {
            per_proc: (0..self.num_procs())
                .map(|p| ProcessorStats {
                    cache: self.caches[p].stats(),
                    tlb: self.tlbs[p].stats(),
                    accesses: self.accesses[p],
                })
                .collect(),
        }
    }
}

/// A [`TraceSink`] that drives a [`MultiprocessorSim`] directly from a running
/// application: streaming trace replay with no materialized [`ProgramTrace`].
///
/// The round-robin interleaving needs the complete interval, so the sink replays at
/// every barrier.  An interval drained from a generator's shards
/// ([`TraceSink::drain_shards`]) replays in place from the shards; events that arrive
/// through `record`/`record_many` are buffered per processor first (buffers are
/// reused across intervals, so steady-state replay allocates nothing).  Counters are
/// byte-identical to materializing the trace and calling
/// [`MultiprocessorSim::run_trace_with_layout`], because every path feeds the same
/// per-interval replay.
///
/// [`SimSink::with_folded_twin`] adds a one-processor twin machine that replays each
/// interval's per-processor streams concatenated in processor order.  Every
/// application hands processor `p` a contiguous slice of its serial program order,
/// so the folded stream is the application's one-processor trace, and the twin's
/// counters equal a separate one-processor run's, from the same generation.
#[derive(Debug)]
pub struct SimSink {
    sim: MultiprocessorSim,
    /// The processor-folded one-processor machine, when the sink carries one.
    twin: Option<MultiprocessorSim>,
    layout: ObjectLayout,
    /// Per-processor streams of events recorded this interval (cleared, not dropped,
    /// per barrier).
    buffers: Vec<Vec<Access>>,
}

impl SimSink {
    /// Wrap a machine and the object layout accesses should be resolved against.
    pub fn new(sim: MultiprocessorSim, layout: ObjectLayout) -> Self {
        let buffers = vec![Vec::new(); sim.num_procs()];
        SimSink { sim, twin: None, layout, buffers }
    }

    /// [`SimSink::new`] plus a one-processor twin of `sim`'s geometry that replays
    /// every interval processor-folded; [`SimSink::finish_with_twin`] returns its
    /// result.
    pub fn with_folded_twin(sim: MultiprocessorSim, layout: ObjectLayout) -> Self {
        let twin = Some(sim.single_processor_twin());
        SimSink { twin, ..SimSink::new(sim, layout) }
    }

    fn replay_buffered(&mut self) {
        replay(&mut self.sim, self.twin.as_mut(), &self.buffers, &self.layout);
        for buffer in &mut self.buffers {
            buffer.clear();
        }
    }

    /// Replay any buffered partial interval and return the simulation result.
    pub fn finish(self) -> SimulationResult {
        self.finish_with_twin().0
    }

    /// Replay any buffered partial interval and return the machine's result together
    /// with the folded twin's (`None` for a sink built without a twin).
    pub fn finish_with_twin(mut self) -> (SimulationResult, Option<SimulationResult>) {
        self.replay_buffered();
        (self.sim.result(), self.twin.as_ref().map(MultiprocessorSim::result))
    }
}

/// Replay one interval on `sim` and, processor-folded, on `twin`: on one processor,
/// replaying the streams one after another is replaying their concatenation.
fn replay<S: AsRef<[Access]>>(
    sim: &mut MultiprocessorSim,
    twin: Option<&mut MultiprocessorSim>,
    streams: &[S],
    layout: &ObjectLayout,
) {
    sim.run_interval(streams, layout);
    if let Some(twin) = twin {
        for stream in streams {
            twin.run_interval(std::slice::from_ref(stream), layout);
        }
    }
}

impl TraceSink for SimSink {
    fn num_procs(&self) -> usize {
        self.sim.num_procs()
    }

    fn record(&mut self, proc: usize, access: Access) {
        debug_assert!(proc < self.buffers.len());
        self.buffers[proc].push(access);
    }

    fn lock(&mut self, proc: usize, lock: u32) {
        // The hardware model does not charge lock traffic (matching the materialized
        // replay, which ignores recorded lock acquisitions).
        let _ = (proc, lock);
    }

    fn barrier(&mut self) {
        self.replay_buffered();
    }

    fn record_many(&mut self, proc: usize, accesses: &[Access]) {
        self.buffers[proc].extend_from_slice(accesses);
    }

    fn drain_shards(&mut self, shards: &[Shard]) {
        if self.buffers.iter().all(Vec::is_empty) {
            // Nothing was recorded this interval: replay straight from the shards.
            replay(&mut self.sim, self.twin.as_mut(), shards, &self.layout);
        } else {
            for (buffer, shard) in self.buffers.iter_mut().zip(shards) {
                buffer.extend_from_slice(shard.accesses());
            }
            self.replay_buffered();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtrace::{ShardSet, TraceBuilder};

    fn tiny_machine(procs: usize) -> MultiprocessorSim {
        MultiprocessorSim::new(procs, CacheConfig::new(1024, 64, 2), TlbConfig::new(4, 256))
    }

    #[test]
    fn single_processor_behaves_like_a_plain_cache() {
        let mut m = tiny_machine(1);
        m.access(0, 0, 63, false);
        m.access(0, 0, 63, false);
        m.access(0, 64, 127, true);
        let r = m.result();
        assert_eq!(r.per_proc[0].cache.misses, 2);
        assert_eq!(r.per_proc[0].cache.hits, 1);
        assert_eq!(r.per_proc[0].accesses, 3);
        assert_eq!(r.coherence_misses(), 0);
    }

    #[test]
    fn false_sharing_causes_coherence_misses() {
        // Two processors ping-pong writes to different halves of the same 64-byte line.
        let mut m = tiny_machine(2);
        for _ in 0..10 {
            m.access(0, 0, 31, true);
            m.access(1, 32, 63, true);
        }
        let r = m.result();
        // After the first exchange every access misses because the other processor's
        // write invalidated the line.
        assert!(r.l2_misses() >= 18, "expected ping-pong misses, got {}", r.l2_misses());
        assert!(r.coherence_misses() > 0);
    }

    #[test]
    fn disjoint_lines_do_not_interfere() {
        let mut m = tiny_machine(2);
        for _ in 0..10 {
            m.access(0, 0, 31, true);
            m.access(1, 64, 95, true);
        }
        let r = m.result();
        assert_eq!(r.l2_misses(), 2, "only one compulsory miss per processor");
        assert_eq!(r.coherence_misses(), 0);
    }

    #[test]
    fn trace_replay_matches_manual_replay() {
        let layout = ObjectLayout::new(16, 64);
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.write(0, 0);
        b.write(1, 1);
        b.barrier();
        b.read(0, 1);
        b.read(1, 0);
        b.barrier();
        let trace = b.finish();

        let mut m = tiny_machine(2);
        let r = m.run_trace(&trace);
        assert_eq!(r.totals().accesses, 4);
        assert_eq!(r.per_proc[0].accesses, 2);
        // Objects 0 and 1 are different 64-byte lines, so there is no false sharing;
        // the second interval's reads of the *other* processor's freshly written line
        // are true-sharing communication misses and are counted as coherence misses.
        assert_eq!(r.l2_misses(), 4);
        assert_eq!(r.coherence_misses(), 2);
    }

    #[test]
    fn reordered_layout_reduces_misses_for_strided_access() {
        // A processor repeatedly walks objects 0, 16, 32, ... (a strided, scattered
        // pattern).  Under a layout where those objects are contiguous, the cache and
        // TLB miss counts drop — the essence of the paper's single-processor result.
        let n = 64usize;
        let layout = ObjectLayout::new(n, 64);
        let mut b = TraceBuilder::new(layout.clone(), 1);
        let stride_order: Vec<usize> =
            (0..16).flat_map(|k| (0..4).map(move |j| j * 16 + k)).collect();
        for _ in 0..4 {
            for &o in &stride_order {
                b.read(0, o);
            }
        }
        let trace = b.finish();

        // Original layout: object i at position i.
        let mut m1 =
            MultiprocessorSim::new(1, CacheConfig::new(512, 64, 2), TlbConfig::new(2, 256));
        let r1 = m1.run_trace(&trace);

        // "Reordered" layout: we emulate reordering by remapping the trace's objects so
        // that the visit order is contiguous.  (The applications do this for real; here
        // we just build the equivalent trace.)
        let mut b2 = TraceBuilder::new(layout, 1);
        for _ in 0..4 {
            for i in 0..n {
                b2.read(0, i);
            }
        }
        let trace2 = b2.finish();
        let mut m2 =
            MultiprocessorSim::new(1, CacheConfig::new(512, 64, 2), TlbConfig::new(2, 256));
        let r2 = m2.run_trace(&trace2);

        assert!(r2.tlb_misses() < r1.tlb_misses());
        assert!(r2.l2_misses() <= r1.l2_misses());
    }

    /// Three processors, four intervals with every kind of stream shape: shared
    /// lines, an idle processor, a one-processor phase.  The streams overflow
    /// `tiny_machine`'s cache and TLB, so the counters depend on replay order.
    fn shard_intervals() -> Vec<Vec<Vec<Access>>> {
        let mut state = 0x9e37_79b9_u32;
        let mut stream = |len: usize| -> Vec<Access> {
            (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 17;
                    state ^= state << 5;
                    let object = (state % 64) as usize;
                    if state.is_multiple_of(3) {
                        Access::write(object)
                    } else {
                        Access::read(object)
                    }
                })
                .collect()
        };
        vec![
            vec![stream(40), stream(35), stream(50)],
            vec![stream(30), vec![], stream(45)],
            vec![stream(60), vec![], vec![]],
            vec![stream(25), stream(25), stream(25)],
        ]
    }

    fn filled(shards: &mut ShardSet, interval: &[Vec<Access>]) {
        for (p, stream) in interval.iter().enumerate() {
            for &a in stream {
                shards.shard_mut(p).record(a);
            }
        }
    }

    #[test]
    fn in_place_record_many_and_mixed_drains_give_identical_counters() {
        let layout = ObjectLayout::new(64, 48);
        let intervals = shard_intervals();
        // The oracle: every interval through `record_many` and a barrier.
        let mut batched = SimSink::with_folded_twin(tiny_machine(3), layout.clone());
        for interval in &intervals {
            for (p, stream) in interval.iter().enumerate() {
                batched.record_many(p, stream);
            }
            batched.barrier();
        }
        // In place: the shards are replayed where they lie.
        let mut shards = ShardSet::new(3);
        let mut in_place = SimSink::with_folded_twin(tiny_machine(3), layout.clone());
        for interval in &intervals {
            filled(&mut shards, interval);
            shards.drain_interval(&mut in_place);
        }
        // Mixed: each processor's first access is `record`ed directly, the rest of
        // the interval arrives as a shard drain.
        let mut mixed = SimSink::with_folded_twin(tiny_machine(3), layout);
        for interval in &intervals {
            let mut rest = Vec::new();
            for (p, stream) in interval.iter().enumerate() {
                if let Some((&first, tail)) = stream.split_first() {
                    mixed.record(p, first);
                    rest.push(tail.to_vec());
                } else {
                    rest.push(Vec::new());
                }
            }
            filled(&mut shards, &rest);
            shards.drain_interval(&mut mixed);
        }
        let expected = batched.finish_with_twin();
        assert!(expected.0.coherence_misses() > 0, "the intervals must share lines");
        assert_eq!(in_place.finish_with_twin(), expected);
        assert_eq!(mixed.finish_with_twin(), expected);
    }

    #[test]
    fn folded_twin_equals_a_one_processor_run_of_the_concatenated_streams() {
        let layout = ObjectLayout::new(64, 48);
        let mut sink = SimSink::with_folded_twin(tiny_machine(3), layout.clone());
        let mut serial = SimSink::new(tiny_machine(1), layout);
        let mut shards = ShardSet::new(3);
        for interval in &shard_intervals() {
            filled(&mut shards, interval);
            shards.drain_interval(&mut sink);
            serial.record_many(0, &interval.concat());
            serial.barrier();
        }
        let (par, twin) = sink.finish_with_twin();
        let twin = twin.expect("built with a twin");
        assert_eq!(twin, serial.finish());
        assert_eq!(twin.per_proc.len(), 1);
        assert_eq!(twin.totals().accesses, par.totals().accesses);
        assert_eq!(twin.coherence_misses(), 0);
    }

    #[test]
    #[should_panic(expected = "trace and machine sizes differ")]
    fn mismatched_processor_count_panics() {
        let layout = ObjectLayout::new(4, 64);
        let b = TraceBuilder::new(layout, 2);
        let trace = b.finish();
        let mut m = tiny_machine(4);
        m.run_trace(&trace);
    }
}
