//! The tracer: trace-ID allocation, sampling, span recording.

use crate::counter::Counter;
use crate::percpu::PerCpu;
use crate::span::{SpanKind, SpanRecord};
use crate::stage::Stage;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// A trace identifier. Nonzero; 0 is reserved for "not traced" /
/// global events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// The per-input trace context threaded through the stack alongside the
/// packet/connection/wakeup.
///
/// `Copy` and two words wide so it rides inside `HookMeta`, `RunEnv`, and
/// per-request structs for free. An untraced context (`id == 0`) turns
/// every downstream span site into a single branch — this is the
/// fast path for unsampled inputs even when tracing is on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    id: u64,
}

impl TraceCtx {
    /// The untraced context.
    #[inline]
    pub const fn none() -> Self {
        TraceCtx { id: 0 }
    }

    /// Whether this input is being traced.
    #[inline]
    pub fn is_traced(self) -> bool {
        self.id != 0
    }

    /// The trace id, if traced.
    pub fn trace_id(self) -> Option<TraceId> {
        if self.id == 0 {
            None
        } else {
            Some(TraceId(self.id))
        }
    }
}

/// Buffered-record bound; past it new records are dropped and counted,
/// like a full eBPF ringbuf reservation.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// The tracer's span buffer, with eBPF ringbuf semantics: bounded, the
/// newest record dropped on overflow, and a monotonic drop count
/// readable at any time.
///
/// A full ringbuf refuses a reservation without blocking anyone, and so
/// does this one: the length is mirrored in an atomic written under the
/// lock, a producer that reads it at capacity refuses without taking the
/// lock, and the refusal is counted per CPU. Once full, producers share
/// no written line. A stale mirror is either too low, which only sends
/// the producer to the lock, or misses a drain, which refuses a push the
/// buffer could have taken: one that is never drained accepts exactly
/// `capacity` records, and accepted + dropped equals attempted either way.
#[derive(Debug)]
struct BoundedRing {
    records: Mutex<Vec<SpanRecord>>,
    /// `records.len()`, stored under the lock whenever it changes.
    /// Relaxed: it publishes no data, records are read under the lock.
    len: AtomicUsize,
    capacity: usize,
    /// Per CPU: every refusing producer writes it.
    dropped: PerCpu<Counter>,
}

impl BoundedRing {
    /// A buffer holding at most `capacity` records (min 1).
    fn new(capacity: usize) -> Self {
        BoundedRing {
            records: Mutex::new(Vec::new()),
            len: AtomicUsize::new(0),
            capacity: capacity.max(1),
            dropped: PerCpu::new(Counter::new),
        }
    }

    /// Appends a record, or drops it and counts the drop if the buffer
    /// is full; returns whether the record was stored.
    fn push(&self, record: SpanRecord) -> bool {
        if self.len.load(Relaxed) < self.capacity && self.push_locked(record) {
            return true;
        }
        self.dropped.local().inc();
        false
    }

    /// The locked half of [`BoundedRing::push`], out of line so that a
    /// refusal saves no registers for it.
    #[inline(never)]
    fn push_locked(&self, record: SpanRecord) -> bool {
        let mut records = self.records.lock();
        if records.len() >= self.capacity {
            return false;
        }
        records.push(record);
        self.len.store(records.len(), Relaxed);
        true
    }

    /// Removes and returns every buffered record, oldest first.
    fn drain(&self) -> Vec<SpanRecord> {
        let mut records = self.records.lock();
        self.len.store(0, Relaxed);
        std::mem::take(&mut *records)
    }

    fn peek(&self) -> Vec<SpanRecord> {
        self.records.lock().clone()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.len.load(Relaxed)
    }

    fn dropped(&self) -> u64 {
        self.dropped.sum()
    }
}

#[derive(Debug)]
struct Inner {
    sample_every: u64,
    next_id: AtomicU64,
    ingress_seen: AtomicU64,
    started: AtomicU64,
    records: BoundedRing,
}

/// The span tracer. Cloning shares the instance (like sharing a map fd);
/// the default is [`Tracer::disabled`], which records nothing and costs a
/// single `Option` branch per call.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// An enabled tracer that traces every input.
    pub fn new() -> Self {
        Self::sampled(1)
    }

    /// An enabled tracer that traces one in `every` ingresses (0 is
    /// clamped to 1).
    pub fn sampled(every: u64) -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                sample_every: every.max(1),
                next_id: AtomicU64::new(1),
                ingress_seen: AtomicU64::new(0),
                started: AtomicU64::new(0),
                records: BoundedRing::new(TRACE_CAPACITY),
            })),
        }
    }

    /// A disabled tracer: every call is a no-op behind one branch.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Whether spans are actually collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Called once per input at ingress. Returns a traced context for one
    /// in `sample_every` inputs (and records the ingress instant), the
    /// untraced context otherwise.
    #[inline]
    pub fn ingress(&self, now_ns: u64) -> TraceCtx {
        let Some(inner) = &self.inner else {
            return TraceCtx::none();
        };
        let tick = inner.ingress_seen.fetch_add(1, Relaxed);
        if tick % inner.sample_every != 0 {
            return TraceCtx::none();
        }
        let id = inner.next_id.fetch_add(1, Relaxed);
        inner.started.fetch_add(1, Relaxed);
        let ctx = TraceCtx { id };
        self.push(SpanRecord {
            trace_id: id,
            stage: Stage::Ingress,
            start_ns: now_ns,
            end_ns: now_ns,
            kind: SpanKind::Instant,
            verdict: 0,
            cycles: 0,
            arg: 0,
        });
        ctx
    }

    /// Records a completed interval for a traced input. No-op (one
    /// branch) for untraced contexts.
    #[inline]
    pub fn span(&self, ctx: TraceCtx, stage: Stage, start_ns: u64, end_ns: u64) {
        if ctx.id == 0 {
            return;
        }
        self.span_slow(ctx, stage, start_ns, end_ns, 0, 0, 0);
    }

    /// [`Tracer::span`] carrying a policy verdict and cycle count.
    #[inline]
    pub fn policy_span(
        &self,
        ctx: TraceCtx,
        stage: Stage,
        start_ns: u64,
        end_ns: u64,
        verdict: i64,
        cycles: u64,
    ) {
        if ctx.id == 0 {
            return;
        }
        self.span_slow(ctx, stage, start_ns, end_ns, verdict, cycles, 0);
    }

    /// [`Tracer::span`] carrying a stage-specific argument (queue index,
    /// socket index, core id).
    #[inline]
    pub fn span_arg(&self, ctx: TraceCtx, stage: Stage, start_ns: u64, end_ns: u64, arg: u64) {
        if ctx.id == 0 {
            return;
        }
        self.span_slow(ctx, stage, start_ns, end_ns, 0, 0, arg);
    }

    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn span_slow(
        &self,
        ctx: TraceCtx,
        stage: Stage,
        start_ns: u64,
        end_ns: u64,
        verdict: i64,
        cycles: u64,
        arg: u64,
    ) {
        self.push(SpanRecord {
            trace_id: ctx.id,
            stage,
            start_ns,
            end_ns: end_ns.max(start_ns),
            kind: SpanKind::Complete,
            verdict,
            cycles,
            arg,
        });
    }

    /// Records a point event for a traced input.
    #[inline]
    pub fn instant(&self, ctx: TraceCtx, stage: Stage, now_ns: u64, arg: u64) {
        if ctx.id == 0 {
            return;
        }
        self.push(SpanRecord {
            trace_id: ctx.id,
            stage,
            start_ns: now_ns,
            end_ns: now_ns,
            kind: SpanKind::Instant,
            verdict: 0,
            cycles: 0,
            arg,
        });
    }

    /// Records a global point event not tied to any one input (policy
    /// deploy/teardown). Recorded whenever the tracer is enabled,
    /// regardless of sampling.
    pub fn global_instant(&self, stage: Stage, now_ns: u64, arg: u64) {
        if self.inner.is_none() {
            return;
        }
        self.push(SpanRecord {
            trace_id: 0,
            stage,
            start_ns: now_ns,
            end_ns: now_ns,
            kind: SpanKind::Instant,
            verdict: 0,
            cycles: 0,
            arg,
        });
    }

    /// Closes a trace: the request completed at `now_ns`.
    #[inline]
    pub fn finish(&self, ctx: TraceCtx, now_ns: u64) {
        if ctx.id == 0 {
            return;
        }
        self.push(SpanRecord {
            trace_id: ctx.id,
            stage: Stage::End,
            start_ns: now_ns,
            end_ns: now_ns,
            kind: SpanKind::Instant,
            verdict: 0,
            cycles: 0,
            arg: 0,
        });
    }

    /// Closes a trace as dropped at `stage` (policy DROP, full buffer,
    /// full ring).
    #[inline]
    pub fn drop_input(&self, ctx: TraceCtx, stage: Stage, now_ns: u64) {
        if ctx.id == 0 {
            return;
        }
        self.push(SpanRecord {
            trace_id: ctx.id,
            stage,
            start_ns: now_ns,
            end_ns: now_ns,
            kind: SpanKind::Dropped,
            verdict: 0,
            cycles: 0,
            arg: 0,
        });
    }

    fn push(&self, record: SpanRecord) {
        if let Some(inner) = &self.inner {
            inner.records.push(record);
        }
    }

    /// Removes and returns all buffered records in recording order.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.records.drain())
    }

    /// Copies the buffered records without consuming them.
    pub fn peek(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.records.peek())
    }

    /// Traces started (sampled ingresses) so far.
    pub fn traces_started(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.started.load(Relaxed))
    }

    /// Records lost because the buffer was full.
    pub fn records_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.records.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_hands_out_untraced_contexts() {
        let t = Tracer::disabled();
        let ctx = t.ingress(100);
        assert!(!ctx.is_traced());
        t.span(ctx, Stage::SocketSelect, 100, 200);
        t.finish(ctx, 300);
        assert!(t.drain().is_empty());
        assert_eq!(t.traces_started(), 0);
    }

    #[test]
    fn sampling_traces_one_in_n() {
        let t = Tracer::sampled(4);
        let traced: Vec<bool> = (0..12).map(|i| t.ingress(i).is_traced()).collect();
        assert_eq!(traced.iter().filter(|&&b| b).count(), 3);
        // Deterministic: every 4th ingress starting with the first.
        assert!(traced[0] && traced[4] && traced[8]);
        assert_eq!(t.traces_started(), 3);
    }

    #[test]
    fn spans_record_for_traced_inputs_only() {
        let t = Tracer::sampled(2);
        let a = t.ingress(0); // traced
        let b = t.ingress(1); // unsampled
        t.span(a, Stage::StackRx, 0, 100);
        t.span(b, Stage::StackRx, 1, 101);
        t.finish(a, 200);
        let records = t.drain();
        // ingress + span + end, all for trace a.
        assert_eq!(records.len(), 3);
        assert!(records
            .iter()
            .all(|r| Some(r.trace_id) == a.trace_id().map(|i| i.0)));
    }

    #[test]
    fn capacity_overflow_drops_and_counts() {
        let t = Tracer::new();
        let ctx = t.ingress(0); // record 1
        for i in 1..TRACE_CAPACITY as u64 {
            t.span(ctx, Stage::Run, i, i); // records 2 ..= TRACE_CAPACITY
        }
        assert_eq!(t.records_dropped(), 0);
        t.span(ctx, Stage::End, 10, 10); // record 65 537: refused
        assert_eq!(t.records_dropped(), 1);
        t.finish(ctx, 20); // refused
        assert_eq!(t.records_dropped(), 2);
        assert_eq!(t.drain().len(), TRACE_CAPACITY);
        // Drain frees capacity.
        t.span(ctx, Stage::Run, 20, 30);
        assert_eq!(t.peek().len(), 1);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let t = Tracer::new();
        let ids: Vec<u64> = (0..100)
            .map(|i| t.ingress(i).trace_id().expect("sampled").0)
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        assert!(ids.iter().all(|&i| i != 0));
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Tracer::new();
        let clone = t.clone();
        let ctx = t.ingress(0);
        clone.span(ctx, Stage::Run, 0, 5);
        assert_eq!(t.peek().len(), 2);
    }

    #[test]
    fn global_instants_do_not_need_a_trace() {
        let t = Tracer::sampled(1_000_000);
        t.global_instant(Stage::PolicyLifecycle, 0, 42);
        let records = t.drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].trace_id, 0);
        assert_eq!(records[0].arg, 42);
    }

    fn ev(t: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            stage: Stage::Run,
            start_ns: t,
            end_ns: t,
            kind: SpanKind::Complete,
            verdict: 3,
            cycles: 1500,
            arg: 0,
        }
    }

    #[test]
    fn overflow_drops_the_new_event() {
        let ring = BoundedRing::new(2);
        assert!(ring.push(ev(1)));
        assert!(ring.push(ev(2)));
        assert!(!ring.push(ev(3)));
        assert_eq!(ring.dropped(), 1);
        // The buffered events are the OLD ones; event 3 was lost.
        let events: Vec<u64> = ring.drain().iter().map(|e| e.start_ns).collect();
        assert_eq!(events, vec![1, 2]);
    }

    #[test]
    fn drain_frees_capacity() {
        let ring = BoundedRing::new(1);
        assert!(ring.push(ev(1)));
        assert!(!ring.push(ev(2)));
        assert_eq!(ring.drain().len(), 1);
        assert!(ring.push(ev(3)));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn overfill_counts_every_drop_exactly_and_keeps_order() {
        let ring = BoundedRing::new(8);
        for t in 0..100 {
            ring.push(ev(t));
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.dropped(), 92);
        // Survivors are the oldest events, in insertion order.
        let stored: Vec<u64> = ring.drain().iter().map(|e| e.start_ns).collect();
        assert_eq!(stored, (0..8).collect::<Vec<u64>>());
        // Draining frees capacity; the drop counter keeps its history.
        for t in 100..112 {
            ring.push(ev(t));
        }
        assert_eq!(ring.dropped(), 96);
        let stored: Vec<u64> = ring.drain().iter().map(|e| e.start_ns).collect();
        assert_eq!(stored, (100..108).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_overfill_loses_no_record_and_no_drop() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 1_000;
        let ring = Arc::new(BoundedRing::new(4));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let mut stored = 0u64;
                    for i in 0..PER_PRODUCER {
                        if ring.push(ev(p * PER_PRODUCER + i)) {
                            stored += 1;
                        }
                    }
                    stored
                })
            })
            .collect();
        // Drain concurrently so pushes keep landing into freed capacity.
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut got = 0u64;
                for _ in 0..500 {
                    got += ring.drain().len() as u64;
                    std::thread::yield_now();
                }
                got
            })
        };
        let stored: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
        let drained = consumer.join().unwrap() + ring.drain().len() as u64;
        // Every accepted push is drained exactly once, and accepted +
        // dropped accounts for every push attempted.
        assert_eq!(stored, drained);
        assert_eq!(stored + ring.dropped(), PRODUCERS * PER_PRODUCER);
    }

    #[test]
    fn concurrent_overfill_of_an_undrained_ring_refuses_exactly_the_excess() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 2_000;
        const CAPACITY: usize = 100;
        let ring = BoundedRing::new(CAPACITY);
        let stored: u64 = std::thread::scope(|s| {
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let ring = &ring;
                    s.spawn(move || {
                        (0..PER_PRODUCER)
                            .filter(|i| ring.push(ev(p * PER_PRODUCER + i)))
                            .count() as u64
                    })
                })
                .collect();
            producers.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let attempted = PRODUCERS * PER_PRODUCER;
        assert_eq!(stored, CAPACITY as u64);
        assert_eq!(ring.dropped(), attempted - CAPACITY as u64);
        assert_eq!(ring.len(), CAPACITY);
        assert_eq!(ring.drain().len(), CAPACITY);
    }

    #[test]
    fn peek_does_not_consume() {
        let ring = BoundedRing::new(4);
        ring.push(ev(1));
        assert_eq!(ring.peek().len(), 1);
        assert_eq!(ring.len(), 1);
    }
}
