//! The event queue at the heart of the discrete-event engine.
//!
//! [`EventQueue`] is a priority queue of `(Time, E)` pairs ordered by time
//! with deterministic FIFO tie-breaking: two events scheduled for the same
//! instant pop in the order they were pushed. Determinism matters — every
//! experiment in the benchmark harness must be exactly reproducible from its
//! seed, so iteration order may never depend on container internals.
//!
//! # The ordering contract
//!
//! Both implementations in this module honour one pinned contract:
//!
//! 1. **Time order.** `pop` emits events in non-decreasing `Time`.
//! 2. **FIFO within a timestamp.** Events with equal `Time` pop in push
//!    order, enforced by a monotonically increasing push sequence
//!    number. Equivalently: pops are sorted by `(time, seq)`.
//! 3. **Monotonic clock.** `now()` is the timestamp of the last popped
//!    event and never goes backwards.
//! 4. **Past-push policy.** Scheduling before `now()` is a logic error
//!    in the calling world. [`EventQueue::push`] *saturates*: the event
//!    is clamped to fire at `now()` (never silently reordered before
//!    already-popped events), and the clamp is accounted — see
//!    [`EventQueue::clamp_stats`]. [`EventQueue::try_push`] is the
//!    strict variant that rejects the event instead.
//!
//! # Two implementations
//!
//! * [`EventQueue`] — the production queue, backed by the hierarchical
//!   timer wheel in [`crate::wheel`]: O(1) amortised push/pop regardless
//!   of pending-event count, which is what lets the scale harness hold
//!   10⁶+ concurrent flows (`results/BENCH_scale.json`).
//! * [`HeapQueue`] — the original `BinaryHeap` implementation, kept as
//!   the *reference*: O(log n) but trivially correct. The differential
//!   proptest `wheel_matches_heap_reference` (in `tests/`) drives both
//!   with random push/pop interleavings and asserts identical pop
//!   sequences, and `bench --bench wheel` uses it as the perf baseline.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;
use crate::wheel::{PastPush, TimerWheel, WheelStats};

/// Minimal queue interface shared by [`EventQueue`] and [`HeapQueue`] so
/// harnesses (the sharded engine, the scale load generator, the wheel
/// bench) can run the same world over either implementation.
pub trait SimQueue<E> {
    /// Creates an empty queue with the clock at [`Time::ZERO`].
    fn new_empty() -> Self;
    /// Schedules `event` at absolute time `at` (saturating past-push
    /// policy).
    fn push(&mut self, at: Time, event: E);
    /// Pops the earliest event, advancing the clock.
    fn pop(&mut self) -> Option<(Time, E)>;
    /// Timestamp of the next event without popping it.
    fn peek_time(&mut self) -> Option<Time>;
    /// Pops the earliest event only if it fires strictly before `bound`.
    /// One call instead of a peek/pop pair — this is the inner-loop
    /// operation of the windowed engine in [`crate::shard`].
    fn pop_if_before(&mut self, bound: Time) -> Option<(Time, E)> {
        if self.peek_time()? < bound {
            self.pop()
        } else {
            None
        }
    }
    /// Borrows the next event's payload without popping (and without
    /// advancing the clock). The windowed engine uses this to let worlds
    /// prefetch the state the *next* handler will touch while the current
    /// one runs. Queues that cannot cheaply peek may return `None`.
    fn peek_next(&mut self) -> Option<&E> {
        None
    }
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The current simulation time.
    fn now(&self) -> Time;
    /// Pushes the saturating past-push policy has clamped so far.
    fn clamped(&self) -> u64;
}

/// The event loop every world runs: pops events in `(time, seq)` order
/// and hands each to `handle` together with the queue, so the handler can
/// schedule follow-ups, until the queue drains.
///
/// A push aimed before the clock is a bug in the calling world (contract
/// point 4 above): the queue still clamps it so the run finishes, and
/// `drive` then panics naming `world` instead of returning numbers a
/// reordered event may have moved.
///
/// `#[inline]` puts the loop in the world's own codegen unit, next to the
/// handlers it calls: without it `mt_world` measured ~3 % slower than the
/// hand-written loop it replaced.
#[inline]
pub fn drive<E, Q: SimQueue<E>>(
    world: &str,
    queue: &mut Q,
    mut handle: impl FnMut(Time, E, &mut Q),
) {
    while let Some((now, ev)) = queue.pop() {
        handle(now, ev, queue);
    }
    assert_eq!(
        queue.clamped(),
        0,
        "{world}: events were scheduled before the simulation clock"
    );
}

/// A deterministic time-ordered event queue (see the module docs for the
/// full ordering contract).
///
/// `E` is the experiment-specific event payload; worlds typically define an
/// enum and dispatch on it:
///
/// ```
/// use syrup_sim::{EventQueue, Time};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { PacketArrival, TimerFired }
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_micros(5), Ev::TimerFired);
/// q.push(Time::from_micros(1), Ev::PacketArrival);
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (Time::from_micros(1), Ev::PacketArrival));
/// ```
#[derive(Debug, Default)]
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the calling world; the
    /// queue clamps such events to fire "now" rather than corrupting the
    /// clock, which keeps long sims debuggable (the event still happens and
    /// ordering stays monotonic). Every clamp is accounted — the count and
    /// the absorbed drift are readable via [`Self::clamp_stats`] and
    /// surface as the `*/wheel_clamped` counter and `*/wheel_drift_ns`
    /// gauge when telemetry is attached. Use [`Self::try_push`] to reject
    /// past events instead.
    pub fn push(&mut self, at: Time, event: E) {
        self.wheel.push(at, event);
    }

    /// Strict push: returns `Err(PastPush)` when `at` is before
    /// [`Self::now`] instead of applying the saturating clamp.
    pub fn try_push(&mut self, at: Time, event: E) -> Result<(), PastPush> {
        self.wheel.try_push(at, event)
    }

    /// Pops the earliest event, advancing the simulation clock to its time.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.wheel.pop()
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> Time {
        self.wheel.now()
    }

    /// The timestamp of the next event, if any, without popping it.
    ///
    /// Peeking may advance the wheel's internal dispatch frontier but
    /// never [`Self::now`], and a later `push` aimed earlier than the
    /// peeked event still pops first.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    /// Past-push clamp accounting: `(clamped_count, total_drift_ns,
    /// max_drift_ns)` absorbed by the saturating policy so far.
    pub fn clamp_stats(&self) -> (u64, u64, u64) {
        let s = self.wheel.stats();
        (s.clamped, s.drift_total_ns, s.drift_max_ns)
    }

    /// The backing wheel's full statistics (cascades, overflow pushes,
    /// high-water depth, ...).
    pub fn wheel_stats(&self) -> WheelStats {
        self.wheel.stats()
    }

    /// Publishes the backing wheel's instrumentation into `registry`
    /// under `{prefix}/wheel_*`. Disabled-cost is a single branch per
    /// site until attached.
    pub fn attach_telemetry(&mut self, registry: &syrup_telemetry::Registry, prefix: &str) {
        self.wheel.attach_telemetry(registry, prefix);
    }
}

impl<E> SimQueue<E> for EventQueue<E> {
    fn new_empty() -> Self {
        Self::new()
    }
    fn push(&mut self, at: Time, event: E) {
        EventQueue::push(self, at, event);
    }
    fn pop(&mut self) -> Option<(Time, E)> {
        EventQueue::pop(self)
    }
    fn peek_time(&mut self) -> Option<Time> {
        EventQueue::peek_time(self)
    }
    fn pop_if_before(&mut self, bound: Time) -> Option<(Time, E)> {
        self.wheel.pop_if_before(bound)
    }
    fn peek_next(&mut self) -> Option<&E> {
        self.wheel.peek_entry().map(|(_, e)| e)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn now(&self) -> Time {
        EventQueue::now(self)
    }
    fn clamped(&self) -> u64 {
        self.wheel.stats().clamped
    }
}

/// The original `BinaryHeap`-backed queue, kept as the ordering
/// reference and perf baseline for [`EventQueue`]'s timer wheel.
///
/// Same contract as [`EventQueue`] (time order, FIFO-within-timestamp
/// via push sequence numbers, monotonic clock, saturating past-push with
/// clamp accounting), O(log n) per operation. Do not use in new worlds;
/// it exists so correctness (differential proptest) and performance
/// (`bench --bench wheel`, the `scale` harness baseline) stay measurable
/// against a trivially-correct implementation.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    now: Time,
    clamped: u64,
    drift_total_ns: u64,
    drift_max_ns: u64,
}

#[derive(Debug)]
struct HeapEntry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap; invert so the earliest time (and the
        // lowest sequence number within a time) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
            clamped: 0,
            drift_total_ns: 0,
            drift_max_ns: 0,
        }
    }

    /// Schedules `event` at absolute time `at` (saturating past-push
    /// policy, accounted like [`EventQueue::push`]).
    pub fn push(&mut self, at: Time, event: E) {
        let at = if at < self.now {
            let drift = self.now.as_nanos() - at.as_nanos();
            self.clamped += 1;
            self.drift_total_ns = self.drift_total_ns.saturating_add(drift);
            self.drift_max_ns = self.drift_max_ns.max(drift);
            self.now
        } else {
            at
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry {
            time: at,
            seq,
            event,
        });
    }

    /// Strict push: rejects events aimed before [`Self::now`].
    pub fn try_push(&mut self, at: Time, event: E) -> Result<(), PastPush> {
        if at < self.now {
            return Err(PastPush { now: self.now, at });
        }
        self.push(at, event);
        Ok(())
    }

    /// Pops the earliest event, advancing the simulation clock to its time.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The timestamp of the next event, if any, without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Past-push clamp accounting: `(clamped_count, total_drift_ns,
    /// max_drift_ns)`.
    pub fn clamp_stats(&self) -> (u64, u64, u64) {
        (self.clamped, self.drift_total_ns, self.drift_max_ns)
    }
}

impl<E> SimQueue<E> for HeapQueue<E> {
    fn new_empty() -> Self {
        Self::new()
    }
    fn push(&mut self, at: Time, event: E) {
        HeapQueue::push(self, at, event);
    }
    fn pop(&mut self) -> Option<(Time, E)> {
        HeapQueue::pop(self)
    }
    fn peek_time(&mut self) -> Option<Time> {
        HeapQueue::peek_time(self)
    }
    fn peek_next(&mut self) -> Option<&E> {
        self.heap.peek().map(|e| &e.event)
    }
    fn len(&self) -> usize {
        HeapQueue::len(self)
    }
    fn now(&self) -> Time {
        HeapQueue::now(self)
    }
    fn clamped(&self) -> u64 {
        self.clamped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(30), "c");
        q.push(Time::from_micros(10), "a");
        q.push(Time::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_break_fifo_in_reference_heap() {
        // The pinned contract the wheel must match: push order wins
        // within a timestamp because `seq` increases monotonically.
        let mut q = HeapQueue::new();
        let t = Time::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_survives_interleaved_timestamps() {
        // Pushes alternate between two timestamps; within each timestamp
        // the pop order must equal the push order on both
        // implementations.
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let (ta, tb) = (Time::from_micros(3), Time::from_micros(7));
        for i in 0..50u32 {
            let t = if i % 2 == 0 { ta } else { tb };
            wheel.push(t, i);
            heap.push(t, i);
        }
        let wheel_order: Vec<_> = std::iter::from_fn(|| wheel.pop()).collect();
        let heap_order: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
        assert_eq!(wheel_order, heap_order);
        let evens: Vec<_> = wheel_order
            .iter()
            .filter(|(t, _)| *t == ta)
            .map(|&(_, e)| e)
            .collect();
        assert_eq!(evens, (0..50).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(10), ());
        q.push(Time::from_micros(10), ());
        q.push(Time::from_micros(11), ());
        let mut last = Time::ZERO;
        while let Some((t, ())) = q.pop() {
            assert!(t >= last);
            assert_eq!(q.now(), t);
            last = t;
        }
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(100), "late");
        q.pop();
        // Scheduling before `now` must not rewind the clock.
        q.push(Time::from_micros(50), "early");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "early");
        assert_eq!(t, Time::from_micros(100));
    }

    #[test]
    fn past_push_is_accounted_not_silent() {
        // Regression for the silent-clamp bug: the saturating policy is
        // kept, but every clamp now shows up in the accounting.
        let mut q = EventQueue::new();
        q.push(Time::from_micros(100), 0);
        q.pop();
        assert_eq!(q.clamp_stats(), (0, 0, 0));
        q.push(Time::from_micros(40), 1); // 60us in the past
        q.push(Time::from_micros(90), 2); // 10us in the past
        let (clamped, total, max) = q.clamp_stats();
        assert_eq!(clamped, 2);
        assert_eq!(total, 70_000);
        assert_eq!(max, 60_000);
        // Both fire at the clamped time, FIFO order preserved.
        assert_eq!(q.pop().unwrap(), (Time::from_micros(100), 1));
        assert_eq!(q.pop().unwrap(), (Time::from_micros(100), 2));
    }

    #[test]
    fn try_push_rejects_instead_of_clamping() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(10), 0);
        q.pop();
        let err = q.try_push(Time::from_micros(9), 1).unwrap_err();
        assert_eq!(err.now, Time::from_micros(10));
        assert_eq!(err.at, Time::from_micros(9));
        assert_eq!(q.clamp_stats().0, 0);
        assert!(q.is_empty(), "rejected event must not be queued");
        // The same holds for the reference heap.
        let mut h = HeapQueue::new();
        h.push(Time::from_micros(10), 0);
        h.pop();
        assert!(h.try_push(Time::from_micros(9), 1).is_err());
        assert!(h.try_push(Time::from_micros(10), 2).is_ok());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(7), ());
        assert_eq!(q.peek_time(), Some(Time::from_micros(7)));
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_is_deterministic() {
        // Simulate a self-rescheduling timer plus bursts at the same instant.
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 0u32);
        let mut seen = Vec::new();
        while let Some((t, id)) = q.pop() {
            seen.push((t.as_micros(), id));
            if seen.len() >= 10 {
                break;
            }
            q.push(t + Duration::from_micros(1), id + 1);
            q.push(t + Duration::from_micros(1), id + 100);
        }
        // Every step pops the FIFO-first of the two events pushed one
        // microsecond apart, in insertion order.
        assert_eq!(seen[0], (0, 0));
        assert_eq!(seen[1], (1, 1));
        assert_eq!(seen[2], (1, 100));
    }

    /// A small self-scheduling world on `drive`: every event below 40
    /// spawns one follow-up at the same instant and one 3µs later.
    fn drive_transcript<Q: SimQueue<u32>>(
        mut q: Q,
        push: fn(&mut Q, Time, u32),
    ) -> Vec<(Time, u32)> {
        for id in 0..4 {
            push(&mut q, Time::from_micros(u64::from(id % 2)), id);
        }
        let mut seen = Vec::new();
        drive("transcript", &mut q, |now, id, q| {
            seen.push((now, id));
            if id < 40 {
                push(q, now, id + 100);
                push(q, now + Duration::from_micros(3), id + 4);
            }
        });
        seen
    }

    #[test]
    fn drive_pops_pushes_at_now_after_what_was_queued_for_now() {
        let mut q = EventQueue::new();
        for id in ["a", "b", "c"] {
            q.push(Time::from_micros(5), id);
        }
        q.push(Time::from_micros(6), "later");
        let mut seen = Vec::new();
        drive("fifo", &mut q, |now, id, q| {
            seen.push(id);
            if id == "a" {
                q.push(now, "a1");
                q.push(now, "a2");
            }
        });
        assert_eq!(seen, ["a", "b", "c", "a1", "a2", "later"]);
    }

    #[test]
    fn drive_transcript_is_the_same_on_every_queue() {
        let wheel = drive_transcript(EventQueue::new(), |q, at, id| q.push(at, id));
        assert_eq!(wheel.len(), 4 + 2 * 40);
        assert!(wheel.windows(2).all(|w| w[0].0 <= w[1].0));
        let heap = drive_transcript(HeapQueue::new(), |q, at, id| q.push(at, id));
        assert_eq!(heap, wheel);
        for shards in [1, 2, 8] {
            let sharded = drive_transcript(crate::ShardedQueue::new(shards), |q, at, id| {
                q.push_keyed(at, u64::from(id), id)
            });
            assert_eq!(sharded, wheel, "shards={shards}");
        }
    }

    #[test]
    #[should_panic(expected = "toy_world: events were scheduled before the simulation clock")]
    fn drive_panics_when_a_handler_pushes_into_the_past() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(10), 0);
        drive("toy_world", &mut q, |_, id, q| {
            if id == 0 {
                q.push(Time::from_micros(9), 1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "toy_world")]
    fn drive_panics_on_a_past_push_through_the_sharded_facade() {
        let mut q = crate::ShardedQueue::new(2);
        q.push_keyed(Time::from_micros(10), 7, 0);
        drive("toy_world", &mut q, |_, id, q| {
            if id == 0 {
                q.push_keyed(Time::from_micros(9), 8, 1);
            }
        });
    }

    #[test]
    fn drive_on_an_empty_queue_never_calls_the_handler() {
        let mut q: EventQueue<u32> = EventQueue::new();
        drive("empty", &mut q, |_, _, _| panic!("nothing to handle"));
        assert_eq!(q.now(), Time::ZERO);
    }

    #[test]
    fn wheel_and_heap_agree_on_a_structured_interleaving() {
        // Cheap deterministic differential check (the full random-
        // interleaving proptest lives in tests/): mixed near/far/same-
        // tick pushes with interleaved pops.
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let push = |w: &mut EventQueue<u64>, h: &mut HeapQueue<u64>, ns: u64, id: u64| {
            w.push(Time::from_nanos(ns), id);
            h.push(Time::from_nanos(ns), id);
        };
        let mut id = 0;
        for round in 0..50u64 {
            for ns in [
                round * 17,
                round * 4_096,
                round * 262_144,
                round * 1_000_000,
                5_000_000 - round,
                round * 17, // duplicate timestamp: FIFO tiebreak
            ] {
                push(&mut wheel, &mut heap, ns, id);
                id += 1;
            }
            assert_eq!(wheel.pop(), heap.pop());
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(wheel.now(), heap.now());
    }
}
