//! The event queue: a hierarchical timer wheel, O(1) per operation.
//!
//! [`EventQueue`] is the queue every world schedules into; its ordering
//! contract is pinned in [`crate::queue`]. The binary heap that
//! originally backed it ([`crate::HeapQueue`], now the reference) costs
//! O(log n) per operation with poor cache locality once millions of
//! events are pending — the regime ROADMAP open item 2 ("serve heavy
//! traffic from millions of users") puts the simulator in. Following
//! Eiffel's observation that bucketed, FFS-indexed time structures make
//! priority maintenance O(1) at packet rates, [`EventQueue`] is a classic
//! hierarchical (cascading) wheel:
//!
//! * **Ticks.** Simulated time is quantised to 64 ns ticks
//!   (`TICK_SHIFT = 6`). Events keep their exact nanosecond timestamp;
//!   the tick only decides which bucket holds them.
//! * **Levels.** 5 levels of 64 slots each (`LEVELS × SLOTS`). Level 0
//!   resolves single ticks; level `l` buckets spans of `64^l` ticks. The
//!   wheel covers `64^5 = 2^30` ticks (≈ 68.7 s of simulated time) ahead
//!   of the cursor.
//! * **Occupancy bitmaps.** One `u64` per level; find-first-set
//!   (`trailing_zeros`) locates the next occupied slot without walking
//!   empty buckets, so advancing over dead time is O(levels), not
//!   O(elapsed ticks).
//! * **Overflow.** Events beyond the wheel's span land in a small binary
//!   heap and are drained into the wheel when the cursor gets within one
//!   span of them. Far-future timers are rare; the heap keeps them exact
//!   without widening the wheel.
//! * **Cascading.** When the cursor enters a higher-level slot's span,
//!   that bucket is drained and every entry re-inserted, which strictly
//!   demotes it to a finer level — the classic cascade, counted in
//!   [`WheelStats::cascaded`].
//!
//! # Ordering contract
//!
//! Pops are emitted in ascending `(time, seq)` order, where `seq` is the
//! global push sequence number — **exactly** the contract of the
//! reference heap ([`crate::HeapQueue`]): earliest time first, FIFO
//! within a timestamp. Buckets are unordered; the contract is enforced
//! where it is cheap, at dispatch time, by sorting the (single-tick)
//! bucket that is about to drain. A differential proptest
//! (`wheel_matches_heap_reference`) drives both structures with random
//! push/pop interleavings and asserts identical pop sequences.
//!
//! # Drift accounting
//!
//! Scheduling an event before `now` is a logic error in the calling
//! world. The wheel keeps the queue's documented saturating policy —
//! the event is clamped to fire at `now` — but accounts for every clamp:
//! [`WheelStats::clamped`] counts occurrences and
//! [`WheelStats::drift_total_ns`]/[`WheelStats::drift_max_ns`] measure
//! how far in the past the world aimed ([`EventQueue::clamp_stats`]).
//! There is no strict push: [`crate::drive`] panics at the end of any run
//! that clamped. When telemetry is attached the cumulative drift surfaces
//! as the `*/wheel_drift_ns` gauge (visible in `syrupctl metrics`), so a
//! world that relies on clamping shows up in any run's snapshot.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use syrup_telemetry::{CounterHandle, GaugeHandle, Registry};

use crate::queue::SimQueue;
use crate::time::Time;

/// log2 of the tick width in nanoseconds: one tick is 64 ns.
pub const TICK_SHIFT: u32 = 6;
/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels; spans beyond them go to the overflow heap.
pub const LEVELS: usize = 5;
/// Ticks covered by the wheel ahead of the cursor: `64^LEVELS`.
pub const SPAN_TICKS: u64 = 1 << (LEVEL_BITS * LEVELS as u32);

#[inline]
fn tick_of(t: Time) -> u64 {
    t.as_nanos() >> TICK_SHIFT
}

/// One scheduled event: exact time, global FIFO sequence, payload.
#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

/// Max-heap inversion for the overflow heap (earliest pops first).
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Counters the wheel keeps regardless of telemetry (plain `u64`s, no
/// atomics — reading them is free, they cost one add on the touched
/// path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Events accepted by `push`.
    pub pushes: u64,
    /// Events handed out by `pop`.
    pub pops: u64,
    /// Entries moved during cascades (higher level drained into finer
    /// levels, including the covering-slot sweeps on cursor jumps).
    pub cascaded: u64,
    /// Pushes that landed beyond the wheel span, in the overflow heap.
    pub overflowed: u64,
    /// Pushes aimed before `now` and clamped to fire immediately.
    pub clamped: u64,
    /// Total nanoseconds of backwards drift absorbed by clamping.
    pub drift_total_ns: u64,
    /// Largest single backwards drift absorbed by clamping.
    pub drift_max_ns: u64,
    /// High-water mark of pending events.
    pub max_len: usize,
}

/// Telemetry handles published by [`EventQueue::attach_telemetry`].
///
/// Default-constructed from [`Registry::disabled`], so every record site
/// is a single `Option` branch until a registry is attached — the same
/// ≤5 ns disabled-cost contract the rest of the stack's instrumentation
/// honours (measured sub-nanosecond by `bench --bench telemetry`).
#[derive(Debug, Clone)]
struct WheelTel {
    pushes: CounterHandle,
    cascades: CounterHandle,
    overflow: CounterHandle,
    clamped: CounterHandle,
    drift_ns: GaugeHandle,
    depth: GaugeHandle,
}

impl Default for WheelTel {
    fn default() -> Self {
        WheelTel {
            pushes: CounterHandle::disabled(),
            cascades: CounterHandle::disabled(),
            overflow: CounterHandle::disabled(),
            clamped: CounterHandle::disabled(),
            drift_ns: GaugeHandle::disabled(),
            depth: GaugeHandle::disabled(),
        }
    }
}

/// A deterministic time-ordered event queue: `(Time, E)` events pop in
/// ascending `(time, push-sequence)` order (the contract in
/// [`crate::queue`]; the wheel's design in the module docs).
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
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `LEVELS × SLOTS` buckets, flattened level-major.
    buckets: Vec<Vec<Entry<E>>>,
    /// One occupancy bitmap per level.
    occ: [u64; LEVELS],
    /// Entries currently resident in `buckets`.
    wheel_len: usize,
    /// Dispatch frontier in ticks: no pending event precedes this tick.
    cursor: u64,
    /// Far-future events (≥ one span ahead), exact in a small heap.
    overflow: BinaryHeap<Entry<E>>,
    /// Due events, min-ordered by `(time, seq)` (via [`Entry`]'s inverted
    /// `Ord`). Filled one tick at a time by `advance`; late pushes aimed
    /// at-or-before the cursor land here too. A heap rather than a sorted
    /// vector: at millions of events per second a single tick holds tens
    /// of events, and `O(log k)` insertion beats the `O(k)` memmove of
    /// keeping a vector sorted.
    ready: BinaryHeap<Entry<E>>,
    /// Next global push sequence number (FIFO tiebreak).
    next_seq: u64,
    /// Timestamp of the last popped event.
    now: Time,
    /// Local statistics (always on; plain integer adds).
    stats: WheelStats,
    tel: WheelTel,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            wheel_len: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
            ready: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
            stats: WheelStats::default(),
            tel: WheelTel::default(),
        }
    }

    /// Publishes the wheel's counters into `registry` under
    /// `{prefix}/wheel_*`. Disabled-cost is a single branch per site until
    /// attached. Counter handles are shared by name, so several wheels
    /// (e.g. the shards of a [`crate::ShardedQueue`]) attached to one
    /// registry aggregate naturally.
    pub fn attach_telemetry(&mut self, registry: &Registry, prefix: &str) {
        self.tel = WheelTel {
            pushes: registry.counter(&format!("{prefix}/wheel_pushes")),
            cascades: registry.counter(&format!("{prefix}/wheel_cascades")),
            overflow: registry.counter(&format!("{prefix}/wheel_overflow_pushes")),
            clamped: registry.counter(&format!("{prefix}/wheel_clamped")),
            drift_ns: registry.gauge(&format!("{prefix}/wheel_drift_ns")),
            depth: registry.gauge(&format!("{prefix}/wheel_depth")),
        };
        // Surface the state accumulated before attachment.
        self.tel.pushes.add(self.stats.pushes);
        self.tel.cascades.add(self.stats.cascaded);
        self.tel.overflow.add(self.stats.overflowed);
        self.tel.clamped.add(self.stats.clamped);
        self.tel.drift_ns.add(self.stats.drift_total_ns as i64);
        self.tel.depth.add(self.len() as i64);
    }

    /// The wheel's always-on local statistics (cascades, overflow pushes,
    /// high-water depth, ...).
    pub fn stats(&self) -> WheelStats {
        self.stats
    }

    /// Past-push clamp accounting: `(clamped_count, total_drift_ns,
    /// max_drift_ns)` absorbed by the saturating policy so far.
    pub fn clamp_stats(&self) -> (u64, u64, u64) {
        let s = &self.stats;
        (s.clamped, s.drift_total_ns, s.drift_max_ns)
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the calling world; the
    /// queue clamps such events to fire "now" rather than corrupting the
    /// clock, which keeps long sims debuggable (the event still happens and
    /// ordering stays monotonic). Every clamp is accounted — readable via
    /// [`Self::clamp_stats`], and as the `*/wheel_clamped` counter and
    /// `*/wheel_drift_ns` gauge when telemetry is attached.
    pub fn push(&mut self, at: Time, event: E) {
        let at = if at < self.now {
            let drift = self.now.as_nanos() - at.as_nanos();
            self.stats.clamped += 1;
            self.stats.drift_total_ns = self.stats.drift_total_ns.saturating_add(drift);
            self.stats.drift_max_ns = self.stats.drift_max_ns.max(drift);
            self.tel.clamped.inc();
            self.tel.drift_ns.add(drift as i64);
            self.now
        } else {
            at
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            time: at,
            seq,
            event,
        };
        self.stats.pushes += 1;
        self.tel.pushes.inc();
        self.tel.depth.add(1);
        let tick = tick_of(at);
        if tick <= self.cursor {
            // The dispatch frontier has already committed to (or passed)
            // this tick: merge straight into the ready heap so ordering
            // against in-flight same-tick events is preserved.
            self.ready.push(entry);
        } else {
            self.insert_entry(entry);
        }
        self.stats.max_len = self.stats.max_len.max(self.len());
    }

    /// Places an entry whose tick is strictly ahead of the cursor into
    /// the correct level/slot (or the overflow heap).
    fn insert_entry(&mut self, entry: Entry<E>) {
        let tick = tick_of(entry.time);
        debug_assert!(tick >= self.cursor);
        let delta = tick - self.cursor;
        if delta >= SPAN_TICKS {
            self.stats.overflowed += 1;
            self.tel.overflow.inc();
            self.overflow.push(entry);
            return;
        }
        let level = if delta == 0 {
            0
        } else {
            ((63 - delta.leading_zeros()) / LEVEL_BITS) as usize
        };
        debug_assert!(level < LEVELS);
        let slot = ((tick >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.buckets[level * SLOTS + slot].push(entry);
        self.occ[level] |= 1u64 << slot;
        self.wheel_len += 1;
    }

    /// Moves the cursor to `tick` and re-cascades the slot covering the
    /// new cursor position at every level ≥ 1, restoring the invariant
    /// that the slot under the cursor holds only next-rotation entries.
    fn jump_to(&mut self, tick: u64) {
        debug_assert!(tick >= self.cursor);
        self.cursor = tick;
        for level in (1..LEVELS).rev() {
            let slot = ((tick >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            if self.occ[level] & (1u64 << slot) != 0 {
                self.cascade(level, slot);
            }
        }
    }

    /// Drains one bucket and re-inserts every entry relative to the
    /// current cursor; current-rotation entries strictly demote to finer
    /// levels, next-rotation entries return to the same slot.
    fn cascade(&mut self, level: usize, slot: usize) {
        let mut bucket = core::mem::take(&mut self.buckets[level * SLOTS + slot]);
        self.occ[level] &= !(1u64 << slot);
        self.wheel_len -= bucket.len();
        self.stats.cascaded += bucket.len() as u64;
        self.tel.cascades.add(bucket.len() as u64);
        for entry in bucket.drain(..) {
            self.insert_entry(entry);
        }
        // Hand the allocation back: buckets refill constantly under
        // steady churn, and regrowing from zero capacity each rotation
        // is measurable allocator traffic. Only if the slot is still
        // empty, though — `insert_entry` may have legitimately returned
        // next-rotation entries to this very slot.
        let slot_ref = &mut self.buckets[level * SLOTS + slot];
        if slot_ref.is_empty() {
            *slot_ref = bucket;
        }
    }

    /// Earliest possible tick per the occupancy bitmaps: for each level,
    /// the span start of the first occupied slot in rotation order
    /// (slots ahead of the cursor in the current rotation first, then
    /// wrapped slots in the next rotation). Ties prefer the **higher**
    /// level so covering spans cascade before finer dispatch commits.
    fn best_candidate(&self) -> (u64, usize) {
        let mut best_tick = u64::MAX;
        let mut best_level = 0usize;
        for level in 0..LEVELS {
            let occ = self.occ[level];
            if occ == 0 {
                continue;
            }
            let shift = LEVEL_BITS * level as u32;
            let span = 1u64 << shift;
            let pos = (self.cursor >> shift) & (SLOTS as u64 - 1);
            let rot_span = span << LEVEL_BITS;
            let rot_base = self.cursor & !(rot_span - 1);
            // Current-rotation slots: level 0 may still fire at the
            // cursor's own tick (s >= pos); at level >= 1 the slot under
            // the cursor was cascaded on entry, so only s > pos counts.
            let cur_mask = if level == 0 {
                (occ >> pos) << pos
            } else {
                match (pos + 1).try_into().ok().filter(|s: &u32| *s < 64) {
                    Some(s) => occ & (u64::MAX << s),
                    None => 0,
                }
            };
            let cand = if cur_mask != 0 {
                let s = u64::from(cur_mask.trailing_zeros());
                rot_base + s * span
            } else {
                let s = u64::from(occ.trailing_zeros());
                rot_base + rot_span + s * span
            };
            if cand < best_tick || (cand == best_tick && level > best_level) {
                best_tick = cand;
                best_level = level;
            }
        }
        (best_tick, best_level)
    }

    /// Drains overflow entries that now fall within the wheel span.
    fn drain_overflow(&mut self) {
        while let Some(peek) = self.overflow.peek() {
            if tick_of(peek.time) - self.cursor >= SPAN_TICKS {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry exists");
            self.insert_entry(entry);
        }
    }

    /// Ensures `ready` holds the next due tick's events (sorted).
    /// Returns false when the wheel is completely empty.
    fn advance(&mut self) -> bool {
        if !self.ready.is_empty() {
            return true;
        }
        loop {
            if self.wheel_len == 0 {
                let Some(peek) = self.overflow.peek() else {
                    return false;
                };
                let target = tick_of(peek.time);
                self.jump_to(target);
                self.drain_overflow();
                continue;
            }
            let (best_tick, best_level) = self.best_candidate();
            if let Some(peek) = self.overflow.peek() {
                // A wrapped top-level candidate can lie beyond the
                // overflow minimum; the true frontier wins. On a tie the
                // overflow drains first, so both strata's entries for the
                // tick meet in one bucket and pop in `(time, seq)` order.
                let otick = tick_of(peek.time);
                if otick <= best_tick {
                    self.jump_to(otick);
                    self.drain_overflow();
                    continue;
                }
            }
            self.jump_to(best_tick);
            if best_level > 0 {
                // jump_to cascaded the covering slots (including the
                // candidate); rescan at finer resolution.
                continue;
            }
            let slot = (best_tick & (SLOTS as u64 - 1)) as usize;
            if self.occ[0] & (1u64 << slot) == 0 {
                // The candidate bucket emptied during a covering-slot
                // cascade (all entries were next-rotation). Rescan.
                continue;
            }
            let mut bucket = core::mem::take(&mut self.buckets[slot]);
            self.occ[0] &= !(1u64 << slot);
            self.wheel_len -= bucket.len();
            // Level-0 buckets are single-tick by construction (the
            // cursor never passes a pending entry), but partition
            // defensively: a foreign-tick entry goes back to the
            // wheel instead of firing early.
            let mut i = 0;
            while i < bucket.len() {
                if tick_of(bucket[i].time) == best_tick {
                    i += 1;
                } else {
                    debug_assert!(false, "level-0 bucket held a foreign tick");
                    let entry = bucket.swap_remove(i);
                    self.insert_entry(entry);
                }
            }
            if bucket.is_empty() {
                continue;
            }
            // Heapify the whole tick at once — O(k), cheaper than k
            // ordered pushes — while recycling both allocations: the
            // drained ready heap's buffer receives the entries, and the
            // emptied bucket vector goes back to its slot.
            let mut vec = core::mem::take(&mut self.ready).into_vec();
            debug_assert!(vec.is_empty());
            vec.append(&mut bucket);
            self.ready = BinaryHeap::from(vec);
            // Recycle the bucket allocation (guarded like `cascade`; a
            // foreign-tick re-insert can never target a level-0 slot,
            // but stay defensive).
            if self.buckets[slot].is_empty() {
                self.buckets[slot] = bucket;
            }
            return true;
        }
    }

    /// Pops the earliest event, advancing the simulation clock to its
    /// timestamp. `(time, seq)` order, FIFO within a timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if !self.advance() {
            return None;
        }
        let entry = self.ready.pop().expect("advance filled ready");
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        self.stats.pops += 1;
        self.tel.depth.sub(1);
        Some((entry.time, entry.event))
    }

    /// The timestamp of the next event, if any, without popping it.
    ///
    /// Peeking may advance the wheel's internal dispatch frontier but
    /// never [`Self::now`], and a later `push` aimed earlier than the
    /// peeked event still pops first.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.peek_entry().map(|(t, _)| t)
    }

    /// The next event's timestamp and a borrow of its payload, without
    /// popping. Used by [`crate::ShardedQueue`] to merge shard heads by
    /// a key carried inside the payload.
    pub(crate) fn peek_entry(&mut self) -> Option<(Time, &E)> {
        if !self.advance() {
            return None;
        }
        self.ready.peek().map(|e| (e.time, &e.event))
    }

    /// The current simulation time: the timestamp of the last popped
    /// event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.ready.len() + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    fn peek_next(&mut self) -> Option<&E> {
        self.peek_entry().map(|(_, e)| e)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn now(&self) -> Time {
        EventQueue::now(self)
    }
    fn clamped(&self) -> u64 {
        self.stats.clamped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn drain<E>(w: &mut EventQueue<E>) -> Vec<(Time, E)> {
        std::iter::from_fn(|| w.pop()).collect()
    }

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w = EventQueue::new();
        // One event per wheel level plus overflow.
        let times = [
            7u64,                     // level 0
            64 * 70,                  // level 1
            64 * 64 * 70,             // level 2
            64 * 64 * 64 * 70,        // level 3
            64 * 64 * 64 * 64 * 70,   // level 4
            (SPAN_TICKS + 1000) * 64, // overflow
        ];
        for (i, &ns) in times.iter().enumerate().rev() {
            w.push(Time::from_nanos(ns), i);
        }
        let order: Vec<_> = drain(&mut w).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn ties_break_fifo_within_a_tick() {
        let mut w = EventQueue::new();
        let t = Time::from_nanos(640); // all in one tick
        for i in 0..100 {
            w.push(t, i);
        }
        let order: Vec<_> = drain(&mut w).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sub_tick_times_sort_exactly() {
        // 64 events inside one 64ns tick, pushed in reverse time order:
        // exact nanosecond times must win over push order.
        let mut w = EventQueue::new();
        let base = 64 * 1000;
        for i in (0..64u64).rev() {
            w.push(Time::from_nanos(base + i), i);
        }
        let popped = drain(&mut w);
        for (i, (t, e)) in popped.iter().enumerate() {
            assert_eq!(t.as_nanos(), base + i as u64);
            assert_eq!(*e, i as u64);
        }
    }

    #[test]
    fn clamp_accounts_drift() {
        let mut w = EventQueue::new();
        w.push(Time::from_nanos(1_000), "late");
        w.pop();
        w.push(Time::from_nanos(400), "early");
        let (t, e) = w.pop().unwrap();
        assert_eq!(e, "early");
        assert_eq!(t, Time::from_nanos(1_000));
        let s = w.stats();
        assert_eq!(s.clamped, 1);
        assert_eq!(s.drift_total_ns, 600);
        assert_eq!(s.drift_max_ns, 600);
    }

    #[test]
    fn peek_does_not_advance_now() {
        let mut w = EventQueue::new();
        w.push(Time::from_micros(7), ());
        assert_eq!(w.peek_time(), Some(Time::from_micros(7)));
        assert_eq!(w.now(), Time::ZERO);
        assert_eq!(w.len(), 1);
        // A later push aimed earlier than the peeked event must still
        // pop first even though peeking advanced the internal cursor.
        w.push(Time::from_micros(3), ());
        assert_eq!(w.pop().unwrap().0, Time::from_micros(3));
        assert_eq!(w.pop().unwrap().0, Time::from_micros(7));
    }

    #[test]
    fn push_below_peeked_tick_keeps_order() {
        let mut w = EventQueue::new();
        w.push(Time::from_nanos(64 * 500), 0);
        assert!(w.peek_time().is_some()); // cursor has jumped to tick 500
        w.push(Time::from_nanos(64 * 500), 1); // same tick, after peek
        w.push(Time::from_nanos(64 * 500 + 1), 2);
        let order: Vec<_> = drain(&mut w).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn far_future_then_near_event_dispatches_near_first() {
        let mut w = EventQueue::new();
        // Beyond the wheel span: goes to overflow.
        let far = Time::from_nanos((SPAN_TICKS + 5) << TICK_SHIFT);
        w.push(far, "far");
        assert_eq!(w.stats().overflowed, 1);
        w.push(Time::from_nanos(100), "near");
        assert_eq!(w.pop().unwrap().1, "near");
        assert_eq!(w.pop().unwrap().1, "far");
        assert!(w.pop().is_none());
    }

    #[test]
    fn overflow_interleaves_with_wheel_correctly() {
        let mut w = EventQueue::new();
        let far1 = Time::from_nanos((SPAN_TICKS + 5) << TICK_SHIFT);
        let far2 = Time::from_nanos((2 * SPAN_TICKS + 9) << TICK_SHIFT);
        w.push(far2, 3u32);
        w.push(far1, 2);
        w.push(Time::from_nanos(50), 0);
        // Pop the near event; the clock is now deep in the first span.
        assert_eq!(w.pop().unwrap().1, 0);
        // An event between now and far1.
        w.push(Time::from_nanos((SPAN_TICKS - 100) << TICK_SHIFT), 1);
        let order: Vec<_> = drain(&mut w).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn overflow_and_wheel_entries_on_one_tick_pop_fifo() {
        // `a` lands one span ahead (overflow); once the cursor moves, `b`
        // at the same instant lands in the wheel. Push order must win.
        let mut w = EventQueue::new();
        let edge = Time::from_nanos(SPAN_TICKS << TICK_SHIFT);
        w.push(edge, "a");
        w.push(Time::from_nanos(5 << TICK_SHIFT), "first");
        assert!(w.peek_time().is_some()); // the cursor moves to tick 5
        w.push(edge, "b");
        let order: Vec<_> = drain(&mut w).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["first", "a", "b"]);
    }

    #[test]
    fn rotation_wrap_is_handled() {
        // Events one full level-0 rotation apart land in the same slot.
        let mut w = EventQueue::new();
        let t1 = Time::from_nanos(10 * 64);
        let t2 = Time::from_nanos((10 + 64) * 64);
        let t3 = Time::from_nanos((10 + 128) * 64);
        w.push(t3, 3u8);
        w.push(t1, 1);
        w.push(t2, 2);
        let popped = drain(&mut w);
        assert_eq!(
            popped,
            vec![(t1, 1), (t2, 2), (t3, 3)],
            "same-slot different-rotation events must fire in time order"
        );
    }

    #[test]
    fn sparse_far_apart_events_advance_efficiently() {
        // Candidate jumps must skip dead time rather than walking ticks;
        // this would time out if advance were O(elapsed ticks).
        let mut w = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0..200u64 {
            let t = Time::from_millis(i * 331); // ~66s total, top level
            w.push(t, i);
            expect.push(t);
        }
        let popped = drain(&mut w);
        assert_eq!(popped.len(), 200);
        for (i, (t, e)) in popped.iter().enumerate() {
            assert_eq!(*t, expect[i]);
            assert_eq!(*e, i as u64);
        }
        assert!(w.stats().cascaded > 0, "far events must cascade down");
    }

    #[test]
    fn self_rescheduling_timer_is_deterministic() {
        let mut w = EventQueue::new();
        w.push(Time::ZERO, 0u32);
        let mut seen = Vec::new();
        while let Some((t, id)) = w.pop() {
            seen.push((t.as_micros(), id));
            if seen.len() >= 10 {
                break;
            }
            w.push(t + Duration::from_micros(1), id + 1);
            w.push(t + Duration::from_micros(1), id + 100);
        }
        assert_eq!(seen[0], (0, 0));
        assert_eq!(seen[1], (1, 1));
        assert_eq!(seen[2], (1, 100));
    }

    #[test]
    fn telemetry_attach_publishes_counters() {
        let registry = Registry::new();
        let mut w = EventQueue::new();
        w.push(Time::from_nanos(500), ());
        w.attach_telemetry(&registry, "sim");
        w.push(Time::from_nanos(700), ());
        w.pop();
        w.push(Time::from_nanos(100), ()); // clamped: now is 500, drift 400
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim/wheel_pushes"), 3);
        assert_eq!(snap.counter("sim/wheel_clamped"), 1);
        assert_eq!(snap.gauge("sim/wheel_drift_ns"), 400);
        assert_eq!(snap.gauge("sim/wheel_depth"), 2);
    }

    #[test]
    fn len_tracks_all_strata() {
        let mut w = EventQueue::new();
        w.push(Time::from_nanos(10), ()); // will sit in wheel
        w.push(Time::from_nanos((SPAN_TICKS + 1) << TICK_SHIFT), ()); // overflow
        assert_eq!(w.len(), 2);
        assert!(w.peek_time().is_some()); // moves tick-10 entries to ready
        assert_eq!(w.len(), 2);
        w.pop();
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.is_empty());
    }
}
