//! The lock-free overwrite-oldest event ring.
//!
//! Semantics differ deliberately from the tracer's span buffer: that one
//! mirrors an eBPF ringbuf (bounded, the *new* record is dropped on
//! overflow, a consumer drains). A flight recorder wants the opposite
//! — the *newest* window must survive, so when full the ring overwrites
//! the oldest slot, and "dropped" counts overwritten events. Both counts
//! are exact: a ring that accepted `p` pushes holds the last
//! `min(p, capacity)` events and has dropped `p - capacity` (when
//! `p > capacity`).
//!
//! Concurrency: multi-producer, snapshot-reader, no locks. Each push
//! claims a monotonically increasing ticket (`fetch_add`); the ticket
//! mod capacity names the slot and the ticket div capacity names the
//! *lap*. Every slot carries a sequence word acting as a per-slot
//! seqlock: a writer on lap `L` waits for the lap-`L-1` writer to finish
//! (seq == `2L`), marks the slot busy (`2L+1`), stores the four event
//! words, then publishes (`2L+2`). A reader validates the sequence word
//! before and after copying the words and skips the slot as *torn* if a
//! writer was mid-flight — torn slots are possible only while writers
//! are active, never in a frozen (postmortem) ring. All slot words are
//! individual atomics, so the whole structure is safe Rust under the
//! workspace's `#![forbid(unsafe_code)]`.
//!
//! Ordering is the seqlock's, not sequential consistency: no push needs
//! a full fence.
//! * The ticket orders nothing by itself (Relaxed); the slot's sequence
//!   word does.
//! * A writer's Acquire spin on `2L` synchronises with the lap-`L-1`
//!   publish, so the earlier lap's word stores come first in every
//!   word's modification order.
//! * The busy mark (`2L+1`, Relaxed) is followed by `fence(Release)`
//!   before the Relaxed word stores, and the publish (`2L+2`) is a
//!   Release store after them.
//! * A reader loads the sequence word with Acquire, the words Relaxed,
//!   then `fence(Acquire)` and the sequence word again. If its first
//!   load saw `2L+2`, every lap-`L` word store happened before its word
//!   loads, so it read lap `L`'s words or later ones. If any word load
//!   read a later lap's store, that store follows the later writer's
//!   Release fence, which therefore synchronises with the reader's
//!   Acquire fence: the later busy mark happened before the second
//!   load, which cannot return `2L+2` again, and the slot is torn.

use std::sync::atomic::{
    fence, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};

use crate::event::Event;

/// Per-layer capacity of a recorder's rings (events). Power of two.
pub(crate) const RING_CAPACITY: usize = 1024;

#[derive(Debug, Default)]
struct Slot {
    /// Per-slot seqlock: `2*lap` idle, `2*lap+1` being written,
    /// `2*lap+2` published for that lap.
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

/// A bounded multi-producer overwrite-oldest ring of [`Event`]s.
#[derive(Debug)]
pub(crate) struct EventRing {
    slots: Box<[Slot]>,
    mask: u64,
    shift: u32,
    /// Total pushes ever attempted; the next ticket to claim.
    head: AtomicU64,
}

impl EventRing {
    /// Creates a ring holding `capacity` events, rounded up to a power
    /// of two (min 2).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        let slots: Vec<Slot> = (0..capacity).map(|_| Slot::default()).collect();
        EventRing {
            slots: slots.into_boxed_slice(),
            mask: capacity as u64 - 1,
            shift: capacity.trailing_zeros(),
            head: AtomicU64::new(0),
        }
    }

    /// Maximum events retained.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Appends an event, overwriting the oldest when full. Never blocks
    /// a reader; may briefly spin if `capacity` writers are already
    /// in flight on the same slot lap (unreachable in practice with
    /// kilobyte-scale rings).
    pub fn push(&self, event: Event) {
        let ticket = self.head.fetch_add(1, Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        let idle = 2 * (ticket >> self.shift);
        while slot.seq.load(Acquire) != idle {
            std::hint::spin_loop();
        }
        slot.seq.store(idle + 1, Relaxed);
        fence(Release);
        for (w, v) in slot.words.iter().zip(event.encode()) {
            w.store(v, Relaxed);
        }
        slot.seq.store(idle + 2, Release);
    }

    /// Total pushes ever attempted.
    pub fn pushed(&self) -> u64 {
        self.head.load(Relaxed)
    }

    /// Events currently retained.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.pushed().min(self.slots.len() as u64) as usize
    }

    /// Events lost to overwriting: every push past capacity evicted
    /// exactly one older event, so this is exact by construction.
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.slots.len() as u64)
    }

    /// Copies the retained window, oldest first, without consuming it.
    /// Slots a writer was mid-flight on are skipped and counted in the
    /// second return value (`torn`); a quiescent or frozen ring always
    /// reads back `len()` events with zero torn.
    pub fn read(&self) -> (Vec<Event>, u64) {
        let head = self.pushed();
        let n = head.min(self.slots.len() as u64);
        let mut events = Vec::with_capacity(n as usize);
        let mut torn = 0u64;
        for ticket in (head - n)..head {
            let slot = &self.slots[(ticket & self.mask) as usize];
            let published = 2 * (ticket >> self.shift) + 2;
            let before = slot.seq.load(Acquire);
            let words = slot.words.each_ref().map(|w| w.load(Relaxed));
            fence(Acquire);
            let after = slot.seq.load(Relaxed);
            if before == published && after == published {
                match Event::decode(words) {
                    Some(e) => events.push(e),
                    None => torn += 1,
                }
            } else {
                torn += 1;
            }
        }
        (events, torn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::sync::Arc;

    fn ev(t: u64) -> Event {
        Event {
            at_ns: t,
            kind: EventKind::Dispatch,
            id: (t % 7) as u16,
            aux: t as u32,
            w0: t.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            w1: !t,
        }
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventRing::new(0).capacity(), 2);
        assert_eq!(EventRing::new(3).capacity(), 4);
        assert_eq!(EventRing::new(1024).capacity(), 1024);
    }

    #[test]
    fn retains_newest_window_oldest_first() {
        let ring = EventRing::new(8);
        for t in 0..20 {
            ring.push(ev(t));
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.dropped(), 12);
        let (events, torn) = ring.read();
        assert_eq!(torn, 0);
        let times: Vec<u64> = events.iter().map(|e| e.at_ns).collect();
        assert_eq!(times, (12..20).collect::<Vec<u64>>());
        // Payload words survived the laps intact.
        for e in &events {
            assert_eq!(*e, ev(e.at_ns));
        }
    }

    #[test]
    fn underfilled_ring_reads_everything() {
        let ring = EventRing::new(16);
        for t in 0..5 {
            ring.push(ev(t));
        }
        assert_eq!(ring.dropped(), 0);
        let (events, torn) = ring.read();
        assert_eq!(torn, 0);
        assert_eq!(events.len(), 5);
    }

    /// A reader racing writers on a ring small enough that every read
    /// meets slots mid-write: whatever it decodes as not torn is an
    /// event some writer pushed, word for word.
    #[test]
    fn reads_racing_writers_never_decode_a_mixed_event() {
        const WRITERS: u64 = 2;
        const PER_WRITER: u64 = 20_000;
        let ring = EventRing::new(8);
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (ring, done) = (&ring, &done);
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        ring.push(ev(w * PER_WRITER + i));
                    }
                    done.fetch_add(1, Relaxed);
                });
            }
            while done.load(Relaxed) < WRITERS {
                for e in ring.read().0 {
                    assert_eq!(e, ev(e.at_ns), "a torn event decoded as whole");
                    assert!(e.at_ns < WRITERS * PER_WRITER);
                }
            }
        });
        assert_eq!(ring.pushed(), WRITERS * PER_WRITER);
        let (events, torn) = ring.read();
        assert_eq!((events.len(), torn), (8, 0));
    }

    /// Satellite: ring overwrite accounting under concurrent writers —
    /// events lost == the drop counter, and no torn events once writers
    /// are quiescent (mirrors the span buffer's overfill regressions).
    #[test]
    fn concurrent_overfill_accounts_every_event_exactly() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 5_000;
        let ring = Arc::new(EventRing::new(64));
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        ring.push(ev(w * PER_WRITER + i));
                    }
                })
            })
            .collect();
        // Read concurrently: torn slots are allowed mid-flight, but every
        // event that does decode must be internally consistent.
        for _ in 0..50 {
            let (events, _) = ring.read();
            for e in events {
                assert_eq!(e, ev(e.at_ns), "torn event leaked through");
            }
            std::thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = WRITERS * PER_WRITER;
        assert_eq!(ring.pushed(), total);
        assert_eq!(ring.dropped(), total - 64);
        let (events, torn) = ring.read();
        // Quiescent: the full window reads back, nothing torn.
        assert_eq!(torn, 0);
        assert_eq!(events.len(), 64);
        assert_eq!(events.len() as u64 + ring.dropped(), total);
        for e in events {
            assert_eq!(e, ev(e.at_ns));
        }
    }
}
