//! Bounded drop-newest buffers, mirroring an eBPF ring buffer.
//!
//! In the real system each scheduling decision can be streamed to
//! userspace through a `BPF_MAP_TYPE_RINGBUF`. A producer that cannot
//! reserve space *drops its own event* and the consumer learns how many
//! events were lost. [`BoundedRing`] reproduces exactly those semantics:
//! bounded capacity, newest record dropped on overflow, monotonic drop
//! counter readable at any time. It holds the registry's decisions
//! ([`DecisionRing`]) and the tracer's spans.
//!
//! A full ringbuf refuses a reservation without blocking anyone, and so
//! does this one: the length is mirrored in an atomic written under the
//! lock, a producer that reads it at capacity refuses without taking the
//! lock, and the refusal is counted per CPU. Once full, producers share
//! no written line. A stale mirror is either too low, which only sends
//! the producer to the lock, or misses a drain, which refuses a push the
//! ring could have taken: a ring that is never drained accepts exactly
//! `capacity` records, and accepted + dropped equals attempted either way.

use crate::counter::Counter;
use crate::percpu::PerCpu;
use parking_lot::Mutex;
use serde::{Serialize, SerializeStruct, Serializer};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Where a scheduling decision was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// Interpreted native policy (trusted in-process closure).
    Native,
    /// Software eBPF VM.
    Ebpf,
}

impl Executor {
    /// Short lowercase name for tables and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Executor::Native => "native",
            Executor::Ebpf => "ebpf",
        }
    }
}

/// One traced scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionEvent {
    /// Virtual time of the decision, nanoseconds.
    pub sim_time_ns: u64,
    /// Hook the decision was made at (e.g. `"nic_steer"`, `"select_cpu"`).
    pub hook: &'static str,
    /// Application the policy belongs to.
    pub app: u64,
    /// Raw verdict returned by the policy (queue index, CPU id, drop code).
    pub verdict: i64,
    /// Execution engine that produced the verdict.
    pub executor: Executor,
    /// Cycles charged for producing the verdict.
    pub cycles: u64,
}

impl Serialize for DecisionEvent {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("DecisionEvent", 6)?;
        s.serialize_field("sim_time_ns", &self.sim_time_ns)?;
        s.serialize_field("hook", &self.hook)?;
        s.serialize_field("app", &self.app)?;
        s.serialize_field("verdict", &self.verdict)?;
        s.serialize_field("executor", &self.executor.as_str())?;
        s.serialize_field("cycles", &self.cycles)?;
        s.end()
    }
}

/// Bounded drop-newest buffer of records with drop counting.
#[derive(Debug)]
pub(crate) struct BoundedRing<T> {
    records: Mutex<Vec<T>>,
    /// `records.len()`, stored under the lock whenever it changes.
    /// Relaxed: it publishes no data, records are read under the lock.
    len: AtomicUsize,
    capacity: usize,
    /// Per CPU: every refusing producer writes it.
    dropped: PerCpu<Counter>,
}

/// The registry's ring of traced decisions.
pub(crate) type DecisionRing = BoundedRing<DecisionEvent>;

impl<T: Clone> BoundedRing<T> {
    /// Creates a ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedRing {
            records: Mutex::new(Vec::new()),
            len: AtomicUsize::new(0),
            capacity: capacity.max(1),
            dropped: PerCpu::new(Counter::new),
        }
    }

    /// Appends a record. If the ring is full the record is discarded
    /// (like a failed ringbuf reservation) and the drop counter advances;
    /// returns whether the record was stored.
    pub fn push(&self, record: T) -> bool {
        if self.len.load(Relaxed) < self.capacity {
            let mut records = self.records.lock();
            if records.len() < self.capacity {
                records.push(record);
                self.len.store(records.len(), Relaxed);
                return true;
            }
        }
        self.dropped.local().inc();
        false
    }

    /// Removes and returns all buffered records, oldest first (consumer
    /// read). Frees capacity for new records.
    pub fn drain(&self) -> Vec<T> {
        let mut records = self.records.lock();
        self.len.store(0, Relaxed);
        std::mem::take(&mut *records)
    }

    /// Copies the buffered records without consuming them.
    pub fn peek(&self) -> Vec<T> {
        self.records.lock().clone()
    }

    /// Number of currently buffered records.
    pub fn len(&self) -> usize {
        self.len.load(Relaxed)
    }

    /// Records discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> DecisionEvent {
        DecisionEvent {
            sim_time_ns: t,
            hook: "nic_steer",
            app: 1,
            verdict: 3,
            executor: Executor::Ebpf,
            cycles: 1500,
        }
    }

    #[test]
    fn overflow_drops_the_new_event() {
        let ring = DecisionRing::new(2);
        assert!(ring.push(ev(1)));
        assert!(ring.push(ev(2)));
        assert!(!ring.push(ev(3)));
        assert_eq!(ring.dropped(), 1);
        // The buffered events are the OLD ones; event 3 was lost.
        let events: Vec<u64> = ring.drain().iter().map(|e| e.sim_time_ns).collect();
        assert_eq!(events, vec![1, 2]);
    }

    #[test]
    fn drain_frees_capacity() {
        let ring = DecisionRing::new(1);
        assert!(ring.push(ev(1)));
        assert!(!ring.push(ev(2)));
        assert_eq!(ring.drain().len(), 1);
        assert!(ring.push(ev(3)));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn overfill_counts_every_drop_exactly_and_keeps_order() {
        let ring = DecisionRing::new(8);
        for t in 0..100 {
            ring.push(ev(t));
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.dropped(), 92);
        // Survivors are the oldest events, in insertion order.
        let stored: Vec<u64> = ring.drain().iter().map(|e| e.sim_time_ns).collect();
        assert_eq!(stored, (0..8).collect::<Vec<u64>>());
        // Draining frees capacity; the drop counter keeps its history.
        for t in 100..112 {
            ring.push(ev(t));
        }
        assert_eq!(ring.dropped(), 96);
        let stored: Vec<u64> = ring.drain().iter().map(|e| e.sim_time_ns).collect();
        assert_eq!(stored, (100..108).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_overfill_loses_no_record_and_no_drop() {
        use std::sync::Arc;
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 1_000;
        let ring = Arc::new(DecisionRing::new(4));
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
        let ring = DecisionRing::new(CAPACITY);
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
        let ring = DecisionRing::new(4);
        ring.push(ev(1));
        assert_eq!(ring.peek().len(), 1);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn events_serialize_with_executor_names() {
        let json = serde::json::to_string(&ev(9)).unwrap();
        assert!(json.contains("\"executor\":\"ebpf\""), "{json}");
        assert!(json.contains("\"hook\":\"nic_steer\""), "{json}");
    }
}
