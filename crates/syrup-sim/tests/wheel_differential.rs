//! Differential property test: the hierarchical timer wheel behind
//! [`EventQueue`] and the [`ShardedQueue`] facade at 1, 2 and 8 shards
//! must reproduce the reference [`HeapQueue`]'s pop sequence exactly —
//! same times, same FIFO tie-breaks, same clock, same clamp accounting —
//! under arbitrary push/pop/peek interleavings, including pushes at the
//! boundaries: before the clock, at the edge of the wheel's span, and at
//! the end of time.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use syrup_sim::wheel::{SPAN_TICKS, TICK_SHIFT};
use syrup_sim::{Duration, EventQueue, HeapQueue, ShardedQueue, Time};

/// One scripted operation against every queue.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `now + delta_ns` (possibly far future → overflow heap).
    Push { delta_ns: u64 },
    /// Push at an absolute time, possibly before `now` (clamp path).
    PushAbs { at_ns: u64 },
    /// Push at one of the [`boundary`] times.
    PushEdge { edge: u8 },
    /// Pop up to `n` events.
    Pop { n: u8 },
    /// Peek (advances the wheel's internal frontier but not `now`).
    Peek,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..10, 0u64..u64::MAX).prop_map(|(kind, raw)| match kind {
        // Dense near-future pushes: sub-tick collisions and FIFO ties.
        0 | 1 => Op::Push {
            delta_ns: raw % 200,
        },
        // Mid-range: exercises levels 1-3 and cascading.
        2 | 3 => Op::Push {
            delta_ns: raw % 50_000_000,
        },
        // Far range: top level, rotation wrap, overflow heap
        // (the wheel spans ~68.7s; 200s deltas overflow it).
        4 => Op::Push {
            delta_ns: raw % 200_000_000_000,
        },
        // Absolute pushes, sometimes in the past (saturating clamp).
        5 => Op::PushAbs {
            at_ns: raw % 5_000_000,
        },
        6 => Op::PushEdge { edge: raw as u8 },
        7 | 8 => Op::Pop {
            n: (raw % 5 + 1) as u8,
        },
        _ => Op::Peek,
    })
}

/// A boundary push time relative to the clock `now`.
fn boundary(now: Time, edge: u8) -> Time {
    let tick = 1u64 << TICK_SHIFT;
    let span = SPAN_TICKS << TICK_SHIFT;
    match edge % 8 {
        0 => Time::from_nanos(now.as_nanos().saturating_sub(1)),
        1 => Time::from_nanos(now.as_nanos() / 2),
        2 => now,
        3 => now + Duration::from_nanos(span - tick),
        4 => now + Duration::from_nanos(span),
        5 => now + Duration::from_nanos(span + tick),
        6 => Time::from_nanos(u64::MAX - 1),
        _ => Time::MAX,
    }
}

/// The reference heap and every queue checked against it.
struct Queues {
    heap: HeapQueue<u64>,
    wheel: EventQueue<u64>,
    sharded: Vec<ShardedQueue<u64>>,
}

impl Queues {
    fn new() -> Self {
        Queues {
            heap: HeapQueue::new(),
            wheel: EventQueue::new(),
            sharded: [1, 2, 8].into_iter().map(ShardedQueue::new).collect(),
        }
    }

    fn push(&mut self, at: Time, id: u64) {
        self.heap.push(at, id);
        self.wheel.push(at, id);
        for q in &mut self.sharded {
            q.push_keyed(at, id, id);
        }
    }

    /// Pops once from every queue; all must agree with the heap.
    fn pop(&mut self) -> Result<Option<(Time, u64)>, TestCaseError> {
        let want = self.heap.pop();
        prop_assert_eq!(self.wheel.pop(), want, "wheel pop diverged");
        for q in &mut self.sharded {
            let shards = q.shard_count();
            prop_assert_eq!(q.pop(), want, "{} shards: pop diverged", shards);
        }
        Ok(want)
    }

    /// Peeks every queue: the next time must agree (and peeking must not
    /// perturb later pops).
    fn peek(&mut self) -> Result<(), TestCaseError> {
        let next = self.heap.peek_time();
        prop_assert_eq!(self.wheel.peek_time(), next);
        for q in &mut self.sharded {
            let shards = q.shard_count();
            prop_assert_eq!(q.peek_time(), next, "{} shards", shards);
        }
        Ok(())
    }

    /// Clock, length and clamp accounting agree.
    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.wheel.len(), self.heap.len());
        prop_assert_eq!(self.wheel.now(), self.heap.now());
        prop_assert_eq!(self.wheel.clamp_stats(), self.heap.clamp_stats());
        for q in &self.sharded {
            let shards = q.shard_count();
            prop_assert_eq!(q.len(), self.heap.len(), "{} shards", shards);
            prop_assert_eq!(q.now(), self.heap.now(), "{} shards", shards);
            prop_assert_eq!(
                q.clamp_stats(),
                self.heap.clamp_stats(),
                "{} shards",
                shards
            );
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wheel_matches_heap_reference(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut qs = Queues::new();
        for (id, op) in (0u64..).zip(&ops) {
            let now = qs.heap.now();
            match *op {
                Op::Push { delta_ns } => qs.push(now + Duration::from_nanos(delta_ns), id),
                Op::PushAbs { at_ns } => qs.push(Time::from_nanos(at_ns), id),
                Op::PushEdge { edge } => qs.push(boundary(now, edge), id),
                Op::Pop { n } => {
                    for _ in 0..n {
                        if qs.pop()?.is_none() {
                            break;
                        }
                    }
                }
                Op::Peek => qs.peek()?,
            }
            qs.check()?;
        }
        // Drain completely; every remaining event must match.
        while qs.pop()?.is_some() {}
        qs.check()?;
    }
}
