//! Differential property test: the hierarchical timer wheel behind
//! [`EventQueue`] and the [`ShardedQueue`] facade at 1, 2 and 8 shards
//! must reproduce the reference [`HeapQueue`]'s pop sequence exactly —
//! same times, same FIFO tie-breaks, same clock, same clamp accounting —
//! under arbitrary push/pop/peek interleavings, including pushes at the
//! boundaries: before the clock, at the edge of the wheel's span, and at
//! the end of time. A second property grows the queues past twice the
//! wheel's small-queue bound (32 pending, kept in one heap), drains them
//! and regrows them several times, so both the spill into the wheel and
//! the return to the heap are crossed in every case.

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

/// One operation of a growth phase in [`wheel_matches_heap_across_the_small_bound`].
#[derive(Debug, Clone)]
enum GrowOp {
    /// Push at `now + delta_ns`.
    Push { delta_ns: u64 },
    /// Push at the clock itself: within its tick, earlier than any
    /// [`GrowOp::TickEnd`] entry, which the wheel's spill keeps beside it.
    AtNow,
    /// Push at the last nanosecond of the clock's tick.
    TickEnd,
    /// Pop one event (moves the clock past the wheel's cursor while the
    /// queue is small).
    Pop,
    /// Peek.
    Peek,
}

fn grow_op() -> impl Strategy<Value = GrowOp> {
    (0u8..12, 0u64..u64::MAX).prop_map(|(kind, raw)| match kind {
        0..=2 => GrowOp::Push {
            delta_ns: raw % 200,
        },
        3 | 4 => GrowOp::Push {
            delta_ns: raw % 100_000,
        },
        5 => GrowOp::Push {
            delta_ns: raw % 200_000_000_000,
        },
        6 | 7 => GrowOp::AtNow,
        8 | 9 => GrowOp::TickEnd,
        10 => GrowOp::Pop,
        _ => GrowOp::Peek,
    })
}

/// One grow-then-drain cycle: the growth ops repeat until `target`
/// events are pending, then everything pops.
#[derive(Debug, Clone)]
struct Cycle {
    grow: Vec<GrowOp>,
    target: usize,
}

fn cycle() -> impl Strategy<Value = Cycle> {
    let pushes_win = |ops: &Vec<GrowOp>| {
        let pops = ops.iter().filter(|op| matches!(op, GrowOp::Pop)).count();
        let peeks = ops.iter().filter(|op| matches!(op, GrowOp::Peek)).count();
        ops.len() - pops - peeks > pops
    };
    (
        prop::collection::vec(grow_op(), 4..24).prop_filter("pushes outnumber pops", pushes_win),
        // Past twice the small bound: 8 shards hold enough to spill too.
        65usize..320,
    )
        .prop_map(|(grow, target)| Cycle { grow, target })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wheel_matches_heap_across_the_small_bound(cycles in prop::collection::vec(cycle(), 2..6)) {
        let mut qs = Queues::new();
        let mut id = 0u64;
        for cycle in &cycles {
            // Each pass over `grow` pushes more than it pops, so the
            // queues reach `target`.
            for op in cycle.grow.iter().cycle() {
                if qs.heap.len() >= cycle.target {
                    break;
                }
                let now = qs.heap.now();
                let tick_end = now.as_nanos() | ((1 << TICK_SHIFT) - 1);
                match *op {
                    GrowOp::Push { delta_ns } => qs.push(now + Duration::from_nanos(delta_ns), id),
                    GrowOp::AtNow => qs.push(now, id),
                    GrowOp::TickEnd => qs.push(Time::from_nanos(tick_end), id),
                    GrowOp::Pop => {
                        qs.pop()?;
                    }
                    GrowOp::Peek => qs.peek()?,
                }
                id += 1;
                qs.check()?;
            }
            while qs.pop()?.is_some() {
                qs.check()?;
            }
            qs.check()?;
        }
    }
}
