//! Property tests for snapshot deltas (the `syrupctl watch` transport).
//!
//! The invariants `watch` relies on:
//!
//! * applying `b.delta(&a)` to `a` reproduces `b` exactly, and
//! * counters are monotone across a snapshot sequence, so every delta's
//!   counter entries telescope to the total movement.

use proptest::prelude::*;
use syrup_observe::telemetry::{Registry, Snapshot};

/// One randomly generated instrument update.
#[derive(Debug, Clone)]
enum Op {
    Counter(usize, u64),
    Gauge(usize, i64),
    Hist(usize, u64),
}

const NAMES: [&str; 3] = ["alpha", "beta/ops", "gamma_ns"];

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest stub has no `prop_oneof`; pick the variant
    // from a discriminant instead.
    (0u8..3, 0usize..NAMES.len(), 0u64..1_000_000).prop_map(|(which, i, v)| match which {
        0 => Op::Counter(i, v % 1_000),
        1 => Op::Gauge(i, (v % 1_000) as i64 - 500),
        _ => Op::Hist(i, v),
    })
}

fn apply_ops(reg: &Registry, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Counter(i, n) => reg.counter(NAMES[i]).add(n),
            Op::Gauge(i, n) => reg.gauge(NAMES[i]).add(n),
            Op::Hist(i, v) => reg.histogram(NAMES[i]).record(v),
        }
    }
}

proptest! {
    #[test]
    fn delta_applied_to_earlier_reproduces_later(
        batches in prop::collection::vec(
            prop::collection::vec(op_strategy(), 0..24), 1..6),
    ) {
        let reg = Registry::new();
        let mut prev = reg.snapshot();
        for ops in &batches {
            apply_ops(&reg, ops);
            let next = reg.snapshot();
            let delta = next.delta(&prev);
            prop_assert_eq!(delta.apply(&prev), next.clone());
            prev = next;
        }
    }

    #[test]
    fn self_delta_is_empty_and_identity(
        ops in prop::collection::vec(op_strategy(), 0..48),
    ) {
        let reg = Registry::new();
        apply_ops(&reg, &ops);
        let snap = reg.snapshot();
        let delta = snap.delta(&snap);
        prop_assert!(delta.is_empty());
        prop_assert_eq!(delta.apply(&snap), snap.clone());
    }

    #[test]
    fn counters_are_monotone_and_deltas_telescope(
        batches in prop::collection::vec(
            prop::collection::vec(op_strategy(), 0..24), 1..6),
    ) {
        let reg = Registry::new();
        let first = reg.snapshot();
        let mut prev = first.clone();
        let mut telescoped: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        let mut last = first.clone();
        for ops in &batches {
            apply_ops(&reg, ops);
            let next = reg.snapshot();
            // Monotone: no counter ever moves backwards between snapshots.
            for (name, &v) in &next.counters {
                prop_assert!(v >= prev.counter(name),
                    "counter {name} went backwards: {} -> {v}", prev.counter(name));
            }
            for (name, inc) in next.delta(&prev).counters {
                *telescoped.entry(name).or_insert(0) += inc;
            }
            prev = next.clone();
            last = next;
        }
        // Summed per-step increments equal the end-to-end movement.
        let total = last.delta(&first);
        prop_assert_eq!(telescoped, total.counters);
    }

    #[test]
    fn delta_from_empty_carries_the_whole_snapshot(
        ops in prop::collection::vec(op_strategy(), 0..48),
    ) {
        let reg = Registry::new();
        apply_ops(&reg, &ops);
        let snap = reg.snapshot();
        let delta = snap.delta(&Snapshot::default());
        prop_assert_eq!(delta.apply(&Snapshot::default()), snap);
    }
}
