//! Property tests for the log2 histogram invariants.

use proptest::prelude::*;
use syrup_observe::telemetry::HistogramSnapshot;

fn hist_of(values: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::empty();
    for &v in values {
        h.record(v);
    }
    h
}

/// Index of the (single) occupied bucket of a one-sample histogram.
fn bucket_of(v: u64) -> usize {
    hist_of(&[v])
        .buckets()
        .iter()
        .position(|&n| n > 0)
        .expect("one sample occupies one bucket")
}

proptest! {
    #[test]
    fn bucket_assignment_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_of(lo) <= bucket_of(hi),
            "value order must survive bucketing: {lo} -> {}, {hi} -> {}",
            bucket_of(lo), bucket_of(hi));
    }

    #[test]
    fn bucket_totals_equal_count(xs in prop::collection::vec(any::<u64>(), 0..100)) {
        let h = hist_of(&xs);
        prop_assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
        prop_assert_eq!(h.count(), xs.len() as u64);
    }

    #[test]
    fn merge_adds_counts_exactly(
        xs in prop::collection::vec(any::<u64>(), 0..64),
        ys in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let a = hist_of(&xs);
        let b = hist_of(&ys);
        let m = HistogramSnapshot::merged(a.clone(), &b);
        prop_assert_eq!(m.count(), a.count() + b.count());
        prop_assert_eq!(m.sum(), a.sum().wrapping_add(b.sum()));
        // Per-bucket counts add too.
        for i in 0..m.buckets().len() {
            prop_assert_eq!(m.buckets()[i], a.buckets()[i] + b.buckets()[i]);
        }
    }

    #[test]
    fn merge_equals_recording_concatenation(
        xs in prop::collection::vec(0u64..1_000_000, 0..64),
        ys in prop::collection::vec(0u64..1_000_000, 0..64),
    ) {
        let merged = HistogramSnapshot::merged(hist_of(&xs), &hist_of(&ys));
        let mut both = xs.clone();
        both.extend_from_slice(&ys);
        prop_assert_eq!(merged, hist_of(&both));
    }

    #[test]
    fn quantile_endpoints_are_exact_min_max(
        xs in prop::collection::vec(any::<u64>(), 1..128),
    ) {
        let h = hist_of(&xs);
        let mn = *xs.iter().min().unwrap();
        let mx = *xs.iter().max().unwrap();
        prop_assert_eq!(h.quantile(0.0), mn);
        prop_assert_eq!(h.quantile(1.0), mx);
        prop_assert_eq!(h.min(), mn);
        prop_assert_eq!(h.max(), mx);
    }

    #[test]
    fn interior_quantiles_stay_bounded(
        xs in prop::collection::vec(0u64..1_000_000_000, 1..128),
        q in 0.0f64..=1.0,
    ) {
        let h = hist_of(&xs);
        let v = h.quantile(q);
        prop_assert!(v >= h.min() && v <= h.max(),
            "quantile({q}) = {v} outside [{}, {}]", h.min(), h.max());
    }

    #[test]
    fn percentile_chain_is_ordered(
        xs in prop::collection::vec(any::<u64>(), 1..128),
    ) {
        // The exported summary chain: min ≤ p50 ≤ p99 ≤ p999 ≤ max.
        let h = hist_of(&xs);
        prop_assert!(h.min() <= h.p50());
        prop_assert!(h.p50() <= h.p99());
        prop_assert!(h.p99() <= h.p999());
        prop_assert!(h.p999() <= h.max());
    }

    #[test]
    fn quantiles_are_monotone_in_q(
        xs in prop::collection::vec(0u64..1_000_000, 1..128),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        let (qlo, qhi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let h = hist_of(&xs);
        prop_assert!(h.quantile(qlo) <= h.quantile(qhi));
    }
}
