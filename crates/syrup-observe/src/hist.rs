//! Fixed-bucket log2 histograms.
//!
//! [`HistogramSnapshot`] is the one histogram: plain integers, mergeable
//! and serializable. It is a single-threaded accumulator (e.g. inside
//! simulation `RunStats`), the histogram field of a
//! [`crate::telemetry::Block`], and, under a lock, a registry's single
//! histogram ([`crate::telemetry::HistogramHandle`]).
//!
//! Alongside the 64 log2 buckets, exact first/second moments and min/max
//! are tracked so `mean()`/`stdev()` are *exact* even though `quantile()`
//! interpolates within a bucket.

use serde::{Serialize, SerializeStruct, Serializer};

/// Number of log2 buckets: one per possible `floor(log2(v))` of a `u64`.
pub const HIST_BUCKETS: usize = 64;

/// Bucket index for a value: values `{0, 1}` share bucket 0, otherwise
/// bucket `b` holds `[2^b, 2^(b+1))`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Inclusive value range `[lo, hi]` covered by a bucket.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx == 0 {
        (0, 1)
    } else if idx == 63 {
        (1 << 63, u64::MAX)
    } else {
        (1 << idx, (1 << (idx + 1)) - 1)
    }
}

/// Plain-integer histogram state: an accumulator, and the copy a read
/// takes of one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    /// Sum of squares (wraps for astronomically large value/count mixes;
    /// quantiles, mean and min/max are unaffected).
    sumsq: u64,
    /// `u64::MAX` while empty.
    min_raw: u64,
    max_raw: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty histogram.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            sumsq: 0,
            min_raw: u64::MAX,
            max_raw: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.sumsq = self.sumsq.wrapping_add(v.wrapping_mul(v));
        self.min_raw = self.min_raw.min(v);
        self.max_raw = self.max_raw.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_raw
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max_raw
    }

    /// Per-bucket counts (index `b` covers `[2^b, 2^(b+1))`, with 0 and 1
    /// sharing bucket 0).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Exact arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact population standard deviation, or 0.0 when empty.
    pub fn stdev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.sum as f64 / n;
        let var = (self.sumsq as f64 / n) - mean * mean;
        var.max(0.0).sqrt()
    }

    /// Approximate quantile (`q` in `[0, 1]`) by linear interpolation
    /// within the containing log2 bucket, clamped to the exact observed
    /// `[min, max]` so `quantile(0.0) == min()` and
    /// `quantile(1.0) == max()`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Extremes are tracked exactly; only interior quantiles estimate.
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max();
        }
        let rank = q * (self.count - 1) as f64;
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (cum + n) as f64 > rank {
                let (lo, hi) = bucket_bounds(idx);
                // Fractional position of the target rank inside this bucket.
                let frac = (rank - cum as f64) / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est as u64).clamp(self.min(), self.max());
            }
            cum += n;
        }
        self.max()
    }

    /// Convenience: the 50th percentile.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Convenience: the 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Accumulates `other` into `self`. Counts add exactly; min/max widen.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.sumsq = self.sumsq.wrapping_add(other.sumsq);
        self.min_raw = self.min_raw.min(other.min_raw);
        self.max_raw = self.max_raw.max(other.max_raw);
    }

    /// Merged copy of two histograms.
    pub fn merged(mut a: HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
        a.merge(b);
        a
    }

    /// The samples recorded between `earlier` and `self`, where both are
    /// snapshots of the *same* histogram taken at two points in time
    /// (`earlier` first). Defined so that `earlier.merge(&delta)`
    /// reproduces `self` exactly: buckets/count subtract (they only
    /// grow), sum/sumsq subtract wrapping (they wrap the same way they
    /// accumulated), and min/max carry the later values (a histogram's
    /// min only ever decreases and its max only ever increases, and
    /// `merge` takes min/max — so the later extremes survive the
    /// round trip).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
            sumsq: self.sumsq.wrapping_sub(earlier.sumsq),
            min_raw: self.min_raw,
            max_raw: self.max_raw,
        }
    }
}

/// The exact `q`-quantile of ascending `sorted` samples by the
/// nearest-rank method: the smallest sample with at least `q·N` samples
/// at or below it. The one percentile rule behind every exact p99/p99.9
/// in the workspace; [`HistogramSnapshot::quantile`] is the bucketed
/// estimate.
///
/// `q` outside `[0, 1]` (±inf included) clamps to the nearest end, a NaN
/// `q` picks the first sample, and an empty slice gives `T::default()`
/// (zero for numbers).
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    // NaN survives the clamp, and `NaN as usize` is 0: the first sample.
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl Serialize for HistogramSnapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("HistogramSnapshot", 8)?;
        s.serialize_field("count", &self.count)?;
        s.serialize_field("sum", &self.sum)?;
        s.serialize_field("min", &self.min())?;
        s.serialize_field("max", &self.max())?;
        s.serialize_field("mean", &self.mean())?;
        s.serialize_field("p99", &self.p99())?;
        s.serialize_field("p999", &self.p999())?;
        // Sparse bucket encoding: [log2_bucket_index, count] pairs.
        let sparse: Vec<[u64; 2]> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| [i as u64, n])
            .collect();
        s.serialize_field("buckets", &sparse)?;
        s.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bounds_cover_the_domain_contiguously() {
        let (lo0, hi0) = bucket_bounds(0);
        assert_eq!((lo0, hi0), (0, 1));
        for idx in 1..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            let (_, prev_hi) = bucket_bounds(idx - 1);
            assert_eq!(lo, prev_hi + 1, "gap before bucket {idx}");
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), idx);
            assert_eq!(bucket_index(hi), idx);
        }
    }

    #[test]
    fn exact_moments_survive_bucketing() {
        let mut s = HistogramSnapshot::empty();
        for v in [10u64, 20, 30, 40] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 100);
        assert_eq!(s.min(), 10);
        assert_eq!(s.max(), 40);
        assert!((s.mean() - 25.0).abs() < 1e-9);
        // Population stdev of {10,20,30,40} = sqrt(125).
        assert!((s.stdev() - 125f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn quantiles_bound_by_min_max() {
        let mut s = HistogramSnapshot::empty();
        for v in [3u64, 900, 901, 902, 1_000_000] {
            s.record(v);
        }
        assert_eq!(s.quantile(0.0), 3);
        assert_eq!(s.quantile(1.0), 1_000_000);
        let p50 = s.p50();
        assert!((512..1024).contains(&p50), "p50 {p50} outside its bucket");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stdev(), 0.0);
        assert_eq!(s.quantile(0.5), 0);
    }

    #[test]
    fn merge_is_exact_on_counts_and_moments() {
        let mut a = HistogramSnapshot::empty();
        let mut b = HistogramSnapshot::empty();
        for v in 0..100u64 {
            a.record(v * 7);
        }
        for v in 0..50u64 {
            b.record(v * 13 + 1);
        }
        let mut direct = HistogramSnapshot::empty();
        for v in 0..100u64 {
            direct.record(v * 7);
        }
        for v in 0..50u64 {
            direct.record(v * 13 + 1);
        }
        a.merge(&b);
        assert_eq!(a, direct);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = HistogramSnapshot::empty();
        for v in [5u64, 50, 500] {
            a.record(v);
        }
        let before = a.clone();
        a.merge(&HistogramSnapshot::empty());
        assert_eq!(a, before);

        let merged = HistogramSnapshot::merged(HistogramSnapshot::empty(), &before);
        assert_eq!(merged, before);
    }

    #[test]
    fn delta_applied_to_earlier_reproduces_later() {
        let mut later = HistogramSnapshot::empty();
        for v in [100u64, 7, 9000] {
            later.record(v);
        }
        let earlier = later.clone();
        for v in [3u64, 50_000, 12] {
            later.record(v);
        }
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.count(), 3);
        assert_eq!(delta.sum(), 3 + 50_000 + 12);
        let replayed = HistogramSnapshot::merged(earlier.clone(), &delta);
        assert_eq!(replayed, later);
        // Degenerate deltas stay merge-correct.
        assert_eq!(
            HistogramSnapshot::merged(later.clone(), &later.delta_since(&later)),
            later
        );
        let from_empty = later.delta_since(&HistogramSnapshot::empty());
        assert_eq!(
            HistogramSnapshot::merged(HistogramSnapshot::empty(), &from_empty),
            later
        );
    }

    /// A registry's single histogram, recorded into from four threads,
    /// loses no sample.
    #[test]
    fn concurrent_records_all_land() {
        let h = crate::telemetry::Registry::new().histogram("h");
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..25_000u64 {
                        h.record(t * 25_000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count(), 100_000);
        assert_eq!(s.buckets().iter().sum::<u64>(), 100_000);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 99_999);
    }

    #[test]
    fn serializes_sparse_buckets() {
        let mut s = HistogramSnapshot::empty();
        s.record(4);
        s.record(5);
        let json = serde::json::to_string(&s).unwrap();
        assert!(json.contains("\"count\":2"), "{json}");
        assert!(json.contains("\"buckets\":[[2,2]]"), "{json}");
    }
}
