//! The Eiffel-style bucketed approximate priority queue.
//!
//! Eiffel's observation is that packet ranks need only be *approximately*
//! respected for scheduling disciplines to work, and that quantizing ranks
//! into buckets turns the priority queue into a circular array plus a
//! find-first-set scan over an occupancy bitmap: `push` is `O(1)`, `pop`
//! is `O(words)` in the bitmap.
//!
//! # Approximation bound
//!
//! Ranks are quantized to buckets of width `granularity` (`g`). Within one
//! bucket items dequeue FIFO, so two items can leave in inverted rank order
//! only when they share a bucket — their rank difference is then strictly
//! less than `g`. Formally, for any two items whose ranks fall inside the
//! current horizon (a span of `num_buckets × g` rank units), if
//! `rank(a) + g ≤ rank(b)` then `a` dequeues before `b`. The horizon
//! constrains the *span* of simultaneously queued ranks, not their
//! absolute values: a push below the head re-anchors the window backward
//! when the occupied span allows (bucket slots are indexed by absolute
//! bucket modulo `num_buckets`, so re-anchoring costs nothing). Only when
//! the span genuinely exceeds the horizon does clamping kick in — ranks
//! too far below clamp to the head bucket, ranks too far above clamp to
//! the last bucket — and for clamped items the inversion is unbounded.
//! Size the horizon to the workload's rank spread (the property tests in
//! `tests/tests/properties.rs` check the in-horizon bound against the
//! exact [`crate::Pifo`]).

use std::collections::VecDeque;

use crate::{rank_band, NUM_RANK_BANDS};

/// An Eiffel-style circular bucket queue with FFS dequeue. It is
/// unbounded; the embedding executor enforces any capacity.
#[derive(Debug, Clone)]
pub struct BucketQueue<T> {
    /// `buckets[slot]` holds `(item, original_rank)` FIFO per bucket.
    buckets: Vec<VecDeque<(T, u32)>>,
    /// Occupancy bitmap: bit `slot % 64` of word `slot / 64`.
    occupied: Vec<u64>,
    /// Absolute bucket index the head currently points at. Slot for an
    /// absolute bucket `b` in the window is `b % num_buckets`.
    base: u64,
    /// Highest absolute bucket currently (or conservatively) occupied;
    /// bounds how far back a low-ranked push may re-anchor `base`.
    max_bucket: u64,
    len: usize,
    granularity: u32,
    bands: [usize; NUM_RANK_BANDS],
}

impl<T> BucketQueue<T> {
    /// Creates a queue of `num_buckets` buckets of rank width
    /// `granularity`.
    ///
    /// The horizon — the rank span the queue orders without clamping — is
    /// `num_buckets × granularity` past the current head.
    pub fn new(num_buckets: usize, granularity: u32) -> Self {
        assert!(num_buckets > 0, "bucket queue needs at least one bucket");
        assert!(granularity > 0, "rank granularity must be positive");
        BucketQueue {
            buckets: (0..num_buckets).map(|_| VecDeque::new()).collect(),
            occupied: vec![0; num_buckets.div_ceil(64)],
            base: 0,
            max_bucket: 0,
            len: 0,
            granularity,
            bands: [0; NUM_RANK_BANDS],
        }
    }

    /// The configured rank width of one bucket.
    pub fn granularity(&self) -> u32 {
        self.granularity
    }

    /// Number of buckets in the circular window.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The rank span the queue orders without clamping, measured from the
    /// current head.
    pub fn horizon(&self) -> u64 {
        self.buckets.len() as u64 * u64::from(self.granularity)
    }

    fn set_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    fn clear_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
    }

    /// First occupied slot at circular distance ≥ 0 from `start`, or
    /// `None` when the bitmap is empty.
    fn first_set_from(&self, start: usize) -> Option<usize> {
        let nb = self.buckets.len();
        let words = self.occupied.len();
        // Head word, masked to bits at/after `start`.
        let (w0, b0) = (start / 64, start % 64);
        let head = self.occupied[w0] & (u64::MAX << b0);
        if head != 0 {
            let slot = w0 * 64 + head.trailing_zeros() as usize;
            if slot < nb {
                return Some(slot);
            }
        }
        // Remaining words in circular order, wrapping past the end.
        for i in 1..=words {
            let w = (w0 + i) % words;
            let mut word = self.occupied[w];
            if w == w0 {
                word &= !(u64::MAX << b0); // bits strictly before start
            }
            if word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                if slot < nb {
                    return Some(slot);
                }
            }
        }
        None
    }

    /// Enqueues `item` at `rank`. A rank below the head re-anchors the
    /// window backward when the occupied span still fits the horizon;
    /// otherwise it clamps to the head bucket. Ranks past the horizon
    /// clamp to the last bucket.
    pub fn push(&mut self, item: T, rank: u32) {
        self.bands[rank_band(rank)] += 1;

        let nb = self.buckets.len() as u64;
        let mut ab = u64::from(rank) / u64::from(self.granularity);
        if self.len == 0 {
            // Empty queue: re-anchor the window at this item.
            self.base = ab;
            self.max_bucket = ab;
        } else if ab < self.base {
            if self.max_bucket - ab < nb {
                // Span still fits: move the head back. Slots are absolute
                // mod nb, so nothing needs reindexing.
                self.base = ab;
            } else {
                ab = self.base;
            }
        } else if ab >= self.base + nb {
            ab = self.base + nb - 1;
        }
        self.max_bucket = self.max_bucket.max(ab);
        let slot = (ab % nb) as usize;
        self.buckets[slot].push_back((item, rank));
        self.set_bit(slot);
        self.len += 1;
    }

    /// Dequeues from the lowest-ranked occupied bucket (FIFO within it).
    pub fn pop(&mut self) -> Option<T> {
        self.pop_entry().map(|(item, _)| item)
    }

    /// [`BucketQueue::pop`], also reporting the dequeued item's original
    /// (unquantized) rank.
    pub fn pop_entry(&mut self) -> Option<(T, u32)> {
        let nb = self.buckets.len();
        let start = (self.base % nb as u64) as usize;
        let slot = self.first_set_from(start)?;
        // Advance the head to the bucket we dequeue from.
        let dist = (slot + nb - start) % nb;
        self.base += dist as u64;
        let (item, rank) = self.buckets[slot].pop_front().expect("occupied bit set");
        if self.buckets[slot].is_empty() {
            self.clear_bit(slot);
        }
        self.len -= 1;
        self.bands[rank_band(rank)] -= 1;
        Some((item, rank))
    }

    /// Peeks at the head item without removing it.
    pub fn peek(&self) -> Option<&T> {
        let nb = self.buckets.len();
        let start = (self.base % nb as u64) as usize;
        let slot = self.first_set_from(start)?;
        self.buckets[slot].front().map(|(item, _)| item)
    }

    /// The head item's original rank, if any.
    pub fn peek_rank(&self) -> Option<u32> {
        let nb = self.buckets.len();
        let start = (self.base % nb as u64) as usize;
        let slot = self.first_set_from(start)?;
        self.buckets[slot].front().map(|&(_, rank)| rank)
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupancy per rank band (see [`crate::rank_band`]), for pressure
    /// sampling.
    pub fn band_depths(&self) -> [usize; NUM_RANK_BANDS] {
        self.bands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_across_buckets() {
        let mut q = BucketQueue::new(16, 10);
        q.push("c", 95);
        q.push("a", 5);
        q.push("b", 42);
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), Some("c"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_bucket_is_fifo_and_inversion_is_below_granularity() {
        let mut q = BucketQueue::new(8, 10);
        q.push("first", 9);
        q.push("second", 3); // same bucket (0..10): arrival order wins
        assert_eq!(q.pop(), Some("first"));
        assert_eq!(q.pop(), Some("second"));
    }

    #[test]
    fn granularity_one_is_exact_within_horizon() {
        let mut q = BucketQueue::new(64, 1);
        let ranks = [17u32, 3, 60, 3, 0, 41];
        for (i, &r) in ranks.iter().enumerate() {
            q.push(i, r);
        }
        let mut sorted: Vec<(u32, usize)> = ranks.iter().copied().zip(0..).collect();
        sorted.sort_by_key(|&(r, i)| (r, i));
        for (_, i) in sorted {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn past_ranks_clamp_to_head() {
        let mut q = BucketQueue::new(4, 10);
        q.push("head", 50);
        assert_eq!(q.pop(), Some("head")); // base now at bucket 5
        q.push("anchor", 70);
        q.push("late", 0); // bucket 0 < base: clamps to head bucket
                           // bucket 7 FIFO after the clamp: "late" landed behind "anchor".
        assert_eq!(q.pop(), Some("anchor"));
        assert_eq!(q.pop(), Some("late"));
    }

    #[test]
    fn far_ranks_clamp_to_last_bucket() {
        let mut q = BucketQueue::new(4, 10);
        q.push("near", 0);
        q.push("far", 1_000_000); // beyond horizon: clamps to last bucket
        q.push("mid", 25);
        assert_eq!(q.pop(), Some("near"));
        assert_eq!(q.pop(), Some("mid"));
        assert_eq!(q.pop(), Some("far"));
    }

    #[test]
    fn wraps_around_the_circular_window() {
        let mut q = BucketQueue::new(4, 1);
        // March the head far enough that slots wrap modulo 4 repeatedly.
        for round in 0..10u32 {
            q.push(round, round);
            assert_eq!(q.pop(), Some(round));
        }
        q.push(100, 10);
        q.push(101, 12);
        q.push(102, 11);
        assert_eq!(q.pop(), Some(100));
        assert_eq!(q.pop(), Some(102));
        assert_eq!(q.pop(), Some(101));
    }

    #[test]
    fn band_depths_follow_original_ranks() {
        let mut q = BucketQueue::new(8, 1000);
        q.push(0, 3); // band 0, bucket 0
        q.push(0, 500); // band 2, bucket 0 (same bucket, different band)
        assert_eq!(q.band_depths(), [1, 0, 1, 0]);
        q.pop();
        assert_eq!(q.band_depths(), [0, 0, 1, 0]);
    }

    #[test]
    fn many_buckets_use_multiple_bitmap_words() {
        let mut q = BucketQueue::new(200, 1);
        q.push("far", 150);
        q.push("near", 2);
        assert_eq!(q.peek_rank(), Some(2));
        assert_eq!(q.pop(), Some("near"));
        assert_eq!(q.pop(), Some("far"));
    }
}
