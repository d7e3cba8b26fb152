//! The exact push-in first-out queue.
//!
//! A PIFO admits `push(item, rank)` anywhere in rank order and dequeues
//! from the head: `pop` always yields an item of minimal rank, and items of
//! equal rank leave in arrival (FIFO) order. The structure is fully
//! deterministic — the dequeue sequence is a pure function of the push/pop
//! history — which is what lets the fuzzer's PIFO-order oracle and the
//! codegen↔interpreter differential treat it as ground truth.
//!
//! Internally the queue is a `BTreeMap` keyed by `(rank, seq)` where `seq`
//! is a monotone arrival counter: the map's first entry is the head, and
//! the tie-break falls out of the key order rather than any balancing
//! heuristic. Push and pop are `O(log n)`.

use std::collections::BTreeMap;

use crate::{rank_band, NUM_RANK_BANDS};

/// An exact PIFO: rank-ordered dequeue, FIFO within equal ranks. It is
/// unbounded; the embedding executor enforces any capacity.
#[derive(Debug, Clone)]
pub struct Pifo<T> {
    items: BTreeMap<(u32, u64), T>,
    seq: u64,
    bands: [usize; NUM_RANK_BANDS],
}

impl<T> Default for Pifo<T> {
    fn default() -> Self {
        Pifo {
            items: BTreeMap::new(),
            seq: 0,
            bands: [0; NUM_RANK_BANDS],
        }
    }
}

impl<T> Pifo<T> {
    /// An empty PIFO.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues `item` at `rank`.
    pub fn push(&mut self, item: T, rank: u32) {
        self.bands[rank_band(rank)] += 1;
        let seq = self.seq;
        self.seq += 1;
        self.items.insert((rank, seq), item);
    }

    /// Dequeues the head: minimal rank, earliest arrival among ties.
    pub fn pop(&mut self) -> Option<T> {
        self.pop_entry().map(|(item, _)| item)
    }

    /// [`Pifo::pop`], also reporting the dequeued item's rank.
    pub fn pop_entry(&mut self) -> Option<(T, u32)> {
        let ((rank, _), item) = self.items.pop_first()?;
        self.bands[rank_band(rank)] -= 1;
        Some((item, rank))
    }

    /// Peeks at the head item without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.values().next()
    }

    /// The head item's rank, if any.
    pub fn peek_rank(&self) -> Option<u32> {
        self.items.keys().next().map(|&(rank, _)| rank)
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
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
    fn dequeues_in_rank_order() {
        let mut q = Pifo::new();
        q.push("low", 30);
        q.push("urgent", 1);
        q.push("mid", 10);
        assert_eq!(q.peek(), Some(&"urgent"));
        assert_eq!(q.peek_rank(), Some(1));
        assert_eq!(q.pop(), Some("urgent"));
        assert_eq!(q.pop(), Some("mid"));
        assert_eq!(q.pop(), Some("low"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_ranks_are_fifo() {
        let mut q = Pifo::new();
        for i in 0..10u32 {
            q.push(i, 7);
        }
        for i in 0..10u32 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn interleaved_push_pop_is_deterministic() {
        let run = || {
            let mut q = Pifo::new();
            let mut out = Vec::new();
            for step in 0..100u32 {
                q.push(step, step.wrapping_mul(2654435761) % 50);
                if step % 3 == 0 {
                    out.extend(q.pop());
                }
            }
            while let Some(v) = q.pop() {
                out.push(v);
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn band_occupancy_tracks_contents() {
        let mut q = Pifo::new();
        q.push(0, 3); // band 0
        q.push(0, 100); // band 1
        q.push(0, 100); // band 1
        q.push(0, 1 << 20); // band 3
        assert_eq!(q.band_depths(), [1, 2, 0, 1]);
        q.pop(); // removes rank 3 (band 0)
        assert_eq!(q.band_depths(), [0, 2, 0, 1]);
    }
}
