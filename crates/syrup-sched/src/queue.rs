//! The executor-facing queue abstraction.
//!
//! `syrup-net`'s socket buffers (the reuseport sockets and the NIC's RX
//! rings) embed an [`ExecQueue`] so rank support is a construction-time
//! choice: the default [`QueueKind::Fifo`] arm is the same `VecDeque`
//! those buffers used before this crate existed (identical admission, identical order,
//! identical drop accounting at the caller), and the PIFO / bucket arms
//! slot in behind the same `push`/`pop` surface. Capacity is enforced by
//! the embedding executor (`SocketBuf` keeps its own bound), so the
//! backings here are unbounded.

use std::collections::VecDeque;

use crate::{BucketQueue, Pifo, NUM_RANK_BANDS};

/// Which backing an [`ExecQueue`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Plain FIFO: ranks are ignored.
    Fifo,
    /// Exact PIFO: rank-ordered, FIFO ties.
    Pifo,
    /// Eiffel bucket queue with this window shape.
    Bucket {
        /// Number of circular buckets.
        buckets: usize,
        /// Rank width of one bucket.
        granularity: u32,
    },
}

impl QueueKind {
    /// Whether dequeue order depends on ranks.
    pub fn is_ranked(self) -> bool {
        !matches!(self, QueueKind::Fifo)
    }

    /// Stable lowercase name for CLI/JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            QueueKind::Fifo => "fifo",
            QueueKind::Pifo => "pifo",
            QueueKind::Bucket { .. } => "bucket",
        }
    }
}

/// One executor queue: FIFO, exact PIFO, or Eiffel bucket queue.
#[derive(Debug, Clone)]
pub enum ExecQueue<T> {
    /// Arrival order; `push` ranks are ignored.
    Fifo(VecDeque<T>),
    /// Exact rank order.
    Pifo(Pifo<T>),
    /// Approximate rank order (see [`BucketQueue`]).
    Bucket(BucketQueue<T>),
}

impl<T> ExecQueue<T> {
    /// Creates an empty queue of the given kind.
    pub fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Fifo => ExecQueue::Fifo(VecDeque::new()),
            QueueKind::Pifo => ExecQueue::Pifo(Pifo::new()),
            QueueKind::Bucket {
                buckets,
                granularity,
            } => ExecQueue::Bucket(BucketQueue::new(buckets, granularity)),
        }
    }

    /// The kind this queue was built as.
    pub fn kind(&self) -> QueueKind {
        match self {
            ExecQueue::Fifo(_) => QueueKind::Fifo,
            ExecQueue::Pifo(_) => QueueKind::Pifo,
            ExecQueue::Bucket(q) => QueueKind::Bucket {
                buckets: q.num_buckets(),
                granularity: q.granularity(),
            },
        }
    }

    /// Enqueues `item` at `rank` (ignored by the FIFO arm).
    pub fn push(&mut self, item: T, rank: u32) {
        match self {
            ExecQueue::Fifo(q) => q.push_back(item),
            ExecQueue::Pifo(q) => q.push(item, rank),
            ExecQueue::Bucket(q) => q.push(item, rank),
        }
    }

    /// Dequeues the head item.
    pub fn pop(&mut self) -> Option<T> {
        match self {
            ExecQueue::Fifo(q) => q.pop_front(),
            ExecQueue::Pifo(q) => q.pop(),
            ExecQueue::Bucket(q) => q.pop(),
        }
    }

    /// Peeks at the head item without removing it.
    pub fn peek(&self) -> Option<&T> {
        match self {
            ExecQueue::Fifo(q) => q.front(),
            ExecQueue::Pifo(q) => q.peek(),
            ExecQueue::Bucket(q) => q.peek(),
        }
    }

    /// The head item's rank: `0` for the FIFO arm (ranks are not stored).
    pub fn peek_rank(&self) -> Option<u32> {
        match self {
            ExecQueue::Fifo(q) => q.front().map(|_| 0),
            ExecQueue::Pifo(q) => q.peek_rank(),
            ExecQueue::Bucket(q) => q.peek_rank(),
        }
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        match self {
            ExecQueue::Fifo(q) => q.len(),
            ExecQueue::Pifo(q) => q.len(),
            ExecQueue::Bucket(q) => q.len(),
        }
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy per rank band. The FIFO arm reports everything in band 0
    /// (it stores no ranks).
    pub fn band_depths(&self) -> [usize; NUM_RANK_BANDS] {
        match self {
            ExecQueue::Fifo(q) => {
                let mut b = [0; NUM_RANK_BANDS];
                b[0] = q.len();
                b
            }
            ExecQueue::Pifo(q) => q.band_depths(),
            ExecQueue::Bucket(q) => q.band_depths(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_arm_ignores_ranks() {
        let mut q = ExecQueue::new(QueueKind::Fifo);
        q.push("a", 99);
        q.push("b", 1);
        assert_eq!(q.peek_rank(), Some(0));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert!(!QueueKind::Fifo.is_ranked());
    }

    #[test]
    fn ranked_arms_reorder() {
        for kind in [
            QueueKind::Pifo,
            QueueKind::Bucket {
                buckets: 64,
                granularity: 1,
            },
        ] {
            let mut q = ExecQueue::new(kind);
            assert!(kind.is_ranked());
            assert_eq!(q.kind(), kind);
            q.push("a", 50);
            q.push("b", 1);
            assert_eq!(q.peek(), Some(&"b"));
            assert_eq!(q.pop(), Some("b"));
            assert_eq!(q.pop(), Some("a"));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(QueueKind::Fifo.as_str(), "fifo");
        assert_eq!(QueueKind::Pifo.as_str(), "pifo");
        assert_eq!(
            QueueKind::Bucket {
                buckets: 8,
                granularity: 4
            }
            .as_str(),
            "bucket"
        );
    }
}
