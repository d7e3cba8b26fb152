//! Scheduling-capable queue executors for Syrup.
//!
//! Syrup's policies steer work *between* executors; a rank also places it
//! *within* one. "Programmable Packet Scheduling at Line Rate" shows one
//! primitive — the push-in first-out queue (PIFO) — expresses most
//! classical disciplines (SRPT, WFQ, EDF, strict priority), and "Eiffel:
//! Efficient and Flexible Software Packet Scheduling" shows bucketed
//! approximate priority queues make that primitive cheap in software. This
//! crate provides both:
//!
//! * [`Pifo`] — an exact rank-ordered queue: dequeue is non-decreasing in
//!   rank, ties dequeue FIFO (by arrival order), and the whole structure is
//!   deterministic for a given push/pop sequence.
//! * [`BucketQueue`] — an Eiffel-style circular bucket array with a
//!   find-first-set occupancy bitmap. Ranks are quantized to a configurable
//!   `granularity` `g`; within the horizon the dequeue order inverts the
//!   exact PIFO order by strictly less than `g` rank units (see the module
//!   docs of [`bucket`] for the precise bound).
//! * [`ExecQueue`] — the executor-facing wrapper `syrup-net`'s socket
//!   buffers embed: one enum over FIFO / PIFO / bucket backings with a
//!   uniform `push(item, rank)` / `pop()` surface, so rank support is a
//!   construction-time opt-in and the FIFO arm stays byte-identical to the
//!   plain `VecDeque` it replaces.
//!
//! The queues are unbounded and carry no instrumentation of their own: the
//! embedding executor enforces capacity and counts drops, and samples each
//! queue's per-rank-band occupancy ([`rank_band`]) into the profiler's
//! pressure reports, so starvation of low-priority bands is visible in
//! `syrupctl profile pressure`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod pifo;
pub mod queue;

pub use bucket::BucketQueue;
pub use pifo::Pifo;
pub use queue::{ExecQueue, QueueKind};

/// Number of rank bands tracked for pressure reporting.
///
/// Bands bucket the 32-bit rank space coarsely (exponentially) so the
/// pressure profiler can show *which priorities* occupy a queue without
/// per-rank series: band 0 holds the most urgent work, band 3 the bulk
/// tail. The thresholds are fixed so reports from different components are
/// comparable.
pub const NUM_RANK_BANDS: usize = 4;

/// Maps a rank to its pressure band: `0` for ranks below 16, `1` below
/// 256, `2` below 4096, `3` for everything else.
#[inline]
pub fn rank_band(rank: u32) -> usize {
    match rank {
        0..=15 => 0,
        16..=255 => 1,
        256..=4095 => 2,
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_partition_the_rank_space() {
        assert_eq!(rank_band(0), 0);
        assert_eq!(rank_band(15), 0);
        assert_eq!(rank_band(16), 1);
        assert_eq!(rank_band(255), 1);
        assert_eq!(rank_band(256), 2);
        assert_eq!(rank_band(4095), 2);
        assert_eq!(rank_band(4096), 3);
        assert_eq!(rank_band(u32::MAX), 3);
    }
}
