//! Per-CPU storage: one cache-line-aligned stripe per CPU.
//!
//! A kernel `BPF_MAP_TYPE_PERCPU_*` map gives every CPU a slot of its
//! own, so programs running on two CPUs never write the same line, and a
//! userspace read folds the slots together. Threads here are not pinned,
//! so a thread stands in for a CPU: the first time it touches per-CPU
//! storage it takes the next *home* index, round-robin, and from then on
//! it writes the stripe its home names. Two threads that start together
//! take consecutive homes, so they land on different stripes whenever
//! there are at least two.
//!
//! The stripe count is the host's: [`stripe_count`]. The tracer's refusal
//! count, bumped by producers that hold no lock, is the one user.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;

/// Most stripes a per-CPU value has, like a small `nr_cpu_ids`.
const MAX_STRIPES: usize = 16;

/// Stripes of a per-CPU value on this host: `available_parallelism()`
/// rounded up to a power of two (so a home maps to a stripe with a
/// mask), at most 16.
pub(crate) fn stripe_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .next_power_of_two()
            .min(MAX_STRIPES)
    })
}

static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// The calling thread's home index; `usize::MAX` until first use.
    static HOME: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's home index (see the module docs).
#[inline]
fn home() -> usize {
    HOME.with(|home| match home.get() {
        usize::MAX => take_home(home),
        index => index,
    })
}

#[cold]
fn take_home(home: &Cell<usize>) -> usize {
    let index = NEXT_HOME.fetch_add(1, Relaxed) % MAX_STRIPES;
    home.set(index);
    index
}

/// Two cache lines: x86's adjacent-line prefetcher fetches lines in
/// pairs, so 64-byte alignment alone still lets neighbours interfere.
#[repr(align(128))]
#[derive(Debug)]
struct Line<T>(T);

/// A `T` per stripe, each on lines of its own, standing in for a percpu
/// map slot: as many stripes as the host has CPUs
/// (`available_parallelism()` rounded up to a power of two, at most 16).
/// A thread takes a home stripe round-robin the first time it touches
/// per-CPU storage and reaches that stripe from then on.
#[derive(Debug)]
pub struct PerCpu<T> {
    lines: Box<[Line<T>]>,
}

impl<T> PerCpu<T> {
    /// One `init()` per stripe.
    pub fn new(init: impl FnMut() -> T) -> Self {
        Self::with_stripes(stripe_count(), init)
    }

    /// `stripes` stripes, a power of two: the multi-stripe path on any
    /// host, for tests.
    pub(crate) fn with_stripes(stripes: usize, mut init: impl FnMut() -> T) -> Self {
        assert!(stripes.is_power_of_two() && stripes <= MAX_STRIPES);
        PerCpu {
            lines: (0..stripes).map(|_| Line(init())).collect(),
        }
    }

    /// The calling thread's stripe.
    #[inline]
    pub fn local(&self) -> &T {
        &self.lines[home() & (self.lines.len() - 1)].0
    }

    /// Every stripe, in stripe order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.lines.iter().map(|line| &line.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_count_is_a_small_power_of_two() {
        let n = stripe_count();
        assert!(n.is_power_of_two() && n <= MAX_STRIPES, "{n}");
    }

    #[test]
    fn stripes_sit_on_lines_of_their_own() {
        let cells = PerCpu::with_stripes(4, || 0u64);
        let addrs: Vec<usize> = cells.iter().map(|c| c as *const u64 as usize).collect();
        for pair in addrs.windows(2) {
            assert_eq!(pair[1] - pair[0], 128);
        }
        assert!(addrs.iter().all(|a| a % 128 == 0));
    }

    #[test]
    fn a_thread_keeps_its_stripe() {
        let cells = PerCpu::with_stripes(16, || 0u8);
        assert!(std::ptr::eq(cells.local(), cells.local()));
        assert_eq!(home(), home());
        let single = PerCpu::with_stripes(1, || 0u8);
        assert!(std::ptr::eq(single.local(), single.iter().next().unwrap()));
    }
}
