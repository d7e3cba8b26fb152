//! Lock-free counters and gauges.
//!
//! All updates use relaxed atomics: telemetry never orders other memory
//! accesses, it only has to be eventually consistent with a `get` read
//! at snapshot time.

use crate::percpu::PerCpu;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// A monotonic event counter (deployments, dispatches, drops, ...).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

impl PerCpu<Counter> {
    /// The stripes' wrapping sum: exactly what one counter fed the same
    /// adds would hold.
    pub(crate) fn sum(&self) -> u64 {
        self.iter().map(Counter::get).fold(0, u64::wrapping_add)
    }
}

/// A signed instantaneous value (queue depth, runnable tasks, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn sharded_counter_sums_across_threads() {
        for stripes in [1, 2, 4, 16] {
            let c = PerCpu::with_stripes(stripes, Counter::new);
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        for _ in 0..10_000 {
                            c.local().inc();
                        }
                    });
                }
            });
            assert_eq!(c.sum(), 80_000, "{stripes} stripes");
        }
        let c = PerCpu::new(Counter::new);
        c.local().add(u64::MAX);
        std::thread::scope(|s| {
            s.spawn(|| c.local().add(2));
        });
        assert_eq!(c.sum(), 1, "stripes wrap as one counter would");
    }
}
