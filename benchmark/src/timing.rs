//! The one timing helper every ledger number goes through.
//!
//! Two shapes of measurement:
//!
//! * **Laps** — a workload's end-to-end timing. Identical fixed work is
//!   run repeatedly and the *median* lap is reported with min/max and the
//!   sample count ([`LapStats`]). A dozen or two samples support no
//!   percentile above the median, so none is reported.
//! * **Batches** — a layer's isolated cost. A closure runs `n` calls into
//!   one public function; [`best_of`] warms every variant up, then times
//!   `rounds` batches of each, *interleaving* the variants that are being
//!   compared (as `bench --bin backend_guard` does) so frequency drift and
//!   noisy neighbours hit all of them alike, and keeps the best (minimum)
//!   ns per call of each.
//!
//! Timing a debug build measures the compiler, not the system:
//! [`refuse_debug_build`] is the gate `main` calls before any full run.
//!
//! The reference host's speed wanders by tens of percent for minutes at a
//! time (busy neighbours; no steal time to show for it). [`HostSpeed`] is
//! a fixed piece of work run beside every lap; the share of its reference
//! time it takes is how slow the host is running, and end-to-end timings
//! are scaled by it.

use std::time::Instant;

/// Errors when the binary was built without optimisations.
pub fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        Err("ledger: refusing to time a debug build; build with --release".into())
    } else {
        Ok(())
    }
}

/// Median, extremes and sample count of one metric over a run's laps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LapStats {
    /// Median over laps (mean of the two middle values when `n` is even).
    pub median: f64,
    /// Smallest lap value.
    pub min: f64,
    /// Largest lap value.
    pub max: f64,
    /// Number of laps.
    pub n: usize,
}

impl LapStats {
    /// Summarises `values`; `None` when there are none or one is NaN.
    pub fn of(values: &[f64]) -> Option<LapStats> {
        if values.is_empty() || values.iter().any(|v| v.is_nan()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Some(LapStats {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            n,
        })
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    LapStats::of(values).map_or(0.0, |s| s.median)
}

/// One timed variant of [`best_of`]: runs the given number of calls.
pub type Batch<'a> = &'a mut dyn FnMut(u64);

/// Interleaved best-of-`rounds` batch timing.
///
/// Each variant is a closure that performs the number of calls it is
/// handed (the loop lives inside the closure, so no indirect call is
/// charged per operation). Every variant first runs a quarter batch
/// untimed; then `rounds` times over, each variant in turn runs one timed
/// batch of `batch` calls. Returns the minimum ns per call of each
/// variant, in the order given.
pub fn best_of(batch: u64, rounds: usize, variants: &mut [Batch<'_>]) -> Vec<f64> {
    let batch = batch.max(1);
    for v in variants.iter_mut() {
        v(batch / 4 + 1);
    }
    let mut best = vec![f64::INFINITY; variants.len()];
    for _ in 0..rounds.max(1) {
        for (best, v) in best.iter_mut().zip(variants.iter_mut()) {
            let start = Instant::now();
            v(batch);
            let ns = start.elapsed().as_nanos() as f64 / batch as f64;
            *best = best.min(ns);
        }
    }
    best
}

/// [`best_of`] for a single variant.
pub fn best_one(batch: u64, rounds: usize, mut variant: impl FnMut(u64)) -> f64 {
    best_of(batch, rounds, &mut [&mut variant])[0]
}

/// Cost in ns of one `Instant::now()` + `elapsed()` pair on this host —
/// what a span around nothing measures. Subtracted from span timings.
pub fn instant_overhead_ns(batch: u64) -> f64 {
    best_one(batch, 5, |n| {
        let mut acc = 0u128;
        for _ in 0..n {
            let t = Instant::now();
            acc += std::hint::black_box(t.elapsed().as_nanos());
        }
        std::hint::black_box(acc);
    })
}

/// Seconds one single-threaded [`HostSpeed::sample`] takes on the quiet
/// reference host (2-vCPU Intel Xeon @ 2.10 GHz guest): what "running at
/// reference speed" means. Any other constant would only rescale every
/// timing alike.
const REFERENCE_S: f64 = 0.020;
/// Two walks at once take this much longer than one there (shared cache),
/// measured by alternating the two for 400 samples: 1.09–1.10.
const REFERENCE_TWO_THREADS: f64 = 1.09;

const PROBE_TABLE: usize = 1 << 20;
const PROBE_STEPS: u64 = 600_000;

/// A fixed piece of work whose duration tracks how fast the host is
/// running right now: a dependent random walk over a 4 MiB table with
/// integer mixing on the way, the blend of cache-resident loads, branches
/// and ALU work the simulator itself is made of. Measured beside the
/// workloads over a quarter of an hour, 45-second medians of its speed
/// followed theirs within a few percent while both swung by ±10 %.
pub struct HostSpeed {
    /// One table per thread the workload loads.
    tables: Vec<Vec<u32>>,
}

impl HostSpeed {
    /// Seconds a sample of this probe takes at reference speed.
    pub fn reference_s(&self) -> f64 {
        if self.tables.len() > 1 {
            REFERENCE_S * REFERENCE_TWO_THREADS
        } else {
            REFERENCE_S
        }
    }

    /// MiB the probe keeps resident: its tables are touched end to end.
    pub fn resident_mib(&self) -> f64 {
        (self.tables.len() * PROBE_TABLE * std::mem::size_of::<u32>()) as f64 / (1 << 20) as f64
    }

    /// A probe that loads `threads` threads at once (at least one).
    pub fn new(threads: usize) -> Self {
        let table = || {
            (0..PROBE_TABLE as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect()
        };
        HostSpeed {
            tables: (0..threads.max(1)).map(|_| table()).collect(),
        }
    }

    fn walk(table: &[u32]) -> u64 {
        let (mut idx, mut acc) = (1usize, 0u64);
        for step in 0..PROBE_STEPS {
            let v = table[idx];
            acc = (acc.wrapping_add(u64::from(v) ^ step)).rotate_left(7);
            idx = idx
                .wrapping_mul(5)
                .wrapping_add(v as usize)
                .wrapping_add(acc as usize & 1)
                & (PROBE_TABLE - 1);
        }
        acc
    }

    /// Runs the work once on every thread at the same time; wall seconds
    /// until the last one is done.
    pub fn sample(&self) -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for table in &self.tables[1..] {
                s.spawn(move || std::hint::black_box(Self::walk(table)));
            }
            std::hint::black_box(Self::walk(&self.tables[0]));
        });
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_speed_probe_does_fixed_work() {
        let probe = HostSpeed::new(2);
        assert_eq!(probe.tables.len(), 2);
        assert_eq!(
            HostSpeed::walk(&probe.tables[0]),
            HostSpeed::walk(&probe.tables[1])
        );
        assert!(probe.sample() > 0.0);
        assert_eq!(probe.resident_mib(), 8.0);
        assert!(probe.reference_s() > HostSpeed::new(1).reference_s());
        assert_eq!(HostSpeed::new(0).tables.len(), 1);
    }

    #[test]
    fn lap_stats_median_min_max() {
        let s = LapStats::of(&[5.0, 1.0, 9.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (5.0, 1.0, 9.0, 3));
        let even = LapStats::of(&[4.0, 2.0, 8.0, 6.0]).unwrap();
        assert_eq!(even.median, 5.0);
        assert_eq!(LapStats::of(&[]), None);
        assert_eq!(LapStats::of(&[1.0, f64::NAN]), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn best_of_interleaves_after_one_warm_up_each() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut a = |n: u64| order.borrow_mut().push(('a', n));
        let mut b = |n: u64| order.borrow_mut().push(('b', n));
        let best = best_of(8, 2, &mut [&mut a, &mut b]);
        assert_eq!(best.len(), 2);
        assert_eq!(
            *order.borrow(),
            [('a', 3), ('b', 3), ('a', 8), ('b', 8), ('a', 8), ('b', 8)]
        );
    }

    #[test]
    fn best_of_keeps_the_minimum_and_the_order_of_variants() {
        // The slow variant sleeps; the fast one does nothing.
        let mut slow = |n: u64| std::thread::sleep(std::time::Duration::from_micros(200 * n));
        let mut fast = |n: u64| {
            std::hint::black_box(n);
        };
        let best = best_of(4, 3, &mut [&mut slow, &mut fast]);
        assert!(best[0] >= 200_000.0, "slow {}", best[0]);
        assert!(best[1] < best[0], "fast {} slow {}", best[1], best[0]);
    }

    #[test]
    fn instant_overhead_is_small_and_positive() {
        let ns = instant_overhead_ns(10_000);
        assert!(ns > 0.0 && ns < 50_000.0, "{ns}");
    }

    #[test]
    fn debug_builds_are_refused() {
        assert_eq!(refuse_debug_build().is_err(), cfg!(debug_assertions));
    }
}
