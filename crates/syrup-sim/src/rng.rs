//! Seeded randomness for reproducible simulations.
//!
//! All stochastic behaviour in an experiment (arrival processes, service
//! times, hash-policy probing, flow assignment) draws from a [`SimRng`]
//! seeded by the harness, so a `(seed, parameters)` pair fully determines a
//! run. The paper reports standard deviations across 5–20 runs; the harness
//! reproduces that by sweeping seeds.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::Duration;

/// A deterministic random source for one simulation run.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform sample from `range`.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// A uniformly random `u64`.
    pub fn gen_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// Exponentially distributed interval with the given mean.
    ///
    /// Used for Poisson arrival processes: successive interarrival gaps at
    /// rate λ are `exp_duration(1/λ)`.
    pub fn exp_duration(&mut self, mean: Duration) -> Duration {
        if mean == Duration::ZERO {
            return Duration::ZERO;
        }
        // Inverse-CDF sampling; `1.0 - gen::<f64>()` is in (0, 1] so the log
        // is finite.
        let u: f64 = 1.0 - self.inner.gen::<f64>();
        let secs = -u.ln() * mean.as_secs_f64();
        Duration::from_secs_f64(secs)
    }

    /// Uniformly distributed interval in `[lo, hi]`.
    pub fn uniform_duration(&mut self, lo: Duration, hi: Duration) -> Duration {
        if hi <= lo {
            return lo;
        }
        Duration::from_nanos(self.inner.gen_range(lo.as_nanos()..=hi.as_nanos()))
    }

    /// Chooses an index in `[0, n)`; `n` must be nonzero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires a nonempty domain");
        self.inner.gen_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.gen_u64() == b.gen_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn exp_duration_has_roughly_correct_mean() {
        let mut rng = SimRng::new(9);
        let mean = Duration::from_micros(100);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| rng.exp_duration(mean).as_nanos()).sum();
        let observed = total as f64 / n as f64;
        let expected = mean.as_nanos() as f64;
        assert!(
            (observed - expected).abs() / expected < 0.05,
            "mean {observed} vs expected {expected}"
        );
    }

    #[test]
    fn exp_duration_zero_mean_is_zero() {
        let mut rng = SimRng::new(1);
        assert_eq!(rng.exp_duration(Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn uniform_duration_respects_bounds() {
        let mut rng = SimRng::new(5);
        let lo = Duration::from_micros(10);
        let hi = Duration::from_micros(12);
        for _ in 0..1_000 {
            let d = rng.uniform_duration(lo, hi);
            assert!(d >= lo && d <= hi);
        }
        assert_eq!(rng.uniform_duration(hi, lo), hi);
    }

    #[test]
    fn chance_clamps_probability() {
        let mut rng = SimRng::new(3);
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn index_covers_domain() {
        let mut rng = SimRng::new(11);
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            seen[rng.index(6)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
