//! Latency and throughput statistics matching the paper's methodology.
//!
//! Every figure in the paper plots a tail percentile (99% or 99.9%) of
//! client-observed latency against offered load, with drops reported
//! separately (Figure 2b) and standard deviations across runs shown as error
//! bars. [`LatencyRecorder`] collects exact per-request samples with a
//! warm-up cutoff, [`LatencySummary`] extracts exact percentiles by the one
//! nearest-rank rule ([`nearest_rank`]), and [`RunStats`] aggregates one
//! whole run (completions, drops, achieved throughput).

use syrup_observe::telemetry::nearest_rank;

use crate::time::{Duration, Time};

/// Collects exact latency samples for one run, discarding a warm-up prefix.
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    warmup_until: Time,
    samples: Vec<u64>,
    discarded: u64,
}

impl LatencyRecorder {
    /// Creates a recorder that ignores samples completing before
    /// `warmup_until` (the paper's runs similarly trim ramp-up).
    pub fn new(warmup_until: Time) -> Self {
        LatencyRecorder {
            warmup_until,
            samples: Vec::new(),
            discarded: 0,
        }
    }

    /// Records a request that arrived at `arrival` and completed at `now`.
    pub fn record(&mut self, arrival: Time, now: Time) {
        if now < self.warmup_until {
            self.discarded += 1;
            return;
        }
        self.samples.push(now.since(arrival).as_nanos());
    }

    /// Number of post-warm-up samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no post-warm-up samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of samples dropped as warm-up.
    pub fn warmup_discarded(&self) -> u64 {
        self.discarded
    }

    /// Produces the summary, consuming nothing (samples are sorted in place
    /// on a clone so the recorder stays usable).
    pub fn summary(&self) -> LatencySummary {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        LatencySummary { sorted }
    }
}

/// Exact order statistics over a finished run's samples.
#[derive(Debug, Clone)]
pub struct LatencySummary {
    sorted: Vec<u64>,
}

impl LatencySummary {
    /// Builds a summary directly from raw nanosecond samples.
    pub fn from_nanos(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        LatencySummary { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The sorted raw samples, in nanoseconds.
    pub fn samples(&self) -> &[u64] {
        &self.sorted
    }

    /// Whether the summary holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The exact `p`-quantile (`0.0..=1.0`) by [`nearest_rank`], or
    /// [`Duration::ZERO`] when empty.
    pub fn percentile(&self, p: f64) -> Duration {
        Duration::from_nanos(nearest_rank(&self.sorted, p))
    }

    /// 99th-percentile latency (Figures 2, 6, 7, 8).
    pub fn p99(&self) -> Duration {
        self.percentile(0.99)
    }

    /// 99.9th-percentile latency (Figure 9).
    pub fn p999(&self) -> Duration {
        self.percentile(0.999)
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        self.percentile(0.50)
    }

    /// Arithmetic mean latency.
    pub fn mean(&self) -> Duration {
        if self.sorted.is_empty() {
            return Duration::ZERO;
        }
        let total: u128 = self.sorted.iter().map(|&v| v as u128).sum();
        Duration::from_nanos((total / self.sorted.len() as u128) as u64)
    }

    /// Largest observed latency.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.sorted.last().copied().unwrap_or(0))
    }
}

/// Aggregate outcome of one simulated run at one offered load.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Requests offered by the load generator (post warm-up).
    pub offered: u64,
    /// Requests that completed and were measured.
    pub completed: u64,
    /// Requests dropped (full socket buffers, policy `DROP`, admission).
    pub dropped: u64,
    /// Latency order statistics over completed requests.
    pub latency: LatencySummary,
    /// Measurement interval used for throughput calculations.
    pub measured: Duration,
}

impl RunStats {
    /// Builds the aggregate from a finished recorder plus the run's
    /// admission counts.
    pub fn from_recorder(
        recorder: &LatencyRecorder,
        offered: u64,
        dropped: u64,
        measured: Duration,
    ) -> Self {
        RunStats {
            offered,
            completed: recorder.len() as u64,
            dropped,
            latency: recorder.summary(),
            measured,
        }
    }

    /// Fraction of offered requests that were dropped, in percent
    /// (Figure 2b's y-axis).
    pub fn drop_pct(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        100.0 * self.dropped as f64 / self.offered as f64
    }

    /// Achieved goodput in requests per second (Figure 7a's y-axis).
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.measured.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_exact_sort() {
        let samples: Vec<u64> = (1..=1000).rev().collect();
        let s = LatencySummary::from_nanos(samples);
        assert_eq!(s.percentile(0.99).as_nanos(), 990);
        assert_eq!(s.percentile(0.50).as_nanos(), 500);
        assert_eq!(s.percentile(1.0).as_nanos(), 1000);
        assert_eq!(s.percentile(0.0).as_nanos(), 1);
        assert_eq!(s.max().as_nanos(), 1000);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = LatencySummary::from_nanos(vec![]);
        assert_eq!(s.p99(), Duration::ZERO);
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.max(), Duration::ZERO);
        assert!(s.is_empty());
    }

    #[test]
    fn single_sample_percentiles() {
        let s = LatencySummary::from_nanos(vec![77]);
        assert_eq!(s.p50().as_nanos(), 77);
        assert_eq!(s.p999().as_nanos(), 77);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn warmup_samples_are_discarded() {
        let mut rec = LatencyRecorder::new(Time::from_millis(10));
        rec.record(Time::ZERO, Time::from_millis(5)); // during warm-up
        rec.record(Time::from_millis(11), Time::from_millis(12));
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.warmup_discarded(), 1);
        assert_eq!(rec.summary().p50(), Duration::from_millis(1));
    }

    #[test]
    fn mean_is_exact() {
        let s = LatencySummary::from_nanos(vec![10, 20, 30]);
        assert_eq!(s.mean().as_nanos(), 20);
    }

    #[test]
    fn run_stats_rates() {
        let stats = RunStats {
            offered: 1000,
            completed: 900,
            dropped: 100,
            latency: LatencySummary::from_nanos(vec![1, 2, 3]),
            measured: Duration::from_millis(100),
        };
        assert!((stats.drop_pct() - 10.0).abs() < 1e-9);
        assert!((stats.throughput_rps() - 9000.0).abs() < 1e-6);
    }

    #[test]
    fn run_stats_empty_interval() {
        // Zero-duration and zero-request runs must not divide by zero.
        let stats =
            RunStats::from_recorder(&LatencyRecorder::new(Time::ZERO), 0, 0, Duration::ZERO);
        assert_eq!(stats.drop_pct(), 0.0);
        assert_eq!(stats.throughput_rps(), 0.0);
        assert!(stats.latency.is_empty());
    }

    #[test]
    fn zero_duration_interval_with_completions_reports_zero_rate() {
        // Completions recorded against a zero-length window: throughput is
        // defined as 0, not infinity.
        let mut rec = LatencyRecorder::new(Time::ZERO);
        rec.record(Time::ZERO, Time::from_micros(5));
        let stats = RunStats::from_recorder(&rec, 1, 0, Duration::ZERO);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.throughput_rps(), 0.0);
    }

    #[test]
    fn zero_request_interval_with_duration_is_all_zero() {
        let rec = LatencyRecorder::new(Time::ZERO);
        let stats = RunStats::from_recorder(&rec, 0, 0, Duration::from_millis(10));
        assert_eq!(stats.offered, 0);
        assert_eq!(stats.drop_pct(), 0.0);
        assert_eq!(stats.throughput_rps(), 0.0);
        assert_eq!(stats.latency.p99(), Duration::ZERO);
    }
}
