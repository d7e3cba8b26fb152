//! Open-loop workload generation (the paper's mutilate-style load generator).
//!
//! The paper drives every experiment with an open-loop generator: requests
//! arrive as a Poisson process at a configured rate regardless of whether
//! the server keeps up, which is what exposes tail-latency explosions at
//! saturation. [`ArrivalGen`] produces arrival instants; [`RequestMix`]
//! picks a request class per arrival (e.g. 99.5% GET / 0.5% SCAN); and
//! [`ServiceDist`] samples per-class service times (GET = 10–12µs uniform,
//! SCAN ≈ 700µs).

use crate::queue::SimQueue;
use crate::rng::SimRng;
use crate::stats::LatencyRecorder;
use crate::time::{Duration, Time};

/// An open-loop arrival process.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    mean_gap: Duration,
    poisson: bool,
    next: Time,
}

impl ArrivalGen {
    /// Poisson arrivals at `rate_rps` requests per second, starting at time
    /// zero. A rate of zero yields no arrivals.
    pub fn poisson(rate_rps: f64) -> Self {
        ArrivalGen {
            mean_gap: gap_for_rate(rate_rps),
            poisson: true,
            next: Time::ZERO,
        }
    }

    /// Deterministic, evenly spaced arrivals at `rate_rps` requests per
    /// second — useful for closed-form unit tests.
    pub fn uniform(rate_rps: f64) -> Self {
        ArrivalGen {
            mean_gap: gap_for_rate(rate_rps),
            poisson: false,
            next: Time::ZERO,
        }
    }

    /// Returns the next arrival instant, or `None` if the rate is zero.
    pub fn next_arrival(&mut self, rng: &mut SimRng) -> Option<Time> {
        if self.mean_gap == Duration::ZERO {
            return None;
        }
        let at = self.next;
        let gap = if self.poisson {
            self.rng_gap(rng)
        } else {
            self.mean_gap
        };
        self.next = at + gap;
        Some(at)
    }

    fn rng_gap(&self, rng: &mut SimRng) -> Duration {
        rng.exp_duration(self.mean_gap)
    }
}

/// An open-loop Poisson client with a warm-up/measure window: arrivals
/// stop at the end of the measured interval, and only requests that
/// arrive after the warm-up count.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    arrivals: ArrivalGen,
    warmup_end: Time,
    end: Time,
}

impl OpenLoop {
    /// Poisson arrivals at `rate_rps`, measured for `measure` after a
    /// `warmup` that starts at time zero.
    pub fn poisson(rate_rps: f64, warmup: Duration, measure: Duration) -> Self {
        let warmup_end = Time::ZERO + warmup;
        OpenLoop {
            arrivals: ArrivalGen::poisson(rate_rps),
            warmup_end,
            end: warmup_end + measure,
        }
    }

    /// Schedules the client's next arrival on `queue` as `event`, unless
    /// it falls past the window (or the rate is zero). Call it once to
    /// seed the run and once per arrival handled, before drawing anything
    /// else for that arrival.
    pub fn schedule_next<E>(&mut self, rng: &mut SimRng, queue: &mut impl SimQueue<E>, event: E) {
        if let Some(at) = self.arrivals.next_arrival(rng).filter(|&t| t < self.end) {
            queue.push(at, event);
        }
    }

    /// Whether a request arriving at `now` is past the warm-up.
    pub fn measured(&self, now: Time) -> bool {
        now >= self.warmup_end
    }

    /// End of the measured interval.
    pub fn end(&self) -> Time {
        self.end
    }

    /// A recorder that discards completions inside the warm-up.
    pub fn recorder(&self) -> LatencyRecorder {
        LatencyRecorder::new(self.warmup_end)
    }
}

fn gap_for_rate(rate_rps: f64) -> Duration {
    if !rate_rps.is_finite() || rate_rps <= 0.0 {
        return Duration::ZERO;
    }
    Duration::from_secs_f64(1.0 / rate_rps)
}

/// A categorical distribution over request classes.
///
/// Classes are dense small integers chosen by the experiment (e.g.
/// `GET = 0`, `SCAN = 1`).
#[derive(Debug, Clone)]
pub struct RequestMix {
    // Cumulative weights, normalized to 1.0, paired with the class id.
    cumulative: Vec<(f64, u32)>,
}

impl RequestMix {
    /// Builds a mix from `(class, weight)` pairs. Weights need not sum to 1;
    /// they are normalized. Panics if all weights are non-positive.
    pub fn new(classes: &[(u32, f64)]) -> Self {
        let total: f64 = classes.iter().map(|&(_, w)| w.max(0.0)).sum();
        assert!(
            total > 0.0,
            "RequestMix requires at least one positive weight"
        );
        let mut acc = 0.0;
        let cumulative = classes
            .iter()
            .filter(|&&(_, w)| w > 0.0)
            .map(|&(c, w)| {
                acc += w / total;
                (acc, c)
            })
            .collect();
        RequestMix { cumulative }
    }

    /// A single-class workload (Figure 2's 100% GET case).
    pub fn single(class: u32) -> Self {
        RequestMix::new(&[(class, 1.0)])
    }

    /// Samples a class.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        let u: f64 = rng.gen_range(0.0..1.0);
        for &(cum, class) in &self.cumulative {
            if u < cum {
                return class;
            }
        }
        // Floating-point slack: fall back to the final class.
        self.cumulative.last().map(|&(_, c)| c).unwrap_or(0)
    }
}

/// A per-class service-time distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceDist {
    /// Always exactly this long.
    Constant(Duration),
    /// Uniform in `[lo, hi]` — the paper's GETs are 10–12µs uniform.
    Uniform(Duration, Duration),
    /// Exponential with the given mean.
    Exponential(Duration),
}

impl ServiceDist {
    /// Samples one service time.
    pub fn sample(&self, rng: &mut SimRng) -> Duration {
        match *self {
            ServiceDist::Constant(d) => d,
            ServiceDist::Uniform(lo, hi) => rng.uniform_duration(lo, hi),
            ServiceDist::Exponential(mean) => rng.exp_duration(mean),
        }
    }

    /// The distribution mean, used for capacity/utilization arithmetic.
    pub fn mean(&self) -> Duration {
        match *self {
            ServiceDist::Constant(d) => d,
            ServiceDist::Uniform(lo, hi) => {
                Duration::from_nanos((lo.as_nanos() + hi.as_nanos()) / 2)
            }
            ServiceDist::Exponential(mean) => mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let mut gen = ArrivalGen::uniform(1_000_000.0); // 1 per microsecond
        let mut rng = SimRng::new(1);
        let times: Vec<u64> = (0..5)
            .map(|_| gen.next_arrival(&mut rng).unwrap().as_nanos())
            .collect();
        assert_eq!(times, vec![0, 1_000, 2_000, 3_000, 4_000]);
    }

    #[test]
    fn poisson_rate_is_respected() {
        let rate = 250_000.0;
        let mut gen = ArrivalGen::poisson(rate);
        let mut rng = SimRng::new(7);
        let n = 50_000;
        let mut last = Time::ZERO;
        for _ in 0..n {
            last = gen.next_arrival(&mut rng).unwrap();
        }
        let observed_rate = (n - 1) as f64 / last.as_secs_f64();
        assert!(
            (observed_rate - rate).abs() / rate < 0.03,
            "observed {observed_rate}"
        );
    }

    #[test]
    fn zero_rate_yields_nothing() {
        let mut gen = ArrivalGen::poisson(0.0);
        let mut rng = SimRng::new(1);
        assert_eq!(gen.next_arrival(&mut rng), None);
        let mut gen = ArrivalGen::uniform(-5.0);
        assert_eq!(gen.next_arrival(&mut rng), None);
    }

    #[test]
    fn open_loop_stops_at_the_window_and_measures_after_the_warmup() {
        use crate::queue::{drive, EventQueue};
        let (warmup, measure) = (Duration::from_micros(100), Duration::from_micros(400));
        let mut load = OpenLoop::poisson(1_000_000.0, warmup, measure);
        let mut rng = SimRng::new(11);
        let mut q = EventQueue::new();
        load.schedule_next(&mut rng, &mut q, ());
        let (mut arrivals, mut measured) = (0u32, 0u32);
        drive("open loop", &mut q, |now, (), q| {
            load.schedule_next(&mut rng, q, ());
            assert!(now < load.end());
            assert_eq!(load.measured(now), now >= Time::ZERO + warmup);
            arrivals += 1;
            measured += u32::from(load.measured(now));
        });
        assert_eq!(load.end(), Time::from_micros(500));
        // ~1 arrival per microsecond: ~500 in the window, ~400 measured.
        assert!((400..600).contains(&arrivals), "{arrivals}");
        assert!((300..500).contains(&measured), "{measured}");

        // Completions inside the warm-up are discarded by the recorder.
        let mut rec = load.recorder();
        rec.record(Time::ZERO, Time::from_micros(99));
        rec.record(Time::ZERO, Time::from_micros(100));
        assert_eq!((rec.len(), rec.warmup_discarded()), (1, 1));

        // A zero rate schedules nothing.
        let mut idle = OpenLoop::poisson(0.0, warmup, measure);
        idle.schedule_next(&mut rng, &mut q, ());
        assert!(q.is_empty());
    }

    #[test]
    fn mix_proportions_converge() {
        let mix = RequestMix::new(&[(0, 99.5), (1, 0.5)]);
        let mut rng = SimRng::new(3);
        let n = 200_000;
        let scans = (0..n).filter(|_| mix.sample(&mut rng) == 1).count();
        let frac = scans as f64 / n as f64;
        assert!((frac - 0.005).abs() < 0.001, "scan fraction {frac}");
    }

    #[test]
    fn single_class_mix() {
        let mix = RequestMix::single(9);
        let mut rng = SimRng::new(4);
        assert!((0..100).all(|_| mix.sample(&mut rng) == 9));
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn mix_rejects_all_zero_weights() {
        let _ = RequestMix::new(&[(0, 0.0), (1, -1.0)]);
    }

    #[test]
    fn zero_weight_classes_are_never_sampled() {
        let mix = RequestMix::new(&[(0, 0.0), (1, 1.0)]);
        let mut rng = SimRng::new(5);
        assert!((0..100).all(|_| mix.sample(&mut rng) == 1));
    }

    #[test]
    fn service_dists_sample_within_support() {
        let mut rng = SimRng::new(6);
        let c = ServiceDist::Constant(Duration::from_micros(700));
        assert_eq!(c.sample(&mut rng), Duration::from_micros(700));
        assert_eq!(c.mean(), Duration::from_micros(700));

        let u = ServiceDist::Uniform(Duration::from_micros(10), Duration::from_micros(12));
        for _ in 0..1_000 {
            let s = u.sample(&mut rng);
            assert!(s >= Duration::from_micros(10) && s <= Duration::from_micros(12));
        }
        assert_eq!(u.mean(), Duration::from_micros(11));

        let e = ServiceDist::Exponential(Duration::from_micros(50));
        assert_eq!(e.mean(), Duration::from_micros(50));
    }
}
