//! Executor pressure: queue imbalance, time-in-state, starvation.

use serde::{Serialize, SerializeStruct, Serializer};

use crate::profiler::{ProfState, ThreadState, STARVATION_NS};

/// Per-queue depth accumulation for one component.
#[derive(Debug, Default)]
pub(crate) struct QueueSeries {
    pub(crate) samples: u64,
    pub(crate) sum: Vec<u64>,
    pub(crate) max: Vec<u64>,
}

impl QueueSeries {
    pub(crate) fn push(&mut self, _now_ns: u64, depths: &[usize]) {
        if depths.len() > self.sum.len() {
            self.sum.resize(depths.len(), 0);
            self.max.resize(depths.len(), 0);
        }
        self.samples += 1;
        for (q, &d) in depths.iter().enumerate() {
            self.sum[q] += d as u64;
            self.max[q] = self.max[q].max(d as u64);
        }
    }

    /// Mean depth per queue over the series, and the largest depth any
    /// queue reached.
    fn mean_depths(&self) -> (Vec<f64>, u64) {
        let means = self
            .sum
            .iter()
            .map(|&s| {
                if self.samples == 0 {
                    0.0
                } else {
                    s as f64 / self.samples as f64
                }
            })
            .collect();
        (means, self.max.iter().copied().max().unwrap_or(0))
    }
}

/// Per-thread time-in-state accumulation.
#[derive(Debug)]
pub(crate) struct ThreadAgg {
    state: ThreadState,
    since_ns: u64,
    pub(crate) runnable_ns: u64,
    pub(crate) running_ns: u64,
    pub(crate) blocked_ns: u64,
}

impl ThreadAgg {
    pub(crate) fn new(state: ThreadState, now_ns: u64) -> Self {
        ThreadAgg {
            state,
            since_ns: now_ns,
            runnable_ns: 0,
            running_ns: 0,
            blocked_ns: 0,
        }
    }

    /// Accumulates the elapsed interval into the previous state and
    /// switches to `state`. Returns the runnable interval when it ends
    /// in a dispatch (runnable → running) after exceeding
    /// [`STARVATION_NS`].
    pub(crate) fn transition(&mut self, state: ThreadState, now_ns: u64) -> Option<u64> {
        let elapsed = now_ns.saturating_sub(self.since_ns);
        let was = self.state;
        match was {
            ThreadState::Runnable => self.runnable_ns += elapsed,
            ThreadState::Running => self.running_ns += elapsed,
            ThreadState::Blocked => self.blocked_ns += elapsed,
        }
        self.state = state;
        self.since_ns = now_ns;
        if was == ThreadState::Runnable && state == ThreadState::Running && elapsed > STARVATION_NS
        {
            Some(elapsed)
        } else {
            None
        }
    }
}

/// Queue-depth imbalance for one component (`nic`, `sock`, …).
#[derive(Debug, Clone, PartialEq)]
pub struct QueuePressure {
    /// Component name.
    pub component: String,
    /// Number of queues observed.
    pub queues: usize,
    /// Depth snapshots recorded.
    pub samples: u64,
    /// Mean depth per queue over the series.
    pub mean_depths: Vec<f64>,
    /// Largest instantaneous depth seen on any queue.
    pub max_depth: u64,
    /// Hottest queue's mean depth over the all-queue mean (1.0 =
    /// perfectly balanced; Fig. 7's imbalance signal).
    pub max_mean_ratio: f64,
    /// Gini coefficient of the mean depths (0 = equal, →1 = one queue
    /// holds everything).
    pub gini: f64,
}

impl Serialize for QueuePressure {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("QueuePressure", 7)?;
        s.serialize_field("component", &self.component)?;
        s.serialize_field("queues", &(self.queues as u64))?;
        s.serialize_field("samples", &self.samples)?;
        s.serialize_field("mean_depths", &self.mean_depths)?;
        s.serialize_field("max_depth", &self.max_depth)?;
        s.serialize_field("max_mean_ratio", &self.max_mean_ratio)?;
        s.serialize_field("gini", &self.gini)?;
        s.end()
    }
}

/// Rank-band occupancy for one ranked component: who is waiting, by
/// priority. A fat low band (band 0 = most urgent) with a starved tail
/// band is the signature of priority inversion pressure.
#[derive(Debug, Clone, PartialEq)]
pub struct RankBandPressure {
    /// Component name.
    pub component: String,
    /// Band snapshots recorded.
    pub samples: u64,
    /// Mean occupancy per band over the series.
    pub mean_depths: Vec<f64>,
    /// Largest instantaneous occupancy seen in any band.
    pub max_depth: u64,
}

impl Serialize for RankBandPressure {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("RankBandPressure", 4)?;
        s.serialize_field("component", &self.component)?;
        s.serialize_field("samples", &self.samples)?;
        s.serialize_field("mean_depths", &self.mean_depths)?;
        s.serialize_field("max_depth", &self.max_depth)?;
        s.end()
    }
}

/// One thread's time-in-state totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPressure {
    /// Thread id.
    pub tid: u64,
    /// Total ns spent runnable-but-unserved.
    pub runnable_ns: u64,
    /// Total ns on a core.
    pub running_ns: u64,
    /// Total ns blocked.
    pub blocked_ns: u64,
    /// Whether any single runnable interval exceeded the starvation
    /// threshold.
    pub starved: bool,
}

impl Serialize for ThreadPressure {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("ThreadPressure", 5)?;
        s.serialize_field("tid", &self.tid)?;
        s.serialize_field("runnable_ns", &self.runnable_ns)?;
        s.serialize_field("running_ns", &self.running_ns)?;
        s.serialize_field("blocked_ns", &self.blocked_ns)?;
        s.serialize_field("starved", &self.starved)?;
        s.end()
    }
}

/// A runnable interval that exceeded the starvation threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarvationEvent {
    /// The starved thread.
    pub tid: u64,
    /// How long it sat runnable before being served.
    pub runnable_ns: u64,
    /// When it was finally dispatched (virtual ns).
    pub at_ns: u64,
}

impl Serialize for StarvationEvent {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("StarvationEvent", 3)?;
        s.serialize_field("tid", &self.tid)?;
        s.serialize_field("runnable_ns", &self.runnable_ns)?;
        s.serialize_field("at_ns", &self.at_ns)?;
        s.end()
    }
}

/// Scheduling-latency summary (decision commit → thread placed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub samples: u64,
    /// Mean latency, ns.
    pub mean_ns: f64,
    /// Worst latency, ns.
    pub max_ns: u64,
}

impl Serialize for LatencySummary {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("LatencySummary", 3)?;
        s.serialize_field("samples", &self.samples)?;
        s.serialize_field("mean_ns", &self.mean_ns)?;
        s.serialize_field("max_ns", &self.max_ns)?;
        s.end()
    }
}

/// The executor-pressure report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PressureReport {
    /// Per-component queue imbalance, in component-name order.
    pub components: Vec<QueuePressure>,
    /// Per-component rank-band occupancy (ranked executors only; empty
    /// when every executor is FIFO), in component-name order.
    pub rank_bands: Vec<RankBandPressure>,
    /// Per-thread time-in-state, in tid order.
    pub threads: Vec<ThreadPressure>,
    /// Scheduling-latency summary.
    pub sched_latency: LatencySummary,
    /// Starvation events, in occurrence order.
    pub starvation: Vec<StarvationEvent>,
}

impl Serialize for PressureReport {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("PressureReport", 5)?;
        s.serialize_field("components", &self.components)?;
        s.serialize_field("rank_bands", &self.rank_bands)?;
        s.serialize_field("threads", &self.threads)?;
        s.serialize_field("sched_latency", &self.sched_latency)?;
        s.serialize_field("starvation", &self.starvation)?;
        s.end()
    }
}

/// Gini coefficient of a non-negative series; 0 for empty/all-zero.
/// 0 = perfectly even, →1 = concentrated on one element. Used for queue
/// imbalance here and for cross-shard event-count imbalance by
/// `syrup_sim::ingest_windows` (O(n²) pairwise — fine at queue/shard counts).
pub fn gini(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let mut diff_sum = 0.0;
    for a in xs {
        for b in xs {
            diff_sum += (a - b).abs();
        }
    }
    diff_sum / (2.0 * (n * n) as f64 * mean)
}

pub(crate) fn build_report(st: &ProfState) -> PressureReport {
    let components = st
        .queues
        .iter()
        .map(|(component, series)| {
            let (mean_depths, max_depth) = series.mean_depths();
            let overall = if mean_depths.is_empty() {
                0.0
            } else {
                mean_depths.iter().sum::<f64>() / mean_depths.len() as f64
            };
            let hottest = mean_depths.iter().cloned().fold(0.0_f64, f64::max);
            QueuePressure {
                component: component.clone(),
                queues: series.sum.len(),
                samples: series.samples,
                max_depth,
                max_mean_ratio: if overall > 0.0 {
                    hottest / overall
                } else {
                    0.0
                },
                gini: gini(&mean_depths),
                mean_depths,
            }
        })
        .collect();

    let rank_bands = st
        .rank_bands
        .iter()
        .map(|(component, series)| {
            let (mean_depths, max_depth) = series.mean_depths();
            RankBandPressure {
                component: component.clone(),
                samples: series.samples,
                max_depth,
                mean_depths,
            }
        })
        .collect();

    let threads = st
        .threads
        .iter()
        .map(|(&tid, agg)| ThreadPressure {
            tid,
            runnable_ns: agg.runnable_ns,
            running_ns: agg.running_ns,
            blocked_ns: agg.blocked_ns,
            starved: st.starvation.iter().any(|e| e.tid == tid),
        })
        .collect();

    let (count, sum, max) = st.sched_latency;
    PressureReport {
        components,
        rank_bands,
        threads,
        sched_latency: LatencySummary {
            samples: count,
            mean_ns: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            max_ns: max,
        },
        starvation: st.starvation.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiler;

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
        assert!(gini(&[1.0, 1.0, 1.0]).abs() < 1e-12);
        // One queue holds everything: G = (n-1)/n.
        let g = gini(&[12.0, 0.0, 0.0, 0.0]);
        assert!((g - 0.75).abs() < 1e-12, "{g}");
    }

    #[test]
    fn queue_imbalance_is_measured() {
        let p = Profiler::new();
        p.queue_depths("nic", 0, &[4, 0, 0, 0]);
        p.queue_depths("nic", 100, &[8, 0, 0, 0]);
        p.queue_depths("sock", 0, &[1, 1]);
        let report = p.pressure();
        assert_eq!(report.components.len(), 2);
        let nic = &report.components[0];
        assert_eq!(nic.component, "nic");
        assert_eq!(nic.samples, 2);
        assert_eq!(nic.max_depth, 8);
        assert_eq!(nic.mean_depths, vec![6.0, 0.0, 0.0, 0.0]);
        // One hot queue out of four: ratio 4, Gini 0.75.
        assert!((nic.max_mean_ratio - 4.0).abs() < 1e-12);
        assert!((nic.gini - 0.75).abs() < 1e-12);
        let sock = &report.components[1];
        assert!((sock.max_mean_ratio - 1.0).abs() < 1e-12);
        assert!(sock.gini.abs() < 1e-12);
    }

    #[test]
    fn time_in_state_and_starvation() {
        use crate::profile::ThreadState::{Blocked, Runnable, Running};
        let p = Profiler::new();
        // Thread 1: runnable exactly the threshold (not starved), runs
        // 2000ns, blocks.
        p.thread_state(1, Runnable, 0);
        p.thread_state(1, Running, STARVATION_NS);
        p.thread_state(1, Blocked, STARVATION_NS + 2_000);
        // Thread 2: runnable 1ns past the threshold before dispatch — starved.
        p.thread_state(2, Runnable, 0);
        p.thread_state(2, Running, STARVATION_NS + 1);
        p.sched_latency(500);
        p.sched_latency(1_500);
        let report = p.pressure();
        assert_eq!(report.threads.len(), 2);
        let t1 = &report.threads[0];
        assert_eq!(
            (t1.runnable_ns, t1.running_ns, t1.blocked_ns),
            (STARVATION_NS, 2_000, 0)
        );
        assert!(!t1.starved);
        let t2 = &report.threads[1];
        assert_eq!(t2.runnable_ns, STARVATION_NS + 1);
        assert!(t2.starved);
        assert_eq!(report.starvation.len(), 1);
        assert_eq!(report.starvation[0].runnable_ns, STARVATION_NS + 1);
        assert_eq!(report.sched_latency.samples, 2);
        assert!((report.sched_latency.mean_ns - 1_000.0).abs() < 1e-12);
        assert_eq!(report.sched_latency.max_ns, 1_500);
    }

    #[test]
    fn starvation_flags_mirror_into_the_flight_recorder() {
        use crate::blackbox::{EventKind, Layer, Recorder, TriggerCause};
        use crate::profile::ThreadState::{Runnable, Running};
        let p = Profiler::new();
        let rec = Recorder::new();
        p.attach_blackbox(&rec);
        // Fast dispatch: no flag, recorder untouched.
        p.thread_state(1, Runnable, 0);
        p.thread_state(1, Running, 500);
        assert!(rec.events(Layer::Ghost).is_empty());
        // Starved dispatch: event recorded, starvation trigger fires.
        p.thread_state(2, Runnable, 0);
        p.thread_state(2, Running, 5 * STARVATION_NS);
        let events = rec.events(Layer::Ghost);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Starvation);
        assert_eq!(events[0].w0, 2);
        assert_eq!(events[0].w1, 5 * STARVATION_NS);
        assert_eq!(rec.trigger().unwrap().cause, TriggerCause::Starvation);
    }

    #[test]
    fn rank_band_occupancy_is_reported() {
        let p = Profiler::new();
        p.queue_rank_bands("sock", 0, &[4, 2, 0, 0]);
        p.queue_rank_bands("sock", 100, &[0, 2, 2, 0]);
        let report = p.pressure();
        assert_eq!(report.rank_bands.len(), 1);
        let bands = &report.rank_bands[0];
        assert_eq!(bands.component, "sock");
        assert_eq!(bands.samples, 2);
        assert_eq!(bands.mean_depths, vec![2.0, 2.0, 1.0, 0.0]);
        assert_eq!(bands.max_depth, 4);
        // FIFO-only runs never sample bands: the section stays empty.
        let fifo_only = Profiler::new();
        fifo_only.queue_depths("nic", 0, &[1]);
        assert!(fifo_only.pressure().rank_bands.is_empty());
    }

    #[test]
    fn pressure_report_serializes_to_json() {
        let p = Profiler::new();
        p.queue_depths("nic", 0, &[3, 1]);
        let json = serde::json::to_string(&p.pressure()).unwrap();
        let value = serde::json::from_str(&json).expect("pressure parses");
        let comps = value.get("components").and_then(|v| v.as_array()).unwrap();
        assert_eq!(comps.len(), 1);
        assert_eq!(
            comps[0].get("component").and_then(|v| v.as_str()),
            Some("nic")
        );
        assert!(value.get("sched_latency").is_some());
        assert!(value.get("rank_bands").and_then(|v| v.as_array()).is_some());
    }
}
