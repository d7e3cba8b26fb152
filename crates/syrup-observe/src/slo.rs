//! SLO monitoring: sliding-window percentile rules over telemetry
//! histograms, emitting structured burn events.

use std::collections::VecDeque;

use crate::blackbox::Recorder;
use crate::telemetry::Snapshot;
use serde::{Serialize, SerializeStruct, Serializer};

/// A threshold rule over one histogram's quantile.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Histogram name in the registry (e.g. `vm/run_cycles`).
    pub metric: String,
    /// Quantile to track, in `[0, 1]` (e.g. `0.99`).
    pub quantile: f64,
    /// Burn when the tracked quantile exceeds this value.
    pub threshold: u64,
}

/// Sliding-window length of every rule, in observations.
pub const SLO_WINDOW: usize = 16;

impl SloRule {
    /// A rule over [`SLO_WINDOW`] observations.
    pub fn new(metric: impl Into<String>, quantile: f64, threshold: u64) -> Self {
        SloRule {
            metric: metric.into(),
            quantile,
            threshold,
        }
    }
}

#[derive(Debug)]
struct RuleState {
    rule: SloRule,
    recent: VecDeque<u64>,
    consecutive: u32,
}

impl RuleState {
    fn windowed_mean(&self) -> f64 {
        if self.recent.is_empty() {
            0.0
        } else {
            self.recent.iter().sum::<u64>() as f64 / self.recent.len() as f64
        }
    }
}

/// A structured burn event: one observation found a rule's quantile
/// over its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnEvent {
    /// The rule's histogram.
    pub metric: String,
    /// The tracked quantile.
    pub quantile: f64,
    /// The observed quantile value.
    pub value: u64,
    /// Mean of the sliding window including this observation.
    pub windowed_mean: f64,
    /// The rule's threshold.
    pub threshold: u64,
    /// Observation time (virtual ns).
    pub at_ns: u64,
    /// Consecutive over-threshold observations, including this one.
    pub consecutive: u32,
}

impl Serialize for BurnEvent {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("BurnEvent", 7)?;
        s.serialize_field("metric", &self.metric)?;
        s.serialize_field("quantile", &self.quantile)?;
        s.serialize_field("value", &self.value)?;
        s.serialize_field("windowed_mean", &self.windowed_mean)?;
        s.serialize_field("threshold", &self.threshold)?;
        s.serialize_field("at_ns", &self.at_ns)?;
        s.serialize_field("consecutive", &self.consecutive)?;
        s.end()
    }
}

/// A rule's standing after the most recent observation.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The rule's histogram.
    pub metric: String,
    /// The tracked quantile.
    pub quantile: f64,
    /// The rule's threshold.
    pub threshold: u64,
    /// Most recent observed value (absent before any observation or
    /// when the metric is missing from the snapshot).
    pub value: Option<u64>,
    /// Mean over the sliding window.
    pub windowed_mean: f64,
    /// Whether the most recent observation was over threshold.
    pub burning: bool,
}

impl Serialize for SloStatus {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("SloStatus", 6)?;
        s.serialize_field("metric", &self.metric)?;
        s.serialize_field("quantile", &self.quantile)?;
        s.serialize_field("threshold", &self.threshold)?;
        s.serialize_field("value", &self.value)?;
        s.serialize_field("windowed_mean", &self.windowed_mean)?;
        s.serialize_field("burning", &self.burning)?;
        s.end()
    }
}

/// Tracks a set of [`SloRule`]s against successive registry snapshots.
#[derive(Debug, Default)]
pub struct SloMonitor {
    rules: Vec<RuleState>,
    recorder: Recorder,
}

impl SloMonitor {
    /// An empty monitor.
    pub fn new() -> Self {
        SloMonitor::default()
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: SloRule) -> Self {
        self.add_rule(rule);
        self
    }

    /// Adds a rule.
    pub fn add_rule(&mut self, rule: SloRule) {
        self.rules.push(RuleState {
            rule,
            recent: VecDeque::new(),
            consecutive: 0,
        });
    }

    /// Streams burn events into the flight recorder (rule index =
    /// position in rule-registration order).
    pub fn attach_blackbox(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
    }

    /// Observes `snapshot` at `now_ns`: evaluates every rule's quantile,
    /// advances its sliding window, and returns the burn events this
    /// observation produced. Metrics missing from the snapshot (or with
    /// no samples yet) are skipped without resetting their windows.
    pub fn observe(&mut self, now_ns: u64, snapshot: &Snapshot) -> Vec<BurnEvent> {
        let mut burns = Vec::new();
        for (idx, rs) in self.rules.iter_mut().enumerate() {
            let Some(hist) = snapshot.histogram(&rs.rule.metric) else {
                continue;
            };
            if hist.count() == 0 {
                continue;
            }
            let value = hist.quantile(rs.rule.quantile);
            rs.recent.push_back(value);
            while rs.recent.len() > SLO_WINDOW {
                rs.recent.pop_front();
            }
            if value > rs.rule.threshold {
                rs.consecutive += 1;
                if self.recorder.is_enabled() {
                    self.recorder.slo_burn(
                        now_ns,
                        idx as u16,
                        value,
                        rs.rule.threshold,
                        &format!(
                            "{} q{} = {value} > {}",
                            rs.rule.metric, rs.rule.quantile, rs.rule.threshold
                        ),
                    );
                }
                burns.push(BurnEvent {
                    metric: rs.rule.metric.clone(),
                    quantile: rs.rule.quantile,
                    value,
                    windowed_mean: rs.windowed_mean(),
                    threshold: rs.rule.threshold,
                    at_ns: now_ns,
                    consecutive: rs.consecutive,
                });
            } else {
                rs.consecutive = 0;
            }
        }
        burns
    }

    /// Each rule's standing after the most recent observation.
    pub fn statuses(&self) -> Vec<SloStatus> {
        self.rules
            .iter()
            .map(|rs| SloStatus {
                metric: rs.rule.metric.clone(),
                quantile: rs.rule.quantile,
                threshold: rs.rule.threshold,
                value: rs.recent.back().copied(),
                windowed_mean: rs.windowed_mean(),
                burning: rs.consecutive > 0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Registry;

    fn snapshot_with(metric: &str, values: &[u64]) -> Snapshot {
        let registry = Registry::new();
        let h = registry.histogram(metric);
        for &v in values {
            h.record(v);
        }
        registry.snapshot()
    }

    #[test]
    fn burns_when_quantile_exceeds_threshold() {
        let mut mon = SloMonitor::new().with_rule(SloRule::new("vm/run_cycles", 0.99, 100));
        // Healthy: everything under threshold.
        let burns = mon.observe(1_000, &snapshot_with("vm/run_cycles", &[50; 100]));
        assert!(burns.is_empty());
        assert!(!mon.statuses()[0].burning);
        // The tail blows past the threshold (5% of samples at 4000).
        let mut degraded = vec![50u64; 95];
        degraded.extend([4_000; 5]);
        let burns = mon.observe(2_000, &snapshot_with("vm/run_cycles", &degraded));
        assert_eq!(burns.len(), 1);
        let b = &burns[0];
        assert_eq!(b.metric, "vm/run_cycles");
        assert!(b.value > 100);
        assert_eq!(b.at_ns, 2_000);
        assert_eq!(b.consecutive, 1);
        // Second consecutive burn increments the streak.
        let burns = mon.observe(3_000, &snapshot_with("vm/run_cycles", &degraded));
        assert_eq!(burns[0].consecutive, 2);
        assert!(mon.statuses()[0].burning);
        // Recovery resets it.
        let burns = mon.observe(4_000, &snapshot_with("vm/run_cycles", &[50]));
        assert!(burns.is_empty());
        assert!(!mon.statuses()[0].burning);
    }

    #[test]
    fn window_slides() {
        let mut mon = SloMonitor::new().with_rule(SloRule::new("m", 0.5, u64::MAX));
        // One observation past the window: the first value leaves it.
        for v in 1..=SLO_WINDOW as u64 + 1 {
            mon.observe(0, &snapshot_with("m", &[v]));
        }
        let status = &mon.statuses()[0];
        assert_eq!(status.value, Some(SLO_WINDOW as u64 + 1));
        // The mean of 2 ..= 17, not of 1 ..= 17.
        assert_eq!(status.windowed_mean, 9.5);
    }

    #[test]
    fn missing_metric_is_skipped() {
        let mut mon = SloMonitor::new().with_rule(SloRule::new("absent", 0.99, 1));
        let burns = mon.observe(0, &snapshot_with("other", &[10]));
        assert!(burns.is_empty());
        assert_eq!(mon.statuses()[0].value, None);
    }

    #[test]
    fn burns_flow_into_the_flight_recorder() {
        use crate::blackbox::{EventKind, Layer, Recorder};
        let rec = Recorder::new();
        let mut mon = SloMonitor::new()
            .with_rule(SloRule::new("quiet", 0.5, u64::MAX))
            .with_rule(SloRule::new("m", 0.99, 100));
        mon.attach_blackbox(&rec);
        mon.observe(7_000, &snapshot_with("m", &[5_000]));
        let events = rec.events(Layer::Slo);
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.kind, EventKind::SloBurn);
        assert_eq!(e.at_ns, 7_000);
        assert_eq!(e.id, 1, "rule index follows registration order");
        assert_eq!(e.w0, 5_000);
        assert_eq!(e.w1, 100);
        // An armed recorder freezes on the burn.
        assert!(rec.frozen());
    }

    #[test]
    fn burn_event_serializes_to_json() {
        let mut mon = SloMonitor::new().with_rule(SloRule::new("m", 0.99, 1));
        let burns = mon.observe(7, &snapshot_with("m", &[500]));
        let json = serde::json::to_string(&burns).unwrap();
        let value = serde::json::from_str(&json).expect("burns parse");
        let arr = value.as_array().unwrap();
        assert_eq!(arr[0].get("metric").and_then(|v| v.as_str()), Some("m"));
        assert_eq!(arr[0].get("at_ns").and_then(|v| v.as_u64()), Some(7));
    }
}
