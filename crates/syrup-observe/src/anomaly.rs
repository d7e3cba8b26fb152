//! Robust per-series anomaly detection: EWMA baseline + MAD z-score.
//!
//! Each series gets a [`SeriesDetector`] holding a short window of
//! recent values. A new observation is scored against the window's
//! median using the median absolute deviation (MAD) as the scale —
//! robust statistics, so a detector that has watched a burst is not
//! blinded by it the way a mean/stdev detector would be. An EWMA of the
//! series rides along in every event as the smoothed baseline.
//!
//! Anomalous observations are *excluded* from the baseline window:
//! a spike cannot teach the detector that spikes are normal, so a
//! sustained excursion keeps firing until the caller resets or the
//! blackbox freezes.
//!
//! Detection is wired into the rest of the stack at one point: the
//! blackbox recorder ([`AnomalyEngine::attach_blackbox`] — an anomaly
//! records an [`crate::blackbox::EventKind::Anomaly`] event and fires
//! the armed [`crate::blackbox::TriggerCause::Anomaly`] trigger,
//! freezing a postmortem that contains its own cause).
//!
//! The tuning fires on a ≥6σ-equivalent deviation after 8 baseline
//! samples — deliberately conservative so ordinary workload jitter stays
//! quiet.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::blackbox::Recorder;
use serde::{Serialize, SerializeStruct, Serializer};

/// Baseline window length (recent non-anomalous values kept).
const WINDOW: usize = 32;
/// Minimum baseline samples before a detector may fire.
const MIN_SAMPLES: usize = 8;
/// EWMA smoothing factor in (0, 1]; higher tracks faster.
const EWMA_ALPHA: f64 = 0.3;
/// |z| at or above which an observation is anomalous.
pub const ANOMALY_Z_THRESHOLD: f64 = 6.0;

/// One structured anomaly: the observation, the robust baseline it
/// broke from, and the score.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyEvent {
    /// The offending series.
    pub series: String,
    /// Virtual time of the observation.
    pub at_ns: u64,
    /// The observed value.
    pub value: f64,
    /// Baseline window median at detection time.
    pub median: f64,
    /// Median absolute deviation of the baseline window.
    pub mad: f64,
    /// Robust z-score of the observation (signed).
    pub z: f64,
    /// EWMA of the series including this observation.
    pub ewma: f64,
}

impl Serialize for AnomalyEvent {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("AnomalyEvent", 7)?;
        s.serialize_field("series", &self.series)?;
        s.serialize_field("at_ns", &self.at_ns)?;
        s.serialize_field("value", &self.value)?;
        s.serialize_field("median", &self.median)?;
        s.serialize_field("mad", &self.mad)?;
        s.serialize_field("z", &self.z)?;
        s.serialize_field("ewma", &self.ewma)?;
        s.end()
    }
}

/// Rolling robust state for one series.
#[derive(Debug, Default)]
pub struct SeriesDetector {
    window: VecDeque<f64>,
    ewma: Option<f64>,
}

impl SeriesDetector {
    /// A fresh detector.
    pub fn new() -> Self {
        SeriesDetector::default()
    }

    /// Scores `value`; returns `(z, median, mad, ewma)` when it is
    /// anomalous, `None` otherwise. Normal values join the baseline
    /// window; anomalous ones only update the EWMA.
    pub fn observe(&mut self, value: f64) -> Option<(f64, f64, f64, f64)> {
        let ewma = match self.ewma {
            Some(prev) => prev + EWMA_ALPHA * (value - prev),
            None => value,
        };
        self.ewma = Some(ewma);

        let verdict = if self.window.len() >= MIN_SAMPLES {
            let mut sorted: Vec<f64> = self.window.iter().copied().collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let median = percentile50(&sorted);
            let mut devs: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
            devs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let mad = percentile50(&devs);
            // 1.4826·MAD ≈ σ for normal data; when the window is flat
            // (MAD ≈ 0) fall back to 5% of the median so a constant
            // series still admits small jitter without firing.
            let scale = 1.4826 * mad;
            let denom = if scale > f64::EPSILON {
                scale
            } else {
                (median.abs() * 0.05).max(1.0)
            };
            let z = (value - median) / denom;
            (z.abs() >= ANOMALY_Z_THRESHOLD).then_some((z, median, mad))
        } else {
            None
        };

        match verdict {
            Some((z, median, mad)) => Some((z, median, mad, ewma)),
            None => {
                if self.window.len() == WINDOW {
                    self.window.pop_front();
                }
                self.window.push_back(value);
                None
            }
        }
    }

    /// Current EWMA baseline, if any observation arrived.
    pub fn ewma(&self) -> Option<f64> {
        self.ewma
    }
}

/// Median of an already-sorted slice (mean of the middle two when even).
fn percentile50(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Per-series anomaly detection over a stream of observations, with
/// optional blackbox wiring.
#[derive(Debug, Default)]
pub struct AnomalyEngine {
    detectors: BTreeMap<String, SeriesDetector>,
    /// Stable small ids for blackbox events: registration order.
    ids: BTreeMap<String, u16>,
    recorder: Recorder,
    fired: u64,
}

impl AnomalyEngine {
    /// An engine with no blackbox attached.
    pub fn new() -> Self {
        AnomalyEngine::default()
    }

    /// Wires detections into the flight recorder: every anomaly records
    /// an `EventKind::Anomaly` event and fires the armed
    /// `TriggerCause::Anomaly` trigger (freezing a postmortem that
    /// contains its own cause).
    pub fn attach_blackbox(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
    }

    /// Total anomalies fired so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Scores one observation of `series` at `at_ns`.
    pub fn observe(&mut self, series: &str, at_ns: u64, value: f64) -> Option<AnomalyEvent> {
        let next_id = self.ids.len().min(u16::MAX as usize) as u16;
        let id = *self.ids.entry(series.to_string()).or_insert(next_id);
        let det = self.detectors.entry(series.to_string()).or_default();
        let (z, median, mad, ewma) = det.observe(value)?;
        self.fired += 1;
        self.recorder.anomaly(
            at_ns,
            id,
            (z.abs() * 100.0).min(f64::from(u32::MAX)) as u32,
            value.max(0.0) as u64,
            median.max(0.0) as u64,
            &format!("series {series} value {value:.1} vs median {median:.1} (z={z:.1})"),
        );
        Some(AnomalyEvent {
            series: series.to_string(),
            at_ns,
            value,
            median,
            mad,
            z,
            ewma,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::{EventKind, Layer, TriggerCause};

    fn feed(engine: &mut AnomalyEngine, series: &str, values: &[f64]) -> Vec<AnomalyEvent> {
        values
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| engine.observe(series, i as u64 * 1_000, v))
            .collect()
    }

    #[test]
    fn steady_series_stays_quiet() {
        let mut engine = AnomalyEngine::new();
        let values: Vec<f64> = (0..64).map(|i| 100.0 + f64::from(i % 7)).collect();
        assert!(feed(&mut engine, "s", &values).is_empty());
        assert_eq!(engine.fired(), 0);
    }

    #[test]
    fn spike_fires_exactly_once_and_carries_scores() {
        let mut engine = AnomalyEngine::new();
        let mut values: Vec<f64> = (0..16).map(|i| 100.0 + f64::from(i % 5)).collect();
        values.push(5_000.0); // the spike
        values.extend((0..8).map(|i| 100.0 + f64::from(i % 5)));
        let events = feed(&mut engine, "shard1/events", &values);
        assert_eq!(events.len(), 1, "{events:?}");
        let e = &events[0];
        assert_eq!(e.series, "shard1/events");
        assert_eq!(e.value, 5_000.0);
        assert!(e.z > ANOMALY_Z_THRESHOLD, "z={}", e.z);
        assert!((e.median - 102.0).abs() < 3.0, "median={}", e.median);
    }

    #[test]
    fn sustained_excursion_keeps_firing() {
        // The spike must not poison its own baseline: a level shift
        // fires on every sample, it does not become the new normal.
        let mut engine = AnomalyEngine::new();
        let mut values: Vec<f64> = vec![50.0; 16];
        values.extend(std::iter::repeat_n(9_000.0, 5));
        let events = feed(&mut engine, "s", &values);
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn flat_window_tolerates_small_jitter() {
        let mut engine = AnomalyEngine::new();
        let mut values: Vec<f64> = vec![100.0; 16]; // MAD = 0
        values.push(103.0); // within the 5%-of-median fallback scale
        assert!(feed(&mut engine, "s", &values).is_empty());
    }

    #[test]
    fn too_few_samples_never_fire() {
        // One short of the baseline minimum: even a huge value is quiet.
        let mut engine = AnomalyEngine::new();
        let mut values: Vec<f64> = (0..MIN_SAMPLES - 1).map(|i| i as f64).collect();
        values.push(1_000_000.0);
        assert!(feed(&mut engine, "s", &values).is_empty());
    }

    #[test]
    fn anomaly_triggers_blackbox_freeze_with_own_cause() {
        let recorder = Recorder::new();
        let mut engine = AnomalyEngine::new();
        engine.attach_blackbox(&recorder);
        let mut values: Vec<f64> = (0..12).map(|i| 200.0 + f64::from(i % 3)).collect();
        values.push(50_000.0);
        let events = feed(&mut engine, "sim/events", &values);
        assert_eq!(events.len(), 1);
        assert!(recorder.frozen());
        let trig = recorder.trigger().expect("freeze has a trigger");
        assert_eq!(trig.cause, TriggerCause::Anomaly);
        assert!(trig.detail.contains("sim/events"), "{}", trig.detail);
        // The frozen SLO ring contains the anomaly event itself.
        let slo = recorder.events(Layer::Slo);
        assert_eq!(slo.len(), 1);
        assert_eq!(slo[0].kind, EventKind::Anomaly);
        assert_eq!(slo[0].w0, 50_000);
    }

    #[test]
    fn events_serialize() {
        let mut engine = AnomalyEngine::new();
        let mut values: Vec<f64> = vec![10.0; 12];
        values.push(99_999.0);
        let events = feed(&mut engine, "a/b", &values);
        let json = serde::json::to_string(&events[0]).unwrap();
        assert!(json.contains("\"series\":\"a/b\""), "{json}");
        assert!(json.contains("\"z\":"), "{json}");
    }
}
