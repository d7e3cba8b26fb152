//! The fixed-capacity ring time-series store.
//!
//! A [`Scope`] is to time series what `crate::telemetry::Registry` is to
//! instantaneous metrics: a shared sink (clone = handle) holding one
//! bounded ring of `(timestamp, value)` points per named series. When a
//! ring fills, the oldest point is evicted and counted — exactly the
//! overwrite-oldest discipline the blackbox event rings use, so a scope
//! attached for days holds the most recent `capacity` observations of
//! every series with exact drop accounting.
//!
//! Cost contract: a [`Scope::disabled`] scope hands out disabled
//! [`SeriesHandle`]s whose `record` is a single `Option` branch, and a
//! disabled [`crate::scope::Sampler`]'s `tick` is the same — enforced by
//! `cargo bench -p bench --bench scope` under the workspace-wide ≤5ns
//! budget.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Serialize, SerializeStruct, Serializer};

/// Default per-series ring capacity (points retained).
pub const DEFAULT_SERIES_CAPACITY: usize = 512;

/// One observation: a virtual-nanosecond timestamp and a value. Values
/// are `f64` so one store holds counts, rates, ratios, and Gini
/// coefficients alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Observation time, virtual nanoseconds. Monotone within a series
    /// (the store clamps backwards timestamps forward).
    pub at_ns: u64,
    /// The observed value.
    pub value: f64,
}

impl Serialize for Point {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Point", 2)?;
        s.serialize_field("at_ns", &self.at_ns)?;
        s.serialize_field("value", &self.value)?;
        s.end()
    }
}

/// A point-in-time copy of one series: its retained window plus exact
/// eviction accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// The series name.
    pub name: String,
    /// Retained points, oldest first.
    pub points: Vec<Point>,
    /// Points evicted to keep the ring bounded (`recorded - retained`).
    pub dropped: u64,
}

impl SeriesSnapshot {
    /// The most recent point, if any.
    pub fn last(&self) -> Option<Point> {
        self.points.last().copied()
    }

    /// Total points ever recorded into this series.
    pub fn recorded(&self) -> u64 {
        self.points.len() as u64 + self.dropped
    }
}

impl Serialize for SeriesSnapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("SeriesSnapshot", 3)?;
        s.serialize_field("name", &self.name)?;
        s.serialize_field("points", &self.points)?;
        s.serialize_field("dropped", &self.dropped)?;
        s.end()
    }
}

#[derive(Debug)]
struct SeriesRing {
    points: VecDeque<Point>,
    capacity: usize,
    dropped: u64,
    last_ns: u64,
}

impl SeriesRing {
    fn new(capacity: usize) -> Self {
        SeriesRing {
            points: VecDeque::with_capacity(capacity.min(64)),
            capacity,
            dropped: 0,
            last_ns: 0,
        }
    }

    fn push(&mut self, at_ns: u64, value: f64) {
        // Series timestamps are monotone: a point stamped before the
        // previous one (e.g. an out-of-order shard merge) is clamped
        // forward rather than corrupting the time axis.
        let at_ns = at_ns.max(self.last_ns);
        self.last_ns = at_ns;
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back(Point { at_ns, value });
    }
}

#[derive(Debug)]
struct ScopeInner {
    capacity: usize,
    series: Mutex<BTreeMap<String, Arc<Mutex<SeriesRing>>>>,
}

/// The shared time-series store handle. Cloning shares the underlying
/// rings (handle semantics, like `Registry` and `Recorder`); a
/// [`Scope::disabled`] scope makes every record site a single branch.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    inner: Option<Arc<ScopeInner>>,
}

impl Scope {
    /// An enabled scope with the default per-series ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SERIES_CAPACITY)
    }

    /// An enabled scope whose series rings retain `capacity` points
    /// each (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Scope {
            inner: Some(Arc::new(ScopeInner {
                capacity: capacity.max(1),
                series: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A disabled scope: all handles are no-ops, snapshots are empty.
    pub fn disabled() -> Self {
        Scope { inner: None }
    }

    /// Whether points are actually stored.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or fetches) the named series and returns its handle.
    /// Registration takes a short lock; every `record` through the
    /// handle locks only that series' ring.
    pub fn series(&self, name: &str) -> SeriesHandle {
        SeriesHandle {
            inner: self.inner.as_ref().map(|s| {
                Arc::clone(
                    s.series
                        .lock()
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(Mutex::new(SeriesRing::new(s.capacity)))),
                )
            }),
        }
    }

    /// Names of every registered series, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |s| s.series.lock().keys().cloned().collect())
    }

    /// Snapshot of one series, if registered.
    pub fn get(&self, name: &str) -> Option<SeriesSnapshot> {
        let inner = self.inner.as_ref()?;
        let ring = Arc::clone(inner.series.lock().get(name)?);
        let ring = ring.lock();
        Some(SeriesSnapshot {
            name: name.to_string(),
            points: ring.points.iter().copied().collect(),
            dropped: ring.dropped,
        })
    }

    /// Snapshot of every series, sorted by name. Disabled scopes
    /// snapshot as empty.
    pub fn snapshot_all(&self) -> Vec<SeriesSnapshot> {
        self.names()
            .iter()
            .filter_map(|name| self.get(name))
            .collect()
    }
}

/// Lock-cheap handle to one registered series; no-op when disabled.
#[derive(Debug, Clone, Default)]
pub struct SeriesHandle {
    inner: Option<Arc<Mutex<SeriesRing>>>,
}

impl SeriesHandle {
    /// A permanently disabled handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Appends one point. A single branch when disabled.
    #[inline]
    pub fn record(&self, at_ns: u64, value: f64) {
        let Some(inner) = &self.inner else { return };
        Self::record_slow(inner, at_ns, value);
    }

    #[cold]
    fn record_slow(inner: &Mutex<SeriesRing>, at_ns: u64, value: f64) {
        inner.lock().push(at_ns, value);
    }

    /// Retained point count (0 when disabled).
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.lock().points.len())
    }

    /// Whether the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disabled_scope_is_inert() {
        let scope = Scope::disabled();
        let s = scope.series("x");
        s.record(1, 2.0);
        assert!(!scope.is_enabled());
        assert!(s.is_empty());
        assert!(scope.names().is_empty());
        assert!(scope.snapshot_all().is_empty());
    }

    #[test]
    fn handles_share_series_by_name() {
        let scope = Scope::new();
        let a = scope.series("shard0/events");
        let b = scope.series("shard0/events");
        a.record(10, 1.0);
        b.record(20, 2.0);
        let snap = scope.get("shard0/events").unwrap();
        assert_eq!(snap.points.len(), 2);
        assert_eq!(snap.last().unwrap().value, 2.0);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn eviction_keeps_newest_and_counts_drops() {
        let scope = Scope::with_capacity(3);
        let s = scope.series("s");
        for i in 0..10u64 {
            s.record(i * 100, i as f64);
        }
        let snap = scope.get("s").unwrap();
        assert_eq!(snap.points.len(), 3);
        assert_eq!(snap.dropped, 7);
        assert_eq!(snap.recorded(), 10);
        let values: Vec<f64> = snap.points.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn backwards_timestamps_clamp_forward() {
        let scope = Scope::new();
        let s = scope.series("s");
        s.record(1_000, 1.0);
        s.record(400, 2.0); // behind the series clock
        let snap = scope.get("s").unwrap();
        assert_eq!(snap.points[1].at_ns, 1_000);
    }

    #[test]
    fn snapshot_serializes() {
        let scope = Scope::new();
        scope.series("a/b").record(5, 1.5);
        let json = serde::json::to_string(&scope.snapshot_all()).unwrap();
        assert!(json.contains("\"name\":\"a/b\""), "{json}");
        assert!(json.contains("\"at_ns\":5"), "{json}");
    }

    proptest! {
        /// Any push sequence into any capacity: the ring retains the
        /// newest `capacity` values, drop accounting is exact, and
        /// timestamps are non-decreasing.
        #[test]
        fn ring_invariants(
            capacity in 1usize..16,
            pushes in proptest::collection::vec((0u64..10_000, -100i64..100), 0..64),
        ) {
            let scope = Scope::with_capacity(capacity);
            let s = scope.series("p");
            for &(at, v) in &pushes {
                s.record(at, v as f64);
            }
            let snap = scope.get("p").unwrap();
            let retained = pushes.len().min(capacity);
            prop_assert_eq!(snap.points.len(), retained);
            prop_assert_eq!(snap.dropped, (pushes.len() - retained) as u64);
            prop_assert_eq!(snap.recorded(), pushes.len() as u64);
            // Newest-kept: values match the tail of the push sequence.
            let tail: Vec<f64> = pushes[pushes.len() - retained..]
                .iter()
                .map(|&(_, v)| v as f64)
                .collect();
            let got: Vec<f64> = snap.points.iter().map(|p| p.value).collect();
            prop_assert_eq!(got, tail);
            // Monotonic time axis.
            for pair in snap.points.windows(2) {
                prop_assert!(pair[0].at_ns <= pair[1].at_ns);
            }
        }
    }
}
