//! Periodic registry-delta capture into the time-series store.
//!
//! A [`Sampler`] turns the point-in-time telemetry registry into
//! continuous series: at a configurable virtual-time cadence it brings
//! its running registry [`Snapshot`] up to date with
//! [`Registry::advance`], which returns the [`Snapshot::delta`] against
//! the previous one (the compact invertible delta), and records each
//! moving instrument as one point per tick — counter *increments*,
//! gauge *levels*, and histogram *sample-count increments* — so rates
//! and levels read directly off the rings without post-processing. A
//! tick copies no instrument name it has seen before: the snapshot is
//! updated in place and each series handle is kept by name.
//!
//! The sampling site is a ~zero-cost guard when the scope is disabled:
//! [`Sampler::tick`] is a single branch before any clock comparison, in
//! line with the workspace ≤5ns disabled-site contract (gated by
//! `bench --bench scope`).

use std::collections::BTreeMap;

use crate::telemetry::{Registry, Snapshot, SnapshotDelta};

use crate::store::{Scope, SeriesHandle};

/// Default sampling cadence: every 100µs of virtual time.
pub const DEFAULT_SAMPLE_EVERY_NS: u64 = 100_000;

/// Periodically captures registry deltas into a [`Scope`].
#[derive(Debug)]
pub struct Sampler {
    scope: Scope,
    prefix: String,
    every_ns: u64,
    next_due_ns: u64,
    prev: Snapshot,
    ticks: u64,
    /// The series each instrument records into, by instrument name: a
    /// tick looks its handles up by `&str` and names nothing anew.
    handles: BTreeMap<String, SeriesHandle>,
}

impl Sampler {
    /// A sampler feeding `scope`, capturing every `every_ns` virtual
    /// nanoseconds (at least 1). Series are named
    /// `{prefix}{instrument}` — pass e.g. `"shard3/"` to namespace one
    /// shard's registry, or `""` for the global one.
    pub fn new(scope: Scope, prefix: &str, every_ns: u64) -> Self {
        Sampler {
            scope,
            prefix: prefix.to_string(),
            every_ns: every_ns.max(1),
            next_due_ns: 0,
            prev: Snapshot::default(),
            ticks: 0,
            handles: BTreeMap::new(),
        }
    }

    /// A sampler with the default cadence.
    pub fn with_default_cadence(scope: Scope, prefix: &str) -> Self {
        Self::new(scope, prefix, DEFAULT_SAMPLE_EVERY_NS)
    }

    /// A permanently disabled sampler: `tick` is a single branch.
    pub fn disabled() -> Self {
        Self::new(Scope::disabled(), "", DEFAULT_SAMPLE_EVERY_NS)
    }

    /// Whether ticks actually capture anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.scope.is_enabled()
    }

    /// The scope this sampler records into.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// Samples captured so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The sampling site: call on every convenient occasion (event
    /// batch boundary, window edge). Captures a delta only when
    /// `now_ns` has crossed the cadence boundary; returns the delta it
    /// recorded, if any. Disabled samplers return immediately.
    #[inline]
    pub fn tick(&mut self, now_ns: u64, registry: &Registry) -> Option<SnapshotDelta> {
        if !self.scope.is_enabled() || now_ns < self.next_due_ns {
            return None;
        }
        self.tick_slow(now_ns, registry)
    }

    #[cold]
    fn tick_slow(&mut self, now_ns: u64, registry: &Registry) -> Option<SnapshotDelta> {
        let delta = registry.advance(&mut self.prev);
        self.record_delta(now_ns, &delta);
        // Next boundary strictly after now: long gaps don't produce
        // catch-up bursts, they produce one sample.
        self.next_due_ns = now_ns - now_ns % self.every_ns + self.every_ns;
        self.ticks += 1;
        Some(delta)
    }

    /// Records one already-computed delta at `now_ns`: counter
    /// increments as-is, gauge levels read off the running snapshot (the
    /// delta already applied), histogram count increments.
    fn record_delta(&mut self, now_ns: u64, delta: &SnapshotDelta) {
        let Sampler {
            scope,
            prefix,
            prev,
            handles,
            ..
        } = self;
        let mut record = |name: &str, value: f64| {
            if !handles.contains_key(name) {
                let series = scope.series(&format!("{prefix}{name}"));
                handles.insert(name.to_string(), series);
            }
            handles[name].record(now_ns, value);
        };
        for (name, &diff) in &delta.counters {
            record(name, diff as f64);
        }
        for name in delta.gauges.keys() {
            record(name, prev.gauge(name) as f64);
        }
        for (name, h) in &delta.histograms {
            record(name, h.count() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sampler_captures_nothing() {
        let reg = Registry::new();
        reg.counter("a").add(5);
        let mut sampler = Sampler::disabled();
        assert!(sampler.tick(1_000_000, &reg).is_none());
        assert_eq!(sampler.ticks(), 0);
    }

    #[test]
    fn ticks_respect_cadence() {
        let reg = Registry::new();
        let mut sampler = Sampler::new(Scope::new(), "", 1_000);
        reg.counter("c").add(3);
        assert!(sampler.tick(0, &reg).is_some()); // first tick always due
        reg.counter("c").add(4);
        assert!(sampler.tick(500, &reg).is_none()); // within the window
        assert!(sampler.tick(1_000, &reg).is_some());
        assert_eq!(sampler.ticks(), 2);
        let snap = sampler.scope().get("c").unwrap();
        let values: Vec<f64> = snap.points.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![3.0, 4.0]); // increments, not totals
    }

    #[test]
    fn gauges_record_levels_and_histograms_record_count_increments() {
        let reg = Registry::new();
        let mut sampler = Sampler::new(Scope::new(), "", 100);
        reg.gauge("g").set(7);
        reg.histogram("h").record(50);
        sampler.tick(0, &reg);
        reg.gauge("g").set(3);
        reg.histogram("h").record(60);
        reg.histogram("h").record(70);
        sampler.tick(200, &reg);
        let g = sampler.scope().get("g").unwrap();
        assert_eq!(
            g.points.iter().map(|p| p.value).collect::<Vec<_>>(),
            vec![7.0, 3.0]
        );
        let h = sampler.scope().get("h").unwrap();
        assert_eq!(
            h.points.iter().map(|p| p.value).collect::<Vec<_>>(),
            vec![1.0, 2.0]
        );
    }

    #[test]
    fn prefix_namespaces_series() {
        let reg = Registry::new();
        reg.counter("events").inc();
        let scope = Scope::new();
        let mut sampler = Sampler::new(scope.clone(), "shard2/", 100);
        sampler.tick(0, &reg);
        assert!(scope.get("shard2/events").is_some());
        assert!(scope.get("events").is_none());
    }

    #[test]
    fn quiet_registry_yields_empty_deltas_and_no_points() {
        let reg = Registry::new();
        reg.counter("c").inc();
        let mut sampler = Sampler::new(Scope::new(), "", 100);
        sampler.tick(0, &reg);
        let d = sampler.tick(1_000, &reg).unwrap();
        assert!(d.is_empty());
        // Only the first tick's increment landed.
        assert_eq!(sampler.scope().get("c").unwrap().points.len(), 1);
    }
}
