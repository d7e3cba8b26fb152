//! The metric registry: named instruments, stats blocks, disabled
//! mode, snapshots.
//!
//! Registration (`counter`/`gauge`/`histogram`/`block`) takes a short
//! lock and returns a cloneable *handle*; every subsequent update
//! through a single instrument's handle is lock-free, and a block's
//! takes only its stripe's uncontended lock. A [`Registry::disabled`]
//! registry returns empty handles whose updates compile down to a
//! single `Option` branch — instrumentation stays in place at zero cost.
//!
//! Metric names are plain `/`-separated strings; integrations scope them
//! as `<component>/<metric>` or `app<id>/<hook>/<metric>`, which makes
//! per-app export a prefix filter ([`Snapshot::filter_prefix`]). A name
//! is a single instrument or block fields, never both; a read folds the
//! block fields that report under a name with the stripe-merge rules
//! (see [`crate::telemetry::Block`]).

use crate::block::{Block, BlockHandle, Holds, Registered};
use crate::counter::{Counter, Gauge};
use crate::hist::{Histogram, HistogramSnapshot};
use crate::percpu::{stripe_count, PerCpu};
use parking_lot::Mutex;
use serde::{Serialize, SerializeStruct, Serializer};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

#[derive(Debug, Default)]
struct Instruments {
    counters: BTreeMap<String, Sources<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Sources<Histogram>>,
    blocks: Vec<Registered>,
}

/// What reports under one name: a single instrument, or the block
/// fields named so, never both.
#[derive(Debug)]
enum Sources<T> {
    Single(Arc<T>),
    /// `(block, field)` pairs: an index into `Instruments::blocks`, and
    /// one into that block's counters (or histograms).
    Fields(Vec<(usize, usize)>),
}

impl<T: Default> Sources<T> {
    /// The single instrument named `name` in `map`, created if new.
    /// Panics if the name is a block field.
    fn single(map: &mut BTreeMap<String, Self>, name: &str) -> Arc<T> {
        let sources = map.entry(name.to_string());
        match sources.or_insert_with(|| Sources::Single(Arc::default())) {
            Sources::Single(single) => Arc::clone(single),
            Sources::Fields(_) => panic!("`{name}` is a block field"),
        }
    }
}

impl<T> Sources<T> {
    /// Panics if one of `names` is a single instrument in `map`.
    fn refuse_singles(map: &BTreeMap<String, Self>, names: &[String]) {
        let single = |name: &&String| matches!(map.get(*name), Some(Sources::Single(_)));
        if let Some(name) = names.iter().find(single) {
            panic!("`{name}` is a single instrument, not a block field");
        }
    }

    /// Adds field `i` of block `block` under `names[i]`, for every `i`.
    fn add_fields(map: &mut BTreeMap<String, Self>, block: usize, names: &[String]) {
        for (field, name) in names.iter().enumerate() {
            let sources = map.entry(name.clone());
            match sources.or_insert_with(|| Sources::Fields(Vec::new())) {
                Sources::Fields(fields) => fields.push((block, field)),
                Sources::Single(_) => unreachable!("refused before any field is added"),
            }
        }
    }
}

impl Instruments {
    /// The named block's stripes, registered with `stripes` stripes if
    /// new. Panics if the name is a block of another type, or if one of
    /// its fields' names is a single instrument.
    fn block<B: Block>(&mut self, prefix: &str, stripes: usize) -> Arc<PerCpu<Mutex<B>>> {
        if let Some(block) = self.blocks.iter().find(|b| b.prefix == prefix) {
            return block.stripes().unwrap_or_else(|| {
                panic!("block `{prefix}` is already registered as another type")
            });
        }
        let (block, stripes) = Registered::new::<B>(prefix, stripes);
        // Checked before anything is added, so a refused block leaves
        // the registry as it was.
        Sources::refuse_singles(&self.counters, &block.counter_names);
        Sources::refuse_singles(&self.histograms, &block.histogram_names);
        let index = self.blocks.len();
        Sources::add_fields(&mut self.counters, index, &block.counter_names);
        Sources::add_fields(&mut self.histograms, index, &block.histogram_names);
        self.blocks.push(block);
        stripes
    }

    /// Adds `holder`'s copy to the block registered under `prefix`,
    /// registered as [`Instruments::block`] registers it if new.
    fn hold<B: Block>(&mut self, prefix: &str, holder: Arc<dyn Holds<B>>) {
        self.block::<B>(prefix, 1);
        let block = self.blocks.iter_mut().find(|b| b.prefix == prefix);
        block.expect("registered above").hold(holder);
    }

    /// Folds every block's stripes, for the reads that follow.
    fn refresh(&mut self) {
        self.blocks.iter_mut().for_each(Registered::refresh);
    }

    /// A counter's value as of the last [`Instruments::refresh`]: block
    /// fields add wrapping, as stripes do.
    fn counter(&self, sources: &Sources<Counter>) -> u64 {
        match sources {
            Sources::Single(c) => c.get(),
            Sources::Fields(fields) => fields.iter().fold(0, |sum, &(block, field)| {
                sum.wrapping_add(self.blocks[block].counters[field])
            }),
        }
    }

    /// A histogram's state as of the last [`Instruments::refresh`]:
    /// block fields merge. A lone block field is lent, not copied.
    fn histogram(&self, sources: &Sources<Histogram>) -> Cow<'_, HistogramSnapshot> {
        let field = |&(block, field): &(usize, usize)| &self.blocks[block].histograms[field];
        match sources {
            Sources::Single(h) => Cow::Owned(h.snapshot()),
            Sources::Fields(fields) => match &fields[..] {
                [one] => Cow::Borrowed(field(one)),
                _ => Cow::Owned(
                    fields
                        .iter()
                        .map(field)
                        .fold(HistogramSnapshot::empty(), HistogramSnapshot::merged),
                ),
            },
        }
    }
}

/// A shareable registry of named metrics. Cloning shares the
/// underlying state (like sharing a map fd).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Mutex<Instruments>>>,
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::default()),
        }
    }

    /// A disabled registry: all handles are no-ops, snapshots are empty.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether metrics are actually collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `register` on the instruments; `None` when disabled.
    fn register<T>(&self, register: impl FnOnce(&mut Instruments) -> T) -> Option<T> {
        self.inner.as_ref().map(|i| register(&mut i.lock()))
    }

    /// Registers (or fetches) the named counter. Panics if the name is
    /// a block field.
    pub fn counter(&self, name: &str) -> CounterHandle {
        CounterHandle {
            inner: self.register(|i| Sources::single(&mut i.counters, name)),
        }
    }

    /// Registers (or fetches) the named gauge.
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        GaugeHandle {
            inner: self.register(|i| Arc::clone(i.gauges.entry(name.to_string()).or_default())),
        }
    }

    /// Registers (or fetches) the named histogram. Panics if the name
    /// is a block field.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle {
            inner: self.register(|i| Sources::single(&mut i.histograms, name)),
        }
    }

    /// Registers (or fetches) the stats block under `prefix`, one
    /// stripe per CPU: for the instruments one event moves together. Its
    /// fields read under [`Block::names`]`(prefix)` from now on. Panics
    /// if `prefix` names a block of another type, or if a field's name
    /// is a single instrument.
    pub fn block<B: Block>(&self, prefix: &str) -> BlockHandle<B> {
        BlockHandle {
            inner: self.register(|i| i.block(prefix, stripe_count())),
        }
    }

    /// Adds `holder`'s copy of a `B` to the block under `prefix`
    /// (registered as [`Registry::block`] would if new): from now on it
    /// reads under the block's names together with the block's stripes
    /// and every other copy, and the registry keeps `holder` until it is
    /// the last to. A read locks each holder through [`Holds::read`], so
    /// nothing may read the registry while it holds a holder's lock.
    pub fn hold<B: Block>(&self, prefix: &str, holder: Arc<dyn Holds<B>>) {
        self.register(|i| i.hold(prefix, holder));
    }

    /// [`Registry::block`] with `stripes` stripes: the multi-stripe path
    /// on any host, for tests.
    #[cfg(test)]
    pub(crate) fn block_striped<B: Block>(&self, prefix: &str, stripes: usize) -> BlockHandle<B> {
        BlockHandle {
            inner: self.register(|i| i.block(prefix, stripes)),
        }
    }

    /// Brings `since` up to now and returns what moved: the same as
    /// taking a [`Registry::snapshot`], diffing it against `since` with
    /// [`Snapshot::delta`] and storing it in `since`. While `since` names
    /// exactly the registered instruments, which is every call after the
    /// first for a periodic sampler, `since` is updated in place and only
    /// the names of instruments that moved are copied.
    pub fn advance(&self, since: &mut Snapshot) -> SnapshotDelta {
        fn same_names<A, B>(a: &BTreeMap<String, A>, b: &BTreeMap<String, B>) -> bool {
            a.len() == b.len() && a.keys().eq(b.keys())
        }
        if let Some(instruments) = &self.inner {
            let mut instruments = instruments.lock();
            if same_names(&instruments.counters, &since.counters)
                && same_names(&instruments.gauges, &since.gauges)
                && same_names(&instruments.histograms, &since.histograms)
            {
                instruments.refresh();
                let instruments = &*instruments;
                let mut delta = SnapshotDelta::default();
                let counters = instruments.counters.iter();
                for ((name, sources), old) in counters.zip(since.counters.values_mut()) {
                    let v = instruments.counter(sources);
                    let diff = v.saturating_sub(*old);
                    if diff != 0 {
                        delta.counters.insert(name.clone(), diff);
                    }
                    *old = v;
                }
                let gauges = instruments.gauges.iter();
                for ((name, gauge), old) in gauges.zip(since.gauges.values_mut()) {
                    let v = gauge.get();
                    let diff = v - *old;
                    if diff != 0 {
                        delta.gauges.insert(name.clone(), diff);
                    }
                    *old = v;
                }
                let histograms = instruments.histograms.iter();
                for ((name, sources), old) in histograms.zip(since.histograms.values_mut()) {
                    let h = instruments.histogram(sources);
                    if *h != *old {
                        delta.histograms.insert(name.clone(), h.delta_since(old));
                        old.clone_from(&h);
                    }
                }
                return delta;
            }
        }
        let now = self.snapshot();
        let delta = now.delta(since);
        *since = now;
        delta
    }

    /// Point-in-time copy of every metric. Disabled registries snapshot
    /// as empty.
    pub fn snapshot(&self) -> Snapshot {
        let Some(instruments) = &self.inner else {
            return Snapshot::default();
        };
        let mut instruments = instruments.lock();
        instruments.refresh();
        let i = &*instruments;
        Snapshot {
            counters: i
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), i.counter(v)))
                .collect(),
            gauges: i.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: i
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), i.histogram(v).into_owned()))
                .collect(),
        }
    }
}

/// Lock-free handle to a registered [`Counter`]; no-op when disabled.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle {
    inner: Option<Arc<Counter>>,
}

impl CounterHandle {
    /// A permanently disabled handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.inner {
            c.add(n);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.inner.as_ref().map_or(0, |c| c.get())
    }
}

/// Lock-free handle to a registered [`Gauge`]; no-op when disabled.
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle {
    inner: Option<Arc<Gauge>>,
}

impl GaugeHandle {
    /// A permanently disabled handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.inner {
            g.set(v);
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.inner {
            g.add(n);
        }
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        if let Some(g) = &self.inner {
            g.sub(n);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.inner.as_ref().map_or(0, |g| g.get())
    }
}

/// Lock-free handle to a registered [`Histogram`]; no-op when disabled.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle {
    inner: Option<Arc<Histogram>>,
}

impl HistogramHandle {
    /// A permanently disabled handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.inner {
            h.record(v);
        }
    }

    /// Current state (empty when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.inner
            .as_ref()
            .map_or_else(HistogramSnapshot::empty, |h| h.snapshot())
    }
}

/// Point-in-time copy of a registry's metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0 if absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram state, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Sub-snapshot of metrics whose name starts with `prefix` (the
    /// prefix is stripped). Used for per-app export: metrics are named
    /// `app<id>/...`, so one app's view is `filter_prefix("app3/")`.
    pub fn filter_prefix(&self, prefix: &str) -> Snapshot {
        fn strip<V: Clone>(map: &BTreeMap<String, V>, prefix: &str) -> BTreeMap<String, V> {
            map.iter()
                .filter_map(|(k, v)| {
                    k.strip_prefix(prefix)
                        .map(|rest| (rest.to_string(), v.clone()))
                })
                .collect()
        }
        Snapshot {
            counters: strip(&self.counters, prefix),
            gauges: strip(&self.gauges, prefix),
            histograms: strip(&self.histograms, prefix),
        }
    }

    /// Renders a plain-text table of every metric.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            let _ = writeln!(out, "{:<44} {:>14}", "counter/gauge", "value");
            let _ = writeln!(out, "{}", "-".repeat(59));
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:<44} {v:>14}");
            }
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "{name:<44} {v:>14}");
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "{:<36} {:>9} {:>11} {:>9} {:>9} {:>9} {:>9} {:>10}",
                "histogram", "count", "mean", "min", "p50", "p99", "p999", "max"
            );
            let _ = writeln!(out, "{}", "-".repeat(109));
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<36} {:>9} {:>11.1} {:>9} {:>9} {:>9} {:>9} {:>10}",
                    name,
                    h.count(),
                    h.mean(),
                    h.min(),
                    h.p50(),
                    h.p99(),
                    h.p999(),
                    h.max()
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Serializes the snapshot to JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self).expect("JSON emission into a String cannot fail")
    }

    /// What changed since `earlier`, where both snapshots came from the
    /// *same* registry (`earlier` taken first). The delta is compact —
    /// only changed instruments appear, and those `earlier` lacks (even
    /// at 0) — and invertible:
    /// [`SnapshotDelta::apply`] on `earlier` reproduces `self` exactly.
    /// Counter diffs are unsigned (registry counters are monotone);
    /// gauge diffs are signed.
    pub fn delta(&self, earlier: &Snapshot) -> SnapshotDelta {
        let counters = self
            .counters
            .iter()
            .filter_map(|(name, &v)| {
                let diff = v.saturating_sub(earlier.counter(name));
                (diff != 0 || !earlier.counters.contains_key(name)).then(|| (name.clone(), diff))
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .filter_map(|(name, &v)| {
                let diff = v - earlier.gauge(name);
                (diff != 0 || !earlier.gauges.contains_key(name)).then(|| (name.clone(), diff))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let base = earlier.histogram(name);
                if base == Some(h) {
                    return None;
                }
                let delta = match base {
                    Some(base) => h.delta_since(base),
                    None => h.clone(),
                };
                Some((name.clone(), delta))
            })
            .collect();
        SnapshotDelta {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The change between two [`Snapshot`]s of one registry, as produced by
/// [`Snapshot::delta`]. Used by `syrupctl watch` to stream compact
/// periodic frames instead of full snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDelta {
    /// Counter increments by name (only counters that moved or are new).
    pub counters: BTreeMap<String, u64>,
    /// Signed gauge changes by name (only gauges that moved or are new).
    pub gauges: BTreeMap<String, i64>,
    /// Per-histogram sample deltas (only histograms that changed; a
    /// histogram absent from `earlier` appears whole).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl SnapshotDelta {
    /// Whether nothing changed between the two snapshots.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Replays the delta onto the snapshot it was computed against,
    /// reproducing the later snapshot exactly.
    pub fn apply(&self, earlier: &Snapshot) -> Snapshot {
        let mut later = earlier.clone();
        for (name, diff) in &self.counters {
            *later.counters.entry(name.clone()).or_insert(0) += diff;
        }
        for (name, diff) in &self.gauges {
            *later.gauges.entry(name.clone()).or_insert(0) += diff;
        }
        for (name, delta) in &self.histograms {
            later
                .histograms
                .entry(name.clone())
                .or_insert_with(HistogramSnapshot::empty)
                .merge(delta);
        }
        later
    }
}

impl Serialize for SnapshotDelta {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("SnapshotDelta", 3)?;
        s.serialize_field("counters", &self.counters)?;
        s.serialize_field("gauges", &self.gauges)?;
        s.serialize_field("histograms", &self.histograms)?;
        s.end()
    }
}

impl Serialize for Snapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Snapshot", 3)?;
        s.serialize_field("counters", &self.counters)?;
        s.serialize_field("gauges", &self.gauges)?;
        s.serialize_field("histograms", &self.histograms)?;
        s.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::tests::Pair;

    #[test]
    fn handles_share_state_by_name() {
        let reg = Registry::new();
        let a = reg.counter("syrupd/dispatches");
        let b = reg.counter("syrupd/dispatches");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("syrupd/dispatches"), 3);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        let c = reg.counter("x");
        let g = reg.gauge("y");
        let h = reg.histogram("z");
        c.inc();
        g.set(9);
        h.record(100);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert_eq!(snap.render_table(), "(no metrics recorded)\n");
    }

    #[test]
    fn clone_shares_underlying_metrics() {
        let reg = Registry::new();
        let clone = reg.clone();
        clone.counter("net/q0/enqueued").add(5);
        assert_eq!(reg.snapshot().counter("net/q0/enqueued"), 5);
    }

    #[test]
    fn prefix_filter_scopes_per_app() {
        let reg = Registry::new();
        reg.counter("app1/nic_steer/verdicts").add(4);
        reg.counter("app2/nic_steer/verdicts").add(9);
        reg.histogram("app1/run_cycles").record(1500);
        let app1 = reg.snapshot().filter_prefix("app1/");
        assert_eq!(app1.counter("nic_steer/verdicts"), 4);
        assert_eq!(app1.counter("app2/nic_steer/verdicts"), 0);
        assert!(app1.histogram("run_cycles").is_some());
    }

    #[test]
    fn table_and_json_render() {
        let reg = Registry::new();
        reg.counter("syrupd/deploys").inc();
        reg.gauge("ghost/runnable").set(3);
        reg.histogram("vm/run_cycles").record(1500);
        let snap = reg.snapshot();
        let table = snap.render_table();
        assert!(table.contains("syrupd/deploys"), "{table}");
        assert!(table.contains("vm/run_cycles"), "{table}");
        let json = snap.to_json();
        assert!(json.contains("\"syrupd/deploys\":1"), "{json}");
    }

    #[test]
    fn percpu_instruments_read_like_single_stripe_ones() {
        let reg = Registry::new();
        let block = reg.block_striped::<Pair>("a", 4);
        let single = (reg.counter("b/count"), reg.histogram("b/value"));
        // A prefix keeps the block it was first registered with.
        assert!(Arc::ptr_eq(
            block.inner.as_ref().unwrap(),
            reg.block::<Pair>("a").inner.as_ref().unwrap()
        ));
        #[derive(Default)]
        struct Other;
        impl Block for Other {
            fn names(_: &str) -> Vec<String> {
                Vec::new()
            }
            fn fields(&self, _: &mut dyn FnMut(crate::telemetry::Field<'_>)) {}
        }
        let other =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.block::<Other>("a")));
        assert!(other.is_err(), "a prefix refuses a block of another type");
        let other =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.counter("a/count")));
        assert!(other.is_err(), "a block field refuses a single handle");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (block, single) = (&block, &single);
                s.spawn(move || {
                    for v in (t..2_000).step_by(4) {
                        block.write(|b| b.record(v));
                        single.0.add(v);
                        single.1.record(v);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.filter_prefix("a/"), snap.filter_prefix("b/"));
    }

    /// Two blocks of one type, each reporting its count under a name of
    /// its own and under a name they share.
    #[derive(Debug, Default)]
    struct Shared(u64);

    impl Block for Shared {
        fn names(prefix: &str) -> Vec<String> {
            vec![format!("{prefix}/count"), "all/count".into()]
        }

        fn fields(&self, visit: &mut dyn FnMut(crate::telemetry::Field<'_>)) {
            visit(crate::telemetry::Field::Counter(self.0));
            visit(crate::telemetry::Field::Counter(self.0));
        }
    }

    /// A writer's own copy of a block, kept under its lock.
    struct Holder(Mutex<Pair>);

    impl Holds<Pair> for Holder {
        fn read(&self, read: &mut dyn FnMut(&Pair)) {
            read(&self.0.lock());
        }
    }

    /// Held copies read under the block's names with its stripes; one the
    /// registry alone still keeps is folded into the block and let go, so
    /// the names keep what it wrote.
    #[test]
    fn held_copies_fold_with_the_stripes_and_outlive_their_writers() {
        let reg = Registry::new();
        reg.block::<Pair>("p").write(|b| b.record(1));
        let holders: Vec<Arc<Holder>> =
            (0..2).map(|_| Arc::new(Holder(Mutex::default()))).collect();
        for holder in &holders {
            reg.hold::<Pair>("p", holder.clone());
        }
        holders[0].0.lock().record(10);
        holders[1].0.lock().record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("p/count"), 111);
        assert_eq!(snap.histogram("p/value").unwrap().count(), 3);

        let released = Arc::downgrade(&holders[0]);
        drop(holders.into_iter().next());
        for _ in 0..2 {
            let snap = reg.snapshot();
            assert_eq!(snap.counter("p/count"), 111);
            assert_eq!(snap.histogram("p/value").unwrap().count(), 3);
            assert!(released.upgrade().is_none(), "the registry let it go");
        }

        // A disabled registry keeps nothing.
        let holder = Arc::new(Holder(Mutex::default()));
        Registry::disabled().hold::<Pair>("p", holder.clone());
        assert_eq!(Arc::strong_count(&holder), 1);
    }

    /// Block fields that share a name fold into it; a single instrument
    /// and a block field never share one, in either order of
    /// registration.
    #[test]
    fn blocks_share_names_and_singles_do_not() {
        let reg = Registry::new();
        reg.block_striped::<Shared>("x", 2)
            .write(|b| b.0 = u64::MAX);
        reg.block::<Shared>("y").write(|b| b.0 += 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x/count"), u64::MAX);
        assert_eq!(snap.counter("y/count"), 3);
        assert_eq!(snap.counter("all/count"), 2, "block fields add wrapping");

        let refused = |register: &dyn Fn()| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(register)).is_err()
        };
        reg.block::<Pair>("p");
        assert!(refused(&|| {
            reg.counter("all/count");
        }));
        assert!(refused(&|| {
            reg.histogram("p/value");
        }));
        reg.counter("z/count").inc();
        reg.histogram("w/value").record(1);
        assert!(refused(&|| {
            reg.block::<Shared>("z");
        }));
        assert!(refused(&|| {
            reg.block::<Pair>("w");
        }));
        // A refused block left nothing behind.
        reg.block::<Shared>("x")
            .write(|b| b.0 = b.0.wrapping_add(1));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("all/count"), 3);
        assert_eq!(snap.counter("z/count"), 1);
        assert_eq!(snap.histogram("w/value").unwrap().count(), 1);
        assert!(!snap.counters.contains_key("w/count"));
    }

    #[test]
    fn deltas_round_trip_across_stripes() {
        let reg = Registry::new();
        let block = reg.block_striped::<Pair>("b", 4);
        let record_from = |threads: u64, base: u64| {
            std::thread::scope(|s| {
                for t in 0..threads {
                    let block = &block;
                    s.spawn(move || {
                        for i in 0..500 {
                            block.write(|b| b.record(base + t * 1_000 + i));
                        }
                    });
                }
            })
        };
        record_from(3, 0);
        let earlier = reg.snapshot();
        record_from(5, 1 << 40);
        let later = reg.snapshot();
        let delta = later.delta(&earlier);
        let recorded = (0..5u64).flat_map(|t| (0..500).map(move |i| (1 << 40) + t * 1_000 + i));
        assert_eq!(delta.counters["b/count"], recorded.sum::<u64>());
        assert_eq!(delta.histograms["b/value"].count(), 5 * 500);
        assert_eq!(delta.apply(&earlier), later);
    }

    /// Names registered between two snapshots round-trip while still 0.
    #[test]
    fn a_name_registered_between_snapshots_survives_the_delta() {
        let reg = Registry::new();
        reg.counter("a").inc();
        let a = reg.snapshot();
        reg.counter("c");
        reg.gauge("g");
        reg.histogram("h");
        let b = reg.snapshot();
        let delta = b.delta(&a);
        assert_eq!(delta.counters.get("c"), Some(&0));
        assert_eq!(delta.gauges.get("g"), Some(&0));
        assert_eq!(delta.apply(&a), b);
    }

    /// `advance` is snapshot, delta and store: on a registry that grows
    /// new instruments between calls, one that stays put, one whose
    /// instruments stand still, and a disabled one.
    #[test]
    fn advance_is_snapshot_then_delta() {
        let reg = Registry::new();
        let mut since = Snapshot::default();
        for step in 0u64..12 {
            if step % 4 == 0 {
                reg.counter(&format!("c{step}")).inc();
                reg.block_striped::<Pair>(&format!("b{step}"), 4)
                    .write(|b| b.record(step));
            }
            if step % 3 != 2 {
                reg.counter("c0").add(step);
                reg.gauge("g").set(10 - step as i64);
                reg.histogram("h").record(step * 100);
            }
            let mut reference = since.clone();
            let now = reg.snapshot();
            let want = now.delta(&reference);
            reference = now;
            assert_eq!(reg.advance(&mut since), want, "step {step}");
            assert_eq!(since, reference, "step {step}");
        }
        let off = Registry::disabled();
        let want = Snapshot::default().delta(&since);
        assert_eq!(off.advance(&mut since), want);
        assert_eq!(since, Snapshot::default());
    }

    /// `threads` threads record `values` round-robin into a block of
    /// `stripes` stripes under `a/` and into the atomic instruments it
    /// replaces under `b/`.
    fn record_both(reg: &Registry, stripes: usize, threads: usize, values: &[u64]) {
        let block = reg.block_striped::<Pair>("a", stripes);
        let (count, value) = (reg.counter("b/count"), reg.histogram("b/value"));
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (block, count, value, barrier) = (&block, &count, &value, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for &v in values.iter().skip(t).step_by(threads) {
                        block.write(|b| b.record(v));
                        count.add(v);
                        value.record(v);
                    }
                });
            }
        });
    }

    proptest::proptest! {
        /// A block snapshots, advances and exports byte for byte like the
        /// atomic counter and histogram it replaces.
        #[test]
        fn a_block_reads_like_the_atomic_instruments_it_replaces(
            picks in proptest::collection::vec((0u8..4, proptest::prelude::any::<u64>()), 0..200),
            split in 0usize..200,
            stripes_log2 in 0usize..5,
            threads in 1usize..9,
        ) {
            // The vendored proptest has no `prop_oneof`: a discriminant
            // makes the edges common.
            let values: Vec<u64> = picks
                .iter()
                .map(|&(which, v)| match which {
                    0 => 0,
                    1 => 1,
                    2 => u64::MAX,
                    _ => v,
                })
                .collect();
            let (first, second) = values.split_at(split.min(values.len()));
            let reg = Registry::new();
            let mut since = Snapshot::default();
            for part in [first, second] {
                record_both(&reg, 1 << stripes_log2, threads, part);
                let delta = reg.advance(&mut since);
                let (a, b) = (since.filter_prefix("a/"), since.filter_prefix("b/"));
                proptest::prop_assert_eq!(a.to_json(), b.to_json());
                proptest::prop_assert_eq!(a.render_table(), b.render_table());
                proptest::prop_assert_eq!(
                    delta.counters.get("a/count"),
                    delta.counters.get("b/count")
                );
                proptest::prop_assert_eq!(
                    delta.histograms.get("a/value"),
                    delta.histograms.get("b/value")
                );
            }
            proptest::prop_assert_eq!(since, reg.snapshot());
        }
    }
}
