//! Stats blocks: the counters and histograms one event writes, as one
//! plain struct under a lock its writer holds.
//!
//! A kernel program's `bpf_prog_stats` is a struct bumped with plain adds
//! and folded on read. A [`Block`] is the same thing: a plain struct of
//! `u64` counters and [`HistogramSnapshot`]s, registered under a prefix
//! with [`crate::telemetry::Registry::block`], stored as one `Mutex<B>`
//! and written through [`BlockHandle::write`], so an event that moves
//! eight instruments takes one lock instead of a dozen atomic
//! read-modify-writes. The lock is a leaf: a write only adds to the
//! struct in hand.
//!
//! A writer that already holds a lock of its own on its hot path keeps
//! its copy of a block under that lock instead ([`Holds`],
//! [`crate::telemetry::Registry::hold`]): `syrupd` keeps each deployed
//! policy's stats beside the policy, under the lock a dispatch takes to
//! run it, so counting the dispatch takes no further lock at all.
//!
//! A read folds the registry's copy and the held copies — counters add
//! wrapping, histograms [`HistogramSnapshot::merge`] — so a quiescent
//! block reads byte for byte like a single counter and histogram fed the
//! same samples in any order.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hist::HistogramSnapshot;

/// One field of a [`Block`], as [`Block::fields`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field<'a> {
    /// A counter's value.
    Counter(u64),
    /// A histogram's state.
    Histogram(&'a HistogramSnapshot),
}

/// A plain struct of counters and histograms that one event writes
/// together. Its fields read in a registry snapshot under the names
/// [`Block::names`] gives them.
pub trait Block: Default + Send + 'static {
    /// The metric name of every field [`Block::fields`] reports, in the
    /// same order, for the block registered under `prefix`. A field may
    /// report under more than one name, and blocks may share a name: a
    /// read folds every field that reports under a name. A name that is
    /// a single instrument is never a field's.
    fn names(prefix: &str) -> Vec<String>;

    /// Calls `visit` with each field, in [`Block::names`] order. This
    /// is the block's only fold rule: every read goes through it.
    fn fields(&self, visit: &mut dyn FnMut(Field<'_>));
}

/// Handle to a registered [`Block`]; a no-op when its registry is
/// disabled.
#[derive(Debug)]
pub struct BlockHandle<B> {
    pub(crate) inner: Option<Arc<Mutex<B>>>,
}

impl<B> Clone for BlockHandle<B> {
    fn clone(&self) -> Self {
        BlockHandle {
            inner: self.inner.clone(),
        }
    }
}

impl<B> Default for BlockHandle<B> {
    fn default() -> Self {
        BlockHandle { inner: None }
    }
}

impl<B: Block> BlockHandle<B> {
    /// A permanently disabled handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Writes one event into the block, under its lock. `write` must
    /// only update the block: the lock is held while it runs.
    #[inline]
    pub fn write(&self, write: impl FnOnce(&mut B)) {
        if let Some(block) = &self.inner {
            write(&mut block.lock());
        }
    }
}

/// A copy of a block that its writer keeps under a lock of its own,
/// beside the state that lock already guards, so writing it costs plain
/// adds and no further lock. Registered with
/// [`crate::telemetry::Registry::hold`], it reads under the block's names
/// together with the registry's copy and every other holder's. The
/// registry keeps the holder alive: once nothing else does, the next read
/// or registration folds its last values into the block and lets it go.
pub trait Holds<B: Block>: Send + Sync + 'static {
    /// Calls `read` with the held copy, under the holder's lock; a holder
    /// that keeps no copy does not call it.
    fn read(&self, read: &mut dyn FnMut(&B));
}

/// A zero for every counter field of a `B` and an empty histogram for
/// every histogram field.
fn blank<B: Block>() -> (Vec<u64>, Vec<HistogramSnapshot>) {
    let (mut counters, mut histograms) = (Vec::new(), Vec::new());
    B::default().fields(&mut |field| match field {
        Field::Counter(_) => counters.push(0),
        Field::Histogram(_) => histograms.push(HistogramSnapshot::empty()),
    });
    (counters, histograms)
}

/// Adds `block`'s fields into `counters` and `histograms`, which hold one
/// slot per field: counters add wrapping, histograms merge.
fn add<B: Block>(block: &B, counters: &mut [u64], histograms: &mut [HistogramSnapshot]) {
    let (mut c, mut h) = (counters.iter_mut(), histograms.iter_mut());
    block.fields(&mut |field| match field {
        Field::Counter(v) => {
            let sum = c.next().expect("a slot per field");
            *sum = sum.wrapping_add(v);
        }
        Field::Histogram(v) => {
            let merged = h.next().expect("a slot per field");
            // A histogram a copy never recorded into is common: skip its adds.
            if !v.is_empty() {
                merged.merge(v);
            }
        }
    });
}

/// Where one registered block's fields live.
struct Storage<B> {
    /// The registry's own copy, written through [`BlockHandle::write`]:
    /// made by the first [`crate::telemetry::Registry::block`] for the
    /// prefix, so a block only ever held keeps none.
    own: Option<Arc<Mutex<B>>>,
    /// Copies writers keep under their own locks.
    held: Vec<Arc<dyn Holds<B>>>,
    /// The fields of the holders let go so far, folded.
    retired: (Vec<u64>, Vec<HistogramSnapshot>),
}

impl<B: Block> Storage<B> {
    /// Folds every holder only the registry still keeps into `retired`
    /// and lets it go: nothing can write its copy any more.
    fn retire_released(&mut self) {
        let (counters, histograms) = &mut self.retired;
        self.held.retain(|holder| {
            let released = Arc::strong_count(holder) == 1;
            if released {
                holder.read(&mut |b| add(b, counters, histograms));
            }
            !released
        });
    }
}

/// A registered block as the registry keeps it: where its fields live,
/// their metric names, and their values as of the last read.
pub(crate) struct Registered {
    pub(crate) prefix: String,
    /// A `Storage<B>`.
    storage: Box<dyn Any + Send + Sync>,
    /// Folds the storage into `counters` and `histograms`.
    refresh: fn(&mut (dyn Any + Send + Sync), &mut [u64], &mut [HistogramSnapshot]),
    /// The counter fields' names, in field order.
    pub(crate) counter_names: Vec<String>,
    /// The histogram fields' names, in field order.
    pub(crate) histogram_names: Vec<String>,
    /// The counter fields' values at the last [`Registered::refresh`].
    pub(crate) counters: Vec<u64>,
    /// The histogram fields' values at the last [`Registered::refresh`].
    pub(crate) histograms: Vec<HistogramSnapshot>,
}

impl fmt::Debug for Registered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registered")
            .field("prefix", &self.prefix)
            .finish_non_exhaustive()
    }
}

impl Registered {
    /// A new block registered under `prefix`, with no copies yet.
    pub(crate) fn new<B: Block>(prefix: &str) -> Self {
        let names = B::names(prefix);
        let (mut counter_names, mut histogram_names) = (Vec::new(), Vec::new());
        let mut next = names.into_iter();
        B::default().fields(&mut |field| {
            let name = next.next().expect("a name for every field of the block");
            match field {
                Field::Counter(_) => counter_names.push(name),
                Field::Histogram(_) => histogram_names.push(name),
            }
        });
        assert!(next.next().is_none(), "a field for every name of the block");
        let (counters, histograms) = blank::<B>();
        let storage = Storage::<B> {
            own: None,
            held: Vec::new(),
            retired: (counters.clone(), histograms.clone()),
        };
        Registered {
            prefix: prefix.to_string(),
            storage: Box::new(storage),
            refresh: refresh::<B>,
            counters,
            histograms,
            counter_names,
            histogram_names,
        }
    }

    /// The block's storage. Panics if the block is not a `B`.
    fn storage<B: Block>(&mut self) -> &mut Storage<B> {
        let prefix = &self.prefix;
        self.storage
            .downcast_mut()
            .unwrap_or_else(|| panic!("block `{prefix}` is already registered as another type"))
    }

    /// The registry's own copy of the block, made if it has none yet.
    /// Panics if the block is not a `B`.
    pub(crate) fn own<B: Block>(&mut self) -> Arc<Mutex<B>> {
        Arc::clone(self.storage::<B>().own.get_or_insert_with(Arc::default))
    }

    /// Adds `holder`'s copy to the block, and lets go of the holders
    /// nothing else keeps. Panics if the block is not a `B`.
    pub(crate) fn hold<B: Block>(&mut self, holder: Arc<dyn Holds<B>>) {
        let storage = self.storage::<B>();
        storage.retire_released();
        storage.held.push(holder);
    }

    /// Brings `counters` and `histograms` up to now.
    pub(crate) fn refresh(&mut self) {
        (self.refresh)(&mut *self.storage, &mut self.counters, &mut self.histograms);
    }
}

fn refresh<B: Block>(
    storage: &mut (dyn Any + Send + Sync),
    counters: &mut [u64],
    histograms: &mut [HistogramSnapshot],
) {
    let storage = storage.downcast_mut::<Storage<B>>().expect("a `B`");
    storage.retire_released();
    let (retired_counters, retired_histograms) = &storage.retired;
    counters.copy_from_slice(retired_counters);
    for (merged, retired) in histograms.iter_mut().zip(retired_histograms) {
        merged.clone_from(retired);
    }
    if let Some(own) = &storage.own {
        add(&*own.lock(), counters, histograms);
    }
    for holder in &storage.held {
        holder.read(&mut |b| add(b, counters, histograms));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A counter and a histogram fed the same samples.
    #[derive(Debug, Default)]
    pub(crate) struct Pair {
        pub(crate) count: u64,
        pub(crate) value: HistogramSnapshot,
    }

    impl Pair {
        pub(crate) fn record(&mut self, v: u64) {
            self.count = self.count.wrapping_add(v);
            self.value.record(v);
        }
    }

    impl Block for Pair {
        fn names(prefix: &str) -> Vec<String> {
            vec![format!("{prefix}/count"), format!("{prefix}/value")]
        }

        fn fields(&self, visit: &mut dyn FnMut(Field<'_>)) {
            visit(Field::Counter(self.count));
            visit(Field::Histogram(&self.value));
        }
    }

    #[test]
    fn a_disabled_block_writes_nothing_and_reads_empty() {
        let registry = crate::telemetry::Registry::disabled();
        let block = registry.block::<Pair>("p");
        block.write(|_| unreachable!("a disabled block runs no write"));
        BlockHandle::<Pair>::disabled().write(|_| unreachable!("nor does this one"));
        assert_eq!(registry.snapshot(), crate::telemetry::Snapshot::default());
    }

    /// Names and fields that disagree are a bug in the block.
    #[test]
    #[should_panic(expected = "a name for every field")]
    fn a_block_names_every_field() {
        #[derive(Default)]
        struct Unnamed(u64);
        impl Block for Unnamed {
            fn names(_: &str) -> Vec<String> {
                Vec::new()
            }
            fn fields(&self, visit: &mut dyn FnMut(Field<'_>)) {
                visit(Field::Counter(self.0));
            }
        }
        Registered::new::<Unnamed>("u");
    }
}
