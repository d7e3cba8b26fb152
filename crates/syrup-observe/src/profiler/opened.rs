//! Each thread's resolved span openings, so that a warm [`VmSpan`] opens
//! without the sink's lock.
//!
//! Opening a span resolves the chain nodes of its entry (and of the path
//! it came down) in the sink's trie, which takes the sink's lock. A
//! thread keeps what it resolved, keyed by the profiler and by the
//! program names and step tables it opened on, and a later span with the
//! same key reads its nodes from here. Nodes are never removed from the
//! trie, so an index stays good for as long as the profiler lives.
//!
//! [`VmSpan`]: super::VmSpan

use std::cell::RefCell;
use std::sync::{Arc, Weak};

use super::{Inner, Sample, Steps};

/// Openings a thread remembers per profiler; a thread opening more keys
/// than this resolves the rest under the lock each time.
const OPENINGS: usize = 32;

thread_local! {
    static OPENED: RefCell<Opened> = const { RefCell::new(Opened::EMPTY) };
}

/// One thread's openings on one profiler.
struct Opened {
    /// The profiler the entries' nodes index into. Held weakly, so the
    /// cache keeps no sink's state alive, but the allocation it points to,
    /// and so the pointer compared against, stays reserved while held.
    sink: Weak<Inner>,
    entries: Vec<Opening>,
    /// An empty sample buffer for the next span opened from here.
    buf: Vec<Sample>,
}

/// One opening: a span on `prog` run on `steps`, reached down `path` or
/// entered directly, and the nodes it resolved to. The entry holds the
/// step tables it keys on, so their pointers cannot be reused by another
/// table while it is compared against them.
struct Opening {
    path: Option<(String, Steps)>,
    prog: String,
    steps: Option<Steps>,
    root: Option<u32>,
    node: u32,
}

impl Opening {
    /// Whether this entry is for the same program names as an opening.
    fn names(&self, path: Option<(&str, &Steps)>, prog: &str) -> bool {
        let path_name = self.path.as_ref().map(|(name, _)| name.as_str());
        self.prog == prog && path_name == path.map(|(name, _)| name)
    }

    /// Whether this entry's step tables are the very tables given.
    fn tables(&self, path: Option<(&str, &Steps)>, steps: Option<&Steps>) -> bool {
        let same = |a: Option<&Steps>, b: Option<&Steps>| match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        same(self.path.as_ref().map(|(_, s)| s), path.map(|(_, s)| s))
            && same(self.steps.as_ref(), steps)
    }
}

impl Opened {
    const EMPTY: Opened = Opened {
        sink: Weak::new(),
        entries: Vec::new(),
        buf: Vec::new(),
    };

    fn is_for(&self, inner: &Arc<Inner>) -> bool {
        std::ptr::eq(self.sink.as_ptr(), Arc::as_ptr(inner))
    }
}

/// The `(root, node)` this thread resolved for the opening, and its
/// spare sample buffer (empty, and without capacity if another span has
/// it); `None` if the thread has not resolved this opening.
pub(super) fn lookup(
    inner: &Arc<Inner>,
    path: Option<(&str, &Steps)>,
    prog: &str,
    steps: Option<&Steps>,
) -> Option<(Option<u32>, u32, Vec<Sample>)> {
    OPENED
        .try_with(|opened| {
            let mut opened = opened.borrow_mut();
            if !opened.is_for(inner) {
                return None;
            }
            let e = opened.entries.iter().find(|e| e.names(path, prog))?;
            if !e.tables(path, steps) {
                return None;
            }
            let (root, node) = (e.root, e.node);
            Some((root, node, std::mem::take(&mut opened.buf)))
        })
        .ok()
        .flatten()
}

/// Remembers the nodes an opening resolved to under the lock. An entry
/// for the same names takes the new tables (a daemon rebuilds its step
/// tables on every publish), so a republish costs no allocation here.
pub(super) fn remember(
    inner: &Arc<Inner>,
    path: Option<(&str, &Steps)>,
    prog: &str,
    steps: Option<&Steps>,
    root: Option<u32>,
    node: u32,
) {
    let _ = OPENED.try_with(|opened| {
        let mut opened = opened.borrow_mut();
        if !opened.is_for(inner) {
            *opened = Opened {
                sink: Arc::downgrade(inner),
                ..Opened::EMPTY
            };
        }
        let tables = (path.map(|(_, s)| s.clone()), steps.cloned());
        if let Some(e) = opened.entries.iter_mut().find(|e| e.names(path, prog)) {
            if let (Some((_, held)), Some(path)) = (&mut e.path, tables.0) {
                *held = path;
            }
            (e.steps, e.root, e.node) = (tables.1, root, node);
        } else if opened.entries.len() < OPENINGS {
            opened.entries.push(Opening {
                path: path.map(|(name, s)| (name.to_string(), s.clone())),
                prog: prog.to_string(),
                steps: tables.1,
                root,
                node,
            });
        }
    });
}

/// Takes back the emptied buffer of a span opened from this thread's
/// entries; dropped if the thread already holds one.
pub(super) fn give_back(inner: &Arc<Inner>, buf: Vec<Sample>) {
    let _ = OPENED.try_with(|opened| {
        let mut opened = opened.borrow_mut();
        if opened.is_for(inner) && opened.buf.capacity() == 0 {
            opened.buf = buf;
        }
    });
}

/// After a span opened under the lock hands its buffer back to the sink,
/// gives the thread an empty buffer as large, if it holds none, so its
/// next span from the entries grows nothing.
pub(super) fn seed(inner: &Arc<Inner>, capacity: usize) {
    let _ = OPENED.try_with(|opened| {
        let mut opened = opened.borrow_mut();
        if opened.is_for(inner) && opened.buf.capacity() < capacity {
            opened.buf = Vec::with_capacity(capacity);
        }
    });
}
