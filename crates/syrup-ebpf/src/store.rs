//! The append-only program store behind a [`crate::Vm`].
//!
//! Every clone of a VM shares one store, so a program loaded through one
//! handle resolves through all of them — what lets `syrupd` publish cheap
//! VM snapshots to its callers while a redeploy loads the next program.
//! Slots are written once and never move, so readers take no lock: chunk
//! `k` holds `FIRST_CHUNK << k` slots and is allocated the first time a
//! load reaches it.

use std::fmt;
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::decode::DecodedProg;
use crate::Program;

/// Slots in chunk 0; each later chunk doubles.
const FIRST_CHUNK: usize = 32;
/// Enough doubling chunks to cover every `u32` slot number.
const CHUNKS: usize = 28;

/// A loaded program next to its specialised form, if it has one.
pub(crate) struct Loaded {
    pub(crate) prog: Program,
    pub(crate) decoded: Option<DecodedProg>,
}

type Chunk = Box<[OnceLock<Loaded>]>;

pub(crate) struct ProgStore {
    chunks: [OnceLock<Chunk>; CHUNKS],
    /// Slots filled so far; held across a push, which serialises loaders.
    len: Mutex<u32>,
}

/// The chunk holding slot `i` and `i`'s offset inside it.
fn locate(i: u32) -> (usize, usize) {
    let i = i as usize;
    let chunk = (i / FIRST_CHUNK + 1).ilog2() as usize;
    (chunk, i - FIRST_CHUNK * ((1 << chunk) - 1))
}

impl ProgStore {
    pub(crate) fn new() -> Self {
        ProgStore {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: Mutex::new(0),
        }
    }

    pub(crate) fn len(&self) -> u32 {
        *self.len.lock()
    }

    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Option<&Loaded> {
        let (chunk, off) = locate(slot);
        self.chunks[chunk].get()?[off].get()
    }

    /// Every filled slot, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Loaded> {
        (0..self.len()).map_while(|slot| self.get(slot))
    }

    /// Appends `loaded` and returns its slot.
    pub(crate) fn push(&self, loaded: Loaded) -> u32 {
        let mut len = self.len.lock();
        let slot = *len;
        let (chunk, off) = locate(slot);
        let chunk = self.chunks[chunk]
            .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect());
        assert!(
            chunk[off].set(loaded).is_ok(),
            "slots are filled once, under the length lock"
        );
        *len = slot.checked_add(1).expect("program slots exhausted");
        slot
    }
}

impl fmt::Debug for ProgStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgStore")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_tile_the_slot_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(31), (0, 31));
        assert_eq!(locate(32), (1, 0));
        assert_eq!(locate(95), (1, 63));
        assert_eq!(locate(96), (2, 0));
        let (chunk, off) = locate(u32::MAX);
        assert!(chunk < CHUNKS);
        assert!(off < FIRST_CHUNK << chunk);
    }

    #[test]
    fn slots_survive_growth_across_chunks() {
        let store = ProgStore::new();
        assert!(store.get(0).is_none());
        for i in 0..200u32 {
            let prog = Program::new(format!("p{i}"), Vec::new());
            let loaded = Loaded {
                prog,
                decoded: None,
            };
            assert_eq!(store.push(loaded), i);
        }
        assert_eq!(store.len(), 200);
        for (i, loaded) in store.iter().enumerate() {
            assert_eq!(loaded.prog.name, format!("p{i}"));
        }
        assert_eq!(store.iter().count(), 200);
        assert!(store.get(200).is_none());
    }
}
