//! eBPF maps: the kernel data structures behind Syrup's Map abstraction.
//!
//! Maps are how Syrup policies hold executors, communicate across layers,
//! and talk to userspace agents (§3.4). This module implements the three
//! kinds the paper relies on:
//!
//! * **Array** — fixed-size, zero-initialized, indexed by a `u32` key; used
//!   for executor tables and counters.
//! * **Hash** — arbitrary byte keys; used for application-defined state.
//! * **ProgArray** — program references for tail calls; `syrupd` uses one to
//!   dispatch packets to the owning application's policy (§4.3).
//!
//! Like kernel maps, these have no lock visible to programs; §4.1 notes
//! that programs instead use atomic instructions directly on values, which
//! [`MapRef::fetch_add_value`] provides. Userspace accesses values by copy
//! ([`MapRef::lookup`]/[`MapRef::update`]); programs access them in place
//! through slot handles, mirroring the pointer-to-value semantics of
//! `bpf_map_lookup_elem`.
//!
//! Maps can be pinned to a path in a sysfs-like namespace so multiple
//! programs of the same user can share them; `syrup-core` layers file-style
//! permissions on top.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

/// Identifies a map within a [`MapRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MapId(pub u32);

/// Identifies a loaded program (used by [`MapKind::ProgArray`] entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgSlot(pub u32);

/// The map flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// Fixed-size array indexed by `u32`, zero-initialized.
    Array,
    /// Hash table with arbitrary fixed-size byte keys.
    Hash,
    /// Array of program references for tail calls.
    ProgArray,
}

/// Map creation parameters, mirroring `bpf_map_def`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapDef {
    /// The flavour.
    pub kind: MapKind,
    /// Key size in bytes. Arrays and prog-arrays require 4.
    pub key_size: u32,
    /// Value size in bytes. Prog-arrays require 4.
    pub value_size: u32,
    /// Capacity.
    pub max_entries: u32,
}

impl MapDef {
    /// An array of `u64` values — the paper's default Map shape (§3.4).
    pub fn u64_array(max_entries: u32) -> MapDef {
        MapDef {
            kind: MapKind::Array,
            key_size: 4,
            value_size: 8,
            max_entries,
        }
    }

    /// A hash map from `u32` keys to `u64` values.
    pub fn u64_hash(max_entries: u32) -> MapDef {
        MapDef {
            kind: MapKind::Hash,
            key_size: 4,
            value_size: 8,
            max_entries,
        }
    }

    /// A program array for tail-call dispatch.
    pub fn prog_array(max_entries: u32) -> MapDef {
        MapDef {
            kind: MapKind::ProgArray,
            key_size: 4,
            value_size: 4,
            max_entries,
        }
    }
}

/// Update flags, mirroring `BPF_ANY` / `BPF_NOEXIST` / `BPF_EXIST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateFlag {
    /// Create or overwrite.
    #[default]
    Any,
    /// Only create; fail if the key exists.
    NoExist,
    /// Only overwrite; fail if the key is missing.
    Exist,
}

/// Sorted `(key bytes, value bytes)` snapshot of a whole map, as
/// returned by [`MapRef::entries`].
pub type MapEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// Errors from map operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// Key length does not match the definition.
    BadKeySize {
        /// Expected key length.
        expected: u32,
        /// Provided key length.
        got: usize,
    },
    /// Value length does not match the definition.
    BadValueSize {
        /// Expected value length.
        expected: u32,
        /// Provided value length.
        got: usize,
    },
    /// Array index or prog-array index out of range.
    IndexOutOfRange,
    /// Hash map is full.
    Full,
    /// `UpdateFlag` precondition failed.
    FlagConflict,
    /// Key not present (delete/EXIST update).
    NotFound,
    /// In-place value access hit a stale or out-of-range slot.
    BadSlotAccess,
    /// Operation not supported by this map kind (e.g. data ops on a
    /// prog-array).
    WrongKind,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::BadKeySize { expected, got } => {
                write!(f, "bad key size: expected {expected}, got {got}")
            }
            MapError::BadValueSize { expected, got } => {
                write!(f, "bad value size: expected {expected}, got {got}")
            }
            MapError::IndexOutOfRange => write!(f, "index out of range"),
            MapError::Full => write!(f, "map is full"),
            MapError::FlagConflict => write!(f, "update flag precondition failed"),
            MapError::NotFound => write!(f, "key not found"),
            MapError::BadSlotAccess => write!(f, "stale or out-of-range value slot"),
            MapError::WrongKind => write!(f, "operation unsupported for this map kind"),
        }
    }
}

impl std::error::Error for MapError {}

#[derive(Debug)]
enum Storage {
    /// Marker only: array data lives lock-free in [`MapInner::array`].
    Array,
    Hash {
        index: HashMap<Vec<u8>, usize>,
        slots: Vec<Option<(Vec<u8>, Vec<u8>)>>, // (key, value)
        free: Vec<usize>,
    },
    ProgArray {
        progs: Vec<Option<ProgSlot>>,
    },
}

/// Array-map value bytes as relaxed atomic words, so program loads,
/// stores, and fetch-adds never take the storage lock — arrays are the
/// hot map shape on every per-packet policy path. Each slot is padded to
/// whole words; sub-word accesses merge via CAS, so concurrent writers
/// of neighboring bytes in one word cannot tear each other. Accesses
/// that straddle a word boundary are atomic per word only (the kernel
/// makes no stronger promise for unaligned map-value atomics either).
#[derive(Debug)]
struct ArrayStore {
    words: Vec<AtomicU64>,
    words_per_slot: usize,
}

/// Bit mask covering the low `n` bytes (`n <= 8`).
fn byte_mask(n: usize) -> u64 {
    if n >= 8 {
        u64::MAX
    } else {
        (1u64 << (n * 8)) - 1
    }
}

impl ArrayStore {
    fn new(def: &MapDef) -> Self {
        let words_per_slot = (def.value_size as usize).div_ceil(8);
        let total = def.max_entries as usize * words_per_slot;
        let mut words = Vec::with_capacity(total);
        words.resize_with(total, || AtomicU64::new(0));
        ArrayStore {
            words,
            words_per_slot,
        }
    }

    /// Reads `size` (≤ 8) bytes at byte offset `off` within `slot`,
    /// zero-extended, little-endian. Bounds are the caller's problem.
    fn read(&self, slot: u32, off: usize, size: usize) -> u64 {
        let wi = slot as usize * self.words_per_slot + off / 8;
        let sub = off % 8;
        let lo = self.words[wi].load(Ordering::Relaxed) >> (sub * 8);
        let have = 8 - sub;
        let v = if size > have {
            lo | (self.words[wi + 1].load(Ordering::Relaxed) << (have * 8))
        } else {
            lo
        };
        v & byte_mask(size)
    }

    /// Merges `bits` (pre-shifted) into the word at `wi` under `mask`.
    fn merge(&self, wi: usize, mask: u64, bits: u64) {
        let mut cur = self.words[wi].load(Ordering::Relaxed);
        loop {
            let next = (cur & !mask) | bits;
            match self.words[wi].compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Writes the low `size` bytes of `val` at `off` within `slot`.
    fn write(&self, slot: u32, off: usize, size: usize, val: u64) {
        let wi = slot as usize * self.words_per_slot + off / 8;
        let sub = off % 8;
        if size == 8 && sub == 0 {
            self.words[wi].store(val, Ordering::Relaxed);
            return;
        }
        let have = 8 - sub;
        if size <= have {
            self.merge(
                wi,
                byte_mask(size) << (sub * 8),
                (val & byte_mask(size)) << (sub * 8),
            );
        } else {
            self.merge(
                wi,
                byte_mask(have) << (sub * 8),
                (val & byte_mask(have)) << (sub * 8),
            );
            let rest = size - have;
            self.merge(
                wi + 1,
                byte_mask(rest),
                (val >> (have * 8)) & byte_mask(rest),
            );
        }
    }

    /// Atomically adds to the 4- or 8-byte cell at `off`, returning the
    /// previous contents. Word-aligned cells use a single atomic op; a
    /// cell that straddles words falls back to per-word merges.
    fn fetch_add(&self, slot: u32, off: usize, size: usize, val: u64) -> u64 {
        let sub = off % 8;
        if size == 8 && sub == 0 {
            let wi = slot as usize * self.words_per_slot + off / 8;
            return self.words[wi].fetch_add(val, Ordering::Relaxed);
        }
        if size == 4 && sub <= 4 {
            let wi = slot as usize * self.words_per_slot + off / 8;
            let shift = sub * 8;
            let mask = byte_mask(4) << shift;
            let mut cur = self.words[wi].load(Ordering::Relaxed);
            loop {
                let old = (cur >> shift) & byte_mask(4);
                let new = (old as u32).wrapping_add(val as u32) as u64;
                let next = (cur & !mask) | (new << shift);
                match self.words[wi].compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return old,
                    Err(seen) => cur = seen,
                }
            }
        }
        let old = self.read(slot, off, size);
        let new = if size == 4 {
            (old as u32).wrapping_add(val as u32) as u64
        } else {
            old.wrapping_add(val)
        };
        self.write(slot, off, size, new);
        old
    }

    /// Copies a slot's value bytes out.
    fn copy_out(&self, slot: u32, value_size: usize) -> Vec<u8> {
        let base = slot as usize * self.words_per_slot;
        let mut out = vec![0u8; value_size];
        for (i, chunk) in out.chunks_mut(8).enumerate() {
            let w = self.words[base + i].load(Ordering::Relaxed).to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
        out
    }

    /// Replaces a slot's value bytes (padding in the tail word is zeroed;
    /// it is unobservable).
    fn copy_in(&self, slot: u32, bytes: &[u8]) {
        let base = slot as usize * self.words_per_slot;
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.words[base + i].store(u64::from_le_bytes(buf), Ordering::Relaxed);
        }
    }
}

/// A shared handle to one map.
#[derive(Clone)]
pub struct MapRef {
    inner: Arc<MapInner>,
}

struct MapInner {
    id: MapId,
    def: MapDef,
    /// `Some` exactly when `def.kind == MapKind::Array`.
    array: Option<ArrayStore>,
    storage: Mutex<Storage>,
}

impl fmt::Debug for MapRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapRef")
            .field("id", &self.inner.id)
            .field("def", &self.inner.def)
            .finish()
    }
}

impl MapRef {
    fn new(id: MapId, def: MapDef) -> Self {
        let mut array = None;
        let storage = match def.kind {
            MapKind::Array => {
                array = Some(ArrayStore::new(&def));
                Storage::Array
            }
            MapKind::Hash => Storage::Hash {
                index: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
            },
            MapKind::ProgArray => Storage::ProgArray {
                progs: vec![None; def.max_entries as usize],
            },
        };
        MapRef {
            inner: Arc::new(MapInner {
                id,
                def,
                array,
                storage: Mutex::new(storage),
            }),
        }
    }

    /// The map's identity.
    pub fn id(&self) -> MapId {
        self.inner.id
    }

    /// The creation parameters.
    pub fn def(&self) -> MapDef {
        self.inner.def
    }

    fn check_key(&self, key: &[u8]) -> Result<(), MapError> {
        if key.len() != self.inner.def.key_size as usize {
            return Err(MapError::BadKeySize {
                expected: self.inner.def.key_size,
                got: key.len(),
            });
        }
        Ok(())
    }

    /// Copies out the value for `key` (userspace `bpf_map_lookup_elem`).
    pub fn lookup(&self, key: &[u8]) -> Result<Option<Vec<u8>>, MapError> {
        self.check_key(key)?;
        if let Some(array) = &self.inner.array {
            let idx = array_index(key, self.inner.def.max_entries)?;
            let vs = self.inner.def.value_size as usize;
            return Ok(Some(array.copy_out(idx as u32, vs)));
        }
        let storage = self.inner.storage.lock();
        match &*storage {
            Storage::Array => unreachable!("array handled above"),
            Storage::Hash { index, slots, .. } => Ok(index
                .get(key)
                .and_then(|&slot| slots[slot].as_ref())
                .map(|(_, v)| v.clone())),
            Storage::ProgArray { .. } => Err(MapError::WrongKind),
        }
    }

    /// Convenience: looks up a `u64` value by `u32` key — the paper's
    /// default map shape. Reads the value's first (up to) eight bytes,
    /// little-endian and zero-extended, in place: an array's atomic word,
    /// or a hash value under the storage lock. The errors are
    /// [`MapRef::lookup`]'s.
    pub fn lookup_u64(&self, key: u32) -> Result<Option<u64>, MapError> {
        let key = key.to_le_bytes();
        self.check_key(&key)?;
        if let Some(array) = &self.inner.array {
            let idx = array_index(&key, self.inner.def.max_entries)?;
            let size = (self.inner.def.value_size as usize).min(8);
            return Ok(Some(if size == 0 {
                0
            } else {
                array.read(idx as u32, 0, size)
            }));
        }
        let storage = self.inner.storage.lock();
        match &*storage {
            Storage::Array => unreachable!("array handled above"),
            Storage::Hash { index, slots, .. } => Ok(index
                .get(&key[..])
                .and_then(|&slot| slots[slot].as_ref())
                .map(|(_, v)| {
                    let mut buf = [0u8; 8];
                    let n = v.len().min(8);
                    buf[..n].copy_from_slice(&v[..n]);
                    u64::from_le_bytes(buf)
                })),
            Storage::ProgArray { .. } => Err(MapError::WrongKind),
        }
    }

    /// Snapshots every present entry as sorted `(key, value)` pairs, for
    /// whole-map state comparison (the backend-diff oracle). Array maps
    /// yield every index under its `u32` little-endian key; prog-arrays
    /// hold programs, not data.
    pub fn entries(&self) -> Result<MapEntries, MapError> {
        if let Some(array) = &self.inner.array {
            let vs = self.inner.def.value_size as usize;
            return Ok((0..self.inner.def.max_entries)
                .map(|i| (i.to_le_bytes().to_vec(), array.copy_out(i, vs)))
                .collect());
        }
        let storage = self.inner.storage.lock();
        match &*storage {
            Storage::Array => unreachable!("array handled above"),
            Storage::Hash { slots, .. } => {
                let mut out: Vec<_> = slots
                    .iter()
                    .flatten()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                out.sort();
                Ok(out)
            }
            Storage::ProgArray { .. } => Err(MapError::WrongKind),
        }
    }

    /// Writes the value for `key` (userspace `bpf_map_update_elem`).
    pub fn update(&self, key: &[u8], value: &[u8], flag: UpdateFlag) -> Result<(), MapError> {
        self.check_key(key)?;
        if value.len() != self.inner.def.value_size as usize {
            return Err(MapError::BadValueSize {
                expected: self.inner.def.value_size,
                got: value.len(),
            });
        }
        if let Some(array) = &self.inner.array {
            if flag == UpdateFlag::NoExist {
                // Array elements always exist.
                return Err(MapError::FlagConflict);
            }
            let idx = array_index(key, self.inner.def.max_entries)?;
            array.copy_in(idx as u32, value);
            return Ok(());
        }
        let mut storage = self.inner.storage.lock();
        match &mut *storage {
            Storage::Array => unreachable!("array handled above"),
            Storage::Hash { index, slots, free } => {
                let exists = index.contains_key(key);
                match flag {
                    UpdateFlag::NoExist if exists => return Err(MapError::FlagConflict),
                    UpdateFlag::Exist if !exists => return Err(MapError::FlagConflict),
                    _ => {}
                }
                if let Some(&slot) = index.get(key) {
                    if let Some((_, v)) = slots[slot].as_mut() {
                        v.copy_from_slice(value);
                    }
                    return Ok(());
                }
                if index.len() >= self.inner.def.max_entries as usize {
                    return Err(MapError::Full);
                }
                let slot = match free.pop() {
                    Some(s) => {
                        slots[s] = Some((key.to_vec(), value.to_vec()));
                        s
                    }
                    None => {
                        slots.push(Some((key.to_vec(), value.to_vec())));
                        slots.len() - 1
                    }
                };
                index.insert(key.to_vec(), slot);
                Ok(())
            }
            Storage::ProgArray { .. } => Err(MapError::WrongKind),
        }
    }

    /// Convenience: stores a `u64` value under a `u32` key. An array of
    /// `u64` values takes it as one store to the slot's atomic word; any
    /// other map goes through [`MapRef::update`], errors included.
    pub fn update_u64(&self, key: u32, value: u64) -> Result<(), MapError> {
        let key = key.to_le_bytes();
        let def = &self.inner.def;
        if let Some(array) = &self.inner.array {
            if def.key_size == 4 && def.value_size == 8 {
                let idx = array_index(&key, def.max_entries)?;
                array.write(idx as u32, 0, 8, value);
                return Ok(());
            }
        }
        self.update(&key, &value.to_le_bytes(), UpdateFlag::Any)
    }

    /// Deletes `key` (hash maps only; array elements cannot be deleted).
    pub fn delete(&self, key: &[u8]) -> Result<(), MapError> {
        self.check_key(key)?;
        let mut storage = self.inner.storage.lock();
        match &mut *storage {
            Storage::Array => Err(MapError::WrongKind),
            Storage::Hash { index, slots, free } => match index.remove(key) {
                Some(slot) => {
                    slots[slot] = None;
                    free.push(slot);
                    Ok(())
                }
                None => Err(MapError::NotFound),
            },
            Storage::ProgArray { .. } => Err(MapError::WrongKind),
        }
    }

    /// Resolves `key` to a stable value-slot handle for in-place program
    /// access (the pointer `bpf_map_lookup_elem` returns in kernel code).
    pub fn slot_for_key(&self, key: &[u8]) -> Result<Option<u32>, MapError> {
        self.check_key(key)?;
        // Array slots are a pure function of the immutable def — no need
        // to take the storage lock on the hottest lookup path.
        if self.inner.def.kind == MapKind::Array {
            return match array_index(key, self.inner.def.max_entries) {
                Ok(idx) => Ok(Some(idx as u32)),
                // Out-of-range array lookups return NULL in the kernel.
                Err(_) => Ok(None),
            };
        }
        let storage = self.inner.storage.lock();
        match &*storage {
            Storage::Array => unreachable!("array handled above"),
            Storage::Hash { index, .. } => Ok(index.get(key).map(|&s| s as u32)),
            Storage::ProgArray { .. } => Err(MapError::WrongKind),
        }
    }

    /// Bounds-checks an array slot access, returning the byte offset and
    /// size as `usize` (array values are dense, so `off + size` within
    /// `value_size` is the whole check).
    #[inline(always)]
    fn check_array_access(
        &self,
        slot: u32,
        off: u32,
        size: u32,
    ) -> Result<(usize, usize), MapError> {
        let (off, size) = (off as usize, size as usize);
        if slot >= self.inner.def.max_entries || off + size > self.inner.def.value_size as usize {
            return Err(MapError::BadSlotAccess);
        }
        Ok((off, size))
    }

    fn with_value_bytes<R>(
        &self,
        slot: u32,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, MapError> {
        let mut storage = self.inner.storage.lock();
        match &mut *storage {
            Storage::Array => unreachable!("array accesses bypass the lock"),
            Storage::Hash { slots, .. } => match slots.get_mut(slot as usize) {
                Some(Some((_, v))) => Ok(f(v)),
                // The slot was deleted after the program obtained the
                // handle; the kernel prevents this with RCU, we trap.
                _ => Err(MapError::BadSlotAccess),
            },
            Storage::ProgArray { .. } => Err(MapError::WrongKind),
        }
    }

    /// Reads `size` bytes at `off` within the value at `slot`,
    /// zero-extended to `u64` (little-endian, as on x86).
    pub fn read_value(&self, slot: u32, off: u32, size: u32) -> Result<u64, MapError> {
        if let Some(array) = &self.inner.array {
            let (off, size) = self.check_array_access(slot, off, size)?;
            return Ok(array.read(slot, off, size));
        }
        self.with_value_bytes(slot, |bytes| {
            let (off, size) = (off as usize, size as usize);
            if off + size > bytes.len() {
                return Err(MapError::BadSlotAccess);
            }
            let mut buf = [0u8; 8];
            buf[..size].copy_from_slice(&bytes[off..off + size]);
            Ok(u64::from_le_bytes(buf))
        })?
    }

    /// Writes the low `size` bytes of `val` at `off` within the value at
    /// `slot`.
    pub fn write_value(&self, slot: u32, off: u32, size: u32, val: u64) -> Result<(), MapError> {
        if let Some(array) = &self.inner.array {
            let (off, size) = self.check_array_access(slot, off, size)?;
            array.write(slot, off, size, val);
            return Ok(());
        }
        self.with_value_bytes(slot, |bytes| {
            let (off, size) = (off as usize, size as usize);
            if off + size > bytes.len() {
                return Err(MapError::BadSlotAccess);
            }
            bytes[off..off + size].copy_from_slice(&val.to_le_bytes()[..size]);
            Ok(())
        })?
    }

    /// Atomically adds `val` to the 4- or 8-byte cell at `off` within the
    /// value at `slot`, returning the previous contents. This is the §4.1
    /// "atomic instructions directly on BPF map values" primitive.
    pub fn fetch_add_value(
        &self,
        slot: u32,
        off: u32,
        size: u32,
        val: u64,
    ) -> Result<u64, MapError> {
        if size != 4 && size != 8 {
            return Err(MapError::BadSlotAccess);
        }
        if let Some(array) = &self.inner.array {
            let (off, size) = self.check_array_access(slot, off, size)?;
            return Ok(array.fetch_add(slot, off, size, val));
        }
        self.with_value_bytes(slot, |bytes| {
            let (off, size) = (off as usize, size as usize);
            if off + size > bytes.len() {
                return Err(MapError::BadSlotAccess);
            }
            let mut buf = [0u8; 8];
            buf[..size].copy_from_slice(&bytes[off..off + size]);
            let old = u64::from_le_bytes(buf);
            let new = if size == 4 {
                ((old as u32).wrapping_add(val as u32)) as u64
            } else {
                old.wrapping_add(val)
            };
            bytes[off..off + size].copy_from_slice(&new.to_le_bytes()[..size]);
            Ok(old)
        })?
    }

    /// Reads a prog-array entry.
    pub fn get_prog(&self, index: u32) -> Result<Option<ProgSlot>, MapError> {
        let storage = self.inner.storage.lock();
        match &*storage {
            Storage::ProgArray { progs } => Ok(progs.get(index as usize).copied().flatten()),
            _ => Err(MapError::WrongKind),
        }
    }

    /// Sets a prog-array entry (how `syrupd` installs per-app policies).
    pub fn set_prog(&self, index: u32, prog: Option<ProgSlot>) -> Result<(), MapError> {
        let mut storage = self.inner.storage.lock();
        match &mut *storage {
            Storage::ProgArray { progs } => match progs.get_mut(index as usize) {
                Some(entry) => {
                    *entry = prog;
                    Ok(())
                }
                None => Err(MapError::IndexOutOfRange),
            },
            _ => Err(MapError::WrongKind),
        }
    }

    /// Number of live entries (hash) or capacity (array / prog-array).
    pub fn len(&self) -> usize {
        let storage = self.inner.storage.lock();
        match &*storage {
            Storage::Array | Storage::ProgArray { .. } => self.inner.def.max_entries as usize,
            Storage::Hash { index, .. } => index.len(),
        }
    }

    /// Whether a hash map holds no entries (always `false` for arrays).
    pub fn is_empty(&self) -> bool {
        let storage = self.inner.storage.lock();
        match &*storage {
            Storage::Hash { index, .. } => index.is_empty(),
            _ => false,
        }
    }
}

fn array_index(key: &[u8], max_entries: u32) -> Result<usize, MapError> {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&key[..4]);
    let idx = u32::from_le_bytes(buf);
    if idx >= max_entries {
        return Err(MapError::IndexOutOfRange);
    }
    Ok(idx as usize)
}

/// A registry of maps with a pin-to-path namespace (the sysfs pinning of
/// §3.4). Cloning shares the underlying registry.
#[derive(Clone, Default)]
pub struct MapRegistry {
    inner: Arc<RwLock<RegistryInner>>,
}

#[derive(Default)]
struct RegistryInner {
    maps: Vec<MapRef>,
    pins: HashMap<String, MapId>,
}

impl fmt::Debug for MapRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("MapRegistry")
            .field("maps", &inner.maps.len())
            .field("pins", &inner.pins.len())
            .finish()
    }
}

impl MapRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a map and returns its id.
    pub fn create(&self, def: MapDef) -> MapId {
        let mut inner = self.inner.write();
        let id = MapId(inner.maps.len() as u32);
        inner.maps.push(MapRef::new(id, def));
        id
    }

    /// Fetches a handle by id.
    pub fn get(&self, id: MapId) -> Option<MapRef> {
        self.inner.read().maps.get(id.0 as usize).cloned()
    }

    /// Handles of every map, indexed by id.
    pub(crate) fn handles(&self) -> Arc<[MapRef]> {
        self.inner.read().maps.iter().cloned().collect()
    }

    /// Pins a map to a path so other programs can open it.
    pub fn pin(&self, id: MapId, path: impl Into<String>) -> Result<(), MapError> {
        let mut inner = self.inner.write();
        if id.0 as usize >= inner.maps.len() {
            return Err(MapError::NotFound);
        }
        inner.pins.insert(path.into(), id);
        Ok(())
    }

    /// Removes a pin; the map itself survives (ids are never reused), only
    /// the path lookup goes away. Errors if the path was not pinned.
    pub fn unpin(&self, path: &str) -> Result<MapId, MapError> {
        let mut inner = self.inner.write();
        inner.pins.remove(path).ok_or(MapError::NotFound)
    }

    /// Opens a pinned map by path (`syr_map_open`).
    pub fn open(&self, path: &str) -> Option<MapRef> {
        let inner = self.inner.read();
        let id = *inner.pins.get(path)?;
        inner.maps.get(id.0 as usize).cloned()
    }

    /// All pinned paths with their map ids, sorted by path (the
    /// `ls /sys/fs/bpf` an operator would run; `syrupctl map dump` uses
    /// it to enumerate maps).
    pub fn pins(&self) -> Vec<(String, MapId)> {
        let inner = self.inner.read();
        let mut pins: Vec<(String, MapId)> =
            inner.pins.iter().map(|(p, &id)| (p.clone(), id)).collect();
        pins.sort();
        pins
    }

    /// Number of maps ever created.
    pub fn len(&self) -> usize {
        self.inner.read().maps.len()
    }

    /// Whether no maps exist.
    pub fn is_empty(&self) -> bool {
        self.inner.read().maps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with(def: MapDef) -> (MapRegistry, MapRef) {
        let reg = MapRegistry::new();
        let id = reg.create(def);
        let map = reg.get(id).unwrap();
        (reg, map)
    }

    #[test]
    fn array_is_zero_initialized() {
        let (_, map) = registry_with(MapDef::u64_array(4));
        assert_eq!(map.lookup_u64(0).unwrap(), Some(0));
        assert_eq!(map.lookup_u64(3).unwrap(), Some(0));
    }

    #[test]
    fn array_update_lookup_round_trip() {
        let (_, map) = registry_with(MapDef::u64_array(8));
        map.update_u64(5, 0xDEAD_BEEF).unwrap();
        assert_eq!(map.lookup_u64(5).unwrap(), Some(0xDEAD_BEEF));
    }

    #[test]
    fn array_out_of_range() {
        let (_, map) = registry_with(MapDef::u64_array(2));
        assert_eq!(map.lookup_u64(2), Err(MapError::IndexOutOfRange));
        assert_eq!(map.update_u64(9, 1), Err(MapError::IndexOutOfRange));
        // In-kernel lookup of an OOB array index returns NULL.
        assert_eq!(map.slot_for_key(&9u32.to_le_bytes()).unwrap(), None);
    }

    /// `lookup_u64` as it was before it read in place: a copy of the
    /// value, decoded.
    fn lookup_u64_by_copy(map: &MapRef, key: u32) -> Result<Option<u64>, MapError> {
        let v = map.lookup(&key.to_le_bytes())?;
        Ok(v.map(|bytes| {
            let mut buf = [0u8; 8];
            let n = bytes.len().min(8);
            buf[..n].copy_from_slice(&bytes[..n]);
            u64::from_le_bytes(buf)
        }))
    }

    /// The `u64` accessors read and write in place, and give what the
    /// copy-and-decode path and a plain [`MapRef::update`] give: on 4-,
    /// 8- and 16-byte array values, past `max_entries`, on a hash hit and
    /// miss, on a hash with 8-byte keys, and on a prog-array.
    #[test]
    fn u64_accessors_match_copy_and_decode() {
        let array = |value_size| MapDef {
            kind: MapKind::Array,
            key_size: 4,
            value_size,
            max_entries: 4,
        };
        let defs = [
            array(4),
            array(8),
            array(16),
            MapDef::u64_hash(4),
            MapDef {
                key_size: 8,
                ..MapDef::u64_hash(4)
            },
            MapDef::prog_array(4),
        ];
        for def in defs {
            let (_, map) = registry_with(def);
            // Value bytes 0x11, 0x22, … under keys 1 and 3.
            let bytes: Vec<u8> = (1..=def.value_size as u8)
                .map(|b| b.wrapping_mul(0x11))
                .collect();
            for key in [1u32, 3] {
                let _ = map.update(&key.to_le_bytes(), &bytes, UpdateFlag::Any);
            }
            // Keys 1 and 3 hit, 0 misses a hash and 4 is past an array's end.
            for key in 0..=4 {
                let got = map.lookup_u64(key);
                assert_eq!(got, lookup_u64_by_copy(&map, key), "{def:?} key {key}");
            }
            let (_, by_update) = registry_with(def);
            for key in [1u32, 3] {
                let _ = by_update.update(&key.to_le_bytes(), &bytes, UpdateFlag::Any);
            }
            for (key, value) in [(1u32, 0xDEAD_BEEF_u64), (2, u64::MAX), (4, 7), (9, 1)] {
                let want =
                    by_update.update(&key.to_le_bytes(), &value.to_le_bytes(), UpdateFlag::Any);
                assert_eq!(map.update_u64(key, value), want, "{def:?} key {key}");
            }
            assert_eq!(map.entries(), by_update.entries(), "{def:?}");
        }
        let (_, map) = registry_with(array(4));
        map.update(&1u32.to_le_bytes(), &[1, 2, 3, 4], UpdateFlag::Any)
            .unwrap();
        assert_eq!(map.lookup_u64(1), Ok(Some(0x0403_0201)));
        let (_, map) = registry_with(MapDef::u64_hash(4));
        map.update_u64(1, 5).unwrap();
        assert_eq!(
            (map.lookup_u64(1), map.lookup_u64(2)),
            (Ok(Some(5)), Ok(None))
        );
    }

    #[test]
    fn array_rejects_delete_and_noexist() {
        let (_, map) = registry_with(MapDef::u64_array(2));
        assert_eq!(map.delete(&0u32.to_le_bytes()), Err(MapError::WrongKind));
        assert_eq!(
            map.update(
                &0u32.to_le_bytes(),
                &1u64.to_le_bytes(),
                UpdateFlag::NoExist
            ),
            Err(MapError::FlagConflict)
        );
    }

    #[test]
    fn hash_insert_lookup_delete() {
        let (_, map) = registry_with(MapDef::u64_hash(16));
        assert_eq!(map.lookup_u64(7).unwrap(), None);
        map.update_u64(7, 42).unwrap();
        assert_eq!(map.lookup_u64(7).unwrap(), Some(42));
        map.delete(&7u32.to_le_bytes()).unwrap();
        assert_eq!(map.lookup_u64(7).unwrap(), None);
        assert_eq!(map.delete(&7u32.to_le_bytes()), Err(MapError::NotFound));
    }

    #[test]
    fn hash_capacity_and_slot_reuse() {
        let (_, map) = registry_with(MapDef::u64_hash(2));
        map.update_u64(1, 1).unwrap();
        map.update_u64(2, 2).unwrap();
        assert_eq!(map.update_u64(3, 3), Err(MapError::Full));
        map.delete(&1u32.to_le_bytes()).unwrap();
        map.update_u64(3, 3).unwrap();
        assert_eq!(map.lookup_u64(3).unwrap(), Some(3));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn hash_update_flags() {
        let (_, map) = registry_with(MapDef::u64_hash(4));
        let k = 1u32.to_le_bytes();
        let v = 5u64.to_le_bytes();
        assert_eq!(
            map.update(&k, &v, UpdateFlag::Exist),
            Err(MapError::FlagConflict)
        );
        map.update(&k, &v, UpdateFlag::NoExist).unwrap();
        assert_eq!(
            map.update(&k, &v, UpdateFlag::NoExist),
            Err(MapError::FlagConflict)
        );
        map.update(&k, &10u64.to_le_bytes(), UpdateFlag::Exist)
            .unwrap();
        assert_eq!(map.lookup_u64(1).unwrap(), Some(10));
    }

    #[test]
    fn key_and_value_size_checks() {
        let (_, map) = registry_with(MapDef::u64_array(2));
        assert!(matches!(
            map.lookup(&[0u8; 3]),
            Err(MapError::BadKeySize {
                expected: 4,
                got: 3
            })
        ));
        assert!(matches!(
            map.update(&0u32.to_le_bytes(), &[0u8; 7], UpdateFlag::Any),
            Err(MapError::BadValueSize {
                expected: 8,
                got: 7
            })
        ));
    }

    #[test]
    fn in_place_value_access() {
        let (_, map) = registry_with(MapDef::u64_array(4));
        let slot = map.slot_for_key(&2u32.to_le_bytes()).unwrap().unwrap();
        map.write_value(slot, 0, 8, 100).unwrap();
        assert_eq!(map.read_value(slot, 0, 8).unwrap(), 100);
        assert_eq!(map.lookup_u64(2).unwrap(), Some(100));
        // Sub-word access.
        map.write_value(slot, 4, 2, 0xABCD).unwrap();
        assert_eq!(map.read_value(slot, 4, 2).unwrap(), 0xABCD);
        // Out-of-bounds within the value traps.
        assert_eq!(map.read_value(slot, 7, 4), Err(MapError::BadSlotAccess));
    }

    #[test]
    fn fetch_add_semantics() {
        let (_, map) = registry_with(MapDef::u64_array(1));
        let slot = map.slot_for_key(&0u32.to_le_bytes()).unwrap().unwrap();
        map.write_value(slot, 0, 8, 10).unwrap();
        assert_eq!(map.fetch_add_value(slot, 0, 8, 5).unwrap(), 10);
        assert_eq!(map.read_value(slot, 0, 8).unwrap(), 15);
        // Token-style decrement via two's complement.
        assert_eq!(map.fetch_add_value(slot, 0, 8, (-1i64) as u64).unwrap(), 15);
        assert_eq!(map.read_value(slot, 0, 8).unwrap(), 14);
        // 32-bit wraps within the word.
        map.write_value(slot, 0, 4, u32::MAX as u64).unwrap();
        map.fetch_add_value(slot, 0, 4, 1).unwrap();
        assert_eq!(map.read_value(slot, 0, 4).unwrap(), 0);
        // Only word sizes are atomic.
        assert_eq!(
            map.fetch_add_value(slot, 0, 2, 1),
            Err(MapError::BadSlotAccess)
        );
    }

    #[test]
    fn stale_hash_slot_traps() {
        let (_, map) = registry_with(MapDef::u64_hash(4));
        map.update_u64(9, 1).unwrap();
        let slot = map.slot_for_key(&9u32.to_le_bytes()).unwrap().unwrap();
        map.delete(&9u32.to_le_bytes()).unwrap();
        assert_eq!(map.read_value(slot, 0, 8), Err(MapError::BadSlotAccess));
    }

    #[test]
    fn prog_array_entries() {
        let (_, map) = registry_with(MapDef::prog_array(4));
        assert_eq!(map.get_prog(0).unwrap(), None);
        map.set_prog(0, Some(ProgSlot(11))).unwrap();
        assert_eq!(map.get_prog(0).unwrap(), Some(ProgSlot(11)));
        map.set_prog(0, None).unwrap();
        assert_eq!(map.get_prog(0).unwrap(), None);
        assert_eq!(
            map.set_prog(9, Some(ProgSlot(1))),
            Err(MapError::IndexOutOfRange)
        );
        assert_eq!(map.get_prog(9).unwrap(), None);
        // Data ops are invalid on prog arrays.
        assert_eq!(map.lookup(&0u32.to_le_bytes()), Err(MapError::WrongKind));
    }

    #[test]
    fn pinning_namespace() {
        let (reg, map) = registry_with(MapDef::u64_array(1));
        reg.pin(map.id(), "/sys/fs/bpf/app1/tokens").unwrap();
        let opened = reg.open("/sys/fs/bpf/app1/tokens").unwrap();
        opened.update_u64(0, 77).unwrap();
        assert_eq!(map.lookup_u64(0).unwrap(), Some(77));
        assert!(reg.open("/sys/fs/bpf/other").is_none());
        assert_eq!(reg.pin(MapId(99), "x"), Err(MapError::NotFound));
    }

    #[test]
    fn concurrent_fetch_add_is_atomic() {
        let (_, map) = registry_with(MapDef::u64_array(1));
        let slot = map.slot_for_key(&0u32.to_le_bytes()).unwrap().unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = map.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.fetch_add_value(slot, 0, 8, 1).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(map.read_value(slot, 0, 8).unwrap(), 40_000);
    }
}
