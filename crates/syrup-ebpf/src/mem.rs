//! Guest memory and the helper ABI: everything a running policy can
//! touch outside its own registers.
//!
//! The interpreter's loads, stores and atomics on the stack, the packet,
//! the context and map values, and the helpers that reach Maps, live
//! here; the fast engine shares the bounds checks and the helpers, so the
//! boundary the safety story rests on exists once. An engine supplies only
//! its registers: a pointer or scalar already read out of them, or (for
//! helpers) a closure that reads r1–r5 on demand. Helpers read their
//! arguments lazily, in ABI order, so which trap wins when several
//! arguments are bad is decided here and nowhere else.
//!
//! Map ids resolve through the VM's load-time handle cache — a borrow, no
//! lock, no refcount traffic — and fall back to the registry only for maps
//! created after the last load. Helper key/value arguments are borrowed
//! straight out of guest memory; only map-value-resident ones are staged,
//! through two per-invocation buffers in [`Frame`].

use std::borrow::Cow;
use std::ops::Range;

use crate::helpers::HelperId;
use crate::insn::{MemSize, Reg};
use crate::maps::{MapError, MapId, MapKind, MapRef, ProgSlot, UpdateFlag};
use crate::vm::{ctx_off, scalar, PacketCtx, Region, RunEnv, Val, Vm, VmError, STACK_SIZE};

/// One invocation's private memory: the stack, plus the scratch a helper
/// key or value argument is staged through when it lives in a map value.
pub(crate) struct Frame {
    pub(crate) stack: [u8; STACK_SIZE as usize],
    key_buf: Vec<u8>,
    val_buf: Vec<u8>,
}

impl Frame {
    pub(crate) fn new() -> Self {
        Frame {
            stack: [0; STACK_SIZE as usize],
            key_buf: Vec::new(),
            val_buf: Vec::new(),
        }
    }
}

/// What a helper call asks the run loop to do next.
pub(crate) enum HelperOutcome {
    Ret(Val),
    Redirect(MapId, u32, u64),
    TailCall(ProgSlot),
}

// Map-fd tokens: scalars with a tag in the top byte. The verifier tracks
// map provenance statically, so tokens only reach helpers via LoadMapFd in
// verified programs; the tag is defense for unverified test programs.
const MAP_FD_TAG: u64 = 0xB7 << 56;

pub(crate) fn map_fd_token(map: MapId) -> u64 {
    MAP_FD_TAG | u64::from(map.0)
}

pub(crate) fn map_from_token(tok: u64) -> Option<MapId> {
    if tok & 0xFF00_0000_0000_0000 == MAP_FD_TAG {
        Some(MapId((tok & 0xFFFF_FFFF) as u32))
    } else {
        None
    }
}

#[inline(always)]
fn resolve_map(vm: &Vm, id: MapId) -> Option<Cow<'_, MapRef>> {
    match vm.map_cache.get(id.0 as usize) {
        Some(map) => Some(Cow::Borrowed(map)),
        None => vm.maps.get(id).map(Cow::Owned),
    }
}

fn map_arg(vm: &Vm, v: Val, helper: HelperId) -> Result<Cow<'_, MapRef>, VmError> {
    let id = match v {
        Val::Scalar(tok) => map_from_token(tok).ok_or(VmError::BadHelperArg(helper))?,
        _ => return Err(VmError::BadHelperArg(helper)),
    };
    resolve_map(vm, id).ok_or(VmError::BadHelperArg(helper))
}

/// The region a memory operand points into and its effective offset. The
/// add wraps: a pointer a policy has pushed to the edge of `i64` lands far
/// outside every region and traps there.
#[inline(always)]
fn effective(ptr: Val, insn_off: i64) -> Result<(Region, i64), VmError> {
    match ptr {
        Val::Ptr { region, off } => Ok((region, off.wrapping_add(insn_off))),
        Val::Scalar(_) => Err(VmError::NotAPointer),
        Val::Uninit => Err(VmError::UninitRegister(Reg::R0)),
    }
}

/// The byte range `off..off + nbytes` of a `len`-byte region.
#[inline(always)]
pub(crate) fn span(
    len: usize,
    off: i64,
    nbytes: u64,
    region: &'static str,
) -> Result<Range<usize>, VmError> {
    if off < 0 || (off as u64).saturating_add(nbytes) > len as u64 {
        return Err(VmError::OutOfBounds {
            region,
            off,
            size: nbytes,
        });
    }
    Ok(off as usize..off as usize + nbytes as usize)
}

/// Narrows a map-value offset to the `u32` the map layer takes. Compared
/// in 64 bits first, so a pointer advanced by 2³² cannot alias back into
/// the value.
#[inline(always)]
pub(crate) fn map_value_off(off: i64, nbytes: u64) -> Result<u32, VmError> {
    u32::try_from(off).map_err(|_| VmError::OutOfBounds {
        region: "map value",
        off,
        size: nbytes,
    })
}

pub(crate) fn read_le(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

pub(crate) fn mem_load(
    vm: &Vm,
    ptr: Val,
    insn_off: i64,
    size: MemSize,
    ctx: &PacketCtx<'_>,
    stack: &[u8],
) -> Result<Val, VmError> {
    let (region, off) = effective(ptr, insn_off)?;
    let nbytes = size.bytes();
    match region {
        Region::Stack => Ok(Val::Scalar(read_le(
            &stack[span(stack.len(), off, nbytes, "stack")?],
        ))),
        Region::Packet => Ok(Val::Scalar(read_le(
            &ctx.data[span(ctx.data.len(), off, nbytes, "packet")?],
        ))),
        Region::Ctx => {
            let oob = VmError::OutOfBounds {
                region: "ctx",
                off,
                size: nbytes,
            };
            if size != MemSize::DW {
                return Err(oob);
            }
            match off {
                ctx_off::DATA => Ok(Val::Ptr {
                    region: Region::Packet,
                    off: 0,
                }),
                ctx_off::DATA_END => Ok(Val::Ptr {
                    region: Region::Packet,
                    off: ctx.data.len() as i64,
                }),
                ctx_off::META0 => Ok(Val::Scalar(ctx.meta[0])),
                ctx_off::META1 => Ok(Val::Scalar(ctx.meta[1])),
                ctx_off::META2 => Ok(Val::Scalar(ctx.meta[2])),
                ctx_off::META3 => Ok(Val::Scalar(ctx.meta[3])),
                _ => Err(oob),
            }
        }
        Region::MapValue { map, slot } => {
            let map_ref = resolve_map(vm, map).ok_or(MapError::NotFound)?;
            let off = map_value_off(off, nbytes)?;
            Ok(Val::Scalar(map_ref.read_value(slot, off, nbytes as u32)?))
        }
    }
}

pub(crate) fn mem_store(
    vm: &Vm,
    ptr: Val,
    insn_off: i64,
    size: MemSize,
    value: u64,
    ctx: &mut PacketCtx<'_>,
    stack: &mut [u8],
) -> Result<(), VmError> {
    let (region, off) = effective(ptr, insn_off)?;
    let nbytes = size.bytes();
    let le = value.to_le_bytes();
    match region {
        Region::Stack => {
            let span = span(stack.len(), off, nbytes, "stack")?;
            stack[span].copy_from_slice(&le[..nbytes as usize]);
        }
        Region::Packet => {
            let span = span(ctx.data.len(), off, nbytes, "packet")?;
            ctx.data[span].copy_from_slice(&le[..nbytes as usize]);
        }
        Region::Ctx => return Err(VmError::ReadOnly),
        Region::MapValue { map, slot } => {
            let map_ref = resolve_map(vm, map).ok_or(MapError::NotFound)?;
            let off = map_value_off(off, nbytes)?;
            map_ref.write_value(slot, off, nbytes as u32, value)?;
        }
    }
    Ok(())
}

/// Adds `addend` to the `size`-wide cell behind `ptr` and returns what it
/// held before.
pub(crate) fn fetch_add(
    vm: &Vm,
    ptr: Val,
    insn_off: i64,
    size: MemSize,
    addend: u64,
    ctx: &mut PacketCtx<'_>,
    stack: &mut [u8],
) -> Result<u64, VmError> {
    // Map values get true (locked) atomicity; stack and packet RMW is
    // local to the invocation so plain read-modify-write suffices.
    if let (Region::MapValue { map, slot }, off) = effective(ptr, insn_off)? {
        let map_ref = resolve_map(vm, map).ok_or(MapError::NotFound)?;
        let off = map_value_off(off, size.bytes())?;
        return Ok(map_ref.fetch_add_value(slot, off, size.bytes() as u32, addend)?);
    }
    let old = scalar(mem_load(vm, ptr, insn_off, size, ctx, stack)?)?;
    let new = match size {
        MemSize::W => ((old as u32).wrapping_add(addend as u32)) as u64,
        _ => old.wrapping_add(addend),
    };
    mem_store(vm, ptr, insn_off, size, new, ctx, stack)?;
    Ok(old)
}

/// Marshals a `len`-byte helper key or value argument. Stack- and
/// packet-resident arguments (nearly all of them) are borrowed straight
/// out of guest memory; map-value-resident ones are staged through `buf`
/// a byte at a time, each under the map layer's own bounds check (so a
/// zero-length argument never traps, whatever its pointer).
fn marshal_arg<'a>(
    vm: &Vm,
    ptr: Val,
    len: u32,
    data: &'a [u8],
    stack: &'a [u8],
    helper: HelperId,
    buf: &'a mut Vec<u8>,
) -> Result<&'a [u8], VmError> {
    let (region, base) = match ptr {
        Val::Ptr { region, off } => (region, off),
        _ => return Err(VmError::BadHelperArg(helper)),
    };
    match region {
        Region::Stack => Ok(&stack[span(stack.len(), base, u64::from(len), "stack")?]),
        Region::Packet => Ok(&data[span(data.len(), base, u64::from(len), "packet")?]),
        Region::MapValue { map, slot } => {
            buf.clear();
            let map_ref = resolve_map(vm, map).ok_or(MapError::NotFound)?;
            for i in 0..i64::from(len) {
                let off = base
                    .checked_add(i)
                    .and_then(|off| u32::try_from(off).ok())
                    .ok_or(VmError::OutOfBounds {
                        region: "map value",
                        off: base,
                        size: u64::from(len),
                    })?;
                buf.push(map_ref.read_value(slot, off, 1)? as u8);
            }
            Ok(&buf[..])
        }
        Region::Ctx => Err(VmError::BadHelperArg(helper)),
    }
}

/// Executes `helper`. `arg` reads one of r1–r5 from the calling engine's
/// register file, trapping on an uninitialised register; it is called only
/// when, and in the order, the helper consumes its arguments.
pub(crate) fn call_helper(
    vm: &Vm,
    helper: HelperId,
    arg: impl Fn(Reg) -> Result<Val, VmError>,
    ctx: &mut PacketCtx<'_>,
    env: &mut RunEnv,
    frame: &mut Frame,
) -> Result<HelperOutcome, VmError> {
    let Frame {
        stack,
        key_buf,
        val_buf,
    } = frame;
    let status = |r: Result<(), MapError>| {
        HelperOutcome::Ret(Val::Scalar(match r {
            Ok(()) => 0,
            Err(_) => -1i64 as u64,
        }))
    };
    match helper {
        HelperId::GetPrandomU32 => Ok(HelperOutcome::Ret(Val::Scalar(u64::from(
            env.next_prandom(),
        )))),
        HelperId::KtimeGetNs => Ok(HelperOutcome::Ret(Val::Scalar(env.now_ns))),
        HelperId::GetSmpProcessorId => Ok(HelperOutcome::Ret(Val::Scalar(u64::from(env.cpu_id)))),
        HelperId::MapLookupElem => {
            let map = map_arg(vm, arg(Reg::R1)?, helper)?;
            let key_size = map.def().key_size;
            let key = marshal_arg(
                vm,
                arg(Reg::R2)?,
                key_size,
                ctx.data,
                stack,
                helper,
                key_buf,
            )?;
            match map.slot_for_key(key)? {
                Some(slot) => Ok(HelperOutcome::Ret(Val::Ptr {
                    region: Region::MapValue {
                        map: map.id(),
                        slot,
                    },
                    off: 0,
                })),
                None => Ok(HelperOutcome::Ret(Val::Scalar(0))),
            }
        }
        HelperId::MapUpdateElem => {
            let map = map_arg(vm, arg(Reg::R1)?, helper)?;
            let def = map.def();
            let key = marshal_arg(
                vm,
                arg(Reg::R2)?,
                def.key_size,
                ctx.data,
                stack,
                helper,
                key_buf,
            )?;
            let value = marshal_arg(
                vm,
                arg(Reg::R3)?,
                def.value_size,
                ctx.data,
                stack,
                helper,
                val_buf,
            )?;
            let flag = match scalar(arg(Reg::R4)?)? {
                0 => UpdateFlag::Any,
                1 => UpdateFlag::NoExist,
                2 => UpdateFlag::Exist,
                _ => return Err(VmError::BadHelperArg(helper)),
            };
            Ok(status(map.update(key, value, flag)))
        }
        HelperId::MapDeleteElem => {
            let map = map_arg(vm, arg(Reg::R1)?, helper)?;
            let key_size = map.def().key_size;
            let key = marshal_arg(
                vm,
                arg(Reg::R2)?,
                key_size,
                ctx.data,
                stack,
                helper,
                key_buf,
            )?;
            Ok(status(map.delete(key)))
        }
        HelperId::RedirectMap => {
            let map = map_arg(vm, arg(Reg::R1)?, helper)?;
            let index = scalar(arg(Reg::R2)?)? as u32;
            // XDP_REDIRECT == 4 in the kernel ABI.
            Ok(HelperOutcome::Redirect(map.id(), index, 4))
        }
        HelperId::TailCall => {
            let map = map_arg(vm, arg(Reg::R2)?, helper)?;
            if map.def().kind != MapKind::ProgArray {
                return Err(VmError::BadHelperArg(helper));
            }
            let index = scalar(arg(Reg::R3)?)? as u32;
            match map.get_prog(index)? {
                Some(slot) => Ok(HelperOutcome::TailCall(slot)),
                // Missing entry: the call fails and execution continues.
                None => Ok(HelperOutcome::Ret(Val::Scalar((-1i64) as u64))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::maps::{MapDef, MapRegistry};
    use crate::vm::{Backend, VmOutcome};

    const PATTERN: u64 = 0x1122_3344_5566_7788;

    enum Op {
        Load,
        Store(u64),
        Add(u64),
    }
    use Op::{Add, Load, Store};

    /// A world for calling the module directly: a VM over one array and
    /// one hash map (8-byte values, key 0 present in both), a stack and a
    /// 16-byte packet.
    struct World {
        vm: Vm,
        stack: [u8; STACK_SIZE as usize],
        packet: [u8; 16],
        meta: [u64; 4],
    }

    impl World {
        fn new() -> (World, [MapId; 2]) {
            let maps = MapRegistry::new();
            let ids = [
                maps.create(MapDef::u64_array(1)),
                maps.create(MapDef::u64_hash(1)),
            ];
            for id in ids {
                maps.get(id).unwrap().update_u64(0, 0).unwrap();
            }
            let world = World {
                vm: Vm::new(maps),
                stack: [0; STACK_SIZE as usize],
                packet: [0; 16],
                meta: [10, 11, 12, 13],
            };
            (world, ids)
        }

        /// Loads yield the value read, atomic adds the old contents,
        /// stores `None`.
        fn apply(
            &mut self,
            op: &Op,
            ptr: Val,
            insn_off: i64,
            size: MemSize,
        ) -> Result<Option<Val>, VmError> {
            let mut ctx = PacketCtx {
                data: &mut self.packet,
                meta: self.meta,
            };
            let (vm, stack) = (&self.vm, &mut self.stack);
            match *op {
                Load => mem_load(vm, ptr, insn_off, size, &ctx, stack).map(Some),
                Store(v) => mem_store(vm, ptr, insn_off, size, v, &mut ctx, stack).map(|()| None),
                Add(v) => fetch_add(vm, ptr, insn_off, size, v, &mut ctx, stack)
                    .map(|old| Some(Val::Scalar(old))),
            }
        }
    }

    fn ptr(region: Region, off: i64) -> Val {
        Val::Ptr { region, off }
    }

    fn loaded(v: u64) -> Result<Option<Val>, VmError> {
        Ok(Some(Val::Scalar(v)))
    }

    #[test]
    fn byte_addressable_regions_share_one_bounds_model() {
        use MemSize::{B, DW, H, W};
        let (mut world, [array, hash]) = World::new();
        let value = |map| Region::MapValue { map, slot: 0 };
        // (region, its length, the name its traps carry)
        let regions = [
            (Region::Stack, STACK_SIZE, "stack"),
            (Region::Packet, 16, "packet"),
            (value(array), 8, "map value"),
            (value(hash), 8, "map value"),
        ];
        for (region, len, name) in regions {
            let oob = |off: i64, size: u64| {
                Err(VmError::OutOfBounds {
                    region: name,
                    off,
                    size,
                })
            };
            // Past the end the map layer's own check fires first; the
            // offset is a valid `u32`, just not inside the value.
            let past = |off: i64, size: u64| match region {
                Region::MapValue { .. } => Err(VmError::Map(MapError::BadSlotAccess)),
                _ => oob(off, size),
            };
            let last = len - 8;
            #[rustfmt::skip]
            let table = [
                // The last word of the region, in bounds at every width.
                (Store(PATTERN), last, DW, Ok(None)),
                (Load, last, DW, loaded(PATTERN)),
                (Load, last, W, loaded(0x5566_7788)),
                (Load, last, H, loaded(0x7788)),
                (Load, last, B, loaded(0x88)),
                (Load, len - 1, B, loaded(0x11)),
                (Store(0xFFFF_FFAA), last + 1, B, Ok(None)),
                (Load, last, H, loaded(0xAA88)),
                (Store(PATTERN), last, DW, Ok(None)),
                // A W add wraps inside its word; a DW add carries through.
                (Store(0xFFFF_FFFF), last, W, Ok(None)),
                (Add(1), last, W, loaded(0xFFFF_FFFF)),
                (Load, last, DW, loaded(0x1122_3344_0000_0000)),
                (Add(u64::MAX), last, DW, loaded(0x1122_3344_0000_0000)),
                (Load, last, DW, loaded(0x1122_3343_FFFF_FFFF)),
                // One byte past the end.
                (Load, len, B, past(len, 1)),
                (Load, last + 1, DW, past(last + 1, 8)),
                (Store(0), len - 1, H, past(len - 1, 2)),
                (Add(1), len - 3, W, past(len - 3, 4)),
                // Before the start.
                (Load, -1, B, oob(-1, 1)),
                (Store(0), -8, DW, oob(-8, 8)),
                (Add(1), -4, W, oob(-4, 4)),
                // Nothing above was written by a trapping access.
                (Load, last, DW, loaded(0x1122_3343_FFFF_FFFF)),
            ];
            for (i, (op, off, size, want)) in table.iter().enumerate() {
                // The effective address is pointer offset plus instruction
                // offset, however the two split it (loads repeat safely).
                let splits = [(*off, 0), (0, *off), (*off + 300, -300)];
                let n = if matches!(op, Load) { splits.len() } else { 1 };
                for (base, insn_off) in &splits[..n] {
                    let got = world.apply(op, ptr(region, *base), *insn_off, *size);
                    assert_eq!(&got, want, "{name} row {i} ({base}{insn_off:+})");
                }
            }
        }
    }

    #[test]
    fn ctx_is_six_read_only_double_words() {
        use MemSize::{DW, W};
        let (mut world, _) = World::new();
        let oob = |off: i64, size: u64| {
            Err(VmError::OutOfBounds {
                region: "ctx",
                off,
                size,
            })
        };
        let packet = |off| Ok(Some(ptr(Region::Packet, off)));
        #[rustfmt::skip]
        let table = [
            (Load, ctx_off::DATA, DW, packet(0)),
            (Load, ctx_off::DATA_END, DW, packet(16)),
            (Load, ctx_off::META0, DW, loaded(10)),
            (Load, ctx_off::META1, DW, loaded(11)),
            (Load, ctx_off::META2, DW, loaded(12)),
            (Load, ctx_off::META3, DW, loaded(13)),
            // Only whole, aligned fields.
            (Load, ctx_off::META0, W, oob(16, 4)),
            (Load, ctx_off::META0 + 4, DW, oob(20, 8)),
            (Load, ctx_off::META3 + 8, DW, oob(48, 8)),
            (Load, -8, DW, oob(-8, 8)),
            // Never writable, in or out of bounds.
            (Store(1), ctx_off::META0, DW, Err(VmError::ReadOnly)),
            (Store(1), 4096, W, Err(VmError::ReadOnly)),
            // An atomic add is a load then a store: the load's trap, a
            // pointer where a scalar is needed, or the store's.
            (Add(1), ctx_off::META0, W, oob(16, 4)),
            (Add(1), ctx_off::DATA, DW, Err(VmError::TypeMismatch)),
            (Add(1), ctx_off::META0, DW, Err(VmError::ReadOnly)),
            (Load, ctx_off::META0, DW, loaded(10)),
        ];
        for (i, (op, off, size, want)) in table.iter().enumerate() {
            let got = world.apply(op, ptr(Region::Ctx, 0), *off, *size);
            assert_eq!(&got, want, "row {i}");
        }
    }

    #[test]
    fn only_pointers_dereference_and_only_known_maps_resolve() {
        let (mut world, _) = World::new();
        for op in [Load, Store(1), Add(1)] {
            let got = world.apply(&op, Val::Scalar(64), 0, MemSize::DW);
            assert_eq!(got, Err(VmError::NotAPointer));
            let stale = Region::MapValue {
                map: MapId(9),
                slot: 0,
            };
            let got = world.apply(&op, ptr(stale, 0), 0, MemSize::DW);
            assert_eq!(got, Err(VmError::Map(MapError::NotFound)));
        }
    }

    #[test]
    fn offsets_at_the_edge_of_i64_and_u32_trap_instead_of_wrapping_back() {
        use MemSize::{DW, W};
        let (mut world, [array, hash]) = World::new();
        for op in [Load, Store(1), Add(1)] {
            // i64::MAX + 16 wraps far below every region.
            for (region, name) in [(Region::Stack, "stack"), (Region::Packet, "packet")] {
                let got = world.apply(&op, ptr(region, i64::MAX), 16, DW);
                let want = VmError::OutOfBounds {
                    region: name,
                    off: i64::MIN + 15,
                    size: 8,
                };
                assert_eq!(got, Err(want));
            }
            // A map-value pointer advanced by 2³² does not alias offset 0.
            for map in [array, hash] {
                let value = Region::MapValue { map, slot: 0 };
                for off in [1 << 32, (1 << 32) + 4, u32::MAX as i64 + 1, i64::MAX, -1] {
                    let got = world.apply(&op, ptr(value, off), 0, W);
                    let want = VmError::OutOfBounds {
                        region: "map value",
                        off,
                        size: 4,
                    };
                    assert_eq!(got, Err(want), "{off:#x}");
                }
                let got = world.apply(&op, ptr(value, u32::MAX as i64), 0, W);
                assert_eq!(got, Err(VmError::Map(MapError::BadSlotAccess)));
            }
        }
    }

    /// Runs what `build` assembles on each backend, against a fresh
    /// one-entry `u64` array map holding 0xABCD, and returns the result
    /// the two agree on.
    fn on_both(build: impl Fn(MapId) -> Asm) -> Result<VmOutcome, VmError> {
        let [interp, fast] = [Backend::Interp, Backend::Fast].map(|backend| {
            let maps = MapRegistry::new();
            let map = maps.create(MapDef::u64_array(1));
            maps.get(map).unwrap().update_u64(0, 0xABCD).unwrap();
            let mut vm = Vm::new(maps);
            vm.set_backend(backend);
            let slot = vm.load_unverified(build(map).build("probe").unwrap());
            let mut data = [0u8; 16];
            let mut ctx = PacketCtx::new(&mut data);
            vm.run(slot, &mut ctx, &mut RunEnv::default())
        });
        assert_eq!(interp, fast, "backends disagree");
        interp
    }

    /// `r0 = &map[0]` (never null: the map is an array).
    fn lookup_first(map: MapId) -> Asm {
        Asm::new()
            .st_w(Reg::R10, -4, 0)
            .load_map_fd(Reg::R1, map)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
    }

    #[test]
    fn a_frame_pointer_moved_to_the_edge_of_i64_traps_on_both_backends() {
        let moved = || {
            Asm::new()
                .mov64_reg(Reg::R8, Reg::R10)
                .load_imm64(Reg::R9, i64::MAX - STACK_SIZE)
                .add64_reg(Reg::R8, Reg::R9)
                .mov64_imm(Reg::R0, 1)
        };
        let want = Err(VmError::OutOfBounds {
            region: "stack",
            off: i64::MIN + 15,
            size: 8,
        });
        assert_eq!(
            on_both(|_| moved().ldx_dw(Reg::R0, Reg::R8, 16).exit()),
            want
        );
        assert_eq!(
            on_both(|_| moved().stx_dw(Reg::R8, 16, Reg::R0).exit()),
            want
        );
        assert_eq!(
            on_both(|_| moved().atomic_add_dw(Reg::R8, 16, Reg::R0).exit()),
            want
        );
    }

    #[test]
    fn a_value_pointer_advanced_by_4gib_traps_on_both_backends() {
        let advanced = |map| {
            lookup_first(map)
                .load_imm64(Reg::R9, 1 << 32)
                .add64_reg(Reg::R0, Reg::R9)
                .mov64_imm(Reg::R6, 1)
        };
        let want = |size| {
            Err(VmError::OutOfBounds {
                region: "map value",
                off: 1 << 32,
                size,
            })
        };
        // Each of these read or wrote the value's own first word before.
        assert_eq!(
            on_both(|map| advanced(map).ldx_dw(Reg::R0, Reg::R0, 0).exit()),
            want(8)
        );
        assert_eq!(
            on_both(|map| advanced(map).stx_w(Reg::R0, 0, Reg::R6).exit()),
            want(4)
        );
        assert_eq!(
            on_both(|map| advanced(map).atomic_add_dw(Reg::R0, 0, Reg::R6).exit()),
            want(8)
        );
        // A helper key read through the advanced pointer.
        assert_eq!(
            on_both(|map| advanced(map)
                .mov64_reg(Reg::R2, Reg::R0)
                .load_map_fd(Reg::R1, map)
                .call(HelperId::MapLookupElem)
                .mov64_imm(Reg::R0, 0)
                .exit()),
            want(4)
        );
        // The unadvanced pointer still works as a key.
        let out = on_both(|map| {
            lookup_first(map)
                .mov64_reg(Reg::R2, Reg::R0)
                .load_map_fd(Reg::R1, map)
                .call(HelperId::MapLookupElem)
                .mov64_imm(Reg::R0, 7)
                .exit()
        });
        assert_eq!(out.unwrap().ret, 7);
    }

    #[test]
    fn helpers_read_arguments_lazily_in_abi_order_on_both_backends() {
        let lookup = HelperId::MapLookupElem;
        let update = HelperId::MapUpdateElem;
        // r2 was never written, but r1 is consumed (and refused) first.
        let bad_token = on_both(|_| Asm::new().mov64_imm(Reg::R1, 5).call(lookup).exit());
        assert_eq!(bad_token, Err(VmError::BadHelperArg(lookup)));
        // With a good r1 the uninitialised r2 is what traps.
        let uninit_key = on_both(|map| Asm::new().load_map_fd(Reg::R1, map).call(lookup).exit());
        assert_eq!(uninit_key, Err(VmError::UninitRegister(Reg::R2)));
        // The value pointer (r3) is dereferenced before the flag (r4) is
        // looked at, and r5 is never read.
        let update_with = |value_off: i32, flag: i32| {
            on_both(|map| {
                Asm::new()
                    .st_w(Reg::R10, -4, 0)
                    .st_dw(Reg::R10, -16, 42)
                    .load_map_fd(Reg::R1, map)
                    .mov64_reg(Reg::R2, Reg::R10)
                    .add64_imm(Reg::R2, -4)
                    .mov64_reg(Reg::R3, Reg::R10)
                    .add64_imm(Reg::R3, value_off)
                    .mov64_imm(Reg::R4, flag)
                    .call(update)
                    .exit()
            })
        };
        let past_the_frame = VmError::OutOfBounds {
            region: "stack",
            off: STACK_SIZE + 8,
            size: 8,
        };
        assert_eq!(update_with(8, 7), Err(past_the_frame));
        assert_eq!(update_with(-16, 7), Err(VmError::BadHelperArg(update)));
        assert_eq!(update_with(-16, 0).unwrap().ret, 0);
    }
}
