//! The default engine: verified programs on untagged registers.
//!
//! Executes the [`DecodedProg`] a verified program was lowered into at
//! load (`decode.rs`). It keeps the interpreter's whole observable
//! contract — verdicts, map state, helper effects, tail-call semantics and
//! the depth cap, trap kinds, modelled cycle totals, and the
//! telemetry/profiler instrumentation points — and drops what the
//! verifier has already decided:
//!
//! * registers are plain words, `[u64; 11]`. A packet or stack pointer is
//!   its offset, the context pointer is 0, and a map-value pointer packs
//!   `(slot, offset)` so NULL stays 0. The verifier's facts say which a
//!   word is wherever it matters, so no step matches a tag;
//! * each memory step goes straight to its region and each map step to
//!   the map bound at load;
//! * accounting is per basic block: a block's `(insns, cycles)` is charged
//!   on entry, so the budget is checked at block starts — every back edge
//!   lands on one. A block that would cross [`RUNTIME_INSN_LIMIT`] is
//!   finished per step, so the run traps at the very instruction the
//!   interpreter would.
//!
//! Every access still goes through a checked index that returns the
//! interpreter's error for it: a hole in the verifier becomes a trap here,
//! never a panic or undefined behaviour. Rare helpers rebuild the tagged
//! values `mem.rs` takes from the kinds at their call site.
//!
//! A run stays on this engine from entry to exit: a tail call lands in
//! its target's specialised form, and a prog-array entry holding a
//! program with none (only `Vm::load_unverified` loads one) traps the
//! call with [`VmError::NoSuchProgram`], as an empty slot does.
//!
//! The loop is monomorphised three ways. Unprofiled, it charges blocks
//! and has no instrumentation branch at all (the ≤5ns disabled-cost
//! contract). Under a profiler it still charges blocks and records one
//! hit per block entered, which the profiler expands into per-pc buckets
//! from the program's static step table; a trap part way through a block
//! cuts that hit to the steps that ran. The per-step form serves only the
//! finish of a run about to cross the budget.

use crate::decode::{pack, unpack, DecodedProg, Mem, Op, Place};
use crate::helpers::HelperId;
use crate::insn::{MemSize, Reg, Width};
use crate::mem::{call_helper, map_value_off, read_le, span, Frame, HelperOutcome};
use crate::verifier::Kind;
use crate::vm::{
    alu32, alu64, cmp_u64, PacketCtx, Region, RunEnv, Tally, Val, Vm, VmError, VmOutcome, CTX,
    MAX_TAIL_CALLS, RUNTIME_INSN_LIMIT, STACK_SIZE,
};
use syrup_observe::profile::VmSpan;

/// The state a run carries from one accounting mode to the next.
struct Machine {
    /// The next step.
    at: usize,
    regs: [u64; 11],
    frame: Frame,
    tally: Tally,
}

/// Runs `prog`, and every program it tail-calls, from its first step with
/// `tally` already on the account and `prof` attributing.
pub(crate) fn run(
    vm: &Vm,
    prog: &DecodedProg,
    tally: Tally,
    prof: &mut VmSpan,
    ctx: &mut PacketCtx<'_>,
    env: &mut RunEnv,
) -> Result<VmOutcome, VmError> {
    let mut m = Machine {
        at: 0,
        regs: [0; 11],
        frame: Frame::new(),
        tally,
    };
    // The context (0) in r1, the frame pointer in r10, and nothing the
    // verifier lets the program read before writing.
    m.regs[Reg::R10.index()] = STACK_SIZE as u64;
    let ret = if vm.profiler.is_enabled() {
        exec::<PROFILED>(vm, prog, &mut m, prof, ctx, env)?
    } else {
        exec::<BLOCKS>(vm, prog, &mut m, prof, ctx, env)?
    };
    Ok(m.tally.outcome(ret))
}

/// The tagged value a `kind` word stands for.
fn val(kind: Kind, word: u64) -> Val {
    let ptr = |region| Val::Ptr {
        region,
        off: word as i64,
    };
    match kind {
        Kind::Scalar | Kind::MapFd(_) => Val::Scalar(word),
        Kind::Ctx => CTX,
        Kind::Packet => ptr(Region::Packet),
        Kind::Stack => ptr(Region::Stack),
        Kind::MapValue(_) if word == 0 => Val::Scalar(0),
        Kind::MapValue(map) => {
            let (slot, off) = unpack(word);
            Val::Ptr {
                region: Region::MapValue { map, slot },
                off,
            }
        }
        Kind::Unseen | Kind::Uninit | Kind::Mixed => Val::Uninit,
    }
}

/// The word a helper's result stands for.
fn word(v: Val) -> u64 {
    match v {
        Val::Scalar(s) => s,
        Val::Ptr {
            region: Region::MapValue { slot, .. },
            off,
        } => pack(slot, off),
        Val::Ptr { off, .. } => off as u64,
        Val::Uninit => 0,
    }
}

#[inline(always)]
fn load(bytes: &[u8], off: i64, size: MemSize, region: &'static str) -> Result<u64, VmError> {
    Ok(read_le(
        &bytes[span(bytes.len(), off, size.bytes(), region)?],
    ))
}

#[inline(always)]
fn store(
    bytes: &mut [u8],
    off: i64,
    size: MemSize,
    v: u64,
    region: &'static str,
) -> Result<(), VmError> {
    let span = span(bytes.len(), off, size.bytes(), region)?;
    let n = span.len();
    bytes[span].copy_from_slice(&v.to_le_bytes()[..n]);
    Ok(())
}

/// The `(slot, offset)` a map-value step at `insn_off` from `base` reads.
#[inline(always)]
fn value_at(base: u64, insn_off: i16, size: MemSize) -> Result<(u32, u32), VmError> {
    let (slot, off) = unpack(base);
    let off = off.wrapping_add(i64::from(insn_off));
    Ok((slot, map_value_off(off, size.bytes())?))
}

/// Byte `off` past the pointer in register `base`, as the interpreter
/// offsets it.
#[inline(always)]
fn addr(regs: &[u64; 11], base: u8, off: i16) -> i64 {
    (regs[usize::from(base)] as i64).wrapping_add(i64::from(off))
}

/// Writes the low bytes of `v` to the cell at `at`.
fn write(
    prog: &DecodedProg,
    regs: &[u64; 11],
    stack: &mut [u8],
    at: Place,
    v: u64,
    ctx: &mut PacketCtx<'_>,
) -> Result<(), VmError> {
    let base = regs[usize::from(at.base)];
    match at.to {
        Mem::Stack => store(stack, addr(regs, at.base, at.off), at.size, v, "stack"),
        Mem::Packet => store(ctx.data, addr(regs, at.base, at.off), at.size, v, "packet"),
        Mem::MapValue(map) => {
            let (slot, off) = value_at(base, at.off, at.size)?;
            let map = &prog.maps[usize::from(map)];
            Ok(map.write_value(slot, off, at.size.bytes() as u32, v)?)
        }
    }
}

/// Adds `addend` to the cell at `at`; returns what it held.
fn fetch_add(
    prog: &DecodedProg,
    regs: &[u64; 11],
    stack: &mut [u8],
    at: Place,
    addend: u64,
    ctx: &mut PacketCtx<'_>,
) -> Result<u64, VmError> {
    let old = match at.to {
        Mem::MapValue(map) => {
            let (slot, off) = value_at(regs[usize::from(at.base)], at.off, at.size)?;
            let map = &prog.maps[usize::from(map)];
            return Ok(map.fetch_add_value(slot, off, at.size.bytes() as u32, addend)?);
        }
        Mem::Stack => load(stack, addr(regs, at.base, at.off), at.size, "stack")?,
        Mem::Packet => load(ctx.data, addr(regs, at.base, at.off), at.size, "packet")?,
    };
    let new = match at.size {
        MemSize::W => u64::from((old as u32).wrapping_add(addend as u32)),
        _ => old.wrapping_add(addend),
    };
    write(prog, regs, stack, at, new, ctx)?;
    Ok(old)
}

/// `exec`'s accounting: whole blocks, unprofiled.
const BLOCKS: u8 = 0;
/// Whole blocks, each recorded as one profiler hit.
const PROFILED: u8 = 1;
/// Every step charged and reported to the profiler on its own.
const STEPS: u8 = 2;

/// The loop, over `p` and the programs it tail-calls, to the exit's r0,
/// accounting as `MODE` says. The position and registers live in locals
/// while it runs and go to `m` only when the run goes on per step.
fn exec<'v, const MODE: u8>(
    vm: &'v Vm,
    mut p: &'v DecodedProg,
    m: &mut Machine,
    prof: &mut VmSpan,
    ctx: &mut PacketCtx<'_>,
    env: &mut RunEnv,
) -> Result<u64, VmError> {
    let mut at = m.at;
    let mut regs = m.regs;
    // `PROFILED`: the first step of the block in hand.
    let mut block = at;
    macro_rules! r {
        ($i:expr) => {
            regs[usize::from($i)]
        };
    }
    let trap = 'trap: {
        // `?` for the loop: a trap leaves through the cut below.
        macro_rules! t {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => break 'trap VmError::from(e),
                }
            };
        }
        loop {
            let op = *t!(p.code.get(at).ok_or(VmError::NoExit));
            if MODE == STEPS && !matches!(op, Op::Charge { .. }) {
                let step = p.steps[at];
                m.tally.insns += 1;
                m.tally.cycles += u64::from(step.cycles);
                prof.insn(step.pc as usize, u64::from(step.cycles));
                if let Some(helper) = step.helper {
                    prof.helper(helper);
                }
                if m.tally.insns > RUNTIME_INSN_LIMIT {
                    break 'trap VmError::Runaway;
                }
            }
            at += 1;

            match op {
                Op::Charge { insns, cycles } => {
                    if MODE != STEPS {
                        let total = m.tally.insns + u64::from(insns);
                        if total > RUNTIME_INSN_LIMIT {
                            // Finish per step, from this block's start.
                            m.at = at - 1;
                            m.regs = regs;
                            return exec::<STEPS>(vm, p, m, prof, ctx, env);
                        }
                        m.tally.insns = total;
                        m.tally.cycles += u64::from(cycles);
                        if MODE == PROFILED {
                            prof.block(at, insns);
                            block = at;
                        }
                    }
                }
                Op::Set { dst, v } => r!(dst) = v,
                Op::Mov { dst, src } => r!(dst) = r!(src),
                Op::Mov32 { dst, src } => r!(dst) = r!(src) & 0xFFFF_FFFF,
                Op::AluImm { op, dst, imm } => r!(dst) = alu64(op, r!(dst), imm),
                Op::AluReg { op, dst, src } => r!(dst) = alu64(op, r!(dst), r!(src)),
                Op::Alu32Imm { op, dst, imm } => {
                    r!(dst) = u64::from(alu32(op, r!(dst) as u32, imm));
                }
                Op::Alu32Reg { op, dst, src } => {
                    r!(dst) = u64::from(alu32(op, r!(dst) as u32, r!(src) as u32));
                }
                Op::Neg { w, dst } => {
                    let v = r!(dst);
                    r!(dst) = match w {
                        Width::W64 => (v as i64).wrapping_neg() as u64,
                        Width::W32 => u64::from((v as i32).wrapping_neg() as u32),
                    };
                }
                Op::Swap { dst, bits } => {
                    let v = r!(dst);
                    r!(dst) = match bits {
                        16 => u64::from((v as u16).swap_bytes()),
                        32 => u64::from((v as u32).swap_bytes()),
                        64 => v.swap_bytes(),
                        _ => break 'trap VmError::BadEndianWidth,
                    };
                }
                Op::LdxData { dst } => r!(dst) = 0,
                Op::LdxDataEnd { dst } => r!(dst) = ctx.data.len() as u64,
                Op::LdxMeta { dst, word } => r!(dst) = ctx.meta[usize::from(word)],
                Op::LdxStack {
                    size,
                    dst,
                    base,
                    off,
                } => r!(dst) = t!(load(&m.frame.stack, addr(&regs, base, off), size, "stack")),
                Op::LdxPacket {
                    size,
                    dst,
                    base,
                    off,
                } => r!(dst) = t!(load(ctx.data, addr(&regs, base, off), size, "packet")),
                Op::LdxMapValue {
                    size,
                    dst,
                    base,
                    off,
                    map,
                } => {
                    let (slot, off) = t!(value_at(r!(base), off, size));
                    let map = &p.maps[usize::from(map)];
                    r!(dst) = t!(map.read_value(slot, off, size.bytes() as u32));
                }
                Op::Stx { at: cell, src } => {
                    t!(write(p, &regs, &mut m.frame.stack, cell, r!(src), ctx));
                }
                Op::StImm { at: cell, imm } => {
                    t!(write(
                        p,
                        &regs,
                        &mut m.frame.stack,
                        cell,
                        imm as i64 as u64,
                        ctx
                    ));
                }
                Op::Atomic {
                    at: cell,
                    src,
                    fetch,
                } => {
                    let old = t!(fetch_add(p, &regs, &mut m.frame.stack, cell, r!(src), ctx));
                    if fetch {
                        r!(src) = old;
                    }
                }
                Op::Ja { target } => at = target as usize,
                Op::JImm {
                    op,
                    w,
                    lhs,
                    imm,
                    target,
                } => {
                    if cmp_u64(op, w, r!(lhs), imm) {
                        at = target as usize;
                    }
                }
                Op::JReg {
                    op,
                    w,
                    lhs,
                    rhs,
                    target,
                } => {
                    if cmp_u64(op, w, r!(lhs), r!(rhs)) {
                        at = target as usize;
                    }
                }
                Op::Lookup { map } => {
                    let map = &p.maps[usize::from(map)];
                    let key_size = u64::from(map.def().key_size);
                    let key = t!(span(m.frame.stack.len(), r!(2u8) as i64, key_size, "stack"));
                    r!(0u8) = match t!(map.slot_for_key(&m.frame.stack[key])) {
                        Some(slot) => pack(slot, 0),
                        None => 0,
                    };
                }
                Op::Env { helper } => {
                    r!(0u8) = match helper {
                        HelperId::GetPrandomU32 => u64::from(env.next_prandom()),
                        HelperId::KtimeGetNs => env.now_ns,
                        _ => u64::from(env.cpu_id),
                    };
                }
                Op::Call { helper, site } => {
                    let kinds = &p.sites[site as usize];
                    let arg = |r: Reg| match val(kinds[r.index()], regs[r.index()]) {
                        Val::Uninit => Err(VmError::UninitRegister(r)),
                        v => Ok(v),
                    };
                    match t!(call_helper(vm, helper, arg, ctx, env, &mut m.frame)) {
                        HelperOutcome::Ret(v) => r!(0u8) = word(v),
                        HelperOutcome::Redirect(map, idx, ret) => {
                            m.tally.redirect = Some((map, idx));
                            r!(0u8) = ret;
                        }
                        HelperOutcome::TailCall(next) => {
                            m.tally.tail_calls += 1;
                            if m.tally.tail_calls > MAX_TAIL_CALLS {
                                // The kernel fails the call and continues.
                                r!(0u8) = u64::MAX;
                                m.tally.tail_calls -= 1;
                                continue;
                            }
                            let next = vm.store.get(next.0).and_then(|l| l.decoded.as_ref());
                            let next = t!(next.ok_or(VmError::NoSuchProgram));
                            prof.tail_call(&next.name, Some(&next.steps));
                            p = next;
                            at = 0;
                            r!(1u8) = 0;
                        }
                    }
                }
                Op::Exit => return Ok(r!(0u8)),
                Op::Unreached => break 'trap VmError::PcOutOfRange,
            }
        }
    };
    // A trap part way through a block: only the steps up to the
    // trapping one ran.
    if MODE == PROFILED {
        prof.cut((at - block) as u32);
    }
    Err(trap)
}

#[cfg(test)]
mod tests {
    use crate::asm::Asm;
    use crate::helpers::HelperId;
    use crate::insn::Reg;
    use crate::maps::{MapDef, MapRegistry};
    use crate::vm::{Backend, PacketCtx, RunEnv, Vm, VmError, MAX_TAIL_CALLS};
    use crate::Program;
    use syrup_observe::telemetry::Registry;

    /// A policy exercising maps (lookup, update, atomic add), branches,
    /// packet access, and randomness — the instruction mix real Syrup
    /// policies use.
    fn busy_prog(counters: crate::maps::MapId) -> Program {
        Asm::new()
            .ldx_dw(Reg::R6, Reg::R1, 0) // data
            .ldx_dw(Reg::R7, Reg::R1, 8) // data_end
            .mov64_reg(Reg::R2, Reg::R6)
            .add64_imm(Reg::R2, 4)
            .jgt_reg(Reg::R2, Reg::R7, "pass")
            .ldx_w(Reg::R8, Reg::R6, 0) // first packet word
            .mod64_imm(Reg::R8, 4)
            .stx_w(Reg::R10, -4, Reg::R8)
            .load_map_fd(Reg::R1, counters)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
            .jeq_imm(Reg::R0, 0, "pass")
            .mov64_imm(Reg::R1, 1)
            .atomic_add_dw(Reg::R0, 0, Reg::R1)
            .ldx_dw(Reg::R9, Reg::R0, 0)
            .call(HelperId::GetPrandomU32)
            .mod64_imm(Reg::R0, 3)
            .add64_reg(Reg::R0, Reg::R9)
            .exit()
            .label("pass")
            .load_imm64(Reg::R0, crate::ret::PASS as i64)
            .exit()
            .build("busy")
            .unwrap()
    }

    fn world(backend: Backend) -> (Vm, crate::maps::ProgSlot, crate::maps::MapId) {
        let maps = MapRegistry::new();
        let counters = maps.create(MapDef::u64_array(4));
        let mut vm = Vm::new(maps);
        vm.set_backend(backend);
        let slot = vm.load(busy_prog(counters)).unwrap();
        (vm, slot, counters)
    }

    #[test]
    fn both_backends_agree_on_a_map_heavy_program() {
        let (interp, islot, imap) = world(Backend::Interp);
        let (fast, fslot, fmap) = world(Backend::Fast);
        assert!(fast.decoded(fslot).is_some(), "runs specialised");
        for round in 0u64..16 {
            let mut pkt_a = [0u8; 8];
            pkt_a[..8].copy_from_slice(&(round * 0x9E37).to_le_bytes());
            let mut pkt_b = pkt_a;
            let mut env_a = RunEnv {
                now_ns: round,
                prandom_state: 42 + round,
                ..RunEnv::default()
            };
            let mut env_b = env_a.clone();
            let mut ctx_a = PacketCtx::new(&mut pkt_a);
            let mut ctx_b = PacketCtx::new(&mut pkt_b);
            let a = interp.run(islot, &mut ctx_a, &mut env_a);
            let b = fast.run(fslot, &mut ctx_b, &mut env_b);
            assert_eq!(a, b, "outcome diverged at round {round}");
            assert_eq!(pkt_a, pkt_b, "packet bytes diverged at round {round}");
            assert_eq!(
                env_a.prandom_state, env_b.prandom_state,
                "prandom stream diverged at round {round}"
            );
        }
        // Map state is identical after the whole run.
        let ia = interp.maps().get(imap).unwrap();
        let fa = fast.maps().get(fmap).unwrap();
        for k in 0u32..4 {
            assert_eq!(ia.lookup_u64(k).unwrap(), fa.lookup_u64(k).unwrap());
        }
    }

    #[test]
    fn fast_backend_honors_tail_call_cap() {
        let maps = MapRegistry::new();
        let prog_array = maps.create(MapDef::prog_array(1));
        let mut vm = Vm::new(maps);
        vm.set_backend(Backend::Fast);
        let prog = Asm::new()
            .load_map_fd(Reg::R2, prog_array)
            .mov64_imm(Reg::R3, 0)
            .call(HelperId::TailCall)
            .mov64_imm(Reg::R0, 9)
            .exit()
            .build("self")
            .unwrap();
        let slot = vm.load_unverified(prog);
        assert!(vm.decoded(slot).is_some(), "runs specialised");
        vm.maps()
            .get(prog_array)
            .unwrap()
            .set_prog(0, Some(slot))
            .unwrap();
        let mut data = [0u8; 4];
        let mut ctx = PacketCtx::new(&mut data);
        let out = vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap();
        assert_eq!(out.ret, 9);
        assert_eq!(out.tail_calls, MAX_TAIL_CALLS);
    }

    #[test]
    fn fast_backend_traps_match_interpreter() {
        // Same defense-in-depth checks, same error values.
        let cases: Vec<(Program, VmError)> = vec![
            (
                Asm::new()
                    .mov64_reg(Reg::R0, Reg::R5)
                    .exit()
                    .build("uninit")
                    .unwrap(),
                VmError::UninitRegister(Reg::R5),
            ),
            (
                Asm::new()
                    .mov64_imm(Reg::R1, 1)
                    .stx_dw(Reg::R10, -516, Reg::R1)
                    .exit()
                    .build("oob")
                    .unwrap(),
                VmError::OutOfBounds {
                    region: "stack",
                    off: -4,
                    size: 8,
                },
            ),
            (
                Asm::new()
                    .mov64_imm(Reg::R0, 0)
                    .stx_dw(Reg::R1, 0, Reg::R0)
                    .exit()
                    .build("ctx_store")
                    .unwrap(),
                VmError::ReadOnly,
            ),
        ];
        for (prog, want) in cases {
            for backend in [Backend::Interp, Backend::Fast] {
                let mut vm = Vm::new(MapRegistry::new());
                vm.set_backend(backend);
                let slot = vm.load_unverified(prog.clone());
                let mut data = [0u8; 16];
                let mut ctx = PacketCtx::new(&mut data);
                let got = vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap_err();
                assert_eq!(got, want, "{backend} trap mismatch for {}", prog.name);
            }
        }
    }

    #[test]
    fn per_backend_counters_split_runs_and_cycles() {
        let registry = Registry::new();
        let (mut vm, slot, _) = world(Backend::Interp);
        vm.attach_telemetry(&registry);
        let mut data = [0u8; 8];
        for _ in 0..3 {
            let mut ctx = PacketCtx::new(&mut data);
            vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap();
        }
        vm.set_backend(Backend::Fast);
        for _ in 0..2 {
            let mut ctx = PacketCtx::new(&mut data);
            vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap();
        }
        // A packet read with no bounds check: the verifier refuses it, so
        // on the fast VM it is the interpreter that runs it, and counts.
        let unchecked = Asm::new()
            .ldx_dw(Reg::R2, Reg::R1, 0)
            .ldx_b(Reg::R0, Reg::R2, 0)
            .exit()
            .build("unchecked")
            .unwrap();
        let unchecked = vm.load_unverified(unchecked);
        assert!(vm.decoded(unchecked).is_none());
        for _ in 0..4 {
            let mut ctx = PacketCtx::new(&mut data);
            vm.run(unchecked, &mut ctx, &mut RunEnv::default()).unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("vm/runs"), 9);
        assert_eq!(snap.counter("vm/runs_interp"), 7);
        assert_eq!(snap.counter("vm/runs_fast"), 2);
        // Modelled cycle totals agree per backend: the split counters sum
        // to the histogram total.
        let total = snap.histogram("vm/run_cycles").unwrap().sum();
        assert_eq!(
            snap.counter("vm/cycles_interp") + snap.counter("vm/cycles_fast"),
            total
        );
    }

    /// The budget running out inside a block: at its first instruction,
    /// in its middle and at its last. Both engines start the program with
    /// the same account already charged, unprofiled and profiled; each
    /// store of the block leaves a mark in the packet, so the engines
    /// agree only if they trap at the same instruction.
    #[test]
    fn a_budget_running_out_inside_a_block_traps_where_the_interpreter_does() {
        use crate::vm::{Entry, Tally, Traced, RUNTIME_INSN_LIMIT};
        use syrup_observe::profile::Profiler;
        const K: i32 = 100;
        let looping = Asm::new()
            .ldx_dw(Reg::R8, Reg::R1, 0)
            .ldx_dw(Reg::R9, Reg::R1, 8)
            .mov64_reg(Reg::R2, Reg::R8)
            .add64_imm(Reg::R2, 16)
            .jgt_reg(Reg::R2, Reg::R9, "out")
            .mov64_imm(Reg::R6, 0)
            .label("loop")
            .add64_imm(Reg::R6, 1)
            .stx_w(Reg::R8, 0, Reg::R6)
            .stx_w(Reg::R8, 4, Reg::R6)
            .stx_w(Reg::R8, 8, Reg::R6)
            .stx_w(Reg::R8, 12, Reg::R6)
            .jlt_imm(Reg::R6, K, "loop")
            .mov64_reg(Reg::R0, Reg::R6)
            .exit()
            .label("out")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("looping")
            .unwrap();
        // One run of `looping` from an account `spent` instructions in, on
        // the fast engine or the interpreter: outcome, packet and profile.
        let run = |spent: u64, fast: bool, profiler: Profiler| {
            let mut vm = Vm::new(MapRegistry::new());
            vm.attach_profiler(&profiler);
            let slot = vm.load(looping.clone()).unwrap();
            let loaded = vm.store.get(slot.0).unwrap();
            let decoded = loaded.decoded.as_ref().unwrap();
            let mut pkt = [0xA5u8; 16];
            let mut ctx = PacketCtx::new(&mut pkt);
            let env = &mut RunEnv::default();
            let steps = fast.then_some(&decoded.steps);
            let mut prof = Entry::Prog(slot).scope(&profiler, "looping", steps);
            let mut tally = Tally::at(Entry::Prog(slot));
            tally.insns = spent;
            let out = if fast {
                super::run(&vm, decoded, tally, &mut prof, &mut ctx, env)
            } else {
                let traced = &mut Traced::default();
                vm.interpret::<false>(&loaded.prog, tally, &mut prof, &mut ctx, env, traced)
            };
            drop(prof);
            (
                out,
                pkt,
                profiler.report(None, usize::MAX),
                profiler.flame(),
            )
        };
        for p in [0, 3, 5] {
            // 6 instructions to the loop, 6 per iteration: trap as the
            // (p+1)-th instruction of the 51st loop block.
            let spent = RUNTIME_INSN_LIMIT - 6 - 6 * 50 - p;
            for profiler in [Profiler::disabled, Profiler::new] {
                let interp = run(spent, false, profiler());
                let fast = run(spent, true, profiler());
                assert_eq!(interp.0, Err(VmError::Runaway), "block position {p}");
                assert_eq!(interp, fast, "block position {p}");
            }
            assert_eq!(run(spent, true, Profiler::new()).2.runs, 1);
            // Iteration 51 had stored its counter into the first p - 1 words.
            let words: Vec<u32> = (0..4u64).map(|j| if j + 1 < p { 51 } else { 50 }).collect();
            let got: Vec<u32> = run(spent, true, Profiler::disabled())
                .1
                .chunks(4)
                .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
                .collect();
            assert_eq!(got, words, "block position {p}");
        }
    }

    #[test]
    fn fast_backend_profiler_coverage_is_exact() {
        let registry = Registry::new();
        let profiler = syrup_observe::profile::Profiler::new();
        let maps = MapRegistry::new();
        let prog_array = maps.create(MapDef::prog_array(4));
        let mut vm = Vm::new(maps);
        vm.set_backend(Backend::Fast);
        vm.attach_telemetry(&registry);
        vm.attach_profiler(&profiler);

        let policy = Asm::new()
            .mov64_imm(Reg::R0, 3)
            .exit()
            .build("policy")
            .unwrap();
        let policy_slot = vm.load_unverified(policy);
        vm.maps()
            .get(prog_array)
            .unwrap()
            .set_prog(0, Some(policy_slot))
            .unwrap();
        let dispatch = Asm::new()
            .load_map_fd(Reg::R2, prog_array)
            .mov64_imm(Reg::R3, 0)
            .call(HelperId::TailCall)
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("dispatch")
            .unwrap();
        let dispatch_slot = vm.load_unverified(dispatch);

        let mut data = [0u8; 4];
        for _ in 0..5 {
            let mut ctx = PacketCtx::new(&mut data);
            let out = vm
                .run(dispatch_slot, &mut ctx, &mut RunEnv::default())
                .unwrap();
            assert_eq!(out.ret, 3);
        }

        let total = registry
            .snapshot()
            .histogram("vm/run_cycles")
            .unwrap()
            .sum();
        let report = profiler.report(Some(total), 16);
        assert_eq!(report.runs, 5);
        assert_eq!(report.attributed_cycles, total);
        assert_eq!(report.coverage, 1.0);
        assert!(report.progs.iter().any(|p| p.prog == "dispatch"));
        assert!(report.progs.iter().any(|p| p.prog == "policy"));
    }
}
