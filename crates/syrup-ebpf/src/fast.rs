//! The fast execution engine: direct dispatch over pre-decoded programs.
//!
//! Executes [`DecodedProg`] streams produced by [`crate::decode`]. The
//! engine preserves the interpreter's full observable contract — verdicts,
//! map state, helper effects, tail-call semantics and the depth cap, trap
//! kinds and their precedence, modelled cycle totals, and the
//! telemetry/profiler instrumentation points — while stripping the
//! per-instruction work the interpreter repeats on every step:
//!
//! * no `Operand` match or cycle-model lookup (both resolved at decode);
//! * branch targets are absolute, so taken branches are a single store;
//! * scalar-scalar ALU and compare take an inlined path, falling back to
//!   the interpreter's shared `alu`/`compare` only for pointer operands
//!   (which also keeps the trap semantics literally the same code);
//! * scalars live in a flat register file ([`RegFile`]), so the helper
//!   ABI's clobber of r1–r5 is two mask updates;
//! * the whole loop is monomorphized over "profiler attached?", so the
//!   disabled-profiler build has no per-instruction instrumentation branch
//!   (the ≤5ns disabled-cost contract).
//!
//! Guest memory and helpers are not this engine's: loads, stores, atomics
//! and helper calls go through [`crate::mem`], the same functions the
//! interpreter calls, so that half of the contract holds by construction.
//! What the engines still do differently — decode, operand resolution, the
//! register file, cost lookup, dispatch — is what the `syrup-fuzz
//! --backend-diff` oracle and the both-backend proptests in `tests/` check.

use crate::decode::{FastInsn, BAD_TARGET};
use crate::insn::{MemSize, Reg, Width};
use crate::maps::MapId;
use crate::mem::{call_helper, fetch_add, mem_load, mem_store, Frame, HelperOutcome};
use crate::vm::{
    alu, alu32, alu64, cmp_u64, compare, scalar, Entry, PacketCtx, Region, RunEnv, Val, Vm,
    VmError, VmOutcome, MAX_TAIL_CALLS, RUNTIME_INSN_LIMIT, STACK_SIZE,
};

/// The fast engine's register file: scalars live in a flat `u64` array
/// (the `mask` bit says which), so the dominant scalar-scalar instruction
/// mix never moves [`Val`] enums through memory. Pointer registers fall
/// back to the `vals` slot (valid only when the `init` bit is set), and
/// every access point reconstructs the exact [`Val`] the interpreter
/// would hold — same values, same `UninitRegister` traps, same read
/// order. Tracking initialization as a mask makes the helper ABI's
/// caller-clobber of r1–r5 two bit-ops instead of five enum stores.
struct RegFile {
    scalars: [u64; 11],
    vals: [Val; 11],
    /// Bit i set: register i is a scalar held in `scalars[i]`.
    mask: u16,
    /// Bit i set: register i is initialized (scalar or `vals[i]`).
    init: u16,
}

/// r1–r5, the registers a helper call clobbers.
const CALLER_SAVED: u16 = 0b11_1110;

impl RegFile {
    fn new() -> Self {
        RegFile {
            scalars: [0; 11],
            vals: [Val::Uninit; 11],
            mask: 0,
            init: 0,
        }
    }

    #[inline(always)]
    fn is_scalar(&self, i: usize) -> bool {
        self.mask & (1 << i) != 0
    }

    /// The register's [`Val`], trapping on uninit like the interpreter's
    /// `read_reg`.
    #[inline(always)]
    fn read(&self, r: Reg) -> Result<Val, VmError> {
        let i = r.index();
        if self.is_scalar(i) {
            Ok(Val::Scalar(self.scalars[i]))
        } else if self.init & (1 << i) != 0 {
            Ok(self.vals[i])
        } else {
            Err(VmError::UninitRegister(r))
        }
    }

    #[inline(always)]
    fn set_scalar(&mut self, r: Reg, v: u64) {
        let i = r.index();
        self.scalars[i] = v;
        self.mask |= 1 << i;
        self.init |= 1 << i;
    }

    #[inline(always)]
    fn set(&mut self, r: Reg, v: Val) {
        match v {
            Val::Scalar(s) => self.set_scalar(r, s),
            Val::Uninit => {
                let i = r.index();
                self.mask &= !(1 << i);
                self.init &= !(1 << i);
            }
            other => {
                let i = r.index();
                self.mask &= !(1 << i);
                self.init |= 1 << i;
                self.vals[i] = other;
            }
        }
    }

    /// Marks the caller-clobbered registers r1–r5 uninitialized (helper
    /// ABI) — mask updates only, no enum traffic.
    #[inline(always)]
    fn clobber_caller_saved(&mut self) {
        self.mask &= !CALLER_SAVED;
        self.init &= !CALLER_SAVED;
    }

    /// Marks r2–r5 uninitialized (tail-call entry; r1 is the fresh ctx).
    #[inline(always)]
    fn clobber_tail_args(&mut self) {
        self.mask &= !(CALLER_SAVED & !0b10);
        self.init &= !(CALLER_SAVED & !0b10);
    }
}

/// Runs the decoded program `entry` starts in, dispatching on whether a
/// profiler is attached so the common (disabled) case pays no per-insn
/// branch.
pub(crate) fn run(
    vm: &Vm,
    entry: Entry<'_>,
    ctx: &mut PacketCtx<'_>,
    env: &mut RunEnv,
) -> Result<VmOutcome, VmError> {
    if vm.profiler.is_enabled() {
        exec::<true>(vm, entry, ctx, env)
    } else {
        exec::<false>(vm, entry, ctx, env)
    }
}

fn exec<const PROF: bool>(
    vm: &Vm,
    entry: Entry<'_>,
    ctx: &mut PacketCtx<'_>,
    env: &mut RunEnv,
) -> Result<VmOutcome, VmError> {
    let mut prog = vm.decoded(entry.slot()).ok_or(VmError::NoSuchProgram)?;
    let (mut insns, mut cycles, mut tail_calls) = entry.account();
    // A tail call into an empty program falls off its end instead.
    if prog.code.is_empty() && matches!(entry, Entry::Prog(_)) {
        return Err(VmError::NoSuchProgram);
    }

    let mut regs = RegFile::new();
    regs.set(
        Reg::R1,
        Val::Ptr {
            region: Region::Ctx,
            off: 0,
        },
    );
    regs.set(
        Reg::R10,
        Val::Ptr {
            region: Region::Stack,
            off: STACK_SIZE,
        },
    );
    let mut frame = Frame::new();

    let mut pc: usize = 0;
    let mut redirect: Option<(MapId, u32)> = None;
    // Same attribution scope as the interpreter: the invoke cost lands on
    // the entry (prog, pc 0) bucket; flushes on drop (any exit path).
    let mut prof = entry.scope(&vm.profiler, &prog.name);

    loop {
        let step = *prog.code.get(pc).ok_or(VmError::NoExit)?;
        let insn = step.insn;
        insns += 1;
        let cost = step.cost;
        cycles += cost;
        if PROF {
            prof.insn(pc, cost);
        }
        if insns > RUNTIME_INSN_LIMIT {
            return Err(VmError::Runaway);
        }
        pc += 1;

        match insn {
            FastInsn::MovImm { w, dst, imm } => {
                let v = imm as i64 as u64;
                regs.set_scalar(
                    dst,
                    match w {
                        Width::W64 => v,
                        Width::W32 => v & 0xFFFF_FFFF,
                    },
                );
            }
            FastInsn::MovReg { w, dst, src } => {
                if regs.is_scalar(src.index()) {
                    let s = regs.scalars[src.index()];
                    regs.set_scalar(
                        dst,
                        match w {
                            Width::W64 => s,
                            Width::W32 => s & 0xFFFF_FFFF,
                        },
                    );
                } else {
                    let rhs = regs.read(src)?;
                    match w {
                        Width::W64 => regs.set(dst, rhs),
                        // Non-scalar 32-bit mov: same trap as the
                        // interpreter's `alu` on pointers.
                        Width::W32 => return Err(VmError::BadPointerArith),
                    }
                }
            }
            FastInsn::AluImm { w, op, dst, imm } => {
                let b = imm as i64 as u64;
                let i = dst.index();
                if regs.is_scalar(i) {
                    let a = regs.scalars[i];
                    regs.scalars[i] = match w {
                        Width::W64 => alu64(op, a, b),
                        Width::W32 => u64::from(alu32(op, a as u32, b as u32)),
                    };
                } else {
                    let lhs = regs.read(dst)?;
                    let r = alu(w, op, lhs, Val::Scalar(b))?;
                    regs.set(dst, r);
                }
            }
            FastInsn::AluReg { w, op, dst, src } => {
                if regs.is_scalar(src.index()) && regs.is_scalar(dst.index()) {
                    let b = regs.scalars[src.index()];
                    let a = regs.scalars[dst.index()];
                    regs.scalars[dst.index()] = match w {
                        Width::W64 => alu64(op, a, b),
                        Width::W32 => u64::from(alu32(op, a as u32, b as u32)),
                    };
                } else {
                    // Operand order matches the interpreter: the source
                    // (rhs) is read first, so its uninit trap wins.
                    let rhs = regs.read(src)?;
                    let lhs = regs.read(dst)?;
                    let r = alu(w, op, lhs, rhs)?;
                    regs.set(dst, r);
                }
            }
            FastInsn::Neg { w, dst } => {
                let v = scalar(regs.read(dst)?)?;
                let r = match w {
                    Width::W64 => (v as i64).wrapping_neg() as u64,
                    Width::W32 => ((v as i32).wrapping_neg() as u32) as u64,
                };
                regs.set_scalar(dst, r);
            }
            FastInsn::Endian { dst, bits, .. } => {
                let v = scalar(regs.read(dst)?)?;
                let r = match bits {
                    16 => u64::from((v as u16).swap_bytes()),
                    32 => u64::from((v as u32).swap_bytes()),
                    64 => v.swap_bytes(),
                    _ => return Err(VmError::BadEndianWidth),
                };
                regs.set_scalar(dst, r);
            }
            FastInsn::LoadImm64 { dst, imm } => {
                regs.set_scalar(dst, imm as u64);
            }
            FastInsn::LoadMapFd { dst, token } => {
                regs.set_scalar(dst, token);
            }
            FastInsn::LoadMem {
                size,
                dst,
                base,
                off,
            } => {
                let ptr = regs.read(base)?;
                let v = mem_load(vm, ptr, off as i64, size, ctx, &frame.stack)?;
                regs.set(dst, v);
            }
            FastInsn::StoreMem {
                size,
                base,
                off,
                src,
            } => {
                let ptr = regs.read(base)?;
                let v = scalar(regs.read(src)?)?;
                mem_store(vm, ptr, off as i64, size, v, ctx, &mut frame.stack)?;
            }
            FastInsn::StoreImm {
                size,
                base,
                off,
                imm,
            } => {
                let ptr = regs.read(base)?;
                let v = imm as i64 as u64;
                mem_store(vm, ptr, off as i64, size, v, ctx, &mut frame.stack)?;
            }
            FastInsn::AtomicAdd {
                size,
                base,
                off,
                src,
                fetch,
            } => {
                if size != MemSize::W && size != MemSize::DW {
                    return Err(VmError::OutOfBounds {
                        region: "atomic",
                        off: off as i64,
                        size: size.bytes(),
                    });
                }
                let ptr = regs.read(base)?;
                let addend = scalar(regs.read(src)?)?;
                let old = fetch_add(vm, ptr, off as i64, size, addend, ctx, &mut frame.stack)?;
                if fetch {
                    regs.set_scalar(src, old);
                }
            }
            FastInsn::Jump { target, .. } => {
                if target == BAD_TARGET {
                    return Err(VmError::PcOutOfRange);
                }
                pc = target as usize;
            }
            FastInsn::BranchImm {
                op,
                w,
                lhs,
                imm,
                target,
                ..
            } => {
                let taken = if regs.is_scalar(lhs.index()) {
                    cmp_u64(op, w, regs.scalars[lhs.index()], imm as i64 as u64)
                } else {
                    let l = regs.read(lhs)?;
                    compare(op, w, l, Val::Scalar(imm as i64 as u64))?
                };
                if taken {
                    if target == BAD_TARGET {
                        return Err(VmError::PcOutOfRange);
                    }
                    pc = target as usize;
                }
            }
            FastInsn::BranchReg {
                op,
                w,
                lhs,
                rhs,
                target,
                ..
            } => {
                let taken = if regs.is_scalar(lhs.index()) && regs.is_scalar(rhs.index()) {
                    cmp_u64(op, w, regs.scalars[lhs.index()], regs.scalars[rhs.index()])
                } else {
                    let l = regs.read(lhs)?;
                    let r = regs.read(rhs)?;
                    compare(op, w, l, r)?
                };
                if taken {
                    if target == BAD_TARGET {
                        return Err(VmError::PcOutOfRange);
                    }
                    pc = target as usize;
                }
            }
            FastInsn::Call { helper } => {
                if PROF {
                    prof.helper(helper.name());
                }
                let arg = |r| regs.read(r);
                match call_helper(vm, helper, arg, ctx, env, &mut frame)? {
                    HelperOutcome::Ret(v) => {
                        regs.set(Reg::R0, v);
                        regs.clobber_caller_saved();
                    }
                    HelperOutcome::Redirect(map, idx, ret) => {
                        redirect = Some((map, idx));
                        regs.set_scalar(Reg::R0, ret);
                        regs.clobber_caller_saved();
                    }
                    HelperOutcome::TailCall(next) => {
                        tail_calls += 1;
                        if tail_calls > MAX_TAIL_CALLS {
                            // The kernel fails the call and continues;
                            // r1–r5 are left alone on this path.
                            regs.set_scalar(Reg::R0, (-1i64) as u64);
                            tail_calls -= 1;
                            continue;
                        }
                        prog = vm.decoded(next).ok_or(VmError::NoSuchProgram)?;
                        pc = 0;
                        if PROF {
                            prof.tail_call(&prog.name);
                        }
                        regs.set(
                            Reg::R1,
                            Val::Ptr {
                                region: Region::Ctx,
                                off: 0,
                            },
                        );
                        regs.clobber_tail_args();
                    }
                }
            }
            FastInsn::Exit => {
                let ret = scalar(regs.read(Reg::R0)?)?;
                return Ok(VmOutcome {
                    ret,
                    insns,
                    cycles,
                    redirect,
                    tail_calls,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::asm::Asm;
    use crate::helpers::HelperId;
    use crate::insn::Reg;
    use crate::maps::{MapDef, MapRegistry};
    use crate::vm::{Backend, PacketCtx, RunEnv, Vm, VmError, MAX_TAIL_CALLS};
    use crate::Program;
    use syrup_telemetry::Registry;

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
        let snap = registry.snapshot();
        assert_eq!(snap.counter("vm/runs"), 5);
        assert_eq!(snap.counter("vm/runs_interp"), 3);
        assert_eq!(snap.counter("vm/runs_fast"), 2);
        // Modelled cycle totals agree per backend: the split counters sum
        // to the histogram total.
        let total = snap.histogram("vm/run_cycles").unwrap().sum();
        assert_eq!(
            snap.counter("vm/cycles_interp") + snap.counter("vm/cycles_fast"),
            total
        );
    }

    #[test]
    fn fast_backend_profiler_coverage_is_exact() {
        let registry = Registry::new();
        let profiler = syrup_profile::Profiler::new();
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
