//! Pre-decoding of loaded programs into a dense fast-dispatch form.
//!
//! [`decode`] lowers a [`Program`]'s typed instruction stream into the flat
//! representation the fast engine (`fast.rs`) executes, hoisting the
//! interpreter's per-instruction bookkeeping to load time:
//!
//! * ALU and branch operands are split into immediate and register forms,
//!   so the hot loop never matches on [`Operand`];
//! * `mov` is split from the other ALU ops (it never reads `dst`);
//! * branch targets are precomputed as absolute pcs (with a sentinel for
//!   targets outside the program, which — like the interpreter — only
//!   trap when the branch is actually *taken*);
//! * per-instruction cycle costs are tabled once from [`crate::cycles`];
//! * map-fd operands are resolved to tokens (the handles themselves are
//!   cached once per VM, at load, for both engines).
//!
//! The lowering is invertible: [`DecodedProg::reencode`] reconstructs the
//! exact original instruction stream, which the proptest suite uses to
//! check the round-trip and which pins the claim that decoding loses no
//! semantic information.

use crate::cycles::insn_cost;
use crate::helpers::HelperId;
use crate::insn::{AluOp, CmpOp, Insn, MemSize, Operand, Reg, Width};
use crate::mem::{map_fd_token, map_from_token};
use crate::Program;

/// Sentinel branch target for a jump that leaves the program. Taking it
/// traps with [`crate::VmError::PcOutOfRange`], exactly when the
/// interpreter would.
pub(crate) const BAD_TARGET: u32 = u32::MAX;

/// One pre-decoded instruction: operands resolved, targets absolute.
///
/// Branches keep their original relative `off` alongside the precomputed
/// `target` so [`DecodedProg::reencode`] is exact.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FastInsn {
    /// `dst = imm` (no read of `dst`).
    MovImm {
        w: Width,
        dst: Reg,
        imm: i32,
    },
    /// `dst = src` (no read of `dst`).
    MovReg {
        w: Width,
        dst: Reg,
        src: Reg,
    },
    /// `dst = dst <op> imm`, `op != Mov`.
    AluImm {
        w: Width,
        op: AluOp,
        dst: Reg,
        imm: i32,
    },
    /// `dst = dst <op> src`, `op != Mov`.
    AluReg {
        w: Width,
        op: AluOp,
        dst: Reg,
        src: Reg,
    },
    Neg {
        w: Width,
        dst: Reg,
    },
    Endian {
        dst: Reg,
        to_be: bool,
        bits: u8,
    },
    LoadImm64 {
        dst: Reg,
        imm: i64,
    },
    /// The map-fd token is precomputed; `reencode` recovers the [`MapId`].
    LoadMapFd {
        dst: Reg,
        token: u64,
    },
    LoadMem {
        size: MemSize,
        dst: Reg,
        base: Reg,
        off: i16,
    },
    StoreMem {
        size: MemSize,
        base: Reg,
        off: i16,
        src: Reg,
    },
    StoreImm {
        size: MemSize,
        base: Reg,
        off: i16,
        imm: i32,
    },
    AtomicAdd {
        size: MemSize,
        base: Reg,
        off: i16,
        src: Reg,
        fetch: bool,
    },
    /// Unconditional jump to an absolute pc ([`BAD_TARGET`] if invalid).
    Jump {
        target: u32,
        off: i16,
    },
    BranchImm {
        op: CmpOp,
        w: Width,
        lhs: Reg,
        imm: i32,
        target: u32,
        off: i16,
    },
    BranchReg {
        op: CmpOp,
        w: Width,
        lhs: Reg,
        rhs: Reg,
        target: u32,
        off: i16,
    },
    Call {
        helper: HelperId,
    },
    Exit,
}

/// One execution step: the lowered instruction fused with its modelled
/// cycle cost, so the hot loop reads a single table entry per step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub(crate) insn: FastInsn,
    pub(crate) cost: u64,
}

/// A program lowered for the fast engine: the dense instruction stream,
/// each step fused with its modelled cycle cost.
///
/// Produced by [`decode`]; executed by the VM when its backend is
/// [`crate::vm::Backend::Fast`]. The observable contract (verdicts, map
/// effects, traps, cycle totals, instrumentation) is identical to the
/// interpreter's.
#[derive(Debug, Clone)]
pub struct DecodedProg {
    pub(crate) name: String,
    pub(crate) code: Vec<Step>,
}

impl DecodedProg {
    /// The program's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of instructions in the decoded stream (same as the source).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Reconstructs the original typed instruction stream. Decoding loses
    /// no information, so `decode(p).reencode() == p.insns` for every
    /// program — the proptest suite pins this.
    pub fn reencode(&self) -> Vec<Insn> {
        self.code
            .iter()
            .map(|step| match step.insn {
                FastInsn::MovImm { w, dst, imm } => Insn::Alu {
                    w,
                    op: AluOp::Mov,
                    dst,
                    src: Operand::Imm(imm),
                },
                FastInsn::MovReg { w, dst, src } => Insn::Alu {
                    w,
                    op: AluOp::Mov,
                    dst,
                    src: Operand::Reg(src),
                },
                FastInsn::AluImm { w, op, dst, imm } => Insn::Alu {
                    w,
                    op,
                    dst,
                    src: Operand::Imm(imm),
                },
                FastInsn::AluReg { w, op, dst, src } => Insn::Alu {
                    w,
                    op,
                    dst,
                    src: Operand::Reg(src),
                },
                FastInsn::Neg { w, dst } => Insn::Neg { w, dst },
                FastInsn::Endian { dst, to_be, bits } => Insn::Endian { dst, to_be, bits },
                FastInsn::LoadImm64 { dst, imm } => Insn::LoadImm64 { dst, imm },
                FastInsn::LoadMapFd { dst, token } => Insn::LoadMapFd {
                    dst,
                    map: map_from_token(token).expect("decode preserves map tokens"),
                },
                FastInsn::LoadMem {
                    size,
                    dst,
                    base,
                    off,
                } => Insn::LoadMem {
                    size,
                    dst,
                    base,
                    off,
                },
                FastInsn::StoreMem {
                    size,
                    base,
                    off,
                    src,
                } => Insn::StoreMem {
                    size,
                    base,
                    off,
                    src,
                },
                FastInsn::StoreImm {
                    size,
                    base,
                    off,
                    imm,
                } => Insn::StoreImm {
                    size,
                    base,
                    off,
                    imm,
                },
                FastInsn::AtomicAdd {
                    size,
                    base,
                    off,
                    src,
                    fetch,
                } => Insn::AtomicAdd {
                    size,
                    base,
                    off,
                    src,
                    fetch,
                },
                FastInsn::Jump { off, .. } => Insn::Jump { off },
                FastInsn::BranchImm {
                    op,
                    w,
                    lhs,
                    imm,
                    off,
                    ..
                } => Insn::Branch {
                    op,
                    w,
                    lhs,
                    rhs: Operand::Imm(imm),
                    off,
                },
                FastInsn::BranchReg {
                    op,
                    w,
                    lhs,
                    rhs,
                    off,
                    ..
                } => Insn::Branch {
                    op,
                    w,
                    lhs,
                    rhs: Operand::Reg(rhs),
                    off,
                },
                FastInsn::Call { helper } => Insn::Call { helper },
                FastInsn::Exit => Insn::Exit,
            })
            .collect()
    }
}

/// Lowers `prog` for the fast engine. Map handles are not bound here: the
/// [`crate::Vm`] keeps one cache of them for all its programs, refreshed
/// at load.
pub fn decode(prog: &Program) -> DecodedProg {
    let len = prog.insns.len();
    let target_of = |i: usize, off: i16| -> u32 {
        let target = i as i64 + 1 + i64::from(off);
        if target < 0 || target >= len as i64 {
            BAD_TARGET
        } else {
            target as u32
        }
    };
    let mut code = Vec::with_capacity(len);
    for (i, insn) in prog.insns.iter().enumerate() {
        let cost = insn_cost(insn);
        let fast = match *insn {
            Insn::Alu {
                w,
                op: AluOp::Mov,
                dst,
                src,
            } => match src {
                Operand::Imm(imm) => FastInsn::MovImm { w, dst, imm },
                Operand::Reg(src) => FastInsn::MovReg { w, dst, src },
            },
            Insn::Alu { w, op, dst, src } => match src {
                Operand::Imm(imm) => FastInsn::AluImm { w, op, dst, imm },
                Operand::Reg(src) => FastInsn::AluReg { w, op, dst, src },
            },
            Insn::Neg { w, dst } => FastInsn::Neg { w, dst },
            Insn::Endian { dst, to_be, bits } => FastInsn::Endian { dst, to_be, bits },
            Insn::LoadImm64 { dst, imm } => FastInsn::LoadImm64 { dst, imm },
            Insn::LoadMapFd { dst, map } => FastInsn::LoadMapFd {
                dst,
                token: map_fd_token(map),
            },
            Insn::LoadMem {
                size,
                dst,
                base,
                off,
            } => FastInsn::LoadMem {
                size,
                dst,
                base,
                off,
            },
            Insn::StoreMem {
                size,
                base,
                off,
                src,
            } => FastInsn::StoreMem {
                size,
                base,
                off,
                src,
            },
            Insn::StoreImm {
                size,
                base,
                off,
                imm,
            } => FastInsn::StoreImm {
                size,
                base,
                off,
                imm,
            },
            Insn::AtomicAdd {
                size,
                base,
                off,
                src,
                fetch,
            } => FastInsn::AtomicAdd {
                size,
                base,
                off,
                src,
                fetch,
            },
            Insn::Jump { off } => FastInsn::Jump {
                target: target_of(i, off),
                off,
            },
            Insn::Branch {
                op,
                w,
                lhs,
                rhs,
                off,
            } => match rhs {
                Operand::Imm(imm) => FastInsn::BranchImm {
                    op,
                    w,
                    lhs,
                    imm,
                    target: target_of(i, off),
                    off,
                },
                Operand::Reg(rhs) => FastInsn::BranchReg {
                    op,
                    w,
                    lhs,
                    rhs,
                    target: target_of(i, off),
                    off,
                },
            },
            Insn::Call { helper } => FastInsn::Call { helper },
            Insn::Exit => FastInsn::Exit,
        };
        code.push(Step { insn: fast, cost });
    }
    DecodedProg {
        name: prog.name.clone(),
        code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::maps::{MapDef, MapRegistry};

    #[test]
    fn reencode_round_trips_a_representative_program() {
        let maps = MapRegistry::new();
        let map = maps.create(MapDef::u64_array(4));
        let prog = Asm::new()
            .st_w(Reg::R10, -4, 0)
            .load_map_fd(Reg::R1, map)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
            .jne_imm(Reg::R0, 0, "hit")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .label("hit")
            .ldx_dw(Reg::R6, Reg::R0, 0)
            .mov64_imm(Reg::R1, 1)
            .atomic_add_dw(Reg::R0, 0, Reg::R1)
            .mov64_reg(Reg::R0, Reg::R6)
            .exit()
            .build("counter")
            .unwrap();
        let decoded = decode(&prog);
        assert_eq!(decoded.reencode(), prog.insns);
        assert_eq!(decoded.len(), prog.len());
        assert_eq!(decoded.name(), "counter");
    }

    #[test]
    fn branch_targets_are_absolute_and_bad_targets_are_sentinels() {
        // `ja +1` at pc 0 of a 3-insn program targets pc 2; `ja +100`
        // leaves the program and gets the sentinel.
        let good = Program::new("g", vec![Insn::Jump { off: 1 }, Insn::Exit, Insn::Exit]);
        let d = decode(&good);
        match d.code[0].insn {
            FastInsn::Jump { target, off } => {
                assert_eq!(target, 2);
                assert_eq!(off, 1);
            }
            ref other => panic!("expected jump, got {other:?}"),
        }
        let bad = Program::new("b", vec![Insn::Jump { off: 100 }, Insn::Exit]);
        let d = decode(&bad);
        match d.code[0].insn {
            FastInsn::Jump { target, .. } => assert_eq!(target, BAD_TARGET),
            ref other => panic!("expected jump, got {other:?}"),
        }
        assert_eq!(d.reencode(), bad.insns);
    }

    #[test]
    fn costs_table_matches_the_model() {
        let prog = Asm::new()
            .mov64_imm(Reg::R0, 1)
            .call(HelperId::GetPrandomU32)
            .exit()
            .build("c")
            .unwrap();
        let d = decode(&prog);
        let got: Vec<u64> = d.code.iter().map(|s| s.cost).collect();
        let want: Vec<u64> = prog.insns.iter().map(insn_cost).collect();
        assert_eq!(got, want);
    }
}
