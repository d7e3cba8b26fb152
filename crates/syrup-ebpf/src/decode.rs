//! Lowering of verified programs into the specialised form the default
//! engine (`fast.rs`) runs.
//!
//! `decode` reads the verifier's [`Facts`] and moves to load time
//! everything the interpreter decides again on every step:
//!
//! * each memory step names its region — `LdxData`/`LdxDataEnd`/
//!   `LdxMeta` for the context fields, `LdxPacket`, `LdxStack`,
//!   `LdxMapValue { map }`, and stores on a `Place` — so the engine never
//!   matches a pointer tag;
//! * every map the program names is bound into the program, as the
//!   kernel's `used_maps`, so a map step indexes a slice instead of
//!   resolving a token;
//! * `map_lookup_elem` with a stack key on one known map becomes a single
//!   step, and so does each helper that takes no argument; rarer helpers
//!   keep the argument kinds the verifier proved, so the engine can hand
//!   `mem.rs` the values it expects;
//! * the program is split into basic blocks, each opened by a `Charge`
//!   step carrying the block's `(insns, cycles)`; a block ends at a
//!   branch, a jump, an `exit` or a tail call, so the account is exact
//!   wherever a run can leave the program;
//! * immediates are widened and `mov` is split from the other ALU ops.
//!
//! Every verified program decodes: `verify()` already refuses the steps
//! this lowering could not express, a memory step or checked helper
//! argument that sees two kinds and a pointer beyond
//! [`crate::verifier::MAX_PTR_OFF`]. Each check `decode` still makes
//! answers with the verifier's [`VerifierError`] for that shape, or with
//! `TooComplex` for a program past the step format's limits (more than
//! 2¹⁶ maps, a block past `u32` instructions or cycles), so `Vm::load`
//! refuses what it cannot specialise.

use crate::cycles::insn_cost;
use crate::helpers::HelperId;
use crate::insn::{AluOp, CmpOp, Insn, MemSize, Operand, Reg, Width};
use crate::maps::{MapId, MapRef, MapRegistry};
use crate::mem::map_fd_token;
use crate::verifier::{Facts, Kind, VerifierError};
use crate::vm::ctx_off;
use crate::Program;
use syrup_observe::profile::{Step, Steps};

/// What a map-value pointer's word keeps below the slot: its offset plus
/// this bias, so NULL (0) never collides with a live pointer.
const BIAS: i64 = 1 << 31;

/// The register word of a pointer to byte `off` of value `slot`; `off` is
/// within [`crate::verifier::MAX_PTR_OFF`].
pub(crate) fn pack(slot: u32, off: i64) -> u64 {
    (u64::from(slot) << 32) | u64::from(off.wrapping_add(BIAS) as u32)
}

/// The `(slot, off)` a map-value word points at.
pub(crate) fn unpack(word: u64) -> (u32, i64) {
    ((word >> 32) as u32, i64::from(word as u32) - BIAS)
}

/// The region a store or atomic writes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Mem {
    Stack,
    Packet,
    /// A value of the program's `maps[i]`.
    MapValue(u16),
}

/// The cell a store or atomic writes: `size` bytes at `off` past the
/// pointer in register `base`, which points into `to`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Place {
    pub(crate) to: Mem,
    pub(crate) size: MemSize,
    pub(crate) base: u8,
    pub(crate) off: i16,
}

/// One specialised step. Registers are indices, immediates are widened,
/// targets are step indices.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Opens a basic block: its instruction and cycle totals.
    Charge {
        insns: u32,
        cycles: u32,
    },
    /// `dst = v`: a `mov` immediate, `lddw`, or `ldmapfd`'s token.
    Set {
        dst: u8,
        v: u64,
    },
    Mov {
        dst: u8,
        src: u8,
    },
    Mov32 {
        dst: u8,
        src: u8,
    },
    AluImm {
        op: AluOp,
        dst: u8,
        imm: u64,
    },
    AluReg {
        op: AluOp,
        dst: u8,
        src: u8,
    },
    Alu32Imm {
        op: AluOp,
        dst: u8,
        imm: u32,
    },
    Alu32Reg {
        op: AluOp,
        dst: u8,
        src: u8,
    },
    Neg {
        w: Width,
        dst: u8,
    },
    Swap {
        dst: u8,
        bits: u8,
    },
    /// `dst = ctx->data`.
    LdxData {
        dst: u8,
    },
    /// `dst = ctx->data_end`.
    LdxDataEnd {
        dst: u8,
    },
    /// `dst = ctx->meta[word]`.
    LdxMeta {
        dst: u8,
        word: u8,
    },
    LdxStack {
        size: MemSize,
        dst: u8,
        base: u8,
        off: i16,
    },
    LdxPacket {
        size: MemSize,
        dst: u8,
        base: u8,
        off: i16,
    },
    LdxMapValue {
        size: MemSize,
        dst: u8,
        base: u8,
        off: i16,
        map: u16,
    },
    Stx {
        at: Place,
        src: u8,
    },
    StImm {
        at: Place,
        imm: i32,
    },
    Atomic {
        at: Place,
        src: u8,
        fetch: bool,
    },
    Ja {
        target: u32,
    },
    JImm {
        op: CmpOp,
        w: Width,
        lhs: u8,
        imm: u64,
        target: u32,
    },
    JReg {
        op: CmpOp,
        w: Width,
        lhs: u8,
        rhs: u8,
        target: u32,
    },
    /// `r0 = map_lookup_elem(maps[map], stack key at r2)`.
    Lookup {
        map: u16,
    },
    /// A helper that only reads the run's environment.
    Env {
        helper: HelperId,
    },
    /// Any other helper; `site` indexes [`DecodedProg::sites`].
    Call {
        helper: HelperId,
        site: u32,
    },
    Exit,
    /// An instruction no verified path reaches.
    Unreached,
}

/// A verified program lowered for the default engine.
///
/// Produced at load from the verifier's facts; executed when the VM's
/// backend is [`crate::vm::Backend::Fast`]. Verdicts, map effects, traps,
/// cycle totals and instrumentation are the interpreter's.
#[derive(Debug, Clone)]
pub struct DecodedProg {
    pub(crate) name: String,
    pub(crate) code: Vec<Op>,
    /// Per step, its source pc, modelled cost and helper: what per-step
    /// accounting charges (`Charge` steps carry zero), and what the
    /// profiler expands a recorded block into.
    pub(crate) steps: Steps,
    /// The maps the program names, bound at load.
    pub(crate) maps: Vec<MapRef>,
    /// Per generic helper call, every register's kind on arrival.
    pub(crate) sites: Vec<[Kind; 11]>,
}

impl DecodedProg {
    /// The program's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Whether a block ends after `insn`.
fn ends_block(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Jump { .. }
            | Insn::Branch { .. }
            | Insn::Exit
            | Insn::Call {
                helper: HelperId::TailCall
            }
    )
}

/// Lowers verified `prog` with the `facts` its verification returned,
/// binding its maps out of `maps` (see the module docs for its errors).
pub(crate) fn decode(
    prog: &Program,
    facts: &Facts,
    maps: &MapRegistry,
) -> Result<DecodedProg, VerifierError> {
    let len = prog.insns.len();
    // Step index of each pc: a leader's `Charge` comes first.
    let mut at = Vec::with_capacity(len);
    let mut n = 0u32;
    for pc in 0..len {
        at.push(n);
        n += 1 + u32::from(facts.starts_block(pc));
    }
    let target = |pc: usize, off: i16| -> Result<u32, VerifierError> {
        usize::try_from(pc as i64 + 1 + i64::from(off))
            .ok()
            .and_then(|t| at.get(t).copied())
            .ok_or(VerifierError::JumpOutOfRange { pc })
    };
    let costs: Vec<u64> = prog.insns.iter().map(insn_cost).collect();

    let mut out = DecodedProg {
        name: prog.name.clone(),
        code: Vec::with_capacity(n as usize),
        steps: Steps::from([]),
        maps: Vec::new(),
        sites: Vec::new(),
    };
    let mut bound: Vec<MapId> = Vec::new();
    let mut bind = |pc: usize, map: MapId, out: &mut DecodedProg| -> Result<u16, VerifierError> {
        let i = match bound.iter().position(|&b| b == map) {
            Some(i) => i,
            None => {
                out.maps
                    .push(maps.get(map).ok_or(VerifierError::UnknownMap { pc, map })?);
                bound.push(map);
                bound.len() - 1
            }
        };
        u16::try_from(i).map_err(|_| VerifierError::TooComplex)
    };

    let mut steps = Vec::with_capacity(n as usize);
    let mut in_block = false;
    for (pc, insn) in prog.insns.iter().enumerate() {
        if facts.starts_block(pc) {
            let mut end = pc;
            while !ends_block(&prog.insns[end]) && end + 1 < len && !facts.starts_block(end + 1) {
                end += 1;
            }
            let too_long = |_| VerifierError::TooComplex;
            out.code.push(Op::Charge {
                insns: u32::try_from(end - pc + 1).map_err(too_long)?,
                cycles: u32::try_from(costs[pc..=end].iter().sum::<u64>()).map_err(too_long)?,
            });
            steps.push(Step {
                pc: pc as u32,
                cycles: 0,
                helper: None,
            });
            in_block = true;
        }
        let kind = |r: Reg| facts.kind(pc, r);
        let r = |r: Reg| r.index() as u8;
        // Every explored state holds the frame pointer in r10, so an
        // unseen r10 is a pc no path reaches.
        let op = if !in_block || kind(Reg::R10) == Kind::Unseen {
            Op::Unreached
        } else {
            match *insn {
                Insn::Alu {
                    w,
                    op: AluOp::Mov,
                    dst,
                    src,
                } => match (w, src) {
                    (Width::W64, Operand::Imm(imm)) => Op::Set {
                        dst: r(dst),
                        v: imm as i64 as u64,
                    },
                    (Width::W32, Operand::Imm(imm)) => Op::Set {
                        dst: r(dst),
                        v: u64::from(imm as u32),
                    },
                    (Width::W64, Operand::Reg(src)) => Op::Mov {
                        dst: r(dst),
                        src: r(src),
                    },
                    (Width::W32, Operand::Reg(src)) => Op::Mov32 {
                        dst: r(dst),
                        src: r(src),
                    },
                },
                Insn::Alu { w, op, dst, src } => match (w, src) {
                    (Width::W64, Operand::Imm(imm)) => Op::AluImm {
                        op,
                        dst: r(dst),
                        imm: imm as i64 as u64,
                    },
                    (Width::W32, Operand::Imm(imm)) => Op::Alu32Imm {
                        op,
                        dst: r(dst),
                        imm: imm as u32,
                    },
                    (Width::W64, Operand::Reg(src)) => Op::AluReg {
                        op,
                        dst: r(dst),
                        src: r(src),
                    },
                    (Width::W32, Operand::Reg(src)) => Op::Alu32Reg {
                        op,
                        dst: r(dst),
                        src: r(src),
                    },
                },
                Insn::Neg { w, dst } => Op::Neg { w, dst: r(dst) },
                Insn::Endian { dst, bits, .. } => Op::Swap { dst: r(dst), bits },
                Insn::LoadImm64 { dst, imm } => Op::Set {
                    dst: r(dst),
                    v: imm as u64,
                },
                Insn::LoadMapFd { dst, map } => Op::Set {
                    dst: r(dst),
                    v: map_fd_token(map),
                },
                Insn::LoadMem {
                    size,
                    dst,
                    base,
                    off,
                } => {
                    let dst = r(dst);
                    match kind(base) {
                        Kind::Ctx => match (size, i64::from(off)) {
                            (MemSize::DW, ctx_off::DATA) => Op::LdxData { dst },
                            (MemSize::DW, ctx_off::DATA_END) => Op::LdxDataEnd { dst },
                            (MemSize::DW, field @ ctx_off::META0..=ctx_off::META3)
                                if field % 8 == 0 =>
                            {
                                Op::LdxMeta {
                                    dst,
                                    word: ((field - ctx_off::META0) / 8) as u8,
                                }
                            }
                            (_, off) => return Err(VerifierError::BadCtxAccess { pc, off }),
                        },
                        Kind::Stack => Op::LdxStack {
                            size,
                            dst,
                            base: r(base),
                            off,
                        },
                        Kind::Packet => Op::LdxPacket {
                            size,
                            dst,
                            base: r(base),
                            off,
                        },
                        Kind::MapValue(map) => Op::LdxMapValue {
                            size,
                            dst,
                            base: r(base),
                            off,
                            map: bind(pc, map, &mut out)?,
                        },
                        _ => return Err(VerifierError::MixedPointer { pc, reg: base }),
                    }
                }
                Insn::StoreMem {
                    size,
                    base,
                    off,
                    src,
                } => Op::Stx {
                    at: place(pc, kind(base), size, base, off, |m| bind(pc, m, &mut out))?,
                    src: r(src),
                },
                Insn::StoreImm {
                    size,
                    base,
                    off,
                    imm,
                } => Op::StImm {
                    at: place(pc, kind(base), size, base, off, |m| bind(pc, m, &mut out))?,
                    imm,
                },
                Insn::AtomicAdd {
                    size,
                    base,
                    off,
                    src,
                    fetch,
                } => Op::Atomic {
                    at: place(pc, kind(base), size, base, off, |m| bind(pc, m, &mut out))?,
                    src: r(src),
                    fetch,
                },
                Insn::Jump { off } => Op::Ja {
                    target: target(pc, off)?,
                },
                Insn::Branch {
                    op,
                    w,
                    lhs,
                    rhs: Operand::Imm(imm),
                    off,
                } => Op::JImm {
                    op,
                    w,
                    lhs: r(lhs),
                    imm: imm as i64 as u64,
                    target: target(pc, off)?,
                },
                Insn::Branch {
                    op,
                    w,
                    lhs,
                    rhs: Operand::Reg(rhs),
                    off,
                } => Op::JReg {
                    op,
                    w,
                    lhs: r(lhs),
                    rhs: r(rhs),
                    target: target(pc, off)?,
                },
                Insn::Call { helper } => match (helper, kind(Reg::R1), kind(Reg::R2)) {
                    (HelperId::MapLookupElem, Kind::MapFd(map), Kind::Stack) => Op::Lookup {
                        map: bind(pc, map, &mut out)?,
                    },
                    (
                        HelperId::GetPrandomU32
                        | HelperId::KtimeGetNs
                        | HelperId::GetSmpProcessorId,
                        _,
                        _,
                    ) => Op::Env { helper },
                    _ => {
                        out.sites
                            .push(std::array::from_fn(|i| kind(Reg::new(i as u8))));
                        Op::Call {
                            helper,
                            site: u32::try_from(out.sites.len() - 1)
                                .map_err(|_| VerifierError::TooComplex)?,
                        }
                    }
                },
                Insn::Exit => Op::Exit,
            }
        };
        let helper = match op {
            Op::Lookup { .. } => Some(HelperId::MapLookupElem),
            Op::Env { helper } | Op::Call { helper, .. } => Some(helper),
            _ => None,
        };
        out.code.push(op);
        steps.push(Step {
            pc: pc as u32,
            cycles: costs[pc] as u32,
            helper: helper.map(HelperId::name),
        });
        if ends_block(insn) {
            in_block = false;
        }
    }
    out.steps = steps.into();
    Ok(out)
}

/// The cell a store or atomic at `pc` through a `kind` base writes.
fn place(
    pc: usize,
    kind: Kind,
    size: MemSize,
    base: Reg,
    off: i16,
    bind: impl FnOnce(MapId) -> Result<u16, VerifierError>,
) -> Result<Place, VerifierError> {
    let to = match kind {
        Kind::Stack => Mem::Stack,
        Kind::Packet => Mem::Packet,
        Kind::MapValue(map) => Mem::MapValue(bind(map)?),
        _ => return Err(VerifierError::MixedPointer { pc, reg: base }),
    };
    Ok(Place {
        to,
        size,
        base: base.index() as u8,
        off,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::maps::MapDef;
    use crate::verifier::verify;

    fn decoded(prog: &Program, maps: &MapRegistry) -> Result<DecodedProg, VerifierError> {
        let info = verify(prog, maps).expect("verifies");
        decode(prog, &info.facts, maps)
    }

    fn counter(map: MapId) -> Program {
        Asm::new()
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
            .unwrap()
    }

    #[test]
    fn blocks_end_at_branches_and_exits_and_charge_their_sums() {
        let maps = MapRegistry::new();
        let map = maps.create(MapDef::u64_array(4));
        let prog = counter(map);
        let d = decoded(&prog, &maps).expect("specialises");
        assert_eq!(d.maps.len(), 1);
        let charges: Vec<(u32, u32)> = d
            .code
            .iter()
            .filter_map(|op| match *op {
                Op::Charge { insns, cycles } => Some((insns, cycles)),
                _ => None,
            })
            .collect();
        let sum =
            |r: std::ops::Range<usize>| prog.insns[r].iter().map(insn_cost).sum::<u64>() as u32;
        assert_eq!(
            charges,
            vec![(6, sum(0..6)), (2, sum(6..8)), (5, sum(8..13))]
        );
        assert!(matches!(d.code[5], Op::Lookup { map: 0 }));
        assert!(matches!(d.code[11], Op::LdxMapValue { map: 0, .. }));
    }

    #[test]
    fn costs_table_matches_the_model() {
        let prog = Asm::new()
            .mov64_imm(Reg::R0, 1)
            .call(HelperId::GetPrandomU32)
            .exit()
            .build("c")
            .unwrap();
        let d = decoded(&prog, &MapRegistry::new()).unwrap();
        let got: Vec<(u32, u32, Option<&str>)> = d.steps[1..]
            .iter()
            .map(|s| (s.pc, s.cycles, s.helper))
            .collect();
        let want: Vec<(u32, u32, Option<&str>)> = prog
            .insns
            .iter()
            .enumerate()
            .map(|(pc, insn)| (pc as u32, insn_cost(insn) as u32, None))
            .collect();
        let helper = Some(HelperId::GetPrandomU32.name());
        assert_eq!(got, [want[0], (want[1].0, want[1].1, helper), want[2]]);
    }

    /// `Op::Call`'s site is a `u32` and a step still 16 bytes; a `u32`
    /// map index would make `Op::StImm` 24.
    #[test]
    fn a_step_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }

    #[test]
    fn map_value_words_pack_and_keep_null_apart() {
        for (slot, off) in [(0, 0), (7, -4), (u32::MAX, 1 << 29), (3, -(1 << 29))] {
            let word = pack(slot, off);
            assert_ne!(word, 0);
            assert_eq!(unpack(word), (slot, off));
            assert_eq!(unpack(word.wrapping_add(8)), (slot, off + 8));
        }
    }
}
