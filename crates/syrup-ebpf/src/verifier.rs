//! The static verifier: simulated execution with pointer provenance.
//!
//! §4.3 of the paper summarizes the kernel verifier Syrup relies on: it
//! "simulates the execution of the program one instruction at a time and
//! checks for out-of-bound jumps and out-of-range data accesses, while it
//! allows pointer accesses only after an explicit check for bound
//! violations", analyzes up to one million instructions, and therefore only
//! admits bounded loops. This module implements exactly that discipline
//! over the crate's ISA:
//!
//! * every register carries an abstract type (scalar, context pointer,
//!   packet pointer with offset, packet end, stack pointer, possibly-null
//!   map-value pointer, map reference);
//! * packet loads and stores require a dominating comparison of
//!   `data + k` against `data_end` that proves the accessed range — this
//!   is why Syrup policies receive both `pkt_start` and `pkt_end` (§3.3);
//! * map-value pointers must be null-checked before dereference;
//! * stack reads require previously initialized bytes; spilling pointers
//!   to the stack is outside the supported subset and rejected;
//! * all branch targets must stay inside the program, every path must end
//!   in `exit` with `r0` initialized, and analysis is capped at
//!   [`ANALYSIS_LIMIT`] simulated instructions, so unbounded loops are
//!   rejected to guarantee liveness;
//! * one step sees one kind, as in the kernel ("same insn cannot be used
//!   with different pointers"): a memory base or checked helper argument
//!   whose kind differs across paths is rejected, and so is a pointer
//!   moved beyond [`MAX_PTR_OFF`].
//!
//! Known scalar constants are propagated and branches on them are folded,
//! which is what lets bounded `for` loops (SCAN-Avoid's socket probing)
//! verify without path explosion.
//!
//! An accepted program comes back with [`Facts`], the kernel's
//! `insn_aux_data`: what each register holds at each pc on every explored
//! path, and where basic blocks start. The loader specialises the program
//! from them (`decode.rs`), so the engine that runs it carries no tags;
//! the last rule is what makes every accepted program specialise.

use std::collections::HashMap;
use std::fmt;

use crate::helpers::HelperId;
use crate::insn::{AluOp, CmpOp, Insn, MemSize, Operand, Reg, Width};
use crate::maps::{MapId, MapKind, MapRegistry};
use crate::vm::{alu32, alu64, cmp_u64, ctx_off, STACK_SIZE};
use crate::Program;

/// Maximum simulated instructions before the program is rejected as too
/// complex — the 1M budget §4.3 quotes.
pub const ANALYSIS_LIMIT: u64 = 1_000_000;

/// Why a program was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifierError {
    /// The program is empty.
    EmptyProgram,
    /// Read of a register no path has written.
    UninitRegister {
        /// Instruction index.
        pc: usize,
        /// The register.
        reg: Reg,
    },
    /// A jump or branch leaves the instruction stream.
    JumpOutOfRange {
        /// Instruction index.
        pc: usize,
    },
    /// Execution can fall off the end without `exit`.
    FallOffEnd,
    /// `r10` is read-only.
    FramePointerWrite {
        /// Instruction index.
        pc: usize,
    },
    /// Stack access outside the 512-byte frame.
    StackOutOfBounds {
        /// Instruction index.
        pc: usize,
        /// Faulting frame offset (0 = frame top).
        off: i64,
    },
    /// Read of stack bytes never written on this path.
    UninitStackRead {
        /// Instruction index.
        pc: usize,
        /// Frame offset of the first uninitialized byte.
        off: i64,
    },
    /// Packet access without a dominating bounds check against `data_end`.
    PacketBoundsNotProven {
        /// Instruction index.
        pc: usize,
        /// The access end offset that was not proven available.
        needed: i64,
    },
    /// Dereference of a map value before the null check.
    PossiblyNullDeref {
        /// Instruction index.
        pc: usize,
    },
    /// Access beyond the map's value size.
    MapValueOutOfBounds {
        /// Instruction index.
        pc: usize,
    },
    /// Arithmetic on pointers outside the supported forms.
    BadPointerArith {
        /// Instruction index.
        pc: usize,
    },
    /// Storing a pointer to the stack (spilling) is outside the subset.
    PointerSpill {
        /// Instruction index.
        pc: usize,
    },
    /// Store through the read-only context.
    CtxWrite {
        /// Instruction index.
        pc: usize,
    },
    /// Load from an unsupported context offset.
    BadCtxAccess {
        /// Instruction index.
        pc: usize,
        /// The offending offset.
        off: i64,
    },
    /// A helper argument had the wrong abstract type.
    BadHelperArg {
        /// Instruction index.
        pc: usize,
        /// The helper.
        helper: HelperId,
        /// Argument position (1-based).
        arg: u8,
    },
    /// A referenced map does not exist in the registry.
    UnknownMap {
        /// Instruction index.
        pc: usize,
        /// The missing map.
        map: MapId,
    },
    /// `exit` with `r0` not a scalar.
    BadReturnValue {
        /// Instruction index.
        pc: usize,
    },
    /// The analysis budget was exhausted (unbounded loop or path blowup),
    /// or the program outgrows the specialised form's indices.
    TooComplex,
    /// Comparison between incompatible abstract values.
    BadComparison {
        /// Instruction index.
        pc: usize,
    },
    /// Invalid atomic operand size (must be 4 or 8 bytes).
    BadAtomicSize {
        /// Instruction index.
        pc: usize,
    },
    /// Invalid endian width (must be 16/32/64).
    BadEndianWidth {
        /// Instruction index.
        pc: usize,
    },
    /// A load, store or atomic whose base register points into different
    /// regions on different paths (the kernel's "same insn cannot be used
    /// with different pointers").
    MixedPointer {
        /// Instruction index.
        pc: usize,
        /// The base register.
        reg: Reg,
    },
    /// A helper argument the helper's check reads holds different kinds
    /// of value on different paths.
    MixedHelperArg {
        /// Instruction index.
        pc: usize,
        /// The helper.
        helper: HelperId,
        /// Argument position (1-based).
        arg: u8,
    },
    /// A pointer moved beyond [`MAX_PTR_OFF`] of its region's base.
    PointerOutOfRange {
        /// Instruction index.
        pc: usize,
        /// The offset the pointer would hold.
        off: i64,
    },
}

impl fmt::Display for VerifierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifierError::EmptyProgram => write!(f, "empty program"),
            VerifierError::UninitRegister { pc, reg } => {
                write!(f, "insn {pc}: read of uninitialized {reg}")
            }
            VerifierError::JumpOutOfRange { pc } => write!(f, "insn {pc}: jump out of range"),
            VerifierError::FallOffEnd => write!(f, "control falls off program end"),
            VerifierError::FramePointerWrite { pc } => {
                write!(f, "insn {pc}: write to frame pointer r10")
            }
            VerifierError::StackOutOfBounds { pc, off } => {
                write!(f, "insn {pc}: stack access at offset {off} outside frame")
            }
            VerifierError::UninitStackRead { pc, off } => {
                write!(f, "insn {pc}: read of uninitialized stack byte {off}")
            }
            VerifierError::PacketBoundsNotProven { pc, needed } => write!(
                f,
                "insn {pc}: packet access to byte {needed} without bounds check against data_end"
            ),
            VerifierError::PossiblyNullDeref { pc } => {
                write!(f, "insn {pc}: map value dereferenced before null check")
            }
            VerifierError::MapValueOutOfBounds { pc } => {
                write!(f, "insn {pc}: access beyond map value size")
            }
            VerifierError::BadPointerArith { pc } => {
                write!(f, "insn {pc}: unsupported pointer arithmetic")
            }
            VerifierError::PointerSpill { pc } => {
                write!(f, "insn {pc}: pointer spill to stack is unsupported")
            }
            VerifierError::CtxWrite { pc } => write!(f, "insn {pc}: context is read-only"),
            VerifierError::BadCtxAccess { pc, off } => {
                write!(f, "insn {pc}: invalid context field offset {off}")
            }
            VerifierError::BadHelperArg { pc, helper, arg } => {
                write!(f, "insn {pc}: bad argument r{arg} to helper {helper}")
            }
            VerifierError::UnknownMap { pc, map } => {
                write!(f, "insn {pc}: unknown map #{}", map.0)
            }
            VerifierError::BadReturnValue { pc } => {
                write!(f, "insn {pc}: exit with non-scalar r0")
            }
            VerifierError::TooComplex => write!(
                f,
                "program too complex: exceeded {ANALYSIS_LIMIT} analyzed instructions"
            ),
            VerifierError::BadComparison { pc } => {
                write!(f, "insn {pc}: comparison of incompatible values")
            }
            VerifierError::BadAtomicSize { pc } => {
                write!(f, "insn {pc}: atomic operand must be 4 or 8 bytes")
            }
            VerifierError::BadEndianWidth { pc } => {
                write!(f, "insn {pc}: endian width must be 16, 32, or 64")
            }
            VerifierError::MixedPointer { pc, reg } => {
                write!(
                    f,
                    "insn {pc}: {reg} points into different regions on different paths"
                )
            }
            VerifierError::MixedHelperArg { pc, helper, arg } => write!(
                f,
                "insn {pc}: argument r{arg} to helper {helper} differs in kind across paths"
            ),
            VerifierError::PointerOutOfRange { pc, off } => {
                write!(f, "insn {pc}: pointer offset {off} beyond ±{MAX_PTR_OFF}")
            }
        }
    }
}

impl std::error::Error for VerifierError {}

/// Abstract value of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Abs {
    Uninit,
    /// A scalar; `Some` when the exact value is known on this path.
    Scalar(Option<i64>),
    /// The program context pointer (offset always zero in our ISA use).
    CtxPtr,
    /// `data + off`.
    PacketPtr(i64),
    /// `data_end`.
    PacketEnd,
    /// `frame_base + off` where the frame occupies `[0, 512)` and `r10`
    /// starts at 512.
    StackPtr(i64),
    /// Pointer into a map's value, possibly NULL until checked.
    MapValue {
        map: MapId,
        off: i64,
        nullable: bool,
    },
    /// A map reference created by `LoadMapFd`.
    MapFd(MapId),
}

/// One abstract machine state at a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    regs: [Abs; 11],
    /// Which of the 512 stack bytes are initialized.
    stack_init: Box<[bool; STACK_SIZE as usize]>,
    /// Bytes of packet proven readable (i.e. `data + pkt_avail <= data_end`).
    pkt_avail: i64,
}

impl State {
    fn entry() -> State {
        let mut regs = [Abs::Uninit; 11];
        regs[Reg::R1.index()] = Abs::CtxPtr;
        regs[Reg::R10.index()] = Abs::StackPtr(STACK_SIZE);
        State {
            regs,
            stack_init: Box::new([false; STACK_SIZE as usize]),
            pkt_avail: 0,
        }
    }

    fn read(&self, pc: usize, r: Reg) -> Result<Abs, VerifierError> {
        match self.regs[r.index()] {
            Abs::Uninit => Err(VerifierError::UninitRegister { pc, reg: r }),
            v => Ok(v),
        }
    }

    fn write(&mut self, pc: usize, r: Reg, v: Abs) -> Result<(), VerifierError> {
        if r == Reg::R10 {
            return Err(VerifierError::FramePointerWrite { pc });
        }
        self.regs[r.index()] = v;
        Ok(())
    }
}

/// Largest pointer offset, either sign, the specialised engine packs into
/// a register word (the kernel's `BPF_MAX_VAR_OFF`). The instruction that
/// would move a pointer beyond it is rejected.
pub const MAX_PTR_OFF: i64 = 1 << 29;

/// What a register holds at one pc, joined over every explored path that
/// reaches it: all an engine needs to run an instruction on untagged
/// words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No explored path reaches the pc.
    Unseen,
    /// Unwritten on every path.
    Uninit,
    /// A number; map references to different maps join here, since a
    /// map reference is a scalar token at run time.
    Scalar,
    /// A reference to this map, from `LoadMapFd`.
    MapFd(MapId),
    /// The context pointer.
    Ctx,
    /// A packet pointer, `data + k` or `data_end`.
    Packet,
    /// A stack pointer.
    Stack,
    /// A pointer into one of this map's values, or NULL before its check.
    MapValue(MapId),
    /// Paths disagree: two regions, or written on some paths only.
    Mixed,
}

impl Kind {
    fn of(abs: Abs) -> Kind {
        match abs {
            Abs::Uninit => Kind::Uninit,
            Abs::Scalar(_) => Kind::Scalar,
            Abs::MapFd(map) => Kind::MapFd(map),
            Abs::CtxPtr => Kind::Ctx,
            Abs::PacketPtr(_) | Abs::PacketEnd => Kind::Packet,
            Abs::StackPtr(_) => Kind::Stack,
            Abs::MapValue { map, .. } => Kind::MapValue(map),
        }
    }

    fn join(self, other: Kind) -> Kind {
        match (self, other) {
            (Kind::Unseen, k) | (k, Kind::Unseen) => k,
            (a, b) if a == b => a,
            (Kind::MapFd(_) | Kind::Scalar, Kind::MapFd(_) | Kind::Scalar) => Kind::Scalar,
            _ => Kind::Mixed,
        }
    }
}

/// Per-pc facts an accepted program's analysis proved, read off the
/// abstract states it walked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Facts {
    /// Per pc, each register's [`Kind`] on arrival.
    regs: Vec<[Kind; 11]>,
    /// Per pc, whether a basic block starts there: the entry, every branch
    /// or jump target, and the instruction after a branch or a tail call.
    leaders: Vec<bool>,
}

impl Facts {
    fn new(len: usize) -> Facts {
        let mut leaders = vec![false; len];
        leaders[0] = true;
        Facts {
            regs: vec![[Kind::Unseen; 11]; len],
            leaders,
        }
    }

    fn observe(&mut self, pc: usize, st: &State) {
        for (fact, &abs) in self.regs[pc].iter_mut().zip(&st.regs) {
            *fact = fact.join(Kind::of(abs));
        }
    }

    fn lead(&mut self, pc: usize) {
        if let Some(leader) = self.leaders.get_mut(pc) {
            *leader = true;
        }
    }

    /// What `reg` holds on arrival at `pc`: the region a memory step's
    /// base points into, or the kind of a helper argument.
    pub fn kind(&self, pc: usize, reg: Reg) -> Kind {
        self.regs
            .get(pc)
            .map_or(Kind::Unseen, |regs| regs[reg.index()])
    }

    /// Whether a basic block starts at `pc`.
    pub fn starts_block(&self, pc: usize) -> bool {
        self.leaders.get(pc).copied().unwrap_or(false)
    }
}

/// Successful verification summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyInfo {
    /// Simulated instructions analyzed across all explored paths.
    pub analyzed: u64,
    /// What the analysis proved about each instruction.
    pub facts: Facts,
}

/// Tunable verifier behavior.
///
/// The default configuration is the sound verifier. The switches exist so
/// the fuzz harness (`syrup-fuzz`) can deliberately weaken one check and
/// confirm its soundness oracle detects the resulting unsound acceptances —
/// a self-test of the test infrastructure, never for production loading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifierConfig {
    /// DELIBERATE BUG (testing only): skip the upper `data_end` bounds
    /// proof on packet loads/stores, accepting programs that may read or
    /// write past the end of the packet. Negative offsets are still
    /// rejected so the weakened verifier remains deterministic.
    pub assume_packet_in_bounds: bool,
}

/// Verifies `prog` against `maps` (needed for key/value sizes and kinds).
pub fn verify(prog: &Program, maps: &MapRegistry) -> Result<VerifyInfo, VerifierError> {
    verify_with_config(prog, maps, &VerifierConfig::default())
}

/// [`verify`] with explicit [`VerifierConfig`] knobs (fuzz harness only).
pub fn verify_with_config(
    prog: &Program,
    maps: &MapRegistry,
    cfg: &VerifierConfig,
) -> Result<VerifyInfo, VerifierError> {
    if prog.insns.is_empty() {
        return Err(VerifierError::EmptyProgram);
    }
    let len = prog.insns.len();
    let mut analyzed: u64 = 0;
    // DFS with explicit branch alternatives. `path` holds the states along
    // the chain currently being walked, each as `(pc, index into
    // visited[pc])`; revisiting an identical state on the same path means
    // no progress is possible — an infinite loop, which the kernel
    // verifier likewise rejects to guarantee liveness. States seen on
    // *completed* chains are safe to prune (converging diamonds).
    let mut alts: Vec<(usize, State, usize)> = vec![(0, State::entry(), 0)];
    let mut path: Vec<(usize, usize)> = Vec::new();
    let mut visited: HashMap<usize, Vec<State>> = HashMap::new();
    let mut facts = Facts::new(len);

    while let Some((start_pc, start_st, fork_depth)) = alts.pop() {
        path.truncate(fork_depth);
        let (mut pc, mut st) = (start_pc, start_st);
        loop {
            if pc >= len {
                return Err(VerifierError::FallOffEnd);
            }
            // Every state on the path is in `visited`, so only a state
            // seen before at this pc can close a loop.
            let seen = visited.entry(pc).or_default();
            if let Some(i) = seen.iter().position(|s| *s == st) {
                if path.contains(&(pc, i)) {
                    // Same instruction, same abstract state, on one path:
                    // the program can loop forever without progress.
                    return Err(VerifierError::TooComplex);
                }
                // Prune identical states already explored at this point.
                break;
            }
            path.push((pc, seen.len()));
            seen.push(st.clone());
            facts.observe(pc, &st);

            analyzed += 1;
            if analyzed > ANALYSIS_LIMIT {
                return Err(VerifierError::TooComplex);
            }

            let insn = prog.insns[pc];
            let next = pc + 1;
            match insn {
                Insn::Alu { w, op, dst, src } => {
                    let rhs = operand_abs(&st, pc, src)?;
                    let out = if op == AluOp::Mov {
                        mov_abs(pc, w, rhs)?
                    } else {
                        let lhs = st.read(pc, dst)?;
                        in_range(pc, alu_abs(pc, w, op, lhs, rhs)?)?
                    };
                    st.write(pc, dst, out)?;
                    pc = next;
                }
                Insn::Neg { w, dst } => {
                    let v = st.read(pc, dst)?;
                    let out = match v {
                        Abs::Scalar(Some(k)) => Abs::Scalar(Some(match w {
                            Width::W64 => k.wrapping_neg(),
                            Width::W32 => i64::from((k as i32).wrapping_neg() as u32),
                        })),
                        Abs::Scalar(None) => Abs::Scalar(None),
                        _ => return Err(VerifierError::BadPointerArith { pc }),
                    };
                    st.write(pc, dst, out)?;
                    pc = next;
                }
                Insn::Endian { dst, bits, .. } => {
                    if !matches!(bits, 16 | 32 | 64) {
                        return Err(VerifierError::BadEndianWidth { pc });
                    }
                    match st.read(pc, dst)? {
                        Abs::Scalar(_) => {}
                        _ => return Err(VerifierError::BadPointerArith { pc }),
                    }
                    st.write(pc, dst, Abs::Scalar(None))?;
                    pc = next;
                }
                Insn::LoadImm64 { dst, imm } => {
                    st.write(pc, dst, Abs::Scalar(Some(imm)))?;
                    pc = next;
                }
                Insn::LoadMapFd { dst, map } => {
                    if maps.get(map).is_none() {
                        return Err(VerifierError::UnknownMap { pc, map });
                    }
                    st.write(pc, dst, Abs::MapFd(map))?;
                    pc = next;
                }
                Insn::LoadMem {
                    size,
                    dst,
                    base,
                    off,
                } => {
                    let ptr = st.read(pc, base)?;
                    let out = check_load(&st, maps, cfg, pc, ptr, i64::from(off), size)?;
                    st.write(pc, dst, out)?;
                    pc = next;
                }
                Insn::StoreMem {
                    size,
                    base,
                    off,
                    src,
                } => {
                    let v = st.read(pc, src)?;
                    if !matches!(v, Abs::Scalar(_)) {
                        // Pointer spilling is outside the supported subset.
                        let ptr = st.read(pc, base)?;
                        if matches!(ptr, Abs::StackPtr(_)) {
                            return Err(VerifierError::PointerSpill { pc });
                        }
                        return Err(VerifierError::BadPointerArith { pc });
                    }
                    let ptr = st.read(pc, base)?;
                    check_store(&mut st, maps, cfg, pc, ptr, i64::from(off), size)?;
                    pc = next;
                }
                Insn::StoreImm {
                    size, base, off, ..
                } => {
                    let ptr = st.read(pc, base)?;
                    check_store(&mut st, maps, cfg, pc, ptr, i64::from(off), size)?;
                    pc = next;
                }
                Insn::AtomicAdd {
                    size,
                    base,
                    off,
                    src,
                    fetch,
                } => {
                    if size != MemSize::W && size != MemSize::DW {
                        return Err(VerifierError::BadAtomicSize { pc });
                    }
                    match st.read(pc, src)? {
                        Abs::Scalar(_) => {}
                        _ => return Err(VerifierError::BadPointerArith { pc }),
                    }
                    let ptr = st.read(pc, base)?;
                    // An atomic both reads and writes the target.
                    check_load(&st, maps, cfg, pc, ptr, i64::from(off), size)?;
                    check_store(&mut st, maps, cfg, pc, ptr, i64::from(off), size)?;
                    if fetch {
                        st.write(pc, src, Abs::Scalar(None))?;
                    }
                    pc = next;
                }
                Insn::Jump { off } => {
                    pc = branch_target(pc, off, len)?;
                    facts.lead(pc);
                }
                Insn::Branch {
                    op,
                    w,
                    lhs,
                    rhs,
                    off,
                } => {
                    let target = branch_target(pc, off, len)?;
                    facts.lead(target);
                    facts.lead(next);
                    let l = st.read(pc, lhs)?;
                    let r = operand_abs(&st, pc, rhs)?;
                    match branch_refine(pc, op, w, lhs, rhs, l, r, &st)? {
                        BranchPlan::Taken(taken_st) => {
                            st = taken_st;
                            pc = target;
                        }
                        BranchPlan::NotTaken(fall_st) => {
                            st = fall_st;
                            pc = next;
                        }
                        BranchPlan::Both { taken, fallthrough } => {
                            alts.push((target, taken, path.len()));
                            st = fallthrough;
                            pc = next;
                        }
                    }
                }
                Insn::Call { helper } => {
                    let ret = check_helper(&st, maps, cfg, pc, helper)?;
                    if helper == HelperId::MapDeleteElem {
                        // Deleting a hash entry frees its slot, so any
                        // live pointer into that map's values may now be
                        // stale (the VM traps on such a deref; the kernel
                        // relies on RCU grace periods instead). Invalidate
                        // them so a later deref is rejected statically.
                        // Array/prog-array deletes fail without freeing,
                        // so their value pointers stay valid.
                        if let Abs::MapFd(deleted) = st.regs[Reg::R1.index()] {
                            let is_hash = maps
                                .get(deleted)
                                .is_some_and(|m| m.def().kind == MapKind::Hash);
                            if is_hash {
                                for r in 0..=9 {
                                    if matches!(st.regs[r], Abs::MapValue { map, .. } if map == deleted)
                                    {
                                        st.regs[r] = Abs::Uninit;
                                    }
                                }
                            }
                        }
                    }
                    st.regs[Reg::R0.index()] = ret;
                    for r in 1..=5 {
                        st.regs[r] = Abs::Uninit;
                    }
                    if helper == HelperId::TailCall {
                        facts.lead(next);
                    }
                    pc = next;
                }
                Insn::Exit => {
                    match st.regs[Reg::R0.index()] {
                        Abs::Scalar(_) => {}
                        Abs::Uninit => {
                            return Err(VerifierError::UninitRegister { pc, reg: Reg::R0 })
                        }
                        _ => return Err(VerifierError::BadReturnValue { pc }),
                    }
                    break;
                }
            }
        }
    }
    one_kind_per_operand(prog, &facts)?;
    Ok(VerifyInfo { analyzed, facts })
}

/// Rejects a step whose memory base, or a helper argument the helper's
/// check reads, holds different kinds on different paths: the
/// specialised engine reads those registers as untagged words, so one
/// step must see one kind.
fn one_kind_per_operand(prog: &Program, facts: &Facts) -> Result<(), VerifierError> {
    for (pc, insn) in prog.insns.iter().enumerate() {
        let mixed = |r: Reg| facts.kind(pc, r) == Kind::Mixed;
        match *insn {
            Insn::LoadMem { base, .. }
            | Insn::StoreMem { base, .. }
            | Insn::StoreImm { base, .. }
            | Insn::AtomicAdd { base, .. }
                if mixed(base) =>
            {
                return Err(VerifierError::MixedPointer { pc, reg: base });
            }
            Insn::Call { helper } => {
                if let Some(&arg) = checked_args(helper).iter().find(|&&i| mixed(Reg::new(i))) {
                    return Err(VerifierError::MixedHelperArg { pc, helper, arg });
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// The argument registers [`check_helper`] reads for `helper`.
fn checked_args(helper: HelperId) -> &'static [u8] {
    match helper {
        HelperId::MapLookupElem | HelperId::MapDeleteElem => &[1, 2],
        HelperId::MapUpdateElem => &[1, 2, 3, 4],
        HelperId::RedirectMap | HelperId::TailCall => &[1, 2, 3],
        HelperId::GetPrandomU32 | HelperId::KtimeGetNs | HelperId::GetSmpProcessorId => &[],
    }
}

/// `abs`, unless it is a pointer moved beyond [`MAX_PTR_OFF`].
fn in_range(pc: usize, abs: Abs) -> Result<Abs, VerifierError> {
    match abs {
        Abs::PacketPtr(off) | Abs::StackPtr(off) | Abs::MapValue { off, .. }
            if off.unsigned_abs() > MAX_PTR_OFF as u64 =>
        {
            Err(VerifierError::PointerOutOfRange { pc, off })
        }
        _ => Ok(abs),
    }
}

fn operand_abs(st: &State, pc: usize, op: Operand) -> Result<Abs, VerifierError> {
    match op {
        Operand::Reg(r) => st.read(pc, r),
        Operand::Imm(i) => Ok(Abs::Scalar(Some(i64::from(i)))),
    }
}

fn mov_abs(pc: usize, w: Width, rhs: Abs) -> Result<Abs, VerifierError> {
    match (w, rhs) {
        (Width::W64, v) => Ok(v),
        (Width::W32, Abs::Scalar(Some(k))) => Ok(Abs::Scalar(Some(k & 0xFFFF_FFFF))),
        (Width::W32, Abs::Scalar(None)) => Ok(Abs::Scalar(None)),
        // mov32 of a pointer degrades it to an unknown scalar in the
        // kernel; our subset rejects it to keep provenance exact.
        (Width::W32, _) => Err(VerifierError::BadPointerArith { pc }),
    }
}

fn alu_abs(pc: usize, w: Width, op: AluOp, lhs: Abs, rhs: Abs) -> Result<Abs, VerifierError> {
    use Abs::*;
    // Pointer forms first.
    match (lhs, rhs) {
        (PacketPtr(o), Scalar(Some(k))) if w == Width::W64 && op == AluOp::Add => {
            return Ok(PacketPtr(o.wrapping_add(k)));
        }
        (PacketPtr(o), Scalar(Some(k))) if w == Width::W64 && op == AluOp::Sub => {
            return Ok(PacketPtr(o.wrapping_sub(k)));
        }
        (StackPtr(o), Scalar(Some(k))) if w == Width::W64 && op == AluOp::Add => {
            return Ok(StackPtr(o.wrapping_add(k)));
        }
        (StackPtr(o), Scalar(Some(k))) if w == Width::W64 && op == AluOp::Sub => {
            return Ok(StackPtr(o.wrapping_sub(k)));
        }
        (MapValue { map, off, nullable }, Scalar(Some(k)))
            if w == Width::W64 && (op == AluOp::Add || op == AluOp::Sub) =>
        {
            if nullable {
                // Arithmetic on a maybe-null pointer is rejected, like the
                // kernel.
                return Err(VerifierError::PossiblyNullDeref { pc });
            }
            let delta = if op == AluOp::Add {
                k
            } else {
                k.wrapping_neg()
            };
            return Ok(MapValue {
                map,
                off: off.wrapping_add(delta),
                nullable,
            });
        }
        // Pointer difference within the same region yields a scalar; the
        // (data_end - data) length idiom.
        (PacketEnd, PacketPtr(_)) | (PacketPtr(_), PacketEnd) | (PacketPtr(_), PacketPtr(_))
            if w == Width::W64 && op == AluOp::Sub =>
        {
            return Ok(Scalar(None));
        }
        (StackPtr(_), StackPtr(_)) if w == Width::W64 && op == AluOp::Sub => {
            return Ok(Scalar(None));
        }
        (Scalar(_), Scalar(_)) => {}
        _ => return Err(VerifierError::BadPointerArith { pc }),
    }
    // Scalar arithmetic with constant folding: the VM's own ALU, so the
    // folded value is the one the program will compute.
    let (Scalar(a), Scalar(b)) = (lhs, rhs) else {
        unreachable!("non-scalars handled above");
    };
    let folded = match (a, b) {
        (Some(x), Some(y)) => {
            let (ux, uy) = (x as u64, y as u64);
            let r = match w {
                Width::W64 => alu64(op, ux, uy),
                Width::W32 => u64::from(alu32(op, ux as u32, uy as u32)),
            };
            Some(r as i64)
        }
        _ => None,
    };
    Ok(Scalar(folded))
}

fn branch_target(pc: usize, off: i16, len: usize) -> Result<usize, VerifierError> {
    let target = pc as i64 + 1 + i64::from(off);
    if target < 0 || target as usize >= len {
        return Err(VerifierError::JumpOutOfRange { pc });
    }
    Ok(target as usize)
}

#[allow(clippy::large_enum_variant)] // States are short-lived analysis values.
enum BranchPlan {
    Taken(State),
    NotTaken(State),
    Both { taken: State, fallthrough: State },
}

#[allow(clippy::too_many_arguments)]
fn branch_refine(
    pc: usize,
    op: CmpOp,
    w: Width,
    lhs_reg: Reg,
    rhs_op: Operand,
    l: Abs,
    r: Abs,
    st: &State,
) -> Result<BranchPlan, VerifierError> {
    use Abs::*;

    // Constant folding: both sides known.
    if let (Scalar(Some(a)), Scalar(Some(b))) = (l, r) {
        let taken = cmp_u64(op, w, a as u64, b as u64);
        return Ok(if taken {
            BranchPlan::Taken(st.clone())
        } else {
            BranchPlan::NotTaken(st.clone())
        });
    }

    // Packet bounds proof: PacketPtr(k) vs PacketEnd in either order.
    let pkt_vs_end = match (l, r) {
        (PacketPtr(k), PacketEnd) => Some((k, op)),
        (PacketEnd, PacketPtr(k)) => Some((k, flip(op))),
        _ => None,
    };
    if let Some((k, op)) = pkt_vs_end {
        // Normalized: branch taken iff `data + k  <op>  data_end`.
        let mut taken = st.clone();
        let mut fall = st.clone();
        match op {
            // taken: data+k > end (no info); fall: data+k <= end => k avail.
            CmpOp::Gt => fall.pkt_avail = fall.pkt_avail.max(k),
            // taken: data+k >= end; fall: data+k < end => k+1 avail.
            CmpOp::Ge => fall.pkt_avail = fall.pkt_avail.max(k.saturating_add(1)),
            // taken: data+k < end => k+1 avail; fall: no info.
            CmpOp::Lt => taken.pkt_avail = taken.pkt_avail.max(k.saturating_add(1)),
            // taken: data+k <= end => k avail; fall: no info.
            CmpOp::Le => taken.pkt_avail = taken.pkt_avail.max(k),
            CmpOp::Eq | CmpOp::Ne => {}
            _ => return Err(VerifierError::BadComparison { pc }),
        }
        return Ok(BranchPlan::Both {
            taken,
            fallthrough: fall,
        });
    }

    // Null check: MapValue vs constant 0 with Eq/Ne.
    if let (
        MapValue {
            map,
            off,
            nullable: true,
        },
        Scalar(Some(0)),
    ) = (l, r)
    {
        let mut null_side = st.clone();
        null_side.regs[lhs_reg.index()] = Scalar(Some(0));
        let mut nonnull_side = st.clone();
        nonnull_side.regs[lhs_reg.index()] = MapValue {
            map,
            off,
            nullable: false,
        };
        return match op {
            CmpOp::Eq => Ok(BranchPlan::Both {
                taken: null_side,
                fallthrough: nonnull_side,
            }),
            CmpOp::Ne => Ok(BranchPlan::Both {
                taken: nonnull_side,
                fallthrough: null_side,
            }),
            _ => Err(VerifierError::BadComparison { pc }),
        };
    }

    match (l, r) {
        // Scalar vs scalar with at least one unknown: both paths, no
        // refinement (interval tracking is future work; constants cover the
        // paper's policies).
        (Scalar(_), Scalar(_)) => Ok(BranchPlan::Both {
            taken: st.clone(),
            fallthrough: st.clone(),
        }),
        // Same-region pointer comparisons carry no tracked info.
        (PacketPtr(_), PacketPtr(_)) | (StackPtr(_), StackPtr(_)) | (PacketEnd, PacketEnd) => {
            Ok(BranchPlan::Both {
                taken: st.clone(),
                fallthrough: st.clone(),
            })
        }
        // A checked-non-null map value compared against 0 is decidable.
        (
            MapValue {
                nullable: false, ..
            },
            Scalar(Some(0)),
        ) => match op {
            CmpOp::Eq => Ok(BranchPlan::NotTaken(st.clone())),
            CmpOp::Ne => Ok(BranchPlan::Taken(st.clone())),
            _ => Err(VerifierError::BadComparison { pc }),
        },
        _ => {
            let _ = rhs_op;
            Err(VerifierError::BadComparison { pc })
        }
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        other => other,
    }
}

/// Whether `off..off + n` lies inside a `limit`-byte region. Never forms
/// `off + n`: a pointer moved to the edge of `i64` would wrap it back into
/// bounds.
fn within(off: i64, n: i64, limit: i64) -> bool {
    off >= 0 && off <= limit - n
}

fn check_load(
    st: &State,
    maps: &MapRegistry,
    cfg: &VerifierConfig,
    pc: usize,
    ptr: Abs,
    insn_off: i64,
    size: MemSize,
) -> Result<Abs, VerifierError> {
    let n = size.bytes() as i64;
    match ptr {
        Abs::StackPtr(base) => {
            let off = base.wrapping_add(insn_off);
            if !within(off, n, STACK_SIZE) {
                return Err(VerifierError::StackOutOfBounds { pc, off });
            }
            for b in off..off + n {
                if !st.stack_init[b as usize] {
                    return Err(VerifierError::UninitStackRead { pc, off: b });
                }
            }
            Ok(Abs::Scalar(None))
        }
        Abs::PacketPtr(base) => {
            let off = base.wrapping_add(insn_off);
            if off < 0 || !(within(off, n, st.pkt_avail) || cfg.assume_packet_in_bounds) {
                return Err(VerifierError::PacketBoundsNotProven {
                    pc,
                    needed: off.saturating_add(n),
                });
            }
            Ok(Abs::Scalar(None))
        }
        Abs::CtxPtr => {
            if size != MemSize::DW {
                return Err(VerifierError::BadCtxAccess { pc, off: insn_off });
            }
            match insn_off {
                ctx_off::DATA => Ok(Abs::PacketPtr(0)),
                ctx_off::DATA_END => Ok(Abs::PacketEnd),
                ctx_off::META0 | ctx_off::META1 | ctx_off::META2 | ctx_off::META3 => {
                    Ok(Abs::Scalar(None))
                }
                off => Err(VerifierError::BadCtxAccess { pc, off }),
            }
        }
        Abs::MapValue { map, off, nullable } => {
            if nullable {
                return Err(VerifierError::PossiblyNullDeref { pc });
            }
            let map_ref = maps.get(map).ok_or(VerifierError::UnknownMap { pc, map })?;
            let off = off.wrapping_add(insn_off);
            if !within(off, n, i64::from(map_ref.def().value_size)) {
                return Err(VerifierError::MapValueOutOfBounds { pc });
            }
            Ok(Abs::Scalar(None))
        }
        Abs::PacketEnd | Abs::MapFd(_) | Abs::Scalar(_) | Abs::Uninit => {
            Err(VerifierError::BadPointerArith { pc })
        }
    }
}

fn check_store(
    st: &mut State,
    maps: &MapRegistry,
    cfg: &VerifierConfig,
    pc: usize,
    ptr: Abs,
    insn_off: i64,
    size: MemSize,
) -> Result<(), VerifierError> {
    let n = size.bytes() as i64;
    match ptr {
        Abs::StackPtr(base) => {
            let off = base.wrapping_add(insn_off);
            if !within(off, n, STACK_SIZE) {
                return Err(VerifierError::StackOutOfBounds { pc, off });
            }
            for b in off..off + n {
                st.stack_init[b as usize] = true;
            }
            Ok(())
        }
        Abs::PacketPtr(base) => {
            let off = base.wrapping_add(insn_off);
            if off < 0 || !(within(off, n, st.pkt_avail) || cfg.assume_packet_in_bounds) {
                return Err(VerifierError::PacketBoundsNotProven {
                    pc,
                    needed: off.saturating_add(n),
                });
            }
            Ok(())
        }
        Abs::CtxPtr => Err(VerifierError::CtxWrite { pc }),
        Abs::MapValue { map, off, nullable } => {
            if nullable {
                return Err(VerifierError::PossiblyNullDeref { pc });
            }
            let map_ref = maps.get(map).ok_or(VerifierError::UnknownMap { pc, map })?;
            let off = off.wrapping_add(insn_off);
            if !within(off, n, i64::from(map_ref.def().value_size)) {
                return Err(VerifierError::MapValueOutOfBounds { pc });
            }
            Ok(())
        }
        Abs::PacketEnd | Abs::MapFd(_) | Abs::Scalar(_) | Abs::Uninit => {
            Err(VerifierError::BadPointerArith { pc })
        }
    }
}

/// Validates a pointer argument that a helper reads `len` bytes through.
#[allow(clippy::too_many_arguments)]
fn check_mem_arg(
    st: &State,
    pc: usize,
    helper: HelperId,
    arg: u8,
    ptr: Abs,
    len: i64,
    maps: &MapRegistry,
    cfg: &VerifierConfig,
) -> Result<(), VerifierError> {
    match ptr {
        Abs::StackPtr(base) => {
            if !within(base, len, STACK_SIZE) {
                return Err(VerifierError::StackOutOfBounds { pc, off: base });
            }
            for b in base..base + len {
                if !st.stack_init[b as usize] {
                    return Err(VerifierError::UninitStackRead { pc, off: b });
                }
            }
            Ok(())
        }
        Abs::PacketPtr(base) => {
            if base < 0 || !(within(base, len, st.pkt_avail) || cfg.assume_packet_in_bounds) {
                return Err(VerifierError::PacketBoundsNotProven {
                    pc,
                    needed: base.saturating_add(len),
                });
            }
            Ok(())
        }
        Abs::MapValue { map, off, nullable } => {
            if nullable {
                return Err(VerifierError::PossiblyNullDeref { pc });
            }
            let map_ref = maps.get(map).ok_or(VerifierError::UnknownMap { pc, map })?;
            if !within(off, len, i64::from(map_ref.def().value_size)) {
                return Err(VerifierError::MapValueOutOfBounds { pc });
            }
            Ok(())
        }
        _ => Err(VerifierError::BadHelperArg { pc, helper, arg }),
    }
}

fn check_helper(
    st: &State,
    maps: &MapRegistry,
    cfg: &VerifierConfig,
    pc: usize,
    helper: HelperId,
) -> Result<Abs, VerifierError> {
    let arg = |i: u8| -> Result<Abs, VerifierError> {
        st.read(pc, Reg::new(i))
            .map_err(|_| VerifierError::BadHelperArg { pc, helper, arg: i })
    };
    let map_arg = |i: u8| -> Result<MapId, VerifierError> {
        match arg(i)? {
            Abs::MapFd(m) => Ok(m),
            _ => Err(VerifierError::BadHelperArg { pc, helper, arg: i }),
        }
    };
    let scalar_arg = |i: u8| -> Result<(), VerifierError> {
        match arg(i)? {
            Abs::Scalar(_) => Ok(()),
            _ => Err(VerifierError::BadHelperArg { pc, helper, arg: i }),
        }
    };

    match helper {
        HelperId::GetPrandomU32 | HelperId::KtimeGetNs | HelperId::GetSmpProcessorId => {
            Ok(Abs::Scalar(None))
        }
        HelperId::MapLookupElem => {
            let map = map_arg(1)?;
            let map_ref = maps.get(map).ok_or(VerifierError::UnknownMap { pc, map })?;
            if map_ref.def().kind == MapKind::ProgArray {
                return Err(VerifierError::BadHelperArg { pc, helper, arg: 1 });
            }
            check_mem_arg(
                st,
                pc,
                helper,
                2,
                arg(2)?,
                i64::from(map_ref.def().key_size),
                maps,
                cfg,
            )?;
            Ok(Abs::MapValue {
                map,
                off: 0,
                nullable: true,
            })
        }
        HelperId::MapUpdateElem => {
            let map = map_arg(1)?;
            let map_ref = maps.get(map).ok_or(VerifierError::UnknownMap { pc, map })?;
            if map_ref.def().kind == MapKind::ProgArray {
                return Err(VerifierError::BadHelperArg { pc, helper, arg: 1 });
            }
            check_mem_arg(
                st,
                pc,
                helper,
                2,
                arg(2)?,
                i64::from(map_ref.def().key_size),
                maps,
                cfg,
            )?;
            check_mem_arg(
                st,
                pc,
                helper,
                3,
                arg(3)?,
                i64::from(map_ref.def().value_size),
                maps,
                cfg,
            )?;
            scalar_arg(4)?;
            Ok(Abs::Scalar(None))
        }
        HelperId::MapDeleteElem => {
            let map = map_arg(1)?;
            let map_ref = maps.get(map).ok_or(VerifierError::UnknownMap { pc, map })?;
            check_mem_arg(
                st,
                pc,
                helper,
                2,
                arg(2)?,
                i64::from(map_ref.def().key_size),
                maps,
                cfg,
            )?;
            Ok(Abs::Scalar(None))
        }
        HelperId::RedirectMap => {
            let _ = map_arg(1)?;
            scalar_arg(2)?;
            scalar_arg(3)?;
            Ok(Abs::Scalar(None))
        }
        HelperId::TailCall => {
            match arg(1)? {
                Abs::CtxPtr => {}
                _ => return Err(VerifierError::BadHelperArg { pc, helper, arg: 1 }),
            }
            let map = map_arg(2)?;
            let map_ref = maps.get(map).ok_or(VerifierError::UnknownMap { pc, map })?;
            if map_ref.def().kind != MapKind::ProgArray {
                return Err(VerifierError::BadHelperArg { pc, helper, arg: 2 });
            }
            scalar_arg(3)?;
            // On success the call never returns; on failure r0 < 0.
            Ok(Abs::Scalar(None))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::maps::MapDef;
    use crate::vm::ctx_off;

    fn maps() -> MapRegistry {
        MapRegistry::new()
    }

    fn ok(prog: Program, maps: &MapRegistry) -> VerifyInfo {
        match verify(&prog, maps) {
            Ok(info) => info,
            Err(e) => panic!(
                "expected `{}` to verify, got: {e}\n{}",
                prog.name,
                prog.disasm()
            ),
        }
    }

    #[test]
    fn accepts_trivial_return() {
        let prog = Asm::new().mov64_imm(Reg::R0, 0).exit().build("t").unwrap();
        ok(prog, &maps());
    }

    /// The loop check costs one lookup per step, not a scan of the path.
    #[test]
    fn straight_line_code_verifies_in_linear_time() {
        let mut asm = Asm::new().mov64_imm(Reg::R0, 0);
        for _ in 0..99_998 {
            asm = asm.add64_imm(Reg::R0, 1);
        }
        let prog = asm.exit().build("line").unwrap();
        assert_eq!(prog.len(), 100_000);
        let started = std::time::Instant::now();
        assert_eq!(ok(prog, &maps()).analyzed, 100_000);
        let took = started.elapsed();
        assert!(took.as_secs() < 10, "took {took:?}");
    }

    /// r2 is the packet on one path and the stack on the other; the load
    /// through it is in bounds on both, but one step sees two regions.
    #[test]
    fn a_memory_step_seeing_two_regions_is_rejected() {
        let prog = Asm::new()
            .ldx_dw(Reg::R7, Reg::R1, 8)
            .ldx_dw(Reg::R2, Reg::R1, 0)
            .mov64_reg(Reg::R3, Reg::R2)
            .add64_imm(Reg::R3, 8)
            .jgt_reg(Reg::R3, Reg::R7, "out")
            .st_dw(Reg::R10, -8, 5)
            .ldx_dw(Reg::R4, Reg::R1, 16)
            .jeq_imm(Reg::R4, 0, "load")
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -8)
            .label("load")
            .ldx_dw(Reg::R0, Reg::R2, 0)
            .exit()
            .label("out")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("two")
            .unwrap();
        assert_eq!(
            verify(&prog, &maps()),
            Err(VerifierError::MixedPointer {
                pc: 10,
                reg: Reg::R2
            })
        );
    }

    /// The key of a lookup is on the stack on one path and in a map value
    /// on the other.
    #[test]
    fn a_helper_argument_seeing_two_kinds_is_rejected() {
        let reg = maps();
        let m = reg.create(MapDef::u64_array(2));
        let prog = Asm::new()
            .st_w(Reg::R10, -4, 0)
            .load_map_fd(Reg::R1, m)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
            .jeq_imm(Reg::R0, 0, "out")
            .mov64_reg(Reg::R6, Reg::R0)
            .call(HelperId::KtimeGetNs)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .jeq_imm(Reg::R0, 0, "lookup")
            .mov64_reg(Reg::R2, Reg::R6)
            .label("lookup")
            .load_map_fd(Reg::R1, m)
            .call(HelperId::MapLookupElem)
            .label("out")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("key")
            .unwrap();
        assert_eq!(
            verify(&prog, &reg),
            Err(VerifierError::MixedHelperArg {
                pc: 13,
                helper: HelperId::MapLookupElem,
                arg: 2
            })
        );
    }

    /// r6–r9 and r0 may differ in kind at a tail call: the target never
    /// reads them before writing, so the program verifies and specialises.
    #[test]
    fn a_tail_call_checks_only_its_arguments_kinds() {
        let reg = maps();
        let progs = reg.create(MapDef::prog_array(1));
        let prog = Asm::new()
            .mov64_reg(Reg::R6, Reg::R10)
            .ldx_dw(Reg::R0, Reg::R1, 16)
            .jeq_imm(Reg::R0, 0, "call")
            .ldx_dw(Reg::R6, Reg::R1, 0)
            .mov64_reg(Reg::R0, Reg::R6)
            .label("call")
            .load_map_fd(Reg::R2, progs)
            .mov64_imm(Reg::R3, 0)
            .call(HelperId::TailCall)
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("tail")
            .unwrap();
        let info = ok(prog.clone(), &reg);
        assert_eq!(info.facts.kind(7, Reg::R6), Kind::Mixed);
        assert_eq!(info.facts.kind(7, Reg::R0), Kind::Mixed);
        assert!(crate::decode::decode(&prog, &info.facts, &reg).is_ok());
    }

    #[test]
    fn a_pointer_beyond_the_packing_bound_is_rejected_where_it_is_formed() {
        for (base, delta) in [
            (Reg::R10, MAX_PTR_OFF - STACK_SIZE + 1),
            (Reg::R10, -MAX_PTR_OFF - STACK_SIZE - 1),
        ] {
            let prog = Asm::new()
                .mov64_reg(Reg::R2, base)
                .add64_imm(Reg::R2, delta as i32)
                .mov64_imm(Reg::R0, 0)
                .exit()
                .build("far")
                .unwrap();
            assert_eq!(
                verify(&prog, &maps()),
                Err(VerifierError::PointerOutOfRange {
                    pc: 1,
                    off: STACK_SIZE + delta
                })
            );
        }
        // At the bound itself the pointer is formed, never used.
        let prog = Asm::new()
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, (MAX_PTR_OFF - STACK_SIZE) as i32)
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("edge")
            .unwrap();
        ok(prog, &maps());
    }

    #[test]
    fn rejects_empty_program() {
        let prog = Program::new("e", vec![]);
        assert_eq!(verify(&prog, &maps()), Err(VerifierError::EmptyProgram));
    }

    #[test]
    fn rejects_uninit_register() {
        let prog = Asm::new()
            .mov64_reg(Reg::R0, Reg::R3)
            .exit()
            .build("u")
            .unwrap();
        assert!(matches!(
            verify(&prog, &maps()),
            Err(VerifierError::UninitRegister { reg: Reg::R3, .. })
        ));
    }

    #[test]
    fn rejects_exit_without_r0() {
        let prog = Asm::new().exit().build("r0").unwrap();
        assert!(matches!(
            verify(&prog, &maps()),
            Err(VerifierError::UninitRegister { reg: Reg::R0, .. })
        ));
    }

    #[test]
    fn rejects_fall_off_end() {
        let prog = Asm::new().mov64_imm(Reg::R0, 1).build("f").unwrap();
        assert_eq!(verify(&prog, &maps()), Err(VerifierError::FallOffEnd));
    }

    #[test]
    fn rejects_frame_pointer_write() {
        let prog = Asm::new()
            .mov64_imm(Reg::R10, 0)
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("fp")
            .unwrap();
        assert!(matches!(
            verify(&prog, &maps()),
            Err(VerifierError::FramePointerWrite { .. })
        ));
    }

    #[test]
    fn packet_load_requires_bounds_check() {
        // Unchecked packet read must be rejected...
        let bad = Asm::new()
            .ldx_dw(Reg::R1, Reg::R1, ctx_off::DATA as i16)
            .ldx_b(Reg::R0, Reg::R1, 0)
            .exit()
            .build("bad")
            .unwrap();
        assert!(matches!(
            verify(&bad, &maps()),
            Err(VerifierError::PacketBoundsNotProven { .. })
        ));

        // ...while the checked version passes.
        let good = Asm::new()
            .ldx_dw(Reg::R2, Reg::R1, ctx_off::DATA_END as i16)
            .ldx_dw(Reg::R1, Reg::R1, ctx_off::DATA as i16)
            .mov64_reg(Reg::R3, Reg::R1)
            .add64_imm(Reg::R3, 1)
            .jgt_reg(Reg::R3, Reg::R2, "out")
            .ldx_b(Reg::R0, Reg::R1, 0)
            .exit()
            .label("out")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("good")
            .unwrap();
        ok(good, &maps());
    }

    #[test]
    fn bounds_proof_does_not_extend_past_checked_range() {
        // Proves 2 bytes, reads byte 2 (the third) — reject.
        let prog = Asm::new()
            .ldx_dw(Reg::R2, Reg::R1, ctx_off::DATA_END as i16)
            .ldx_dw(Reg::R1, Reg::R1, ctx_off::DATA as i16)
            .mov64_reg(Reg::R3, Reg::R1)
            .add64_imm(Reg::R3, 2)
            .jgt_reg(Reg::R3, Reg::R2, "out")
            .ldx_b(Reg::R0, Reg::R1, 2)
            .exit()
            .label("out")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("off-by-one")
            .unwrap();
        assert!(matches!(
            verify(&prog, &maps()),
            Err(VerifierError::PacketBoundsNotProven { needed: 3, .. })
        ));
    }

    #[test]
    fn reversed_comparison_order_also_proves_bounds() {
        // `if data_end >= data + 4` on the taken path proves 4 bytes.
        let prog = Asm::new()
            .ldx_dw(Reg::R2, Reg::R1, ctx_off::DATA_END as i16)
            .ldx_dw(Reg::R1, Reg::R1, ctx_off::DATA as i16)
            .mov64_reg(Reg::R3, Reg::R1)
            .add64_imm(Reg::R3, 4)
            .branch(CmpOp::Ge, Reg::R2, Operand::Reg(Reg::R3), "ok")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .label("ok")
            .ldx_w(Reg::R0, Reg::R1, 0)
            .exit()
            .build("rev")
            .unwrap();
        ok(prog, &maps());
    }

    #[test]
    fn stack_read_requires_init() {
        let bad = Asm::new()
            .ldx_dw(Reg::R0, Reg::R10, -8)
            .exit()
            .build("sr")
            .unwrap();
        assert!(matches!(
            verify(&bad, &maps()),
            Err(VerifierError::UninitStackRead { .. })
        ));

        let good = Asm::new()
            .st_dw(Reg::R10, -8, 3)
            .ldx_dw(Reg::R0, Reg::R10, -8)
            .exit()
            .build("sw")
            .unwrap();
        ok(good, &maps());
    }

    #[test]
    fn stack_bounds_are_enforced() {
        let overflow = Asm::new()
            .st_dw(Reg::R10, -512, 0) // just fits: [0, 8)
            .st_dw(Reg::R10, -516, 0) // out of frame
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("so")
            .unwrap();
        assert!(matches!(
            verify(&overflow, &maps()),
            Err(VerifierError::StackOutOfBounds { .. })
        ));

        let above = Asm::new()
            .st_dw(Reg::R10, 0, 0) // above the frame pointer
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("sa")
            .unwrap();
        assert!(matches!(
            verify(&above, &maps()),
            Err(VerifierError::StackOutOfBounds { .. })
        ));
    }

    #[test]
    fn pointers_at_the_edge_of_i64_are_rejected_not_wrapped_into_bounds() {
        let reg = maps();
        let m = reg.create(MapDef::u64_array(1));
        // A pointer into each region: r10 the frame, r6 the packet, r7 a
        // (null-checked) map value.
        let bases = [(Reg::R10, STACK_SIZE), (Reg::R6, 0), (Reg::R7, 0)];
        // Loads, stores, atomics and a helper key argument through r8,
        // with and without an instruction offset that itself overflows.
        let accesses: [fn(Asm) -> Asm; 5] = [
            |asm| asm.ldx_dw(Reg::R0, Reg::R8, 0),
            |asm| asm.ldx_dw(Reg::R0, Reg::R8, 16),
            |asm| asm.stx_dw(Reg::R8, 0, Reg::R0),
            |asm| asm.atomic_add_dw(Reg::R8, 16, Reg::R0),
            |asm| {
                asm.mov64_reg(Reg::R2, Reg::R8)
                    .call(HelperId::MapLookupElem)
            },
        ];
        for (base, base_off) in bases {
            for access in accesses {
                let asm = Asm::new()
                    .ldx_dw(Reg::R6, Reg::R1, ctx_off::DATA as i16)
                    .st_w(Reg::R10, -4, 0)
                    .load_map_fd(Reg::R1, m)
                    .mov64_reg(Reg::R2, Reg::R10)
                    .add64_imm(Reg::R2, -4)
                    .call(HelperId::MapLookupElem)
                    .jeq_imm(Reg::R0, 0, "out")
                    .mov64_reg(Reg::R7, Reg::R0)
                    // r8 = the base moved to offset `i64::MAX - 4`: an
                    // 8-byte access there ends past `i64::MAX`.
                    .mov64_reg(Reg::R8, base)
                    .load_imm64(Reg::R9, i64::MAX - 4 - base_off)
                    .add64_reg(Reg::R8, Reg::R9)
                    .mov64_imm(Reg::R0, 0)
                    .load_map_fd(Reg::R1, m);
                let prog = access(asm)
                    .label("out")
                    .mov64_imm(Reg::R0, 0)
                    .exit()
                    .build("edge")
                    .unwrap();
                // Refused where the pointer moves, before any access.
                assert_eq!(
                    verify(&prog, &reg),
                    Err(VerifierError::PointerOutOfRange {
                        pc: 10,
                        off: i64::MAX - 4
                    }),
                    "{}",
                    prog.disasm()
                );
            }
        }
    }

    #[test]
    fn map_value_requires_null_check() {
        let reg = maps();
        let m = reg.create(MapDef::u64_array(4));
        let bad = Asm::new()
            .st_w(Reg::R10, -4, 0)
            .load_map_fd(Reg::R1, m)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
            .ldx_dw(Reg::R0, Reg::R0, 0) // no null check!
            .exit()
            .build("nonull")
            .unwrap();
        assert!(matches!(
            verify(&bad, &reg),
            Err(VerifierError::PossiblyNullDeref { .. })
        ));

        let good = Asm::new()
            .st_w(Reg::R10, -4, 0)
            .load_map_fd(Reg::R1, m)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
            .jeq_imm(Reg::R0, 0, "miss")
            .ldx_dw(Reg::R0, Reg::R0, 0)
            .exit()
            .label("miss")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("null-checked")
            .unwrap();
        ok(good, &reg);
    }

    #[test]
    fn map_value_bounds_are_value_size() {
        let reg = maps();
        let m = reg.create(MapDef::u64_array(4));
        let prog = Asm::new()
            .st_w(Reg::R10, -4, 0)
            .load_map_fd(Reg::R1, m)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
            .jeq_imm(Reg::R0, 0, "miss")
            .ldx_dw(Reg::R0, Reg::R0, 4) // bytes 4..12 of an 8-byte value
            .exit()
            .label("miss")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("oob-value")
            .unwrap();
        assert!(matches!(
            verify(&prog, &reg),
            Err(VerifierError::MapValueOutOfBounds { .. })
        ));
    }

    #[test]
    fn unknown_map_is_rejected() {
        let reg = maps();
        let prog = Asm::new()
            .load_map_fd(Reg::R1, MapId(42))
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("um")
            .unwrap();
        assert!(matches!(
            verify(&prog, &reg),
            Err(VerifierError::UnknownMap { map: MapId(42), .. })
        ));
    }

    #[test]
    fn helper_key_must_be_initialized() {
        let reg = maps();
        let m = reg.create(MapDef::u64_array(4));
        let prog = Asm::new()
            .load_map_fd(Reg::R1, m)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4) // key bytes never written
            .call(HelperId::MapLookupElem)
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("key")
            .unwrap();
        assert!(matches!(
            verify(&prog, &reg),
            Err(VerifierError::UninitStackRead { .. })
        ));
    }

    #[test]
    fn helpers_clobber_caller_saved_registers() {
        let prog = Asm::new()
            .mov64_imm(Reg::R3, 7)
            .call(HelperId::GetPrandomU32)
            .mov64_reg(Reg::R0, Reg::R3) // r3 was clobbered
            .exit()
            .build("clobber")
            .unwrap();
        assert!(matches!(
            verify(&prog, &maps()),
            Err(VerifierError::UninitRegister { reg: Reg::R3, .. })
        ));
    }

    #[test]
    fn callee_saved_registers_survive_helpers() {
        let prog = Asm::new()
            .mov64_imm(Reg::R6, 7)
            .call(HelperId::GetPrandomU32)
            .mov64_reg(Reg::R0, Reg::R6)
            .exit()
            .build("saved")
            .unwrap();
        ok(prog, &maps());
    }

    #[test]
    fn unbounded_loop_exceeds_budget() {
        // r0 counts up from an unknown value: states never repeat exactly,
        // so the analysis budget cuts it off.
        let prog = Asm::new()
            .call(HelperId::GetPrandomU32)
            .label("top")
            .add64_imm(Reg::R0, 1)
            .jne_imm(Reg::R0, 0, "top")
            .exit()
            .build("inf")
            .unwrap();
        assert_eq!(verify(&prog, &maps()), Err(VerifierError::TooComplex));
    }

    #[test]
    fn tight_constant_loop_is_pruned_or_folded() {
        // for (i = 0; i < 6; i++) — constants fold, six iterations explored.
        let prog = Asm::new()
            .mov64_imm(Reg::R6, 0)
            .label("top")
            .add64_imm(Reg::R6, 1)
            .branch(CmpOp::Lt, Reg::R6, Operand::Imm(6), "top")
            .mov64_reg(Reg::R0, Reg::R6)
            .exit()
            .build("bounded")
            .unwrap();
        let info = ok(prog, &maps());
        assert!(info.analyzed < 50, "analyzed {}", info.analyzed);
    }

    #[test]
    fn jump_out_of_range_is_rejected() {
        let prog = Program::new("j", vec![Insn::Jump { off: 5 }, Insn::Exit]);
        assert!(matches!(
            verify(&prog, &maps()),
            Err(VerifierError::JumpOutOfRange { pc: 0 })
        ));
        let prog = Program::new("jb", vec![Insn::Jump { off: -2 }, Insn::Exit]);
        assert!(matches!(
            verify(&prog, &maps()),
            Err(VerifierError::JumpOutOfRange { pc: 0 })
        ));
    }

    #[test]
    fn pointer_spill_is_rejected() {
        let prog = Asm::new()
            .stx_dw(Reg::R10, -8, Reg::R1) // spill ctx pointer
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("spill")
            .unwrap();
        assert!(matches!(
            verify(&prog, &maps()),
            Err(VerifierError::PointerSpill { .. })
        ));
    }

    #[test]
    fn ctx_is_read_only_and_field_checked() {
        let store = Asm::new()
            .mov64_imm(Reg::R2, 1)
            .stx_dw(Reg::R1, 0, Reg::R2)
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("cw")
            .unwrap();
        assert!(matches!(
            verify(&store, &maps()),
            Err(VerifierError::CtxWrite { .. })
        ));

        let badoff = Asm::new()
            .ldx_dw(Reg::R0, Reg::R1, 48)
            .exit()
            .build("co")
            .unwrap();
        assert!(matches!(
            verify(&badoff, &maps()),
            Err(VerifierError::BadCtxAccess { off: 48, .. })
        ));
    }

    #[test]
    fn tail_call_requires_prog_array() {
        let reg = maps();
        let data_map = reg.create(MapDef::u64_array(4));
        let prog = Asm::new()
            .load_map_fd(Reg::R2, data_map)
            .mov64_imm(Reg::R3, 0)
            .call(HelperId::TailCall)
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("tc")
            .unwrap();
        assert!(matches!(
            verify(&prog, &reg),
            Err(VerifierError::BadHelperArg {
                helper: HelperId::TailCall,
                arg: 2,
                ..
            })
        ));

        let pa = reg.create(MapDef::prog_array(4));
        let good = Asm::new()
            .load_map_fd(Reg::R2, pa)
            .mov64_imm(Reg::R3, 0)
            .call(HelperId::TailCall)
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("tc-ok")
            .unwrap();
        ok(good, &reg);
    }

    #[test]
    fn packet_length_idiom_via_pointer_difference() {
        // r0 = data_end - data is a scalar; comparing it does not (in this
        // subset) prove packet bounds, but computing it is legal.
        let prog = Asm::new()
            .ldx_dw(Reg::R2, Reg::R1, ctx_off::DATA_END as i16)
            .ldx_dw(Reg::R3, Reg::R1, ctx_off::DATA as i16)
            .mov64_reg(Reg::R0, Reg::R2)
            .alu64(AluOp::Sub, Reg::R0, Operand::Reg(Reg::R3))
            .exit()
            .build("len")
            .unwrap();
        ok(prog, &maps());
    }

    #[test]
    fn verified_programs_round_robin_shape() {
        // The paper's Figure 5a policy: a counter in a map, modulo sockets.
        let reg = maps();
        let counter = reg.create(MapDef::u64_array(1));
        let prog = Asm::new()
            .st_w(Reg::R10, -4, 0)
            .load_map_fd(Reg::R1, counter)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
            .jne_imm(Reg::R0, 0, "hit")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .label("hit")
            .mov64_imm(Reg::R1, 1)
            .atomic_fetch_add_dw(Reg::R0, 0, Reg::R1)
            .mov64_reg(Reg::R0, Reg::R1)
            .mod64_imm(Reg::R0, 6)
            .exit()
            .build("round_robin")
            .unwrap();
        ok(prog, &reg);
    }

    #[test]
    fn nullable_pointer_arith_is_rejected() {
        let reg = maps();
        let m = reg.create(MapDef::u64_array(4));
        let prog = Asm::new()
            .st_w(Reg::R10, -4, 0)
            .load_map_fd(Reg::R1, m)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
            .add64_imm(Reg::R0, 4) // before null check
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("np")
            .unwrap();
        assert!(matches!(
            verify(&prog, &reg),
            Err(VerifierError::PossiblyNullDeref { .. })
        ));
    }

    /// Regression (found by syrup-fuzz): a hash-map value pointer held in a
    /// callee-saved register across `map_delete_elem` of the same map used
    /// to stay valid in the abstract state, but the VM traps with
    /// `Map(BadSlotAccess)` when the deref hits the freed slot. The
    /// verifier must invalidate such pointers at the delete.
    #[test]
    fn hash_delete_invalidates_live_value_pointers() {
        let reg = maps();
        let m = reg.create(MapDef::u64_hash(4));
        reg.get(m).unwrap().update_u64(7, 1).unwrap();
        let asm = |deref_after_delete: bool| {
            let mut a = Asm::new()
                .st_w(Reg::R10, -4, 7)
                .load_map_fd(Reg::R1, m)
                .mov64_reg(Reg::R2, Reg::R10)
                .add64_imm(Reg::R2, -4)
                .call(HelperId::MapLookupElem)
                .jne_imm(Reg::R0, 0, "hit")
                .mov64_imm(Reg::R0, 0)
                .exit()
                .label("hit")
                .mov64_reg(Reg::R6, Reg::R0) // save checked value pointer
                .load_map_fd(Reg::R1, m)
                .mov64_reg(Reg::R2, Reg::R10)
                .add64_imm(Reg::R2, -4)
                .call(HelperId::MapDeleteElem);
            if deref_after_delete {
                a = a.ldx_dw(Reg::R0, Reg::R6, 0); // stale slot!
            } else {
                a = a.mov64_imm(Reg::R0, 0);
            }
            a.exit().build("stale").unwrap()
        };
        assert!(matches!(
            verify(&asm(true), &reg),
            Err(VerifierError::UninitRegister { reg: Reg::R6, .. })
        ));
        // Without the post-delete deref the same shape still verifies.
        ok(asm(false), &reg);
    }

    /// Array-map deletes always fail (`WrongKind` → -1) without freeing
    /// anything, so value pointers survive them.
    #[test]
    fn array_delete_keeps_value_pointers_valid() {
        let reg = maps();
        let m = reg.create(MapDef::u64_array(4));
        let prog = Asm::new()
            .st_w(Reg::R10, -4, 0)
            .load_map_fd(Reg::R1, m)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
            .jne_imm(Reg::R0, 0, "hit")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .label("hit")
            .mov64_reg(Reg::R6, Reg::R0)
            .load_map_fd(Reg::R1, m)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapDeleteElem)
            .ldx_dw(Reg::R0, Reg::R6, 0)
            .exit()
            .build("array-delete")
            .unwrap();
        ok(prog, &reg);
    }

    #[test]
    fn injected_bug_config_skips_data_end_proof() {
        let prog = Asm::new()
            .ldx_dw(Reg::R1, Reg::R1, ctx_off::DATA as i16)
            .ldx_b(Reg::R0, Reg::R1, 0) // no bounds check
            .exit()
            .build("unchecked")
            .unwrap();
        assert!(matches!(
            verify(&prog, &maps()),
            Err(VerifierError::PacketBoundsNotProven { .. })
        ));
        let buggy = VerifierConfig {
            assume_packet_in_bounds: true,
        };
        assert!(verify_with_config(&prog, &maps(), &buggy).is_ok());
        // Negative offsets stay rejected even under the injected bug.
        let neg = Asm::new()
            .ldx_dw(Reg::R1, Reg::R1, ctx_off::DATA as i16)
            .ldx_b(Reg::R0, Reg::R1, -1)
            .exit()
            .build("neg")
            .unwrap();
        assert!(verify_with_config(&neg, &maps(), &buggy).is_err());
    }
}
