//! Structure-aware random bytecode generation.
//!
//! Programs are built from well-formed blocks — the same shapes
//! `syrup-lang`'s code generator emits — so a large fraction pass the
//! verifier and exercise the VM. Each block keeps a conservative model of
//! which registers currently hold initialized scalars; pointer-typed
//! registers ([`Reg::R6`]/[`Reg::R7`] for packet bounds, [`Reg::R8`] as
//! pointer scratch) never enter the scalar pool.
//!
//! A small fraction of blocks deliberately omit a safety obligation
//! (packet bounds check, lookup null check, stack initialization, loop
//! bound), move a pointer by a delta at the edge of `u32` or `i64`
//! (where offset arithmetic narrows and wraps) or just past the
//! specialised engine's packing bound, or hand one memory step or helper
//! argument a stack pointer on one path and a packet pointer on the
//! other, so the verifier's rejection paths — and the determinism oracle
//! over them — stay exercised. Under a deliberately weakened
//! [`syrup_ebpf::VerifierConfig`] those same blocks become the bait the
//! soundness oracle must catch.

use syrup_ebpf::maps::{MapDef, MapId, MapRegistry};
use syrup_ebpf::verifier::MAX_PTR_OFF;
use syrup_ebpf::{AluOp, CmpOp, HelperId, Insn, MemSize, Operand, Program, Reg, Width};

use crate::Prng;

/// The maps a generated program may reference.
#[derive(Debug)]
pub struct GenMaps {
    /// Registry owning the maps below.
    pub registry: MapRegistry,
    /// An 8-entry `u64` array map.
    pub array: MapId,
    /// An 8-entry `u64` hash map.
    pub hash: MapId,
}

impl GenMaps {
    /// Creates a fresh registry with one array and one hash map.
    pub fn new() -> Self {
        let registry = MapRegistry::new();
        let array = registry.create(MapDef::u64_array(8));
        let hash = registry.create(MapDef::u64_hash(8));
        GenMaps {
            registry,
            array,
            hash,
        }
    }
}

impl Default for GenMaps {
    fn default() -> Self {
        Self::new()
    }
}

/// Generates one random structured program against `maps`.
pub fn generate(rng: &mut Prng, maps: &GenMaps) -> Program {
    let mut g = Gen {
        rng,
        maps,
        insns: Vec::new(),
        scalars: Vec::new(),
        uses_packet: false,
        stack_writes: Vec::new(),
    };
    g.emit_all();
    Program::new("fuzz-gen", g.insns)
}

/// Pointer deltas around 2³² (map-value offsets narrow to `u32` below the
/// VM) and the ends of `i64` (where `pointer + instruction offset` wraps).
/// The verifier must reject every access through a pointer moved this
/// far, and both engines must trap on it identically.
const WILD_DELTAS: [i64; 8] = [
    1 << 32,
    (1 << 32) - 4,
    (1 << 32) + 8,
    -(1 << 32),
    i64::MAX,
    i64::MAX - 512,
    i64::MAX - 516,
    i64::MIN,
];

/// Registers eligible to hold scalars. R6/R7 are reserved for the packet
/// pointers, R8 for pointer scratch, R10 is the frame pointer.
const SCALAR_POOL: [Reg; 6] = [Reg::R0, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R9];

struct Gen<'a> {
    rng: &'a mut Prng,
    maps: &'a GenMaps,
    insns: Vec<Insn>,
    scalars: Vec<Reg>,
    uses_packet: bool,
    /// `(offset, size)` pairs known to be fully initialized on the stack.
    stack_writes: Vec<(i16, MemSize)>,
}

impl Gen<'_> {
    fn emit_all(&mut self) {
        self.uses_packet = self.rng.chance(70);
        if self.uses_packet {
            // The codegen prologue: r6 = ctx.data, r7 = ctx.data_end.
            self.insns.push(Insn::LoadMem {
                size: MemSize::DW,
                dst: Reg::R6,
                base: Reg::R1,
                off: 0,
            });
            self.insns.push(Insn::LoadMem {
                size: MemSize::DW,
                dst: Reg::R7,
                base: Reg::R1,
                off: 8,
            });
        }
        for reg in [Reg::R0, Reg::R2, Reg::R3] {
            let imm = self.rng.below(256) as i32;
            self.mov_imm(reg, imm);
        }
        let blocks = 3 + self.rng.below(8);
        for _ in 0..blocks {
            match self.rng.below(100) {
                0..=24 => self.block_alu(),
                25..=34 => self.block_unary(),
                35..=49 => self.block_stack(),
                50..=66 => self.block_packet(),
                67..=69 => self.block_two_regions(),
                70..=84 => self.block_map(),
                85..=92 => self.block_helper(),
                _ => self.block_loop(),
            }
        }
        let ret = self.rng.below(8) as i32;
        self.mov_imm(Reg::R0, ret);
        self.insns.push(Insn::Exit);
    }

    /// `dst = imm`; marks `dst` as an initialized scalar.
    fn mov_imm(&mut self, dst: Reg, imm: i32) {
        self.insns.push(Insn::Alu {
            w: Width::W64,
            op: AluOp::Mov,
            dst,
            src: Operand::Imm(imm),
        });
        self.mark_scalar(dst);
    }

    fn mark_scalar(&mut self, reg: Reg) {
        if !self.scalars.contains(&reg) {
            self.scalars.push(reg);
        }
    }

    /// Helper calls clobber r1-r5; drop them from the scalar pool.
    fn clobber_caller_saved(&mut self) {
        self.scalars
            .retain(|r| ![Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5].contains(r));
    }

    /// Picks an initialized scalar register, creating one if none exist.
    fn any_scalar(&mut self) -> Reg {
        if self.scalars.is_empty() {
            let imm = self.rng.below(64) as i32;
            self.mov_imm(Reg::R3, imm);
        }
        *self.rng.pick(&self.scalars.clone())
    }

    /// Picks a destination register: usually an existing scalar, sometimes
    /// a fresh one from the pool.
    fn dst_scalar(&mut self) -> Reg {
        if self.scalars.is_empty() || self.rng.chance(25) {
            let reg = *self.rng.pick(&SCALAR_POOL);
            self.mark_scalar(reg);
            reg
        } else {
            self.any_scalar()
        }
    }

    fn block_alu(&mut self) {
        let op = *self.rng.pick(&[
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Mod,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Lsh,
            AluOp::Rsh,
            AluOp::Arsh,
            AluOp::Mov,
        ]);
        // Every op except Mov reads `dst`, so those need an initialized
        // register; Mov may target a fresh one.
        let dst = if op == AluOp::Mov {
            self.dst_scalar()
        } else {
            self.any_scalar()
        };
        let w = if self.rng.chance(80) {
            Width::W64
        } else {
            Width::W32
        };
        let src = if self.rng.chance(60) || self.scalars.len() < 2 {
            let imm = match op {
                // Immediate shift amounts must stay below the width.
                AluOp::Lsh | AluOp::Rsh | AluOp::Arsh => {
                    let max = if w == Width::W64 { 64 } else { 32 };
                    self.rng.below(max) as i32
                }
                _ => self.rng.next_u64() as i32 % 4096,
            };
            Operand::Imm(imm)
        } else {
            Operand::Reg(self.any_scalar())
        };
        self.insns.push(Insn::Alu { w, op, dst, src });
        self.mark_scalar(dst);
    }

    fn block_unary(&mut self) {
        let dst = self.any_scalar();
        if self.rng.chance(50) {
            let w = if self.rng.chance(80) {
                Width::W64
            } else {
                Width::W32
            };
            self.insns.push(Insn::Neg { w, dst });
        } else {
            let bits = *self.rng.pick(&[16u8, 32, 64]);
            self.insns.push(Insn::Endian {
                dst,
                to_be: self.rng.chance(50),
                bits,
            });
        }
    }

    /// `ptr += delta` for a [`WILD_DELTAS`] delta, through r9.
    fn wild_advance(&mut self, ptr: Reg) -> [Insn; 2] {
        [
            Insn::LoadImm64 {
                dst: Reg::R9,
                imm: *self.rng.pick(&WILD_DELTAS),
            },
            Insn::Alu {
                w: Width::W64,
                op: AluOp::Add,
                dst: ptr,
                src: Operand::Reg(Reg::R9),
            },
        ]
    }

    fn block_stack(&mut self) {
        if self.rng.chance(2) {
            // Deliberate PointerOutOfRange: a copy of the frame pointer
            // moved just past the packing bound, never dereferenced.
            self.insns.push(Insn::Alu {
                w: Width::W64,
                op: AluOp::Mov,
                dst: Reg::R8,
                src: Operand::Reg(Reg::R10),
            });
            self.insns.push(Insn::Alu {
                w: Width::W64,
                op: AluOp::Add,
                dst: Reg::R8,
                src: Operand::Imm(
                    *self
                        .rng
                        .pick(&[MAX_PTR_OFF as i32, -(MAX_PTR_OFF as i32) - 1024]),
                ),
            });
            return;
        }
        if self.rng.chance(2) {
            // Deliberate wild pointer: a copy of the frame pointer moved
            // off the end of the address space, then dereferenced.
            self.insns.push(Insn::Alu {
                w: Width::W64,
                op: AluOp::Mov,
                dst: Reg::R8,
                src: Operand::Reg(Reg::R10),
            });
            let advance = self.wild_advance(Reg::R8);
            self.insns.extend(advance);
            self.mark_scalar(Reg::R9);
            let src = self.any_scalar();
            self.insns.push(Insn::StoreMem {
                size: MemSize::DW,
                base: Reg::R8,
                off: *self.rng.pick(&[-8i16, 0, 16]),
                src,
            });
            return;
        }
        if self.rng.chance(3) {
            // Deliberate StackOutOfBounds: store past the frame.
            let off = *self.rng.pick(&[-520i16, -560, 8, 16]);
            let src = self.any_scalar();
            self.insns.push(Insn::StoreMem {
                size: MemSize::DW,
                base: Reg::R10,
                off,
                src,
            });
            return;
        }
        if self.rng.chance(5) {
            // Deliberate UninitStackRead: load a slot nothing wrote.
            let dst = self.dst_scalar();
            self.insns.push(Insn::LoadMem {
                size: MemSize::DW,
                dst,
                base: Reg::R10,
                off: -496,
            });
            return;
        }
        let slot = -8 * (1 + self.rng.below(8) as i16);
        let size = *self
            .rng
            .pick(&[MemSize::B, MemSize::H, MemSize::W, MemSize::DW]);
        if self.rng.chance(50) {
            let src = self.any_scalar();
            self.insns.push(Insn::StoreMem {
                size,
                base: Reg::R10,
                off: slot,
                src,
            });
        } else {
            let imm = self.rng.next_u64() as i32 % 1000;
            self.insns.push(Insn::StoreImm {
                size,
                base: Reg::R10,
                off: slot,
                imm,
            });
        }
        self.stack_writes.push((slot, size));
        if self.rng.chance(60) {
            // Read back a slot we know is initialized.
            let (off, size) = *self.rng.pick(&self.stack_writes.clone());
            let dst = self.dst_scalar();
            self.insns.push(Insn::LoadMem {
                size,
                dst,
                base: Reg::R10,
                off,
            });
        }
    }

    fn block_packet(&mut self) {
        if !self.uses_packet {
            self.block_alu();
            return;
        }
        let off = self.rng.below(12) as i16;
        let size = *self
            .rng
            .pick(&[MemSize::B, MemSize::H, MemSize::W, MemSize::DW]);
        let bound = off as i64 + size.bytes() as i64;
        let body: Vec<Insn> = if self.rng.chance(25) {
            let src = self.any_scalar();
            vec![Insn::StoreMem {
                size,
                base: Reg::R6,
                off,
                src,
            }]
        } else {
            let dst = self.dst_scalar();
            vec![Insn::LoadMem {
                size,
                dst,
                base: Reg::R6,
                off,
            }]
        };
        if self.rng.chance(10) {
            // Deliberately unchecked access. The sound verifier must
            // reject this (PacketBoundsNotProven); a verifier with the
            // bounds proof disabled will accept it, and the soundness
            // oracle catches the resulting out-of-bounds trap on short
            // packets.
            self.insns.extend(body);
        } else {
            // r8 = r6 + bound; if r8 > r7 skip the access.
            self.insns.push(Insn::Alu {
                w: Width::W64,
                op: AluOp::Mov,
                dst: Reg::R8,
                src: Operand::Reg(Reg::R6),
            });
            self.insns.push(Insn::Alu {
                w: Width::W64,
                op: AluOp::Add,
                dst: Reg::R8,
                src: Operand::Imm(bound as i32),
            });
            self.insns.push(Insn::Branch {
                op: CmpOp::Gt,
                w: Width::W64,
                lhs: Reg::R8,
                rhs: Operand::Reg(Reg::R7),
                off: body.len() as i16,
            });
            self.insns.extend(body);
        }
    }

    /// One step through r8, or a lookup keyed by r2, where the register
    /// is a packet pointer on one path and a stack pointer on the other:
    /// in bounds on both, so only the one-kind rule rejects it
    /// (MixedPointer or MixedHelperArg).
    fn block_two_regions(&mut self) {
        if !self.uses_packet {
            self.block_alu();
            return;
        }
        let lookup = self.rng.chance(50);
        let ptr = if lookup { Reg::R2 } else { Reg::R8 };
        let mut tail = vec![
            // r9 = data[0], an unknown the join branches on.
            Insn::LoadMem {
                size: MemSize::B,
                dst: Reg::R9,
                base: Reg::R6,
                off: 0,
            },
            Insn::Alu {
                w: Width::W64,
                op: AluOp::Mov,
                dst: ptr,
                src: Operand::Reg(Reg::R6),
            },
            Insn::Branch {
                op: CmpOp::Eq,
                w: Width::W64,
                lhs: Reg::R9,
                rhs: Operand::Imm(0),
                off: 2,
            },
            Insn::Alu {
                w: Width::W64,
                op: AluOp::Mov,
                dst: ptr,
                src: Operand::Reg(Reg::R10),
            },
            Insn::Alu {
                w: Width::W64,
                op: AluOp::Add,
                dst: ptr,
                src: Operand::Imm(-24),
            },
        ];
        if lookup {
            let map = if self.rng.chance(50) {
                self.maps.array
            } else {
                self.maps.hash
            };
            tail.push(Insn::LoadMapFd { dst: Reg::R1, map });
            tail.push(Insn::Call {
                helper: HelperId::MapLookupElem,
            });
        } else {
            let dst = self.any_scalar();
            tail.push(Insn::LoadMem {
                size: MemSize::W,
                dst,
                base: ptr,
                off: 0,
            });
        }
        // The stack cell both paths may read, then `r8 = data + 8`, and
        // the tail only where eight packet bytes are proven.
        self.insns.push(Insn::StoreImm {
            size: MemSize::DW,
            base: Reg::R10,
            off: -24,
            imm: self.rng.below(1000) as i32,
        });
        self.stack_writes.push((-24, MemSize::DW));
        self.insns.push(Insn::Alu {
            w: Width::W64,
            op: AluOp::Mov,
            dst: Reg::R8,
            src: Operand::Reg(Reg::R6),
        });
        self.insns.push(Insn::Alu {
            w: Width::W64,
            op: AluOp::Add,
            dst: Reg::R8,
            src: Operand::Imm(8),
        });
        self.insns.push(Insn::Branch {
            op: CmpOp::Gt,
            w: Width::W64,
            lhs: Reg::R8,
            rhs: Operand::Reg(Reg::R7),
            off: tail.len() as i16,
        });
        self.insns.extend(tail);
        if lookup {
            self.clobber_caller_saved();
        }
    }

    fn block_map(&mut self) {
        let map = if self.rng.chance(60) {
            self.maps.array
        } else {
            self.maps.hash
        };
        // Key (sometimes past the array's 8 entries, to hit the miss path).
        let key = self.rng.below(12) as i32;
        self.insns.push(Insn::StoreImm {
            size: MemSize::W,
            base: Reg::R10,
            off: -8,
            imm: key,
        });
        self.stack_writes.push((-8, MemSize::W));
        self.insns.push(Insn::LoadMapFd { dst: Reg::R1, map });
        self.insns.push(Insn::Alu {
            w: Width::W64,
            op: AluOp::Mov,
            dst: Reg::R2,
            src: Operand::Reg(Reg::R10),
        });
        self.insns.push(Insn::Alu {
            w: Width::W64,
            op: AluOp::Add,
            dst: Reg::R2,
            src: Operand::Imm(-8),
        });
        match self.rng.below(10) {
            0..=5 => {
                self.insns.push(Insn::Call {
                    helper: HelperId::MapLookupElem,
                });
                self.clobber_caller_saved();
                let deref = self.lookup_deref();
                if self.rng.chance(8) {
                    // Deliberate PossiblyNullDeref: no null check.
                    self.insns.extend(deref);
                } else {
                    self.insns.push(Insn::Branch {
                        op: CmpOp::Eq,
                        w: Width::W64,
                        lhs: Reg::R0,
                        rhs: Operand::Imm(0),
                        off: deref.len() as i16,
                    });
                    self.insns.extend(deref);
                }
                // After the join r0 is scalar-0 on one path and a pointer
                // on the other; keep it out of the pool until re-moved.
                self.scalars.retain(|r| *r != Reg::R0);
            }
            6..=8 => {
                // Update: value at fp-16, flags = 0 (ANY).
                let imm = self.rng.next_u64() as i32 % 1000;
                self.insns.push(Insn::StoreImm {
                    size: MemSize::DW,
                    base: Reg::R10,
                    off: -16,
                    imm,
                });
                self.stack_writes.push((-16, MemSize::DW));
                self.insns.push(Insn::Alu {
                    w: Width::W64,
                    op: AluOp::Mov,
                    dst: Reg::R3,
                    src: Operand::Reg(Reg::R10),
                });
                self.insns.push(Insn::Alu {
                    w: Width::W64,
                    op: AluOp::Add,
                    dst: Reg::R3,
                    src: Operand::Imm(-16),
                });
                self.insns.push(Insn::Alu {
                    w: Width::W64,
                    op: AluOp::Mov,
                    dst: Reg::R4,
                    src: Operand::Imm(0),
                });
                self.insns.push(Insn::Call {
                    helper: HelperId::MapUpdateElem,
                });
                self.clobber_caller_saved();
                self.mark_scalar(Reg::R0);
            }
            _ => {
                self.insns.push(Insn::Call {
                    helper: HelperId::MapDeleteElem,
                });
                self.clobber_caller_saved();
                self.mark_scalar(Reg::R0);
            }
        }
    }

    /// One access through a lookup result in r0 (value size is 8 bytes).
    fn lookup_deref(&mut self) -> Vec<Insn> {
        // Deliberate MapValueOutOfBounds the far way round: the value
        // pointer advanced by a wild delta first.
        let mut deref = if self.rng.chance(3) {
            self.wild_advance(Reg::R0).to_vec()
        } else {
            Vec::new()
        };
        let oob = self.rng.chance(3);
        deref.extend(match self.rng.below(3) {
            0 => vec![Insn::LoadMem {
                size: MemSize::DW,
                dst: Reg::R9,
                base: Reg::R0,
                // Deliberate MapValueOutOfBounds when `oob`.
                off: if oob { 8 } else { 0 },
            }],
            1 => vec![Insn::StoreImm {
                size: MemSize::W,
                base: Reg::R0,
                off: if oob { 6 } else { *self.rng.pick(&[0i16, 4]) },
                imm: self.rng.below(100) as i32,
            }],
            _ => {
                let src = self.any_scalar();
                vec![Insn::AtomicAdd {
                    size: MemSize::DW,
                    base: Reg::R0,
                    off: if oob { 8 } else { 0 },
                    src,
                    fetch: self.rng.chance(50),
                }]
            }
        });
        deref
    }

    fn block_helper(&mut self) {
        let helper = *self.rng.pick(&[
            HelperId::GetPrandomU32,
            HelperId::KtimeGetNs,
            HelperId::GetSmpProcessorId,
        ]);
        self.insns.push(Insn::Call { helper });
        self.clobber_caller_saved();
        self.mark_scalar(Reg::R0);
    }

    fn block_loop(&mut self) {
        if self.rng.chance(3) {
            // Deliberate TooComplex: a self-targeting jump makes no
            // progress, which the verifier's state-revisit check rejects
            // immediately (no expensive unrolling).
            self.insns.push(Insn::Jump { off: -1 });
            return;
        }
        // r9 = 0; { body; r9 += 1; if r9 < bound goto body }
        let bound = 2 + self.rng.below(5) as i32;
        // The body mutates a scalar other than the counter; make sure one
        // exists before reserving r9.
        if self.scalars.iter().all(|r| *r == Reg::R9) {
            let imm = self.rng.below(64) as i32;
            self.mov_imm(Reg::R3, imm);
        }
        self.mov_imm(Reg::R9, 0);
        let body_start = self.insns.len();
        let body_len = 1 + self.rng.below(2) as usize;
        for _ in 0..body_len {
            let dst = loop {
                let r = self.any_scalar();
                if r != Reg::R9 {
                    break r;
                }
            };
            let imm = self.rng.below(100) as i32;
            self.insns.push(Insn::Alu {
                w: Width::W64,
                op: *self.rng.pick(&[AluOp::Add, AluOp::Xor]),
                dst,
                src: Operand::Imm(imm),
            });
        }
        self.insns.push(Insn::Alu {
            w: Width::W64,
            op: AluOp::Add,
            dst: Reg::R9,
            src: Operand::Imm(1),
        });
        let branch_idx = self.insns.len();
        let off = body_start as i64 - branch_idx as i64 - 1;
        self.insns.push(Insn::Branch {
            op: CmpOp::Lt,
            w: Width::W64,
            lhs: Reg::R9,
            rhs: Operand::Imm(bound),
            off: off as i16,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrup_ebpf::verify;

    #[test]
    fn generator_is_deterministic() {
        let maps_a = GenMaps::new();
        let maps_b = GenMaps::new();
        let a = generate(&mut Prng::new(77), &maps_a);
        let b = generate(&mut Prng::new(77), &maps_b);
        // Map ids differ between registries, so compare disassembly shape
        // length and insn count rather than raw equality.
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn generator_hits_both_accept_and_reject() {
        let mut accepted = 0;
        let mut rejected = 0;
        for seed in 0..200u64 {
            let maps = GenMaps::new();
            let prog = generate(&mut Prng::new(seed * 31 + 1), &maps);
            match verify(&prog, &maps.registry) {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
        assert!(accepted > 50, "only {accepted}/200 accepted");
        assert!(rejected > 5, "only {rejected}/200 rejected");
    }
}
