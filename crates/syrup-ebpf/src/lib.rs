//! A software eBPF: instruction set, verifier, interpreter, and maps.
//!
//! Syrup deploys untrusted scheduling policies into the kernel through eBPF
//! (§4.1 of the paper). This crate is the reproduction's stand-in for the
//! Linux eBPF subsystem, built from scratch:
//!
//! * [`insn`] — the classic 11-register / 512-byte-stack instruction set
//!   (64/32-bit ALU, memory, branches, atomics, endian conversion, helper
//!   calls, tail calls).
//! * [`asm`] — a label-resolving assembler for writing programs in Rust;
//!   [`asm_text`] additionally parses the disassembler's text format.
//! * [`verifier`] — a static verifier in the style of the in-kernel one: it
//!   simulates execution one instruction at a time, tracks pointer
//!   provenance per register, requires explicit packet-bounds checks
//!   against `data_end` before packet loads, requires null checks on map
//!   values, bounds the analysis at one million explored instructions (so
//!   only bounded loops pass), and rejects everything else (§4.3). What it
//!   proves per instruction comes back as [`Facts`].
//! * [`decode`] — lowers a verified program, using those facts, into the
//!   specialised form the default engine runs on untagged registers.
//! * [`vm`] — loaded programs, the engines, and the reference interpreter
//!   with per-instruction cycle accounting used for Table 2's
//!   instruction/cycle measurements, plus defense-in-depth runtime checks
//!   (verified programs never trip them).
//! * [`maps`] — array / hash / program-array maps with the pin-to-path
//!   namespace Syrup uses for cross-layer communication (§3.4), including
//!   the atomics-on-values model of §4.1.
//!
//! The subset is documented per module; every restriction mirrors either a
//! real eBPF verifier rule or a simplification that the paper's policies
//! (Figure 5) do not exercise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod asm_text;
pub mod cycles;
pub mod decode;
pub(crate) mod fast;
pub mod helpers;
pub mod insn;
pub mod maps;
mod mem;
mod store;
pub mod verifier;
pub mod vm;

pub use asm::Asm;
pub use asm_text::assemble;
pub use decode::DecodedProg;
pub use helpers::HelperId;
pub use insn::{AluOp, CmpOp, Insn, MemSize, Operand, Reg, Width};
pub use maps::{MapDef, MapId, MapKind, MapRef, MapRegistry};
pub use verifier::{verify, verify_with_config, Facts, Kind, VerifierConfig, VerifierError};
pub use vm::{Backend, PacketCtx, Vm, VmError, VmOutcome};

/// A loaded, verified program: instructions plus a human-readable name.
#[derive(Debug, Clone)]
pub struct Program {
    /// Diagnostic name, e.g. `"round_robin"`.
    pub name: String,
    /// The instruction stream. Index 0 is the entry point.
    pub insns: Vec<Insn>,
}

impl Program {
    /// Creates a program from raw instructions.
    pub fn new(name: impl Into<String>, insns: Vec<Insn>) -> Self {
        Program {
            name: name.into(),
            insns,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program has no instructions (never valid to run).
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Renders a disassembly listing, one instruction per line.
    pub fn disasm(&self) -> String {
        self.insns
            .iter()
            .enumerate()
            .map(|(i, insn)| format!("{i:4}: {insn}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Scheduling decision sentinels and the ranked-verdict encoding shared
/// with `syrup-core`.
///
/// A Syrup `schedule` function returns a `u32`: an index into the executor
/// map, or one of these two reserved values (§3.3). Rank-returning
/// policies (`return (q, rank);` in the language) extend this without
/// breaking it: the VM hands back a full `u64` whose low 32 bits are the
/// classic executor/sentinel word and whose high 32 bits carry the rank.
/// FIFO hooks keep truncating to `u32` (so legacy decoding is
/// bit-identical — high bits were always ignored there), and only hooks
/// that opted into rank decoding read the upper half.
pub mod ret {
    /// Use the system's default policy for this input.
    pub const PASS: u64 = u32::MAX as u64;
    /// Drop the input.
    pub const DROP: u64 = (u32::MAX - 1) as u64;

    /// Encodes a ranked verdict: `rank` in the high 32 bits, the
    /// executor/sentinel word in the low 32.
    #[inline]
    pub fn with_rank(executor: u64, rank: u32) -> u64 {
        (u64::from(rank) << 32) | (executor & 0xFFFF_FFFF)
    }

    /// The executor/sentinel word of a raw return value (what FIFO hooks
    /// decode).
    #[inline]
    pub fn executor_of(value: u64) -> u32 {
        value as u32
    }

    /// The rank of a raw return value. For a policy that returned a bare
    /// executor index this is 0 — the lowest (most urgent) rank — so
    /// rank-agnostic programs behave as FIFO even on a ranked hook.
    #[inline]
    pub fn rank_of(value: u64) -> u32 {
        (value >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::ret;

    #[test]
    fn rank_encoding_round_trips() {
        let v = ret::with_rank(7, 1234);
        assert_eq!(ret::executor_of(v), 7);
        assert_eq!(ret::rank_of(v), 1234);
        // Sentinels survive in the low word.
        assert_eq!(
            ret::executor_of(ret::with_rank(ret::PASS, 9)) as u64,
            ret::PASS
        );
    }

    #[test]
    fn bare_returns_decode_as_rank_zero() {
        assert_eq!(ret::rank_of(5), 0);
        assert_eq!(ret::rank_of(ret::DROP), 0);
    }
}
