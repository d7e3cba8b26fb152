//! The cycle-cost model behind Table 2.
//!
//! Table 2 of the paper reports per-policy overhead in x86 cycles and notes
//! that the total (~1550–1710 cycles) is dominated by *enforcing* the
//! decision (redirecting the packet) rather than *making* it (running the
//! policy). The model here charges a small per-instruction cost for the
//! JIT-compiled policy body plus a large fixed enforcement cost per
//! invocation, so reproduced numbers show the same structure: little
//! variation across policies, slightly higher for instruction-heavy ones.
//!
//! The constants are calibrated so the paper's four policies land in
//! Table 2's 1550–1710 cycle band on this model's instruction counts.

use crate::helpers::HelperId;
use crate::insn::Insn;

/// Fixed cost of steering the input to the chosen executor (socket
/// lookup, queue insert, wakeup) — the dominant term in Table 2.
pub const ENFORCEMENT: u64 = 1450;
/// Fixed cost of entering the JITed program (call + prologue).
pub const INVOKE: u64 = 25;
/// Cost of one ALU / branch instruction.
pub const ALU: u64 = 1;
/// Cost of one memory access instruction.
pub const MEM: u64 = 4;
/// Cost of one atomic instruction (locked RMW).
pub const ATOMIC: u64 = 20;
/// Cost of a map-lookup/update helper call (hash + locking).
pub const MAP_HELPER: u64 = 45;
/// Cost of a cheap helper (random, time, CPU id).
pub const LIGHT_HELPER: u64 = 15;

/// Cycles charged for executing `insn` once.
pub fn insn_cost(insn: &Insn) -> u64 {
    match insn {
        Insn::Alu { .. }
        | Insn::Neg { .. }
        | Insn::Endian { .. }
        | Insn::LoadImm64 { .. }
        | Insn::LoadMapFd { .. }
        | Insn::Jump { .. }
        | Insn::Branch { .. }
        | Insn::Exit => ALU,
        Insn::LoadMem { .. } | Insn::StoreMem { .. } | Insn::StoreImm { .. } => MEM,
        Insn::AtomicAdd { .. } => ATOMIC,
        Insn::Call { helper } => match helper {
            HelperId::MapLookupElem
            | HelperId::MapUpdateElem
            | HelperId::MapDeleteElem
            | HelperId::RedirectMap
            | HelperId::TailCall => MAP_HELPER,
            HelperId::GetPrandomU32 | HelperId::KtimeGetNs | HelperId::GetSmpProcessorId => {
                LIGHT_HELPER
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, MemSize, Operand, Reg, Width};

    #[test]
    fn costs_are_ordered_sensibly() {
        let alu = insn_cost(&Insn::Alu {
            w: Width::W64,
            op: AluOp::Add,
            dst: Reg::R0,
            src: Operand::Imm(1),
        });
        let mem = insn_cost(&Insn::LoadMem {
            size: MemSize::W,
            dst: Reg::R0,
            base: Reg::R1,
            off: 0,
        });
        let map = insn_cost(&Insn::Call {
            helper: HelperId::MapLookupElem,
        });
        let atomic = insn_cost(&Insn::AtomicAdd {
            size: MemSize::DW,
            base: Reg::R0,
            off: 0,
            src: Reg::R1,
            fetch: false,
        });
        assert!(alu < mem && mem < atomic && atomic < map);
        // Enforcement dominates everything, as Table 2 observes.
        assert!(ENFORCEMENT > 10 * map);
    }
}
