//! The policy abstraction: native and eBPF-backed implementations.
//!
//! Every experiment policy exists in two forms with identical decision
//! behaviour:
//!
//! * a **native** Rust implementation of [`PacketPolicy`], used on the hot
//!   path of the discrete-event simulations (interpreting bytecode for
//!   hundreds of millions of simulated packets would only cost wall-clock
//!   time, not fidelity — the decisions are what matter); and
//! * an **eBPF** implementation ([`PolicySource::C`] or
//!   [`PolicySource::Bytecode`]) compiled from the paper's C subset or
//!   assembled directly, verified, and run by `Syrupd` on its VM — used
//!   by Table 2 (instruction/cycle counts), the deployment-workflow
//!   tests, and the native/eBPF equivalence tests.

use syrup_ebpf::Program;

use crate::decision::{Decision, Verdict};
use crate::hook::HookMeta;

/// A scheduling policy over packet-like inputs.
///
/// `schedule` receives the input bytes and hook metadata and returns a
/// [`Decision`]. Implementations may keep internal state (round-robin
/// counters) or consult shared Maps.
pub trait PacketPolicy: Send {
    /// Matches the input with an executor.
    fn schedule(&mut self, pkt: &mut [u8], meta: &HookMeta) -> Decision;

    /// Matches the input with an executor *and* a rank within its queue.
    ///
    /// The default wraps [`PacketPolicy::schedule`] at rank 0, so every
    /// existing policy is automatically a valid (FIFO-ordered) ranked
    /// policy; rank-aware native policies override this instead.
    fn schedule_verdict(&mut self, pkt: &mut [u8], meta: &HookMeta) -> Verdict {
        Verdict::unranked(self.schedule(pkt, meta))
    }

    /// Diagnostic name.
    fn name(&self) -> &str {
        "policy"
    }
}

/// Blanket impl so plain closures can act as policies in tests and
/// examples.
impl<F> PacketPolicy for F
where
    F: FnMut(&mut [u8], &HookMeta) -> Decision + Send,
{
    fn schedule(&mut self, pkt: &mut [u8], meta: &HookMeta) -> Decision {
        self(pkt, meta)
    }
}

/// How a policy is delivered to `syrupd` (§3.1 step ❷).
pub enum PolicySource {
    /// Source text in the C subset; `syrupd` compiles it (§3.1 step ❸).
    C {
        /// The policy file contents.
        source: String,
        /// Compile-time defines and external map bindings.
        options: syrup_lang::CompileOptions,
    },
    /// Pre-assembled bytecode (tests, hand-written policies).
    Bytecode(Program),
    /// A native Rust policy — the simulation fast path.
    Native(Box<dyn PacketPolicy>),
}

impl std::fmt::Debug for PolicySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicySource::C { source, .. } => {
                write!(f, "PolicySource::C({} bytes)", source.len())
            }
            PolicySource::Bytecode(p) => write!(f, "PolicySource::Bytecode({})", p.name),
            PolicySource::Native(p) => write!(f, "PolicySource::Native({})", p.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hook, Syrupd};
    use syrup_ebpf::{Asm, Reg};

    /// Deploys `prog` for port 8080 and schedules one input through the
    /// daemon's eBPF path.
    fn schedule_bytecode(prog: Program) -> (Syrupd, crate::AppId, Decision) {
        let daemon = Syrupd::new();
        let (app, _) = daemon.register_app("t", &[8080]).unwrap();
        daemon
            .deploy(app, Hook::SocketSelect, PolicySource::Bytecode(prog))
            .expect("verifies");
        let meta = HookMeta {
            dst_port: 8080,
            ..HookMeta::default()
        };
        let (_, d) = daemon.schedule(Hook::SocketSelect, &mut [0u8; 8], &meta);
        (daemon, app, d)
    }

    fn const_policy(value: i32) -> Program {
        Asm::new()
            .mov64_imm(Reg::R0, value)
            .exit()
            .build("k")
            .unwrap()
    }

    #[test]
    fn ebpf_policy_decodes_decisions() {
        let (daemon, app, d) = schedule_bytecode(const_policy(3));
        assert_eq!(d, Decision::Executor(3));
        let (insns, cycles) = daemon
            .policy_stats(app, Hook::SocketSelect)
            .expect("one invocation recorded");
        assert!(insns >= 2.0);
        assert!(cycles > 0.0);
    }

    #[test]
    fn ebpf_policy_pass_sentinel() {
        // 0xFFFFFFFF as u32 == PASS
        assert_eq!(schedule_bytecode(const_policy(-1)).2, Decision::Pass);
    }

    #[test]
    fn closure_policies_work() {
        let mut rr = {
            let mut i = 0u32;
            move |_pkt: &mut [u8], _meta: &HookMeta| {
                i += 1;
                Decision::Executor(i % 4)
            }
        };
        let picks: Vec<_> = (0..5)
            .map(|_| rr.schedule(&mut [], &HookMeta::default()))
            .collect();
        assert_eq!(
            picks,
            vec![
                Decision::Executor(1),
                Decision::Executor(2),
                Decision::Executor(3),
                Decision::Executor(0),
                Decision::Executor(1)
            ]
        );
    }

    #[test]
    fn meta_words_reach_the_program() {
        // Return META2 (the dst port word).
        let prog = Asm::new()
            .ldx_dw(Reg::R0, Reg::R1, 32)
            .exit()
            .build("meta")
            .unwrap();
        assert_eq!(schedule_bytecode(prog).2, Decision::Executor(8080));
    }
}
