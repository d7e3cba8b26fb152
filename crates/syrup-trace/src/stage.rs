//! The stages an input can traverse, in stack order.

use core::fmt;

/// A point (or interval) in an input's journey through the stack.
///
/// One variant per Figure 4 hook, plus the surrounding machinery a
/// request passes through between hooks. Stage names are stable — they
/// key the per-stage latency breakdown, the Perfetto track names, and the
/// `syrupctl trace report` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Trace start: the input hit the wire / was generated.
    Ingress,
    /// NIC steering decision (RSS / flow rule / offloaded policy).
    NicSteer,
    /// Residency in a NIC RX descriptor ring.
    NicQueue,
    /// Policy at the NIC-offload XDP hook.
    XdpOffload,
    /// Policy at the XDP native/driver hook.
    XdpDrv,
    /// Policy at the XDP generic (SKB) hook.
    XdpSkb,
    /// Policy at the CPU-redirect hook.
    CpuRedirect,
    /// Kernel RX path work (IRQ, SKB, protocol processing).
    StackRx,
    /// Policy at the socket-select hook.
    SocketSelect,
    /// Residency in a socket receive buffer.
    SockQueue,
    /// Policy at the thread-scheduler hook.
    ThreadScheduler,
    /// One eBPF VM invocation (root dispatch + tail-called policy).
    VmExec,
    /// ghOSt: wakeup message queued to the agent until its decision.
    GhostEnqueue,
    /// ghOSt: decision committed until the thread runs (ctx switch / IPI).
    GhostDispatch,
    /// ghOSt: a running thread was preempted (instant).
    GhostPreempt,
    /// Worker thread executing the request (syscalls + service time).
    Run,
    /// Policy deployed / torn down (global instant).
    PolicyLifecycle,
    /// Trace end: the request completed.
    End,
}

impl Stage {
    /// Every stage, in stack order (NIC first).
    pub const ALL: [Stage; 18] = [
        Stage::Ingress,
        Stage::NicSteer,
        Stage::NicQueue,
        Stage::XdpOffload,
        Stage::XdpDrv,
        Stage::XdpSkb,
        Stage::CpuRedirect,
        Stage::StackRx,
        Stage::SocketSelect,
        Stage::SockQueue,
        Stage::ThreadScheduler,
        Stage::VmExec,
        Stage::GhostEnqueue,
        Stage::GhostDispatch,
        Stage::GhostPreempt,
        Stage::Run,
        Stage::PolicyLifecycle,
        Stage::End,
    ];

    /// Stable short name (breakdown keys, Perfetto event names).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Ingress => "ingress",
            Stage::NicSteer => "nic-steer",
            Stage::NicQueue => "nic-queue",
            Stage::XdpOffload => "xdp-offload",
            Stage::XdpDrv => "xdp-drv",
            Stage::XdpSkb => "xdp-skb",
            Stage::CpuRedirect => "cpu-redirect",
            Stage::StackRx => "stack-rx",
            Stage::SocketSelect => "socket-select",
            Stage::SockQueue => "sock-queue",
            Stage::ThreadScheduler => "thread-scheduler",
            Stage::VmExec => "vm-exec",
            Stage::GhostEnqueue => "ghost-enqueue",
            Stage::GhostDispatch => "ghost-dispatch",
            Stage::GhostPreempt => "ghost-preempt",
            Stage::Run => "run",
            Stage::PolicyLifecycle => "policy-lifecycle",
            Stage::End => "end",
        }
    }

    /// The layer of the stack this stage belongs to (Perfetto category,
    /// report grouping).
    pub fn layer(self) -> &'static str {
        match self {
            Stage::Ingress | Stage::End => "trace",
            Stage::NicSteer | Stage::NicQueue | Stage::XdpOffload => "nic",
            Stage::XdpDrv | Stage::XdpSkb | Stage::CpuRedirect | Stage::StackRx => "kernel",
            Stage::SocketSelect | Stage::SockQueue => "socket",
            Stage::ThreadScheduler
            | Stage::GhostEnqueue
            | Stage::GhostDispatch
            | Stage::GhostPreempt => "thread",
            Stage::VmExec => "vm",
            Stage::Run => "app",
            Stage::PolicyLifecycle => "syrupd",
        }
    }

    /// The stage at which a policy deployed to the named hook runs.
    /// Names follow `Hook::name()` in `syrup-core`; unknown names map to
    /// [`Stage::VmExec`] (a policy invocation of unknown placement).
    pub fn for_hook(hook_name: &str) -> Stage {
        match hook_name {
            "xdp-offload" => Stage::XdpOffload,
            "xdp-drv" => Stage::XdpDrv,
            "xdp-skb" => Stage::XdpSkb,
            "cpu-redirect" => Stage::CpuRedirect,
            "socket-select" => Stage::SocketSelect,
            "thread-scheduler" => Stage::ThreadScheduler,
            _ => Stage::VmExec,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
        assert_eq!(Stage::SocketSelect.to_string(), "socket-select");
    }

    #[test]
    fn hook_names_round_trip() {
        for hook in [
            "xdp-offload",
            "xdp-drv",
            "xdp-skb",
            "cpu-redirect",
            "socket-select",
            "thread-scheduler",
        ] {
            assert_eq!(Stage::for_hook(hook).as_str(), hook);
        }
        assert_eq!(Stage::for_hook("something-else"), Stage::VmExec);
    }

    #[test]
    fn every_stage_has_a_layer() {
        for s in Stage::ALL {
            assert!(!s.layer().is_empty());
        }
    }
}
