//! Scheduling hooks across the stack (paper Figure 4).
//!
//! Each hook names a point where Syrup can intercept a scheduling
//! decision, together with the kind of input the policy sees and the kind
//! of executor it picks.

use core::fmt;

/// A deployment point for a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Hook {
    /// Matches threads to cores, deployed via the ghOSt backend.
    ThreadScheduler,
    /// Chooses among `SO_REUSEPORT` sockets for a TCP connection or UDP
    /// datagram.
    SocketSelect,
    /// Steers packets to cores for kernel network-stack processing.
    CpuRedirect,
    /// XDP generic hook (after SKB allocation); redirects to AF_XDP
    /// sockets, driver-independent, no zero-copy.
    XdpSkb,
    /// XDP native/driver hook (before SKB allocation); zero-copy capable.
    XdpDrv,
    /// Policy offloaded to a programmable NIC; picks the RX queue.
    XdpOffload,
}

impl Hook {
    /// All hooks in stack order, NIC first.
    pub const ALL: [Hook; 6] = [
        Hook::XdpOffload,
        Hook::XdpDrv,
        Hook::XdpSkb,
        Hook::CpuRedirect,
        Hook::SocketSelect,
        Hook::ThreadScheduler,
    ];

    /// The input type the policy receives (Figure 4's table).
    pub fn input(self) -> &'static str {
        match self {
            Hook::ThreadScheduler => "thread",
            Hook::SocketSelect => "TCP connection / UDP datagram",
            Hook::CpuRedirect | Hook::XdpSkb | Hook::XdpDrv | Hook::XdpOffload => "network packet",
        }
    }

    /// The executor type the policy selects (Figure 4's table).
    pub fn executor(self) -> &'static str {
        match self {
            Hook::ThreadScheduler => "core",
            Hook::SocketSelect => "TCP/UDP socket",
            Hook::CpuRedirect => "core",
            Hook::XdpSkb | Hook::XdpDrv => "AF_XDP socket",
            Hook::XdpOffload => "NIC RX queue",
        }
    }

    /// This hook's position in [`Hook::ALL`] (stack order, NIC first) —
    /// the compact hook id used in flight-recorder events.
    pub fn index(self) -> usize {
        match self {
            Hook::XdpOffload => 0,
            Hook::XdpDrv => 1,
            Hook::XdpSkb => 2,
            Hook::CpuRedirect => 3,
            Hook::SocketSelect => 4,
            Hook::ThreadScheduler => 5,
        }
    }

    /// Stable short name, used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Hook::ThreadScheduler => "thread-scheduler",
            Hook::SocketSelect => "socket-select",
            Hook::CpuRedirect => "cpu-redirect",
            Hook::XdpSkb => "xdp-skb",
            Hook::XdpDrv => "xdp-drv",
            Hook::XdpOffload => "xdp-offload",
        }
    }
}

#[cfg(test)]
mod hook_tests {
    use super::*;

    #[test]
    fn index_matches_position_in_all() {
        for (i, hook) in Hook::ALL.iter().enumerate() {
            assert_eq!(hook.index(), i, "{hook}");
        }
    }
}

impl fmt::Display for Hook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-invocation metadata handed to a policy alongside the packet bytes.
///
/// The eBPF backend exposes these through the context's metadata words;
/// native policies receive the struct directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookMeta {
    /// Virtual time in nanoseconds (`ktime_get_ns`).
    pub now_ns: u64,
    /// CPU handling the input (`get_smp_processor_id`).
    pub cpu: u32,
    /// RX queue the packet arrived on (XDP hooks).
    pub rx_queue: u32,
    /// Destination UDP/TCP port — what `syrupd` keys isolation on.
    pub dst_port: u16,
    /// Trace context of the input (untraced by default); `syrupd` uses it
    /// to attribute policy invocations to the request's timeline.
    pub trace: syrup_observe::trace::TraceCtx,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_table_matches() {
        assert_eq!(Hook::ThreadScheduler.input(), "thread");
        assert_eq!(Hook::ThreadScheduler.executor(), "core");
        assert_eq!(Hook::SocketSelect.executor(), "TCP/UDP socket");
        assert_eq!(Hook::XdpDrv.executor(), "AF_XDP socket");
        assert_eq!(Hook::XdpOffload.executor(), "NIC RX queue");
        assert_eq!(Hook::CpuRedirect.executor(), "core");
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(Hook::SocketSelect.to_string(), "socket-select");
        assert_eq!(Hook::XdpDrv.to_string(), "xdp-drv");
    }
}
