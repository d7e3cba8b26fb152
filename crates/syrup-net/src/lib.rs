//! The network-stack substrate: NIC, RSS, sockets, and the RX path.
//!
//! The paper's experiments run on real Intel 82599 and Netronome Agilio
//! NICs under Linux 5.9. This crate models the parts of that path that
//! Syrup's hooks attach to (paper Figure 4), as deterministic components
//! driven by the discrete-event worlds in `syrup-apps`:
//!
//! * [`packet`] — on-the-wire formats: Ethernet/IPv4/UDP framing in
//!   network byte order plus the benchmark application header. Policies
//!   parse these bytes exactly as their kernel counterparts would.
//! * [`rss`] — Toeplitz receive-side scaling with the Microsoft-specified
//!   default key: the "vanilla Linux" packet steering whose hash
//!   imbalances Figure 2 exposes.
//! * [`flow`] — 5-tuples and flow-set generation (Figure 2 uses 50 client
//!   flows over 6 sockets).
//! * [`nic`] — RX queues as configured in §5.1 and queue steering: RSS, or
//!   the choice of an XDP-offload policy running on the NIC.
//! * [`socket`] — bounded socket buffers with drop accounting and
//!   `SO_REUSEPORT` groups with hash-based default selection (the Linux
//!   behaviour Figure 2 measures) or a Syrup socket-select policy.
//! * [`stack`] — the per-packet cost model of the RX path: where time goes
//!   between the wire and `recvmsg`, per hook placement.
//!
//! Two of the paper's §6 extensions also live here: [`late_binding`]
//! (buffer inputs, run the policy when an executor pulls — §6.3) and
//! [`kcm`] (KCM-style request framing over TCP streams so policies
//! schedule requests, not packets — §6.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod kcm;
pub mod late_binding;
pub mod nic;
pub mod packet;
pub mod rss;
pub mod socket;
pub mod stack;

pub use flow::FiveTuple;
pub use kcm::{KcmMux, StreamFramer};
pub use late_binding::{FifoPick, InputPick, KeyPick, LateBindingGroup};
pub use nic::Nic;
pub use packet::{AppHeader, Frame, RequestClass};
pub use rss::Toeplitz;
pub use socket::{Delivery, ReuseportGroup, SocketBuf};
pub use stack::StackCosts;

// Queue disciplines are part of this crate's construction API
// (`ReuseportGroup::new_with`), so re-export the kind.
pub use syrup_sched::QueueKind;

/// Feeds one per-queue depth snapshot to `profiler` through a stack
/// array, so the sampling path allocates nothing (a component with more
/// queues than the array holds falls back to a `Vec`).
pub(crate) fn sample_queue_depths(
    profiler: &syrup_observe::profile::Profiler,
    component: &str,
    now_ns: u64,
    depths: impl ExactSizeIterator<Item = usize>,
) {
    let mut stack = [0usize; 64];
    let n = depths.len();
    if n > stack.len() {
        return profiler.queue_depths(component, now_ns, &depths.collect::<Vec<_>>());
    }
    for (slot, depth) in stack.iter_mut().zip(depths) {
        *slot = depth;
    }
    profiler.queue_depths(component, now_ns, &stack[..n]);
}
