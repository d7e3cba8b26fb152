//! Application models and experiment worlds.
//!
//! This crate assembles the substrates — the event engine (`syrup-sim`),
//! the network path (`syrup-net`), the thread schedulers (`syrup-ghost`),
//! and the Syrup framework itself (`syrup-core`) — into the three
//! simulated testbeds the paper's evaluation runs on:
//!
//! * [`rocksdb`] — the RocksDB-like request server: GET (10–12µs) and
//!   SCAN (~700µs) service times.
//! * [`server_world`] — §5.2's deployment: N server threads pinned to N
//!   cores, one `SO_REUSEPORT` UDP socket each, an open-loop client, and
//!   a Syrup socket-select policy deployed through `syrupd`. Regenerates
//!   Figures 2, 6, and 7.
//! * [`mt_world`] — §5.3's deployment: 36 threads multiplexed on 6 cores
//!   by either a CFS-like kernel scheduler or a ghOSt agent running the
//!   GET-priority Syrup policy, combined with socket-level scheduling.
//!   Regenerates Figure 8.
//! * [`mica`] — §5.4's MICA-like partitioned KVS with AF_XDP delivery and
//!   three steering placements (application software redirect, Syrup SW
//!   in the kernel XDP hook, Syrup HW on the NIC). Regenerates Figure 9.
//! * [`token_agent`] — the userspace token-refill agent of §5.2.2
//!   (epoch-based replenishment, leftover gifting to best-effort).
//! * [`quickstart`] — a compact deterministic pipeline (NIC → XDP → CPU
//!   redirect → socket → worker) used by `syrupctl trace record` and the
//!   tracing docs.
//! * [`late_world`] — the §6.3 extension experiment: early vs late
//!   binding of datagrams to threads on the Figure 6 workload.
//! * [`rfs_world`] — §2.1's RFS motivation: flow-locality steering at the
//!   CPU-redirect hook vs hash steering.
//!
//! Every world routes each simulated input through the real `syrupd`
//! dispatch (port isolation and all); the policies are the native
//! implementations from `syrup-policies`, whose decision equivalence with
//! the compiled C is tested separately.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frontend;
pub mod late_world;
pub mod mica;
pub mod mt_world;
pub mod quickstart;
pub mod rfs_world;
pub mod rocksdb;
pub mod server_world;
pub mod token_agent;

pub use late_world::{Binding, LateConfig, LateResult};
pub use mica::{MicaConfig, MicaMode, MicaResult};
pub use mt_world::{MtConfig, MtResult, SchedKind};
pub use quickstart::Quickstart;
pub use rfs_world::{RfsConfig, RfsResult, Steering};
pub use rocksdb::RocksDbModel;
pub use server_world::{ServerConfig, ServerResult, SocketPolicyKind};
pub use token_agent::TokenAgent;
