//! Syrup: the user-defined scheduling framework (paper §3).
//!
//! This crate is the framework layer of the reproduction: everything an
//! application developer touches. It treats scheduling as an **online
//! matching problem** — policies are functions from *inputs* (packets,
//! datagrams, connections, threads) to *executors* (sockets, cores, NIC
//! queues) — and hides the enforcement mechanics behind hooks.
//!
//! * [`decision`] — the `schedule()` return contract: an executor-map
//!   index, `PASS`, or `DROP` (§3.3).
//! * [`hook`] — the deployment points of Figure 4 with their input and
//!   executor types.
//! * [`policy`] — the policy abstraction: native Rust implementations for
//!   fast simulation and eBPF-backed implementations (compiled from the
//!   C subset by `syrup-lang`, verified, and interpreted by `syrup-ebpf`).
//!   Equivalence between the two is covered by integration tests.
//! * [`map_api`] — the Table 1 Map API (`syr_map_open`/`lookup`/`update`)
//!   with per-application path permissions.
//! * [`syrupd`] — the system-wide daemon (§3.5, §4.3): applications
//!   register with their ports, deploy policies to hooks, and the daemon
//!   guarantees each policy only ever sees inputs belonging to its own
//!   application, using a port-matching root program that tail-calls into
//!   a `PROG_ARRAY` of per-app policies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision;
pub mod hook;
pub mod map_api;
pub mod policy;
pub mod syrupd;

pub use decision::{Decision, Verdict};
pub use hook::{Hook, HookMeta};
pub use map_api::{AppId, MapPermError, SyrupMaps};
pub use policy::{PacketPolicy, PolicySource};
pub use syrupd::{DeployError, PolicyHandle, Syrupd};

// Re-export the substrate types applications interact with.
pub use syrup_ebpf::maps::{MapDef, MapId, MapKind, MapRef, MapRegistry};
pub use syrup_lang::CompileOptions;
