//! Syrup: user-defined scheduling across the stack — the facade crate.
//!
//! A reproduction of *Syrup: User-Defined Scheduling Across the Stack*
//! (Kaffes, Humphries, Mazières, Kozyrakis — SOSP 2021) as a Rust
//! workspace. This crate re-exports the public API of every layer so
//! downstream users (and the examples in `examples/`) need a single
//! dependency:
//!
//! * [`core`] — the framework: policies, decisions, hooks, the Table 1
//!   Map API, and the `syrupd` daemon with per-application isolation.
//! * [`ebpf`] — the software eBPF substrate: ISA, assembler, static
//!   verifier, interpreter, maps.
//! * [`lang`] — the "safe subset of C" policy compiler.
//! * [`policies`] — the paper's Figure 5 policies (C and native forms).
//! * [`net`] — the network-path substrate (packets, Toeplitz RSS, NIC,
//!   `SO_REUSEPORT` sockets, cost model).
//! * [`sched`] — rank-based programmable queues: exact PIFO, Eiffel-style
//!   bucket queues, and the `ExecQueue` discipline used by the executors.
//! * [`ghost`] — thread scheduling (CFS-like baseline, ghOSt-like agent).
//! * [`apps`] — application models and the Figure 2/6/7/8/9 experiment
//!   worlds.
//! * [`sim`] — the deterministic discrete-event engine.
//! * [`telemetry`] — cross-stack observability: named counters/gauges,
//!   log2 cycle histograms, and a bounded decision-trace ring buffer.
//! * [`profile`] — the cycle-attribution profiler: per-`(prog, pc)` and
//!   per-helper hotspots, folded flame graphs, executor pressure, and
//!   SLO burn monitoring.
//! * [`blackbox`] — the always-on flight recorder: bounded per-layer
//!   event rings, trigger engine, and postmortem bundles.
//! * [`scope`] — continuous time-series observability: ring series
//!   store, periodic registry-delta sampling, per-shard barrier/stall
//!   attribution, robust anomaly detection, OpenMetrics exposition.
//!
//! # Quickstart
//!
//! ```
//! use syrup::core::{Hook, HookMeta, PolicySource, Syrupd, Decision, CompileOptions};
//!
//! // Start the daemon, register an application that owns port 8080.
//! let daemon = Syrupd::new();
//! let (app, _maps) = daemon.register_app("my-kv", &[8080]).unwrap();
//!
//! // Deploy the paper's round-robin policy, written in the C subset:
//! // syrupd compiles it, verifies it, and installs it at the hook.
//! daemon
//!     .deploy(
//!         app,
//!         Hook::SocketSelect,
//!         PolicySource::C {
//!             source: syrup::policies::c_sources::ROUND_ROBIN.to_string(),
//!             options: CompileOptions::new().define("NUM_THREADS", 4),
//!         },
//!     )
//!     .unwrap();
//!
//! // Each incoming datagram now gets a socket decision from the policy.
//! let mut datagram = [0u8; 64];
//! let meta = HookMeta { dst_port: 8080, ..Default::default() };
//! let (owner, decision) = daemon.schedule(Hook::SocketSelect, &mut datagram, &meta);
//! assert_eq!(owner, Some(app));
//! assert_eq!(decision, Decision::Executor(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Application models and experiment worlds (re-export of `syrup-apps`).
pub use syrup_apps as apps;
/// The Syrup framework (re-export of `syrup-core`).
pub use syrup_core as core;
/// The software eBPF substrate (re-export of `syrup-ebpf`).
pub use syrup_ebpf as ebpf;
/// Thread scheduling substrate (re-export of `syrup-ghost`).
pub use syrup_ghost as ghost;
/// The C-subset policy compiler (re-export of `syrup-lang`).
pub use syrup_lang as lang;
/// The network-path substrate (re-export of `syrup-net`).
pub use syrup_net as net;
/// Always-on flight recorder: per-layer event rings, trigger engine,
/// postmortem bundles (re-export of `syrup_observe::blackbox`).
pub use syrup_observe::blackbox;
/// Cross-stack cycle-attribution profiler: PC/helper hotspots, folded
/// flame graphs, executor pressure, SLO burn monitoring (re-export of
/// `syrup_observe::profile`).
pub use syrup_observe::profile;
/// The paper's policies (re-export of `syrup-policies`).
pub use syrup_policies as policies;
/// Rank-based programmable queues: PIFO, Eiffel bucket queues, and the
/// executor queue discipline (re-export of `syrup-sched`).
pub use syrup_sched as sched;
/// Continuous time-series observability: ring series store, registry-
/// delta sampler, anomaly detection, OpenMetrics exposition (re-export
/// of `syrup_observe::scope`), plus the ingestion of sharded runs'
/// window samples into shard series, which lives in `syrup-sim` beside
/// the samples it reads.
pub mod scope {
    pub use syrup_observe::scope::*;
    pub use syrup_sim::{ingest_windows, WindowsSummary};
}
/// Cross-stack observability: counters, cycle histograms, decision
/// tracing (re-export of `syrup_observe::telemetry`).
pub use syrup_observe::telemetry;
/// Cross-stack request tracing: per-request timelines, stage-latency
/// breakdowns, Perfetto export (re-export of `syrup_observe::trace`).
pub use syrup_observe::trace;
/// The discrete-event engine (re-export of `syrup-sim`).
pub use syrup_sim as sim;
/// The storage backend (re-export of `syrup-storage`, paper §6.1).
pub use syrup_storage as storage;
