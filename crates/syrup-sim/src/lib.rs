//! Discrete-event simulation substrate for the Syrup reproduction.
//!
//! The Syrup paper evaluates scheduling policies on real hardware (Xeon
//! servers, Intel and Netronome NICs, a patched Linux kernel). This crate
//! provides the deterministic, laptop-scale substitute: a discrete-event
//! engine with virtual nanosecond time ([`EventQueue`], a hierarchical
//! timer wheel, checked against the reference [`HeapQueue`]), a seeded
//! random-number layer, an open-loop (mutilate-style) workload generator,
//! and exact latency percentiles matching the paper's methodology
//! (client-observed p99/p99.9 across a load sweep, warm-up trimming,
//! multiple seeded runs). Rendering those sweeps as tables and CSVs is the
//! `bench` crate's job.
//!
//! Components built on top of this crate (the network stack model in
//! `syrup-net`, the thread schedulers in `syrup-ghost`, the application
//! models in `syrup-apps`) are plain state machines; experiment "worlds"
//! own an [`EventQueue`] and hand [`drive`] — the one event loop — a
//! handler that feeds popped events to the state machines, which keeps
//! every component unit-testable in isolation and makes whole
//! simulations reproducible from a single seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod rng;
pub mod scale;
pub mod shard;
pub mod stats;
pub mod time;
pub mod wheel;
pub mod workload;

pub use queue::{drive, HeapQueue, SimQueue};
pub use rng::SimRng;
pub use scale::{ScaleCfg, ScaleEngine, ScaleResult};
pub use shard::{ShardQueueStats, ShardedQueue, WindowSample};
pub use stats::{LatencyRecorder, LatencySummary, RunStats};
pub use time::{Duration, Time};
pub use wheel::EventQueue;
pub use workload::{ArrivalGen, OpenLoop, RequestMix, ServiceDist};
