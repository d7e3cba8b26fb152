//! Cross-stack cycle-attribution profiling.
//!
//! [`crate::telemetry`] reports *how much* each layer costs (per-run cycle
//! histograms); [`crate::trace`] reports *where a sampled request's* time
//! went. This module answers the remaining question — *where inside a
//! policy do the cycles go, and which executor is building pressure* —
//! the introspection a perf-style profiler gives a real deployment:
//!
//! * [`Profiler`] — a shared sink (clone = handle) the eBPF interpreter
//!   reports per-`(prog, pc)` and per-helper cycle attribution into,
//!   tail-call aware so `prog_array` chains fold into full stacks. The
//!   NIC / reuseport models feed it per-queue depth samples and ghOSt
//!   feeds per-thread time-in-state and scheduling-latency samples.
//! * [`ProfileReport`] — hotspot table (top PCs annotated with their
//!   disassembled instruction), per-program and per-helper breakdowns,
//!   and the attribution coverage against a total cycle account.
//! * Collapsed-stack flamegraph export ([`Profiler::flame`]) — folded
//!   `layer;prog;pc-range;helper count` lines loadable in inferno or
//!   speedscope.
//! * [`PressureReport`] — queue imbalance (max/mean ratio, Gini
//!   coefficient) per component plus executor starvation flags.
//! * [`SloMonitor`] — sliding-window percentile rules over
//!   telemetry histogram snapshots emitting structured
//!   [`BurnEvent`]s.
//!
//! Cost contract: like telemetry and tracing, every sample site on a
//! disabled profiler ([`Profiler::disabled`]) is a single branch
//! (≤5ns budget). Enabled, a VM run touches no string and allocates
//! nothing in steady state: samples add by index into per-chain dense
//! tables and names are rendered at report time (≤1µs budget for a
//! 16-instruction run). `cargo bench -p bench --bench profile` gates
//! both.

pub use crate::pressure::{
    gini, LatencySummary, PressureReport, QueuePressure, RankBandPressure, StarvationEvent,
    ThreadPressure,
};
pub use crate::profiler::{
    HelperCost, Hotspot, ProfileReport, Profiler, ProgCycles, Step, Steps, ThreadState, VmSpan,
    STARVATION_NS,
};
pub use crate::slo::{BurnEvent, SloMonitor, SloRule, SloStatus, SLO_WINDOW};
