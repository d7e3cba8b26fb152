//! Cross-stack observability for the Syrup scheduling stack, one module
//! per pillar, each zero-cost when disabled:
//!
//! * [`telemetry`] — counters, gauges, log2 histograms, stats blocks
//!   and registry snapshots.
//! * [`trace`] — sampled per-request spans, timelines, stage breakdowns
//!   and Perfetto export.
//! * [`profile`] — cycle attribution inside policies, executor pressure
//!   and SLO burn monitoring.
//! * [`blackbox`] — the always-on flight recorder and its postmortems.
//! * [`scope`] — continuous time series, anomaly detection and
//!   OpenMetrics exposition.
//!
//! The crate depends on no other workspace crate; the `syrup::` facade
//! re-exports each module under its own name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blackbox;
pub mod profile;
pub mod scope;
pub mod telemetry;
pub mod trace;

// Each pillar's files sit at the crate root, private, behind its
// module's re-exports: they keep the module paths, and so the unit-test
// names (`hist::tests::*`), they had as crates of their own.
mod anomaly;
mod block;
mod counter;
mod event;
mod hist;
mod openmetrics;
mod percpu;
mod postmortem;
mod pressure;
mod profiler;
mod recorder;
mod registry;
mod report;
mod sampler;
mod slo;
mod span;
mod stage;
mod store;
mod timeline;
mod tracer;
