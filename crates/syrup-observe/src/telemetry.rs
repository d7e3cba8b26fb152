//! Cross-stack observability for the Syrup scheduling stack.
//!
//! Mirrors the telemetry structure of the real system described in the
//! paper: scheduling policies run as eBPF programs whose statistics live in
//! percpu maps (counters, histograms). This module provides the software
//! analogue used across the simulated stack:
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s and log2 [`Histogram`]s
//!   with lock-free updates (relaxed atomics; registration takes a lock
//!   once, increments never do), for instruments one app's callers or
//!   one substrate write.
//! * [`Block`] — a stats block: a plain struct of `u64` counters and
//!   [`HistogramSnapshot`]s that one event writes together, one stripe
//!   per CPU, each stripe under an uncontended leaf lock
//!   ([`Registry::block`], [`BlockHandle::write`]). It stands in for a
//!   program's per-CPU `bpf_prog_stats`: the VM writes its `vm/*` block
//!   once per run instead of a dozen atomic read-modify-writes. A writer
//!   that already holds a lock of its own keeps its copy under it instead
//!   ([`Holds`], [`Registry::hold`]): `syrupd` counts a dispatch's
//!   `app<id>/<hook>/*` and `vm/*` with plain adds under the policy's own
//!   lock. Reads fold the stripes and the held copies exactly, so a block
//!   reads like the atomics it replaces.
//! * [`PerCpu`] — one cache-line-aligned stripe per CPU, standing in for
//!   a percpu map slot: the storage of blocks and of the tracer's drop
//!   count.
//! * [`Snapshot`] — a point-in-time copy of every metric, exportable as a
//!   plain-text table ([`Snapshot::render_table`]) or JSON
//!   ([`Snapshot::to_json`]), standing in for userspace map reads.
//!
//! A [`Registry::disabled`] registry hands out no-op handles: every update
//! or block write is a single branch on an `Option` discriminant, so
//! instrumented hot paths cost ~nothing when telemetry is off (see
//! `bench/benches/telemetry.rs`).
//!
//! The registry holds metrics only. Each decision's record is the flight
//! recorder's `dispatch` event ([`crate::blackbox`]).

pub use crate::block::{Block, BlockHandle, Field, Holds};
pub use crate::counter::{Counter, Gauge};
pub use crate::hist::{nearest_rank, Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use crate::percpu::PerCpu;
pub use crate::registry::{
    CounterHandle, GaugeHandle, HistogramHandle, Registry, Snapshot, SnapshotDelta,
};
