//! Cross-stack observability for the Syrup scheduling stack.
//!
//! Mirrors the telemetry structure of the real system described in the
//! paper: scheduling policies run as eBPF programs whose statistics live in
//! percpu maps (counters, histograms) and whose decisions stream to
//! userspace through a bounded ring buffer. This crate provides the
//! software analogue used across the simulated stack:
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s and log2 [`Histogram`]s
//!   with lock-free hot-path updates (relaxed atomics; registration takes a
//!   lock once, increments never do), standing in for percpu map updates.
//! * [`DecisionRing`] — a bounded ring of [`DecisionEvent`]s with
//!   eBPF-ringbuf semantics: when the buffer is full the *new* event is
//!   dropped (reservation failure) and a drop counter advances. The
//!   buffer is generic ([`BoundedRing`]); `syrup-trace` keeps its spans
//!   in one too.
//! * [`PerCpu`] — one cache-line-aligned stripe per CPU, standing in for
//!   a percpu map slot. Counters and histograms every app's callers
//!   write register per CPU ([`Registry::percpu_counter`]), as does the
//!   ring's drop counter, so two apps' callers do not write the same
//!   lines.
//! * [`Snapshot`] — a point-in-time copy of every metric, exportable as a
//!   plain-text table ([`Snapshot::render_table`]) or JSON
//!   ([`Snapshot::to_json`]), standing in for userspace map reads.
//!
//! A [`Registry::disabled`] registry hands out no-op handles: every update
//! is a single branch on an `Option` discriminant, so instrumented hot
//! paths cost ~nothing when telemetry is off (see `bench/benches/telemetry.rs`).

mod counter;
mod hist;
mod percpu;
mod registry;
mod ring;

pub use counter::{Counter, CounterCell, Gauge};
pub use hist::{nearest_rank, Histogram, HistogramCell, HistogramSnapshot, HIST_BUCKETS};
pub use percpu::PerCpu;
pub use registry::{
    CounterHandle, GaugeHandle, HistogramHandle, Registry, Snapshot, SnapshotDelta,
};
pub use ring::{BoundedRing, DecisionEvent, DecisionRing, Executor};
