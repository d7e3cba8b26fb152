//! Continuous time-series observability for the Syrup stack.
//!
//! The other observability pillars are point-in-time: [`crate::telemetry`]
//! snapshots, [`crate::trace`] per-request timelines, [`crate::profile`]
//! per-run reports, [`crate::blackbox`] postmortem windows. This module is
//! the *continuous* pillar — where wall-clock and events go **over
//! time** — the sensing substrate that hot policy swap / SLO-burn
//! rollback and oversubscription arbitration (ROADMAP open items) will
//! trigger and arbitrate on:
//!
//! * [`Scope`] — fixed-capacity ring time-series store, one bounded
//!   ring of `(at_ns, value)` points per named series with exact
//!   eviction accounting; clone = shared handle, and a disabled scope
//!   makes every record site a single `Option` branch (≤5ns contract,
//!   gated by `bench --bench scope`).
//! * [`Sampler`] — periodically captures telemetry-registry deltas
//!   ([`crate::telemetry::Snapshot::delta`]) at a configurable cadence:
//!   counter increments, gauge levels, and histogram count increments
//!   become points, per shard (`shard<k>/…` prefixes) and globally.
//! * `ingest_windows` — turns `run_windows` per-window samples into
//!   per-shard series (events, barrier-wait ns, mailbox traffic,
//!   occupancy) plus cross-shard imbalance series (max/mean ratio and
//!   Gini, via [`crate::profile::gini`]) and the `WindowsSummary`
//!   aggregates `bench --bin scale` records. It lives in `syrup-sim`,
//!   beside the window samples it reads, and `syrup::scope` re-exports
//!   it with this module.
//! * [`AnomalyEngine`] — robust per-series detectors (EWMA baseline +
//!   MAD z-score) emitting structured [`AnomalyEvent`]s, wired into the
//!   blackbox trigger engine (anomaly → frozen postmortem containing
//!   its own cause).
//! * [`openmetrics`] — OpenMetrics/Prometheus text exposition of a
//!   telemetry snapshot with a stable schema (`syrupctl metrics
//!   --openmetrics`), plus the [`check_exposition`] line-format checker
//!   CI parses it with.

pub use crate::anomaly::{AnomalyEngine, AnomalyEvent, SeriesDetector, ANOMALY_Z_THRESHOLD};
pub use crate::openmetrics::{check_exposition, openmetrics, sanitize};
pub use crate::sampler::{Sampler, DEFAULT_SAMPLE_EVERY_NS};
pub use crate::store::{Point, Scope, SeriesHandle, SeriesSnapshot, DEFAULT_SERIES_CAPACITY};
