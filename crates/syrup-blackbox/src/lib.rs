//! Always-on flight recording for the Syrup scheduling stack.
//!
//! The repo's three observability pillars — telemetry snapshots
//! (`syrup-telemetry`), sampled request traces (`syrup-trace`), and cycle
//! profiles (`syrup-profile`) — are all *pull*-based: someone has to have
//! started a recording before things went wrong. This crate is the fourth
//! pillar, the *black box*: bounded, lock-free, overwrite-oldest event
//! rings that are cheap enough to leave attached permanently, so when an
//! SLO burns or a policy traps the last few thousand events from every
//! layer are already in memory.
//!
//! * [`Event`] — a compact 32-byte binary record (timestamp, kind, two
//!   payload words) with one [`EventKind`] per instrumented site:
//!   syrupd dispatch verdicts carrying the `(rank, executor)` encoding,
//!   VM traps and tail-call-cap hits (from both execution backends),
//!   NIC/reuseport enqueue drops and depth-threshold crossings,
//!   `ExecQueue` rank-band occupancy shifts, ghOSt thread-state changes,
//!   and `SloMonitor` burn events.
//! * [`EventRing`] — a fixed-capacity multi-producer ring with per-slot
//!   sequence locks: writers never block readers, the oldest events are
//!   overwritten when full, and the number of lost events is exact by
//!   construction (`pushed - capacity`).
//! * [`Recorder`] — the shared handle (clone = same rings) every layer
//!   records through, one ring per [`Layer`] so a chatty layer cannot
//!   evict another layer's rare events. Like `Registry`, `Tracer`, and
//!   `Profiler`, a [`Recorder::disabled`] handle makes every record site
//!   a single `Option` branch (≤5ns, benched in
//!   `bench/benches/blackbox.rs`).
//! * The trigger engine — an armed [`TriggerCause`] (SLO burn, VM trap,
//!   starvation, a syrup-scope time-series anomaly, or a manual
//!   `syrupctl blackbox trigger`) freezes the rings *after* recording
//!   the triggering event, preserving the pre-trigger window for
//!   [`Postmortem::capture`](Recorder::capture) — the postmortem contains
//!   its own cause.
//! * [`Postmortem`] — the frozen per-layer event dump plus trigger info,
//!   serialized with a stable JSON schema; `syrupctl blackbox` wraps it
//!   with a telemetry snapshot delta, overlapping trace timelines, and a
//!   flamegraph into the full `postmortem.json` bundle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod postmortem;
mod recorder;
mod ring;

pub use event::{Event, EventKind, Layer, NUM_LAYERS};
pub use postmortem::{LayerDump, Postmortem};
pub use recorder::{Recorder, TriggerCause, TriggerInfo};
pub use ring::EventRing;
