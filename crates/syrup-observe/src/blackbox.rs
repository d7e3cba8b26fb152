//! Always-on flight recording for the Syrup scheduling stack.
//!
//! The repo's three observability pillars — telemetry snapshots
//! ([`crate::telemetry`]), sampled request traces ([`crate::trace`]), and cycle
//! profiles ([`crate::profile`]) — are all *pull*-based: someone has to have
//! started a recording before things went wrong. This module is the fourth
//! pillar, the *black box*: bounded, lock-free, overwrite-oldest event
//! rings that are cheap enough to leave attached permanently, so when an
//! SLO burns or a policy traps the last few thousand events from every
//! layer are already in memory.
//!
//! * [`Event`] — a compact 32-byte binary record (timestamp, kind, two
//!   payload words) with one [`EventKind`] per instrumented site:
//!   syrupd dispatch verdicts carrying the `(rank, executor)` encoding,
//!   VM traps and tail-call-cap hits (from both execution backends),
//!   NIC/reuseport enqueue drops and depth-threshold crossings, ghOSt
//!   thread-state changes, and `SloMonitor` burn events.
//! * The event ring — a fixed-capacity multi-producer ring with per-slot
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
//!   starvation, a `scope` time-series anomaly, or a manual
//!   `syrupctl blackbox trigger`) freezes the rings *after* recording
//!   the triggering event, preserving the pre-trigger window for
//!   [`Postmortem::capture`](Recorder::capture) — the postmortem contains
//!   its own cause.
//! * [`Postmortem`] — the frozen per-layer event dump plus trigger info,
//!   serialized with a stable JSON schema; `syrupctl blackbox` wraps it
//!   with a telemetry snapshot delta, overlapping trace timelines, and a
//!   flamegraph into the full `postmortem.json` bundle.

// The root already holds telemetry's `ring`, so this one stays nested.
pub(crate) mod ring;

pub use crate::event::{Event, EventKind, Layer, NUM_LAYERS};
pub use crate::postmortem::{LayerDump, Postmortem};
pub use crate::recorder::{Recorder, TriggerCause, TriggerInfo};
