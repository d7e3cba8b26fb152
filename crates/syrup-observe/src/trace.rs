//! Cross-stack request tracing for the Syrup scheduling stack.
//!
//! Syrup's core claim is that policies at *different layers* cooperate on
//! the same input (§3–§4: NIC steering → XDP tier → CPU redirect → socket
//! select → thread scheduler). Per-hook counters (see [`crate::telemetry`])
//! see each layer in isolation; this module follows *one input's journey*
//! across all of them:
//!
//! * [`Tracer`] assigns each sampled input a [`TraceId`] at ingress and
//!   hands back a [`TraceCtx`] that the substrates thread alongside the
//!   packet/connection/thread-wakeup.
//! * Every stage the input traverses records a [`SpanRecord`] — NIC queue
//!   residency, each policy invocation (with verdict and the VM's cycle
//!   account), socket queueing, ghOSt enqueue → dispatch → run.
//! * [`reconstruct`] groups the records into per-request [`Timeline`]s,
//!   [`StageBreakdown`] attributes p50/p99/p99.9 latency to stages
//!   ("where did the tail come from"), and [`chrome_trace_json`] exports
//!   Chrome-trace/Perfetto JSON viewable in `about:tracing` or
//!   <https://ui.perfetto.dev>.
//!
//! The cost contract matches [`crate::telemetry`]'s: a [`Tracer::disabled`]
//! tracer (and any unsampled input) reduces every span site to a single
//! branch on a `Copy` value — the low-ns band, proven by
//! `bench/benches/trace.rs`.

pub use crate::report::{StageBreakdown, StageStats};
pub use crate::span::{chrome_trace_json, SpanKind, SpanRecord};
pub use crate::stage::Stage;
pub use crate::timeline::{reconstruct, Timeline, TimelineError};
pub use crate::tracer::{TraceCtx, TraceId, Tracer, TRACE_CAPACITY};
