//! Request-tracer hot-path cost: span sites enabled vs disabled.
//!
//! The contract every instrumented substrate relies on (ISSUE acceptance
//! criterion): with a [`Tracer::disabled`] tracer — or an unsampled
//! input, which is the common case at any realistic sampling rate — each
//! span site must collapse to a single branch on a `Copy` value: every
//! `disabled/*` and `unsampled/*` site is gated at [`GATE_NS`] per call
//! (see [`bench::gate()`]: release builds only, exit nonzero over budget).
//! The enabled+sampled path takes a lock and pushes a record; it is
//! measured here for contrast, not bound, and so is rebuilding the
//! timelines of a full ring, the once-per-run report cost.
//!
//! A full buffer refuses a span without its lock: one length load and an
//! increment of a per-CPU counter (`counter/inc_percpu`, the buffer's own
//! drop count), gated at [`REFUSED_OVER_PERCPU_INC`] times that
//! increment, so a refusal that takes the lock again (two more RMWs on a
//! shared line) fails.

use std::hint::black_box;
use std::process::ExitCode;

use bench::{Limit, Site};
use syrup::apps::quickstart;
use syrup::telemetry::{Counter, PerCpu};
use syrup::trace::{reconstruct, Stage, TraceCtx, Tracer, TRACE_CAPACITY};

/// The disabled- and unsampled-site budget, in nanoseconds per call.
const GATE_NS: f64 = 5.0;

/// Largest allowed refused span over `counter/inc_percpu`. Ten runs on a
/// 2-vCPU guest read 0.98–1.41, and 1.43–1.65 while the refusal saved the
/// registers of the buffer's locked path; a refusal under the mutex read
/// 2.16–2.23.
const REFUSED_OVER_PERCPU_INC: f64 = 1.6;

fn main() -> ExitCode {
    let budget = Limit::MaxNs(GATE_NS);
    let off = Tracer::disabled();
    // Tracing on, but this particular input was not sampled — the common
    // case at any realistic sampling rate. Must cost the same single
    // branch as the disabled tracer.
    let unsampled = Tracer::sampled(u64::MAX);
    let off_ctx = off.ingress(0);
    assert!(!off_ctx.is_traced());
    let mut sites = Vec::new();
    for (side, tracer, ctx) in [
        ("disabled", &off, off_ctx),
        ("unsampled", &unsampled, TraceCtx::none()),
    ] {
        sites.push(Site::new(format!("{side}/span"), budget, move || {
            black_box(tracer).span(black_box(ctx), Stage::SockQueue, 10, 20)
        }));
        sites.push(Site::new(
            format!("{side}/policy_span"),
            budget,
            move || black_box(tracer).policy_span(black_box(ctx), Stage::XdpDrv, 10, 20, 3, 150),
        ));
    }
    sites.push(Site::new("disabled/ingress", budget, || {
        black_box(&off).ingress(black_box(7))
    }));
    sites.push(Site::new("disabled/instant", budget, || {
        black_box(&off).instant(black_box(off_ctx), Stage::GhostPreempt, 10, 2)
    }));
    sites.push(Site::new("disabled/finish", budget, || {
        black_box(&off).finish(black_box(off_ctx), black_box(30))
    }));

    // The paid path: sampled input, record pushed under a mutex. Drain
    // periodically so pushes stay on the non-drop path.
    let on = Tracer::new();
    let on_ctx = on.ingress(0);
    assert!(on_ctx.is_traced());
    let mut n = 0u32;
    sites.push(Site::new("enabled/span", Limit::Report, move || {
        black_box(&on).span(black_box(on_ctx), Stage::SockQueue, 10, 20);
        n += 1;
        if n & 0xFFF == 0 {
            on.drain();
        }
    }));

    // Spans into a full buffer, as on a long run nobody drains.
    let dropped = PerCpu::new(Counter::new);
    sites.push(Site::new("counter/inc_percpu", Limit::Report, move || {
        black_box(&dropped).local().inc()
    }));
    let full = Tracer::new();
    let full_ctx = full.ingress(0);
    while full.records_dropped() == 0 {
        full.span(full_ctx, Stage::SockQueue, 10, 20);
    }
    sites.push(Site::new(
        "full/span_refused",
        Limit::Ratio {
            of: "counter/inc_percpu",
            factor: REFUSED_OVER_PERCPU_INC,
        },
        move || black_box(&full).span(black_box(full_ctx), Stage::SockQueue, 10, 20),
    ));

    // The report side: a quickstart run long enough to fill the ring,
    // regrouped into per-request timelines.
    let full = quickstart::run(&Tracer::new(), TRACE_CAPACITY / 8).records;
    assert_eq!(full.len(), TRACE_CAPACITY, "the run fills the ring");
    sites.push(Site::new(
        "reconstruct_full_ring",
        Limit::Report,
        move || reconstruct(black_box(&full)).len(),
    ));
    bench::gate("trace", &mut sites)
}
