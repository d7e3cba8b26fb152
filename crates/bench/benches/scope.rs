//! Time-series sampling hot-path cost: scope sites enabled vs disabled.
//!
//! The contract the instrumented paths rely on: a disabled [`Scope`]
//! makes `SeriesHandle::record` a single `Option` branch, and a disabled
//! [`Sampler`] makes `tick` one branch plus a timestamp compare — cheap
//! enough to leave compiled into per-window and per-request paths
//! unconditionally. The disabled sites, and an enabled sampler between
//! cadence boundaries, are gated at [`GATE_NS`] per call (see
//! [`bench::gate()`]: release builds only, exit nonzero over budget,
//! skipped in `cargo test` smoke mode).

use std::hint::black_box;
use std::process::ExitCode;

use bench::{Limit, Site};
use syrup::scope::{Sampler, Scope};
use syrup::telemetry::Registry;

/// The disabled-site budget, in nanoseconds per call.
const GATE_NS: f64 = 5.0;

/// A clock advancing one tick a read.
fn ticks() -> impl FnMut() -> u64 {
    let mut t = 0u64;
    move || {
        t = t.wrapping_add(1);
        t
    }
}

fn main() -> ExitCode {
    let on_series = Scope::new().series("bench/events");
    let off_series = Scope::disabled().series("bench/events");
    let registry = Registry::new();
    registry.counter("bench/ticks").add(1);
    let mut off_sampler = Sampler::disabled();
    let mut warm_sampler = Sampler::with_default_cadence(Scope::new(), "");
    warm_sampler.tick(1, &registry); // consume the always-due first tick
    let budget = Limit::MaxNs(GATE_NS);
    let (mut off_now, mut on_now, mut tick_now) = (ticks(), ticks(), ticks());
    let mut sites = [
        Site::new("series_record_disabled", budget, || {
            black_box(&off_series).record(off_now(), 42.0);
        }),
        Site::new("series_record_enabled", Limit::Report, || {
            black_box(&on_series).record(on_now(), 42.0);
        }),
        Site::new("sampler_tick_disabled", budget, || {
            off_sampler.tick(tick_now(), &registry)
        }),
        // Enabled sampler between cadence boundaries: the common case on
        // the hot path, still just the guard.
        Site::new("sampler_tick_not_due", budget, || {
            warm_sampler.tick(2, &registry)
        }),
    ];
    bench::gate("scope", &mut sites)
}
