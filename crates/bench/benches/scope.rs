//! Time-series sampling hot-path cost: scope sites enabled vs disabled.
//!
//! The contract the instrumented paths rely on: a disabled [`Scope`]
//! makes `SeriesHandle::record` a single `Option` branch, and a disabled
//! [`Sampler`] makes `tick` one branch plus a timestamp compare — cheap
//! enough to leave compiled into per-window and per-request paths
//! unconditionally. This target reports both sides criterion-style, then
//! *gates* on the disabled sites: best-of-N `Instant` timing must come
//! in at or under [`GATE_NS`] per call, and the process exits nonzero
//! otherwise so CI catches a disabled path that silently grew work.
//!
//! The gate only bites in release builds (a debug binary measures the
//! compiler, not the branch) and is skipped entirely in `cargo test`
//! smoke mode (`--test`).

use criterion::{black_box, Criterion};
use syrup::scope::{Sampler, Scope};
use syrup::telemetry::Registry;

/// The disabled-site budget, in nanoseconds per call.
const GATE_NS: f64 = 5.0;

fn bench_sites(c: &mut Criterion) {
    let on = Scope::new();
    let on_series = on.series("bench/events");
    let off_series = Scope::disabled().series("bench/events");
    let registry = Registry::new();
    registry.counter("bench/ticks").add(1);
    let mut on_sampler = Sampler::with_default_cadence(Scope::new(), "");
    let mut off_sampler = Sampler::disabled();
    let mut g = c.benchmark_group("scope");
    let mut t = 0u64;
    g.bench_function("series_record_disabled", |b| {
        b.iter(|| {
            t = t.wrapping_add(1);
            black_box(&off_series).record(t, 42.0);
        })
    });
    g.bench_function("series_record_enabled", |b| {
        b.iter(|| {
            t = t.wrapping_add(1);
            black_box(&on_series).record(t, 42.0);
        })
    });
    g.bench_function("sampler_tick_disabled", |b| {
        b.iter(|| {
            t = t.wrapping_add(1);
            black_box(off_sampler.tick(t, &registry));
        })
    });
    g.bench_function("sampler_tick_not_due", |b| {
        // Enabled sampler between cadence boundaries: the common case on
        // the hot path, still just the guard (t stays below next_due
        // after the first tick consumes it).
        b.iter(|| {
            black_box(on_sampler.tick(1, &registry));
        })
    });
    g.finish();
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let mut criterion = Criterion::default();
    bench_sites(&mut criterion);
    if smoke {
        println!("smoke mode — skipping the disabled-site gate");
        return;
    }

    let off_series = Scope::disabled().series("bench/events");
    let registry = Registry::new();
    registry.counter("bench/ticks").add(1);
    let mut off_sampler = Sampler::disabled();
    let mut warm_sampler = Sampler::with_default_cadence(Scope::new(), "");
    warm_sampler.tick(1, &registry); // consume the always-due first tick
    let mut t = 0u64;
    let rows: [(&str, f64); 3] = [
        (
            "series_record",
            bench::best_of(8, 4_000_000, || {
                t = t.wrapping_add(1);
                black_box(&off_series).record(t, 42.0);
            }),
        ),
        (
            "sampler_tick_disabled",
            bench::best_of(8, 4_000_000, || {
                t = t.wrapping_add(1);
                black_box(off_sampler.tick(t, &registry));
            }),
        ),
        (
            "sampler_tick_not_due",
            bench::best_of(8, 4_000_000, || {
                black_box(warm_sampler.tick(2, &registry));
            }),
        ),
    ];
    let mut worst = 0.0f64;
    println!("\ndisabled-site gate (budget {GATE_NS} ns per call):");
    for (name, ns) in rows {
        println!("  {name:<22} {ns:>6.2} ns");
        worst = worst.max(ns);
    }
    if cfg!(debug_assertions) {
        println!("debug build — reporting only, not gating");
        return;
    }
    if worst > GATE_NS {
        eprintln!("scope: disabled sampling sites cost {worst:.2} ns, budget is {GATE_NS} ns");
        std::process::exit(1);
    }
    println!("disabled-site gate OK: worst {worst:.2} ns");
}
