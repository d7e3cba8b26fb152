//! Flight-recorder hot-path cost: record sites enabled vs disabled.
//!
//! The contract every instrumented substrate relies on: a disabled
//! [`Recorder`] handle makes each record site a single `Option` branch,
//! cheap enough to leave compiled into `syrupd::schedule`, `Vm::run`,
//! and the queue paths unconditionally. This target reports both sides
//! criterion-style, then *gates* on the disabled sites: best-of-N
//! `Instant` timing must come in at or under [`GATE_NS`] per call, and
//! the process exits nonzero otherwise so CI catches a disabled path
//! that silently grew work.
//!
//! The gate only bites in release builds (a debug binary measures the
//! compiler, not the branch) and is skipped entirely in `cargo test`
//! smoke mode (`--test`).

use criterion::{black_box, Criterion};
use syrup::blackbox::{Layer, Recorder};

/// The disabled-site budget, in nanoseconds per call.
const GATE_NS: f64 = 5.0;

fn bench_sites(c: &mut Criterion) {
    let on = Recorder::new();
    let off = Recorder::disabled();
    let mut g = c.benchmark_group("blackbox");
    let mut t = 0u64;
    g.bench_function("dispatch_disabled", |b| {
        b.iter(|| {
            t = t.wrapping_add(1);
            black_box(&off).dispatch(t, 1, 4, (9 << 32) | 1, 325);
        })
    });
    g.bench_function("dispatch_enabled", |b| {
        b.iter(|| {
            t = t.wrapping_add(1);
            black_box(&on).dispatch(t, 1, 4, (9 << 32) | 1, 325);
        })
    });
    g.bench_function("enqueue_drop_disabled", |b| {
        b.iter(|| black_box(&off).enqueue_drop(Layer::Nic, 1, 9, 64))
    });
    g.bench_function("enqueue_drop_enabled", |b| {
        b.iter(|| black_box(&on).enqueue_drop(Layer::Nic, 1, 9, 64))
    });
    g.bench_function("band_shift_disabled", |b| {
        b.iter(|| black_box(&off).band_shift(1, 0, 3, true))
    });
    g.bench_function("band_shift_enabled", |b| {
        b.iter(|| black_box(&on).band_shift(1, 0, 3, true))
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

    let off = Recorder::disabled();
    let mut t = 0u64;
    let rows: [(&str, f64); 3] = [
        (
            "dispatch",
            bench::best_of(8, 4_000_000, || {
                t = t.wrapping_add(1);
                black_box(&off).dispatch(t, 1, 4, (9 << 32) | 1, 325);
            }),
        ),
        (
            "enqueue_drop",
            bench::best_of(8, 4_000_000, || {
                black_box(&off).enqueue_drop(Layer::Nic, 1, 9, 64);
            }),
        ),
        (
            "band_shift",
            bench::best_of(8, 4_000_000, || {
                black_box(&off).band_shift(1, 0, 3, true);
            }),
        ),
    ];
    let mut worst = 0.0f64;
    println!("\ndisabled-site gate (budget {GATE_NS} ns per call):");
    for (name, ns) in rows {
        println!("  {name:<14} {ns:>6.2} ns");
        worst = worst.max(ns);
    }
    if cfg!(debug_assertions) {
        println!("debug build — reporting only, not gating");
        return;
    }
    if worst > GATE_NS {
        eprintln!("blackbox: disabled record sites cost {worst:.2} ns, budget is {GATE_NS} ns");
        std::process::exit(1);
    }
    println!("disabled-site gate OK: worst {worst:.2} ns");
}
