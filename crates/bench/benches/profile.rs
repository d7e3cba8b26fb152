//! Profiler hot-path cost: the disabled-profiler contract.
//!
//! Every sample site the profiler adds to the stack — per-instruction
//! attribution in the VM loop, queue-depth sampling in the NIC/socket
//! layers, thread-state transitions in ghOSt — must collapse to a single
//! `Option` branch when no profiler is attached (the ≤5 ns contract that
//! lets `Vm::run_inner` keep the call unconditional). The enabled
//! variants are measured alongside so regressions in either direction
//! show up.
//!
//! After the criterion-style report the target *gates*, best-of-N
//! `Instant` timing as in `benches/blackbox.rs`: every disabled site at
//! or under [`DISABLED_GATE_NS`] per call, and one enabled 16-instruction
//! run (open, 16 samples, flush) at or under [`ENABLED_RUN_GATE_NS`] —
//! the known cost when on. Over either budget the process exits nonzero.
//! The gates only bite in release builds and are skipped in `cargo test`
//! smoke mode (`--test`).

use criterion::{black_box, Criterion};
use syrup::profile::{Profiler, ThreadState};

/// The disabled-site budget, in nanoseconds per call.
const DISABLED_GATE_NS: f64 = 5.0;

/// The budget for one enabled 16-instruction run, in nanoseconds. The
/// dense-table sink measures 0.11–0.4 µs; the string-keyed maps it
/// replaced measured 3–5.6 µs.
const ENABLED_RUN_GATE_NS: f64 = 1_000.0;

/// The per-run shape: one `vm_enter`, a burst of `insn` calls, flush on
/// drop.
fn run_16_insns(profiler: &Profiler) {
    let mut span = black_box(profiler).vm_enter("bench", 25);
    for pc in 0..16usize {
        span.insn(black_box(pc), 1);
    }
}

fn bench_vm_attribution(c: &mut Criterion) {
    let on = Profiler::new();
    on.register_program("bench", vec!["mov r0, 0".into(); 32]);
    let off = Profiler::disabled();

    let mut g = c.benchmark_group("profile_vm");
    // Amortized per-insn cost is what the VM loop pays.
    g.bench_function("run_16_insns_enabled", |b| b.iter(|| run_16_insns(&on)));
    g.bench_function("run_16_insns_disabled", |b| b.iter(|| run_16_insns(&off)));
    // The single-site cost in isolation: one insn() on a live span.
    g.bench_function("insn_disabled", |b| {
        let mut span = off.vm_enter("bench", 25);
        b.iter(|| span.insn(black_box(3), black_box(1)));
    });
    g.finish();
}

fn bench_queue_and_thread_samples(c: &mut Criterion) {
    let on = Profiler::new();
    let off = Profiler::disabled();
    let depths = [3usize, 1, 4, 1];

    let mut g = c.benchmark_group("profile_pressure");
    g.bench_function("queue_depths_enabled", |b| {
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            black_box(&on).queue_depths("nic", now, black_box(&depths));
        })
    });
    g.bench_function("queue_depths_disabled", |b| {
        b.iter(|| black_box(&off).queue_depths("nic", 1, black_box(&depths)))
    });
    g.bench_function("thread_state_enabled", |b| {
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            let state = if now.is_multiple_of(2) {
                ThreadState::Running
            } else {
                ThreadState::Runnable
            };
            black_box(&on).thread_state(1, state, now);
        })
    });
    g.bench_function("thread_state_disabled", |b| {
        b.iter(|| black_box(&off).thread_state(1, ThreadState::Runnable, black_box(7)))
    });
    g.finish();
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let mut criterion = Criterion::default();
    bench_vm_attribution(&mut criterion);
    bench_queue_and_thread_samples(&mut criterion);
    if smoke {
        println!("smoke mode — skipping the profiler cost gates");
        return;
    }

    let on = Profiler::new();
    let off = Profiler::disabled();
    let depths = [3usize, 1, 4, 1];
    let mut idle = off.vm_enter("bench", 25);
    let disabled: [(&str, f64); 5] = [
        (
            "vm_enter + drop",
            bench::best_of(8, 4_000_000, || drop(black_box(&off).vm_enter("bench", 25))),
        ),
        (
            "insn",
            bench::best_of(8, 4_000_000, || idle.insn(black_box(3), black_box(1))),
        ),
        (
            "queue_depths",
            bench::best_of(8, 4_000_000, || {
                black_box(&off).queue_depths("nic", 1, black_box(&depths));
            }),
        ),
        (
            "thread_state",
            bench::best_of(8, 4_000_000, || {
                black_box(&off).thread_state(1, ThreadState::Runnable, black_box(7));
            }),
        ),
        (
            "sched_latency",
            bench::best_of(8, 4_000_000, || black_box(&off).sched_latency(black_box(7))),
        ),
    ];
    let enabled_run = bench::best_of(8, 200_000, || run_16_insns(&on));

    let mut worst = 0.0f64;
    println!("\ndisabled-site gate (budget {DISABLED_GATE_NS} ns per call):");
    for (name, ns) in disabled {
        println!("  {name:<18} {ns:>6.2} ns");
        worst = worst.max(ns);
    }
    println!("enabled-run gate (budget {ENABLED_RUN_GATE_NS} ns per 16-insn run):");
    println!("  {:<18} {enabled_run:>6.1} ns", "run_16_insns");
    if cfg!(debug_assertions) {
        println!("debug build — reporting only, not gating");
        return;
    }
    if worst > DISABLED_GATE_NS {
        eprintln!(
            "profile: disabled sample sites cost {worst:.2} ns, budget is {DISABLED_GATE_NS} ns"
        );
        std::process::exit(1);
    }
    if enabled_run > ENABLED_RUN_GATE_NS {
        eprintln!(
            "profile: an enabled 16-insn run costs {enabled_run:.0} ns, budget is {ENABLED_RUN_GATE_NS} ns"
        );
        std::process::exit(1);
    }
    println!(
        "profiler cost gates OK: disabled worst {worst:.2} ns, enabled run {enabled_run:.0} ns"
    );
}
