//! Profiler hot-path cost: the disabled-profiler contract, and what a
//! profiler costs a real dispatch.
//!
//! Every sample site the profiler adds to the stack — block and step
//! attribution in the VM loop, queue-depth sampling in the NIC/socket
//! layers, thread-state transitions in ghOSt — must collapse to a single
//! `Option` branch when no profiler is attached (the ≤5 ns contract that
//! lets `Vm::run_inner` keep the call unconditional). The enabled
//! variants are measured alongside so regressions in either direction
//! show up.
//!
//! Gated (see [`bench::gate()`]: release builds only, exit nonzero over
//! budget, skipped in `cargo test` smoke mode): every disabled site at
//! [`DISABLED_GATE_NS`] per call, one enabled 16-instruction run (open,
//! 16 samples, flush) at [`ENABLED_RUN_GATE_NS`] — the known cost when
//! on — and a profiled ROUND_ROBIN `Syrupd::schedule` at
//! [`PROFILED_OVER_UNPROFILED`] times an unprofiled one.

use std::hint::black_box;
use std::process::ExitCode;

use bench::{datagram, Limit, Site};
use syrup::core::{CompileOptions, Hook, HookMeta, PolicySource, Syrupd};
use syrup::net::RequestClass;
use syrup::policies::c_sources;
use syrup::profile::{Profiler, ThreadState};

/// The disabled-site budget, in nanoseconds per call.
const DISABLED_GATE_NS: f64 = 5.0;

/// The budget for one enabled 16-instruction run, in nanoseconds. The
/// dense-table sink measures 0.11–0.4 µs; the string-keyed maps it
/// replaced measured 3–5.6 µs.
const ENABLED_RUN_GATE_NS: f64 = 1_000.0;

/// Largest allowed `schedule_profiled` over `schedule_unprofiled`. A
/// profiled run on the default engine records one hit per basic block;
/// when it charged and recorded every instruction instead, ten runs on
/// the 2-vCPU guest read 1.66–1.89.
const PROFILED_OVER_UNPROFILED: f64 = 1.5;

/// The per-run shape: one `vm_enter`, a burst of `insn` calls, flush on
/// drop. Amortized per-insn cost is what the VM loop pays.
fn run_16_insns(profiler: &Profiler) {
    let mut span = black_box(profiler).vm_enter("bench", None, 25);
    for pc in 0..16usize {
        span.insn(black_box(pc), 1);
    }
}

/// A daemon running ROUND_ROBIN on the socket-select hook of port 8080,
/// with `profiler` attached.
fn round_robin(profiler: &Profiler) -> Syrupd {
    let daemon = Syrupd::new();
    daemon.attach_profiler(profiler);
    let (app, _) = daemon.register_app("bench", &[8080]).unwrap();
    let policy = PolicySource::C {
        source: c_sources::ROUND_ROBIN.to_string(),
        options: CompileOptions::new().define("NUM_THREADS", 6),
    };
    daemon.deploy(app, Hook::SocketSelect, policy).unwrap();
    daemon
}

fn main() -> ExitCode {
    let pkt = datagram(RequestClass::Get);
    let meta = HookMeta {
        dst_port: 8080,
        ..HookMeta::default()
    };
    let unprofiled = round_robin(&Profiler::disabled());
    let profiled = round_robin(&Profiler::new());
    let schedule = |daemon: &Syrupd| {
        let mut p = pkt.clone();
        daemon.schedule(Hook::SocketSelect, &mut p, &meta)
    };
    let on = Profiler::new();
    on.register_program("bench", vec!["mov r0, 0".into(); 32]);
    let off = Profiler::disabled();
    let depths = [3usize, 1, 4, 1];
    let mut idle = off.vm_enter("bench", None, 25);
    // Each enabled site's own clock.
    let (mut depth_now, mut state_now) = (0u64, 0u64);
    let disabled = Limit::MaxNs(DISABLED_GATE_NS);
    let mut sites = [
        Site::new("schedule_unprofiled", Limit::Report, || {
            schedule(&unprofiled)
        }),
        Site::new(
            "schedule_profiled",
            Limit::Ratio {
                of: "schedule_unprofiled",
                factor: PROFILED_OVER_UNPROFILED,
            },
            || schedule(&profiled),
        ),
        Site::new(
            "run_16_insns_enabled",
            Limit::MaxNs(ENABLED_RUN_GATE_NS),
            || run_16_insns(&on),
        ),
        Site::new("run_16_insns_disabled", Limit::Report, || {
            run_16_insns(&off)
        }),
        Site::new("vm_enter_drop_disabled", disabled, || {
            drop(black_box(&off).vm_enter("bench", None, 25))
        }),
        // The single-site cost in isolation: one insn() on a live span.
        Site::new("insn_disabled", disabled, || {
            idle.insn(black_box(3), black_box(1))
        }),
        Site::new("queue_depths_enabled", Limit::Report, || {
            depth_now += 1;
            black_box(&on).queue_depths("nic", depth_now, black_box(&depths));
        }),
        Site::new("queue_depths_disabled", disabled, || {
            black_box(&off).queue_depths("nic", 1, black_box(&depths))
        }),
        Site::new("thread_state_enabled", Limit::Report, || {
            state_now += 1;
            let state = if state_now.is_multiple_of(2) {
                ThreadState::Running
            } else {
                ThreadState::Runnable
            };
            black_box(&on).thread_state(1, state, state_now);
        }),
        Site::new("thread_state_disabled", disabled, || {
            black_box(&off).thread_state(1, ThreadState::Runnable, black_box(7))
        }),
        Site::new("sched_latency_disabled", disabled, || {
            black_box(&off).sched_latency(black_box(7))
        }),
    ];
    bench::gate("profile", &mut sites)
}
