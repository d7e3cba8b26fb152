//! Telemetry hot-path cost: counter increments and histogram records,
//! enabled vs disabled, single-stripe vs per-CPU, and the decision
//! ring's accepted and refused pushes.
//!
//! The contract the instrumented substrates rely on: a disabled handle is
//! a single `Option` branch (sub-nanosecond), and an enabled increment is
//! one relaxed atomic RMW (single-digit nanoseconds uncontended) — cheap
//! enough to leave in `syrupd::schedule` and `Vm::run` unconditionally.
//! Every disabled site is gated at [`GATE_NS`] per call (see
//! [`bench::gate()`]: release builds only, exit nonzero over budget).
//!
//! A per-CPU instrument finds its stripe through the thread's home index
//! before the same RMWs, and is gated at [`PERCPU_OVER_SINGLE`] times its
//! single-stripe twin. A full ring refuses without its lock: one length
//! load and a per-CPU increment, gated at [`REFUSED_OVER_PERCPU_INC`]
//! times `counter/inc_percpu`, so a refusal that takes the lock again
//! (two more RMWs on a shared line) fails.

use std::hint::black_box;
use std::process::ExitCode;

use bench::{Limit, Site};
use syrup::telemetry::{DecisionEvent, Executor, Registry};

/// The disabled-site budget, in nanoseconds per call.
const GATE_NS: f64 = 5.0;

/// Largest allowed per-CPU site over its single-stripe twin. Twenty runs
/// on a 2-vCPU guest read 0.84–1.35 for counters and 0.87–1.14 for
/// histograms.
const PERCPU_OVER_SINGLE: f64 = 2.0;

/// Largest allowed refused push over `counter/inc_percpu`. Twenty runs
/// on a 2-vCPU guest read 0.86–1.35; the same refusal under the ring's
/// mutex read 2.16–2.23.
const REFUSED_OVER_PERCPU_INC: f64 = 1.6;

fn main() -> ExitCode {
    // Ring kept large enough that pushes stay on the non-drop path.
    let enabled = Registry::with_ring_capacity(1 << 20);
    let disabled = Registry::disabled();
    let event = DecisionEvent {
        sim_time_ns: 1,
        hook: "socket-select",
        app: 1,
        verdict: 3,
        executor: Executor::Ebpf,
        cycles: 1500,
    };
    let mut v = 0u64;
    let mut next_sample = move || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        v >> 32
    };
    let mut sites = Vec::new();
    for (side, registry, limit) in [
        ("enabled", &enabled, Limit::Report),
        ("disabled", &disabled, Limit::MaxNs(GATE_NS)),
    ] {
        let counter = registry.counter("bench/counter");
        let hist = registry.histogram("bench/hist");
        sites.push(Site::new(format!("counter/inc_{side}"), limit, || {
            black_box(&counter).inc()
        }));
        sites.push(Site::new(format!("histogram/record_{side}"), limit, || {
            black_box(&hist).record(next_sample())
        }));
        sites.push(Site::new(format!("trace/push_{side}"), limit, || {
            black_box(registry).trace(black_box(event))
        }));
    }

    let counter = enabled.percpu_counter("bench/counter_percpu");
    let hist = enabled.percpu_histogram("bench/hist_percpu");
    let percpu = |of| Limit::Ratio {
        of,
        factor: PERCPU_OVER_SINGLE,
    };
    sites.push(Site::new(
        "counter/inc_percpu",
        percpu("counter/inc_enabled"),
        || black_box(&counter).inc(),
    ));
    sites.push(Site::new(
        "histogram/record_percpu",
        percpu("histogram/record_enabled"),
        || black_box(&hist).record(next_sample()),
    ));

    let full = Registry::with_ring_capacity(1);
    assert!(full.trace(event), "an empty ring takes one event");
    sites.push(Site::new(
        "trace/push_refused",
        Limit::Ratio {
            of: "counter/inc_percpu",
            factor: REFUSED_OVER_PERCPU_INC,
        },
        || black_box(&full).trace(black_box(event)),
    ));
    bench::gate("telemetry", &sites)
}
