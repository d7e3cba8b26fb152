//! Telemetry hot-path cost: counter increments and histogram records,
//! enabled vs disabled.
//!
//! The contract the instrumented substrates rely on: a disabled handle is
//! a single `Option` branch (sub-nanosecond), and an enabled increment is
//! one relaxed atomic RMW (single-digit nanoseconds uncontended) — cheap
//! enough to leave in `syrupd::schedule` and `Vm::run` unconditionally.
//! Every disabled site is gated at [`GATE_NS`] per call (see
//! [`bench::gate()`]: release builds only, exit nonzero over budget).

use std::hint::black_box;
use std::process::ExitCode;

use bench::{Limit, Site};
use syrup::telemetry::{DecisionEvent, Executor, Registry};

/// The disabled-site budget, in nanoseconds per call.
const GATE_NS: f64 = 5.0;

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
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(&hist).record(v >> 32);
        }));
        sites.push(Site::new(format!("trace/push_{side}"), limit, || {
            black_box(registry).trace(black_box(event))
        }));
    }
    bench::gate("telemetry", &sites)
}
