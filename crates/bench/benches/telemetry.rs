//! Telemetry hot-path cost: counter increments, histogram records and
//! stats-block writes, enabled vs disabled, and the decision ring's
//! accepted and refused pushes.
//!
//! The contract the instrumented substrates rely on: a disabled handle is
//! a single `Option` branch (sub-nanosecond), an enabled increment is
//! one relaxed atomic RMW (single-digit nanoseconds uncontended), and an
//! enabled block write is one uncontended lock round trip around plain
//! adds, whatever the block holds — cheap enough to leave in
//! `syrupd::schedule` and `Vm::run` unconditionally. Every disabled site
//! is gated at [`GATE_NS`] per call (see [`bench::gate()`]: release
//! builds only, exit nonzero over budget).
//!
//! `block/write_*` writes one VM run's worth of the `vm/*` block: two
//! counters and two histograms, which as atomic instruments were ten
//! RMWs. A full ring refuses without its lock: one length load and an
//! increment of a per-CPU counter (`counter/inc_percpu`, the ring's own
//! drop count), gated at [`REFUSED_OVER_PERCPU_INC`] times that
//! increment, so a refusal that takes the lock again (two more RMWs on a
//! shared line) fails.

use std::hint::black_box;
use std::process::ExitCode;

use bench::{Limit, Site};
use syrup::telemetry::{
    Block, Counter, DecisionEvent, Executor, Field, HistogramSnapshot, PerCpu, Registry,
};

/// The disabled-site budget, in nanoseconds per call.
const GATE_NS: f64 = 5.0;

/// Largest allowed refused push over `counter/inc_percpu`. Twenty runs
/// on a 2-vCPU guest read 0.86–1.35; the same refusal under the ring's
/// mutex read 2.16–2.23.
const REFUSED_OVER_PERCPU_INC: f64 = 1.6;

/// One VM run's worth of the `vm/*` block.
#[derive(Default)]
struct Run {
    runs: u64,
    cycles: u64,
    run_cycles: HistogramSnapshot,
    run_insns: HistogramSnapshot,
}

impl Block for Run {
    fn names(prefix: &str) -> Vec<String> {
        ["runs", "cycles", "run_cycles", "run_insns"]
            .map(|field| format!("{prefix}/{field}"))
            .into()
    }

    fn fields(&self, visit: &mut dyn FnMut(Field<'_>)) {
        visit(Field::Counter(self.runs));
        visit(Field::Counter(self.cycles));
        visit(Field::Histogram(&self.run_cycles));
        visit(Field::Histogram(&self.run_insns));
    }
}

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
        let block = registry.block::<Run>("bench/block");
        sites.push(Site::new(format!("block/write_{side}"), limit, || {
            black_box(&block).write(|run| {
                let cycles = next_sample();
                run.runs += 1;
                run.cycles = run.cycles.wrapping_add(cycles);
                run.run_cycles.record(cycles);
                run.run_insns.record(cycles >> 4);
            })
        }));
    }

    let dropped = PerCpu::new(Counter::new);
    sites.push(Site::new("counter/inc_percpu", Limit::Report, || {
        black_box(&dropped).local().inc()
    }));
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
