//! Telemetry hot-path cost: counter increments, histogram records and
//! stats-block writes, enabled vs disabled.
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
//! RMWs.

use std::hint::black_box;
use std::process::ExitCode;

use bench::{Limit, Site};
use syrup::telemetry::{Block, Field, HistogramSnapshot, Registry};

/// The disabled-site budget, in nanoseconds per call.
const GATE_NS: f64 = 5.0;

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

/// A pseudo-random stream of samples.
fn samples() -> impl FnMut() -> u64 {
    let mut v = 0u64;
    move || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        v >> 32
    }
}

fn main() -> ExitCode {
    let enabled = Registry::new();
    let disabled = Registry::disabled();
    let mut sites = Vec::new();
    for (side, registry, limit) in [
        ("enabled", &enabled, Limit::Report),
        ("disabled", &disabled, Limit::MaxNs(GATE_NS)),
    ] {
        let counter = registry.counter("bench/counter");
        let hist = registry.histogram("bench/hist");
        sites.push(Site::new(format!("counter/inc_{side}"), limit, move || {
            black_box(&counter).inc()
        }));
        let mut sample = samples();
        sites.push(Site::new(
            format!("histogram/record_{side}"),
            limit,
            move || black_box(&hist).record(sample()),
        ));
        let block = registry.block::<Run>("bench/block");
        let mut sample = samples();
        sites.push(Site::new(format!("block/write_{side}"), limit, move || {
            black_box(&block).write(|run| {
                let cycles = sample();
                run.runs += 1;
                run.cycles = run.cycles.wrapping_add(cycles);
                run.run_cycles.record(cycles);
                run.run_insns.record(cycles >> 4);
            })
        }));
    }
    bench::gate("telemetry", &mut sites)
}
