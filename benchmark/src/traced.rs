//! The traced pass: every per-layer metric, never mixed into an
//! end-to-end number.
//!
//! (a) isolated layer timings (`layers.rs`); (b) the enabled tax of each
//! observability sink, one at a time, on the quickstart trip; (c) the
//! span-wrapped `trip-replay` (`replay.rs`); (d) `scale-2shard` with
//! per-window records for the barrier/mailbox protocol; (e) one lap of
//! each attributed workload, to set the isolated timings against what an
//! op really costs (`ledger.attributed_share.*`).

use std::time::Instant;

use syrup::scope::{ingest_windows, Scope};
use syrup::sim::ScaleEngine;

use crate::layers::{self, Effort, Metrics};
use crate::replay::{self, ReplayReport};
use crate::timing::best_of;
use crate::workloads::{self, run_trip, scale_cfg, Fingerprint, Sinks, ATTRIBUTED};

/// Requests per trip when timing one sink's tax.
const SINK_TAX_REQUESTS: usize = 12_000;
/// Requests the span-wrapped replay pushes through.
const REPLAY_REQUESTS: usize = 40_000;

/// What the traced pass produced.
pub struct TracedPass {
    /// Every per-layer metric, in measurement order.
    pub metrics: Metrics,
    /// Ops run under an output check.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The replay's spans and timings, for `trace.json`.
    pub replay: ReplayReport,
    /// Fingerprints of the attributed workloads' laps, by workload.
    pub fingerprints: Vec<(&'static str, Fingerprint)>,
}

/// Runs the whole traced pass at `1/div` size.
pub fn run(seed: u64, div: u64) -> Result<TracedPass, String> {
    let mut m = Metrics::default();
    let effort = Effort::new(div);
    let faults = layers::measure_all(effort, seed, &mut m);

    sink_taxes(div, &mut m);
    let replay = replay::measure(REPLAY_REQUESTS / div as usize, 3, &mut m)?;
    shard_protocol(seed, div, &mut m);

    let (mut attempted, mut failed) = (replay.requests as u64 * 3, replay.failed);
    let (mut traps, mut clamped) = (faults.traps, faults.wheel_clamped);
    let mut fingerprints = Vec::new();
    for name in ATTRIBUTED {
        // A small untimed lap first: code and allocator warm, as they are
        // for the timed laps of an end-to-end run.
        workloads::prepare(name, seed, div * 4)
            .expect("attributed workloads exist")
            .lap();
        let mut workload = workloads::prepare(name, seed, div).expect("attributed workloads exist");
        let started = Instant::now();
        let lap = workload.lap();
        let lap_ns = started.elapsed().as_nanos() as f64;

        let mut explained = 0.0;
        for (metric, calls) in &lap.calls {
            let ns = m
                .get(metric)
                .ok_or_else(|| format!("{name} attributes to unmeasured layer metric {metric}"))?;
            explained += ns * calls;
        }
        m.push(
            format!("ledger.attributed_share.{name}"),
            explained / lap_ns,
            "share",
        );

        let fp = &lap.fingerprint;
        let sum = |suffix: &str| -> u64 {
            fp.iter()
                .filter(|(k, _)| k.as_str() == suffix || k.ends_with(&format!(".{suffix}")))
                .map(|(_, v)| *v)
                .sum()
        };
        let per_kop = |count: u64, ops: u64| 1_000.0 * count as f64 / ops.max(1) as f64;
        match name {
            "srv-native" => m.push(
                "net.drops_per_kop",
                per_kop(sum("sock_drops"), sum("dispatches")),
                "count",
            ),
            "mt-ghost" => m.push(
                "ghost.preemptions_per_kop",
                per_kop(sum("preemptions"), lap.ops),
                "count",
            ),
            "trip-observed" => {
                let share = |lost: u64, kept: u64| lost as f64 / (lost + kept).max(1) as f64;
                m.push(
                    "trace.records_dropped_share",
                    share(sum("trace_dropped"), sum("trace_kept")),
                    "share",
                );
                m.push(
                    "blackbox.overwritten_share",
                    share(sum("blackbox_overwritten"), sum("blackbox_kept")),
                    "share",
                );
            }
            _ => {}
        }
        traps += sum("vm_traps");
        clamped += sum("wheel_clamped");
        attempted += lap.ops;
        failed += lap.failed;
        fingerprints.push((name, lap.fingerprint));
    }
    m.push("sim.wheel_clamped", clamped as f64, "count");
    m.push("ebpf.traps", traps as f64, "count");

    Ok(TracedPass {
        metrics: m,
        attempted,
        // Laps count their own traps and clamps; the layer pass adds its.
        failed: failed + faults.traps + faults.wheel_clamped,
        replay,
        fingerprints,
    })
}

/// `{sink}.tax_ns_per_op`: a trip with only that sink on, minus a trip
/// with none, interleaved.
fn sink_taxes(div: u64, m: &mut Metrics) {
    let requests = (SINK_TAX_REQUESTS / div as usize).max(100);
    let one = |sinks: Sinks| {
        move |n: u64| {
            for _ in 0..n {
                std::hint::black_box(run_trip(requests, sinks).trip.completed);
            }
        }
    };
    let none = Sinks::NONE;
    let best = best_of(
        1,
        3,
        &mut [
            &mut one(none),
            &mut one(Sinks {
                trace: true,
                ..none
            }),
            &mut one(Sinks {
                profile: true,
                ..none
            }),
            &mut one(Sinks {
                blackbox: true,
                ..none
            }),
            &mut one(Sinks {
                scope: true,
                ..none
            }),
        ],
    );
    for (sink, with) in ["trace", "profile", "blackbox", "scope"]
        .iter()
        .zip(&best[1..])
    {
        m.push(
            format!("{sink}.tax_ns_per_op"),
            (with - best[0]) / requests as f64,
            "ns",
        );
    }
}

/// The threaded window/barrier/mailbox protocol, from the per-window
/// records `scale-2shard` can keep.
fn shard_protocol(seed: u64, div: u64, m: &mut Metrics) {
    let mut cfg = scale_cfg(seed, div, 2);
    cfg.record_windows = true;
    cfg.sample_every = 64;
    let run = syrup::sim::scale::run(&cfg, ScaleEngine::Wheel);
    let summary = ingest_windows(&Scope::disabled(), &run.per_shard_windows);
    m.push("sim.barrier_stall_pct", summary.barrier_stall_pct, "%");
    m.push(
        "sim.mailbox_msgs_per_window",
        summary.mailbox_out as f64 / summary.windows.max(1) as f64,
        "msg/window",
    );
    m.push(
        "sim.shard_imbalance_max_mean",
        summary.peak_max_mean,
        "ratio",
    );
}
