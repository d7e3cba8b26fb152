//! Figure 8: cross-layer scheduling — 50% GET / 50% SCAN, 36 threads on
//! 6 cores.
//!
//! Three configurations: SCAN-Avoid at the socket layer only (CFS
//! underneath), the ghOSt GET-priority thread policy only (hash sockets),
//! and both together. Single-layer scheduling fails in two different
//! ways (socket-layer can't preempt CFS-scheduled SCAN threads; thread
//! layer can't stop GETs queueing behind SCANs in a socket); the combined
//! deployment sustains ~60% more load under a 500µs GET-tail budget.

use crate::{emit, knee_comparison, sweep, window, Sweep};
use syrup::apps::mt_world::{self, MtConfig, SchedKind};
use syrup::apps::server_world::SocketPolicyKind;

/// Regenerates `fig8a_get_latency.csv` and `fig8b_scan_latency.csv`.
pub fn run(seeds: u64) -> Result<(), String> {
    let loads: Vec<f64> = (1..=14).map(|i| i as f64 * 1_000.0).collect();
    let [get_sweep, scan_sweep] = sweep(
        [
            Sweep::new(
                "Figure 8a: GET 99% latency (50% GET / 50% SCAN, 36 threads, 6 cores)",
                "Load (RPS)",
                "GET 99% Latency (us)",
            ),
            Sweep::new(
                "Figure 8b: SCAN 99% latency (same workload)",
                "Load (RPS)",
                "SCAN 99% Latency (us)",
            ),
        ],
        &[
            ("SCAN Avoid", (SocketPolicyKind::ScanAvoid, SchedKind::Cfs)),
            (
                "Thread Scheduling",
                (SocketPolicyKind::Vanilla, SchedKind::Ghost),
            ),
            (
                "SCAN Avoid + Thread Scheduling",
                (SocketPolicyKind::ScanAvoid, SchedKind::Ghost),
            ),
        ],
        &loads,
        seeds,
        |&(socket_policy, sched), load, seed| {
            let mut cfg = MtConfig::fig8(socket_policy, sched, load, seed);
            (cfg.warmup, cfg.measure) = window(100, 800);
            let r = mt_world::run(&cfg);
            [r.get.p99().as_micros_f64(), r.scan.p99().as_micros_f64()]
        },
    );
    emit("fig8a_get_latency", &get_sweep);
    emit("fig8b_scan_latency", &scan_sweep);
    knee_comparison(&get_sweep, 500.0, "SCAN Avoid");
    Ok(())
}
