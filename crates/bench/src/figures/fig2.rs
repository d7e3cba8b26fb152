//! Figure 2: RocksDB, 100% GET — Vanilla hash steering vs Round Robin.
//!
//! Reproduces both panels: (a) 99% latency vs load, (b) % dropped
//! requests vs load. The paper's observation: the 5-tuple hash over 50
//! flows and 6 sockets overloads one socket well before aggregate
//! capacity, producing drops and a noisy, exploding tail, while a
//! ~6-line Syrup round-robin policy sustains ~80% more load cleanly.

use crate::{emit, knee_comparison, sweep, window, Sweep};
use syrup::apps::server_world::{self, ServerConfig, SocketPolicyKind};

/// Regenerates `fig2a_latency.csv` and `fig2b_drops.csv`.
pub fn run(seeds: u64) -> Result<(), String> {
    let loads: Vec<f64> = (1..=10).map(|i| i as f64 * 50_000.0).collect();
    let [lat, drops] = sweep(
        [
            Sweep::new(
                "Figure 2a: RocksDB 100% GET, 6 threads",
                "Load (RPS)",
                "99% Latency (us)",
            ),
            Sweep::new(
                "Figure 2b: RocksDB 100% GET, 6 threads",
                "Load (RPS)",
                "% Dropped Requests",
            ),
        ],
        &[
            ("Vanilla Linux", SocketPolicyKind::Vanilla),
            ("Round Robin", SocketPolicyKind::RoundRobin),
        ],
        &loads,
        seeds,
        |&policy, load, seed| {
            let mut cfg = ServerConfig::fig2(policy, load, seed);
            (cfg.warmup, cfg.measure) = window(50, 300);
            let r = server_world::run(&cfg);
            [
                r.overall.latency.p99().as_micros_f64(),
                r.overall.drop_pct(),
            ]
        },
    );
    emit("fig2a_latency", &lat);
    emit("fig2b_drops", &drops);
    knee_comparison(&lat, 200.0, "Vanilla Linux");
    Ok(())
}
