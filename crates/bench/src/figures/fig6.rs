//! Figure 6: RocksDB, 99.5% GET / 0.5% SCAN — four socket-select policies.
//!
//! The paper's headline result: head-of-line blocking behind 700µs SCANs
//! ruins the 99% latency of hash steering and even round robin; the
//! SCAN-Avoid policy (cross-layer, via a shared Map) keeps the tail under
//! 150µs to ~150K RPS, and SITA (peeking into packet contents) doubles
//! that again — 8× lower tail latency and >2× more sustained load than
//! the defaults.

use crate::{emit, knee_comparison, sweep, window, Sweep};
use syrup::apps::server_world::{self, ServerConfig, SocketPolicyKind};

/// Regenerates `fig6_latency.csv`.
pub fn run(seeds: u64) -> Result<(), String> {
    let loads: Vec<f64> = (1..=16).map(|i| i as f64 * 25_000.0).collect();
    let [sweep] = sweep(
        [Sweep::new(
            "Figure 6: RocksDB 99.5% GET / 0.5% SCAN, 6 cores",
            "Load (RPS)",
            "99% Latency (us)",
        )],
        &[
            ("Vanilla Linux", SocketPolicyKind::Vanilla),
            ("Round Robin", SocketPolicyKind::RoundRobin),
            ("SCAN Avoid", SocketPolicyKind::ScanAvoid),
            ("SITA", SocketPolicyKind::Sita),
        ],
        &loads,
        seeds,
        |&policy, load, seed| {
            let mut cfg = ServerConfig::fig6(policy, load, seed);
            (cfg.warmup, cfg.measure) = window(50, 300);
            [server_world::run(&cfg)
                .overall
                .latency
                .p99()
                .as_micros_f64()]
        },
    );
    emit("fig6_latency", &sweep);
    knee_comparison(&sweep, 150.0, "SCAN Avoid");
    knee_comparison(&sweep, 1000.0, "Vanilla Linux");
    Ok(())
}
