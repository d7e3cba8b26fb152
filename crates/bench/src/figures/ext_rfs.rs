//! Motivation experiment (§2.1): RFS-style flow locality vs hash steering.
//!
//! "A netperf TCP_RR test that uses RFS has been shown to achieve up to
//! 200% higher throughput than one without RFS" — the paper's argument
//! that no single policy (not even round robin) fits every workload. The
//! RFS-like policy is a two-line Map lookup deployed at the CPU-redirect
//! hook; the baseline hashes flows across cores and pays a cold-cache
//! application pass plus an inter-core handoff per request.

use crate::{emit, sweep, window, Sweep};
use syrup::apps::rfs_world::{self, RfsConfig, Steering};

/// Regenerates `ext_rfs_goodput.csv` and `ext_rfs_latency.csv`.
pub fn run(seeds: u64) -> Result<(), String> {
    let loads: Vec<f64> = (1..=16).map(|i| i as f64 * 100_000.0).collect();
    let [tput, lat] = sweep(
        [
            Sweep::new(
                "Motivation (2.1): netperf-style goodput, 4 cores",
                "Offered load (RPS)",
                "Goodput (RPS)",
            ),
            Sweep::new(
                "Motivation (2.1): request p99",
                "Offered load (RPS)",
                "99% Latency (us)",
            ),
        ],
        &[
            ("Hash steering", Steering::Hash),
            ("RFS (Syrup)", Steering::Rfs),
        ],
        &loads,
        seeds,
        |&steering, load, seed| {
            let mut cfg = RfsConfig::netperf(steering, load, seed);
            (cfg.warmup, cfg.measure) = window(30, 200);
            let r = rfs_world::run(&cfg);
            [r.throughput_rps, r.latency.p99().as_micros_f64()]
        },
    );
    emit("ext_rfs_goodput", &tput);
    emit("ext_rfs_latency", &lat);

    let peak = |series: usize| {
        let means = tput.series[series].means();
        means.iter().map(|&(_, y)| y).fold(0.0, f64::max)
    };
    let (hash_max, rfs_max) = (peak(0), peak(1));
    println!(
        "\n# Peak goodput: hash {hash_max:.0} vs RFS {rfs_max:.0} ({:+.0}% — the paper quotes 'up to 200%')",
        100.0 * (rfs_max - hash_max) / hash_max.max(1.0)
    );
    Ok(())
}
