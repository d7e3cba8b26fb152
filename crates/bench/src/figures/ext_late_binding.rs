//! Extension experiment (§6.3): early vs late binding.
//!
//! Sweeps the Figure 6 workload over load and compares the 99% latency
//! of the best early-binding policy (round robin) against late binding
//! (central staging, bind at `recvmsg`). Late binding eliminates the
//! "short request committed to a busy executor" head-of-line blocking
//! that §6.3 identifies as early binding's cost.

use crate::{emit, knee_comparison, sweep, window, Sweep};
use syrup::apps::late_world::{self, Binding, LateConfig};

/// Regenerates `ext_late_binding.csv`.
pub fn run(seeds: u64) -> Result<(), String> {
    let loads: Vec<f64> = (1..=16).map(|i| i as f64 * 25_000.0).collect();
    let [sweep] = sweep(
        [Sweep::new(
            "Extension (6.3): early vs late binding, 99.5% GET / 0.5% SCAN",
            "Load (RPS)",
            "99% Latency (us)",
        )],
        &[
            ("Early binding (Round Robin)", Binding::Early),
            ("Late binding (central FCFS)", Binding::Late),
        ],
        &loads,
        seeds,
        |&binding, load, seed| {
            let mut cfg = LateConfig::fig6_style(binding, load, seed);
            (cfg.warmup, cfg.measure) = window(50, 300);
            [late_world::run(&cfg).latency.p99().as_micros_f64()]
        },
    );
    emit("ext_late_binding", &sweep);
    knee_comparison(&sweep, 150.0, "Early binding (Round Robin)");
    Ok(())
}
