//! Ablation: socket receive-buffer capacity under hash steering.
//!
//! Figure 2's failure mode involves two coupled symptoms — drops (full
//! buffers) and tail latency (deep buffers). This ablation sweeps the
//! buffer capacity at a fixed overloaded-for-the-hottest-socket load and
//! shows the trade the kernel's `rmem` sizing makes: small buffers drop
//! more but bound queueing delay; big buffers turn drops into
//! multi-millisecond tails. Round robin needs neither because it never
//! overloads a single socket — the policy fixes what tuning cannot.

use crate::{emit, sweep, window, Sweep};
use syrup::apps::server_world::{self, ServerConfig, SocketPolicyKind};

/// Regenerates `ablate_sockbuf_latency.csv` and
/// `ablate_sockbuf_drops.csv`.
pub fn run(seeds: u64) -> Result<(), String> {
    let capacities = [16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0];
    let load = 350_000.0;
    let [lat, drops] = sweep(
        [
            Sweep::new(
                format!("Ablation: socket buffer capacity at {load:.0} RPS (100% GET)"),
                "Buffer capacity (datagrams)",
                "99% Latency (us)",
            ),
            Sweep::new(
                "Ablation: drop rate vs buffer capacity",
                "Buffer capacity (datagrams)",
                "% Dropped Requests",
            ),
        ],
        &[
            ("Vanilla Linux", SocketPolicyKind::Vanilla),
            ("Round Robin", SocketPolicyKind::RoundRobin),
        ],
        &capacities,
        seeds,
        |&policy, capacity, seed| {
            let mut cfg = ServerConfig::fig2(policy, load, seed);
            cfg.socket_capacity = capacity as usize;
            (cfg.warmup, cfg.measure) = window(50, 250);
            let r = server_world::run(&cfg);
            [
                r.overall.latency.p99().as_micros_f64(),
                r.overall.drop_pct(),
            ]
        },
    );
    emit("ablate_sockbuf_latency", &lat);
    emit("ablate_sockbuf_drops", &drops);
    println!(
        "\n# Buffer sizing trades drops for tail latency under hash steering;\n\
         # the round-robin policy renders the knob irrelevant."
    );
    Ok(())
}
