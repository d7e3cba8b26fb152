//! Figure 7: token-based QoS vs round robin under a fixed 400K RPS load.
//!
//! Two users — latency-sensitive (LS) and best-effort (BE) — split a
//! total offered load slightly above saturation. The token policy issues
//! the LS user 350K tokens/s in 100µs epochs and gifts leftovers to BE:
//! (a) BE goodput tracks the spare capacity, and (b) LS 99% latency stays
//! flat until LS load reaches the token rate, where round robin lets the
//! overload inflate the LS tail ~6×.
//!
//! Both panels read the run's exported telemetry snapshot
//! (`tenant<id>/completed` counters and `tenant<id>/latency_ns`
//! histograms) rather than the simulator's internal recorders — the same
//! data path an operator would use against a live `syrupd`.
//!
//! `--trace-out <path>` additionally runs one token-based configuration
//! (LS = BE = 200K) with request tracing sampled at 1/512 and writes the
//! per-stage latency breakdown JSON there (relative paths land in
//! `results/`).

use crate::{emit, flag_value, sweep, window, write_breakdown, Sweep};
use syrup::apps::server_world::{self, ServerConfig, SocketPolicyKind};
use syrup::trace::Tracer;

const TOTAL: f64 = 400_000.0;
const TOKEN_BASED: SocketPolicyKind = SocketPolicyKind::TokenBased {
    rate_per_sec: 350_000,
};

/// Regenerates `fig7a_be_throughput.csv` and `fig7b_ls_latency.csv`.
pub fn run(seeds: u64) -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = flag_value(&args, "--trace-out");
    let ls_loads: Vec<f64> = (1..=7).map(|i| i as f64 * 50_000.0).collect();
    let [be_tput, ls_lat] = sweep(
        [
            Sweep::new(
                "Figure 7a: BE throughput (total offered = 400K RPS)",
                "LS Load (RPS)",
                "BE Throughput (RPS)",
            ),
            Sweep::new(
                "Figure 7b: LS 99% latency (total offered = 400K RPS)",
                "LS Load (RPS)",
                "LS 99% Latency (us)",
            ),
        ],
        &[
            ("Round Robin", SocketPolicyKind::RoundRobin),
            ("Token-based", TOKEN_BASED),
        ],
        &ls_loads,
        seeds,
        |&policy, ls, seed| {
            let mut cfg = ServerConfig::fig7(policy, ls, TOTAL - ls, seed);
            (cfg.warmup, cfg.measure) = window(50, 300);
            let snap = server_world::run(&cfg).telemetry;
            let be_completed = snap.counter("tenant1/completed");
            let ls_hist = snap
                .histogram("tenant0/latency_ns")
                .expect("LS tenant exports latency");
            [
                be_completed as f64 / cfg.measure.as_secs_f64(),
                ls_hist.p99() as f64 / 1e3,
            ]
        },
    );
    emit("fig7a_be_throughput", &be_tput);
    emit("fig7b_ls_latency", &ls_lat);

    // The paper's summary: RR gives BE slightly more throughput at the
    // cost of ~6x higher LS tail latency.
    let sweep_mean = |series: usize| {
        let means = ls_lat.series[series].means();
        means.iter().map(|&(_, y)| y).sum::<f64>() / means.len() as f64
    };
    let (rr_avg, tok_avg) = (sweep_mean(0), sweep_mean(1));
    println!(
        "\n# Mean LS p99 across the sweep: Round Robin {rr_avg:.0}us vs Token-based {tok_avg:.0}us ({:.1}x)",
        rr_avg / tok_avg.max(1.0)
    );

    if let Some(path) = trace_out {
        // One traced run: where in the stack do requests spend time under
        // the token policy at the balanced 200K/200K point?
        let mut cfg = ServerConfig::fig7(TOKEN_BASED, 200_000.0, 200_000.0, 1);
        (cfg.warmup, cfg.measure) = window(50, 300);
        cfg.tracer = Tracer::sampled(512);
        let _ = server_world::run(&cfg);
        write_breakdown(&path, &cfg.tracer.drain());
    }
    Ok(())
}
