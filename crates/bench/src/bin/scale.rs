//! `BENCH_scale.json`: the million-flow open/closed-loop scale sweep.
//!
//! Sweeps concurrent flow counts (default 10⁴ → 10⁶) over the two event
//! queue engines — the reference binary heap and the hierarchical timer
//! wheel — and appends one machine-readable record per (engine, flows)
//! point to `results/BENCH_scale.json` (same trajectory-file style as
//! `table2` → `BENCH_table2.json`). Each record carries events/sec,
//! sampled p50/p99 event-dispatch wall latency, resident memory, and the
//! simulated end-to-end latency tail, so successive runs chart the
//! engine's scaling curve over time.
//!
//! Before measuring, the harness self-checks determinism at the smallest
//! flow count: two same-seed runs must produce bit-identical fingerprints,
//! and the wheel engine must produce the same fingerprint at shard counts
//! {1, 2, 8}. A violation aborts the run — a benchmark of a
//! nondeterministic simulator is meaningless.
//!
//! Flags / environment:
//!
//! * `--flows 10000,1000000` — override the swept flow counts.
//! * `--seed N` — base RNG seed (default 1).
//! * `--shards N` — extra wheel run at N shards per flow count (0 = off).
//! * `SYRUP_SCALE` — multiplies the measured sim-time window, so CI can
//!   smoke-test with `SYRUP_SCALE=0.2` while the default setting runs the
//!   paper-fidelity sweep.

use syrup::scope::{ingest_windows, Scope};
use syrup::sim::scale::{ScaleCfg, ScaleEngine, ScaleResult};

/// Resident-set size of this process in MiB (0 when `/proc` is absent).
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

fn cfg_for(flows: u64, shards: usize, seed: u64) -> ScaleCfg {
    let mut cfg = ScaleCfg::new(flows, shards, seed);
    cfg.measure = bench::scaled(cfg.measure);
    // Per-window samples feed the shard-level record fields (barrier
    // wait, imbalance); simulation results are identical either way.
    cfg.record_windows = true;
    cfg
}

fn record(point: &ScaleResult, cfg: &ScaleCfg, engine: ScaleEngine) {
    let eps = point.events_per_sec();
    let wall_ms = point.wall.as_secs_f64() * 1e3;
    let p99_us = point.stats.latency.p99().as_secs_f64() * 1e6;
    // Shard-level window summaries (aggregates only — a disabled Scope
    // skips series storage). Single-shard runs report no imbalance.
    let windows = ingest_windows(&Scope::disabled(), &point.per_shard_windows);
    let barrier_json = windows
        .barrier_wait_ns_per_shard
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{:>6} engine={:<5} shards={} flows={:>8}  events={:>10}  {:>11.0} ev/s  \
         wall={:>8.1}ms  dispatch p50={}ns p99={}ns  sim p99={:.1}µs  rss={:.0}MiB  \
         stall={:.1}%  imbalance={:.2}",
        "",
        engine.name(),
        cfg.shards,
        cfg.flows,
        point.events,
        eps,
        wall_ms,
        point.dispatch_p50_ns(),
        point.dispatch_p99_ns(),
        p99_us,
        rss_mb(),
        windows.barrier_stall_pct,
        windows.peak_max_mean,
    );
    bench::append_bench_record(
        "BENCH_scale.json",
        &format!(
            "{{\"bench\":\"scale\",\"unix_ts\":{},\"engine\":\"{}\",\"shards\":{},\
             \"flows\":{},\"seed\":{},\"events\":{},\"events_per_sec\":{eps:.0},\
             \"wall_ms\":{wall_ms:.2},\"p50_dispatch_ns\":{},\"p99_dispatch_ns\":{},\
             \"rss_mb\":{:.1},\"offered\":{},\"completed\":{},\"p99_latency_us\":{p99_us:.2},\
             \"windows\":{},\"barrier_wait_ns_per_shard\":[{barrier_json}],\
             \"barrier_stall_pct\":{:.3},\"imbalance_max_mean\":{:.4},\
             \"imbalance_gini\":{:.6}}}",
            bench::unix_ts(),
            engine.name(),
            cfg.shards,
            cfg.flows,
            cfg.seed,
            point.events,
            point.dispatch_p50_ns(),
            point.dispatch_p99_ns(),
            rss_mb(),
            point.stats.offered,
            point.stats.completed,
            windows.windows,
            windows.barrier_stall_pct,
            windows.peak_max_mean,
            windows.mean_gini,
        ),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = bench::num_flag(&args, "--seed", 1);
    let extra_shards: usize = bench::num_flag(&args, "--shards", 0);
    let flows: Vec<u64> = bench::flag_value(&args, "--flows")
        .map(|s| {
            s.split(',')
                .map(|f| bench::parse_num("--flows", f.trim()))
                .collect()
        })
        .unwrap_or_else(|| vec![10_000, 100_000, 1_000_000]);
    // `scale::run` asserts its preconditions; a flag has to fail here
    // instead, before anything runs. Flow ids are `u32`.
    if flows.iter().any(|&f| f == 0 || f > u64::from(u32::MAX)) {
        bench::usage_error(&format!("--flows must be between 1 and {}", u32::MAX));
    }

    // Determinism gate at the smallest swept flow count (capped — the
    // gate checks the engine's merge protocol, which is flow-count
    // independent; re-running a million-flow simulation five times to
    // prove it would only slow the sweep down).
    let check_flows = (*flows.iter().min().expect("at least one flow count")).min(50_000);
    let base = syrup::sim::scale::run(&cfg_for(check_flows, 1, seed), ScaleEngine::Wheel);
    let again = syrup::sim::scale::run(&cfg_for(check_flows, 1, seed), ScaleEngine::Wheel);
    assert_eq!(
        base.fingerprint(),
        again.fingerprint(),
        "same-seed wheel runs diverged at {check_flows} flows"
    );
    for shards in [2usize, 8] {
        let sharded =
            syrup::sim::scale::run(&cfg_for(check_flows, shards, seed), ScaleEngine::Wheel);
        assert_eq!(
            base.fingerprint(),
            sharded.fingerprint(),
            "wheel results changed between 1 and {shards} shards at {check_flows} flows"
        );
    }
    println!("determinism: ok at {check_flows} flows (same-seed replay + shards {{1,2,8}} agree)");

    println!(
        "scale sweep  seed={seed}  scale={:.2}  flows={flows:?}",
        bench::scale()
    );
    for &f in &flows {
        let heap_cfg = cfg_for(f, 1, seed);
        let heap = syrup::sim::scale::run(&heap_cfg, ScaleEngine::Heap);
        record(&heap, &heap_cfg, ScaleEngine::Heap);

        let wheel_cfg = cfg_for(f, 1, seed);
        let wheel = syrup::sim::scale::run(&wheel_cfg, ScaleEngine::Wheel);
        record(&wheel, &wheel_cfg, ScaleEngine::Wheel);
        assert_eq!(
            heap.fingerprint(),
            wheel.fingerprint(),
            "heap and wheel engines disagree at {f} flows"
        );
        println!(
            "{:>6} wheel speedup over heap at {f} flows: {:.2}x",
            "",
            wheel.events_per_sec() / heap.events_per_sec()
        );

        if extra_shards > 1 {
            let cfg = cfg_for(f, extra_shards, seed);
            let sharded = syrup::sim::scale::run(&cfg, ScaleEngine::Wheel);
            record(&sharded, &cfg, ScaleEngine::Wheel);
            assert_eq!(
                wheel.fingerprint(),
                sharded.fingerprint(),
                "wheel results changed between 1 and {extra_shards} shards at {f} flows"
            );
        }
    }
    println!(
        "appended to {}",
        bench::results_dir().join("BENCH_scale.json").display()
    );
}
