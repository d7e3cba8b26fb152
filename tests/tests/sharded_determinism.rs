//! Sharded replay determinism across the real scenarios.
//!
//! The `ShardedQueue` facade promises that shard count is a *layout*
//! choice, not a *semantic* one: the merge pops events in global
//! `(time, seq)` order no matter how pushes were routed, so any world
//! driven through it must produce byte-identical results at 1, 2, or 8
//! shards. These tests pin that promise on the two end-to-end worlds —
//! the quickstart pipeline and the Figure 8 multithreading world — and
//! on the million-flow scale world, each across several seeds.

use syrup::apps::mt_world::{self, MtConfig, SchedKind};
use syrup::apps::quickstart;
use syrup::apps::server_world::SocketPolicyKind;
use syrup::sim::{Duration, ScaleCfg, ScaleEngine};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// A fast Figure 8 configuration: same shape as the paper setup, short
/// enough to run nine times (3 shard counts x 3 seeds) in a debug test.
fn mt_cfg(seed: u64, shards: usize) -> MtConfig {
    let mut cfg = MtConfig::fig8(SocketPolicyKind::ScanAvoid, SchedKind::Ghost, 5_000.0, seed);
    cfg.warmup = Duration::from_millis(20);
    cfg.measure = Duration::from_millis(120);
    cfg.shards = shards;
    cfg
}

#[test]
fn mt_world_is_shard_count_invariant_across_seeds() {
    for seed in [3u64, 17, 251] {
        let base = mt_world::run(&mt_cfg(seed, 1));
        for shards in &SHARD_COUNTS[1..] {
            let r = mt_world::run(&mt_cfg(seed, *shards));
            assert_eq!(r.completed, base.completed, "seed {seed} shards {shards}");
            assert_eq!(r.dropped, base.dropped, "seed {seed} shards {shards}");
            assert_eq!(
                r.preemptions, base.preemptions,
                "seed {seed} shards {shards}"
            );
            // Full per-request latency sample vectors, byte for byte —
            // not just summary percentiles.
            assert_eq!(
                r.get.samples(),
                base.get.samples(),
                "seed {seed} shards {shards}: GET samples diverged"
            );
            assert_eq!(
                r.scan.samples(),
                base.scan.samples(),
                "seed {seed} shards {shards}: SCAN samples diverged"
            );
        }
    }
}

#[test]
fn quickstart_is_shard_count_invariant() {
    // The quickstart seed is fixed inside the scenario; vary the request
    // count instead to exercise several schedule lengths.
    for requests in [16usize, 64, 96] {
        let sharded = |shards| {
            quickstart::run_driven(
                &syrup::trace::Tracer::new(),
                &syrup::profile::Profiler::disabled(),
                &syrup::blackbox::Recorder::disabled(),
                requests,
                false,
                shards,
                &mut |_, _, _| {},
            )
        };
        let base = sharded(1);
        for shards in &SHARD_COUNTS[1..] {
            let q = sharded(*shards);
            assert_eq!(q.completed, base.completed, "requests {requests}");
            // Every span the tracer captured, in order.
            assert_eq!(
                q.records, base.records,
                "requests {requests} shards {shards}: span records diverged"
            );
            // Daemon telemetry, minus the wheel-internal motion metrics
            // that legitimately depend on how entries spread over wheels
            // (cascade count, instantaneous depth).
            let strip = |q: &quickstart::Quickstart| {
                let mut s = q.syrupd.telemetry_snapshot();
                s.counters.remove("sim/wheel_cascades");
                s.gauges.remove("sim/wheel_depth");
                s
            };
            assert_eq!(
                strip(&q),
                strip(&base),
                "requests {requests} shards {shards}: telemetry diverged"
            );
        }
    }
}

#[test]
fn scale_world_is_shard_count_invariant_across_seeds() {
    for seed in [1u64, 9, 42] {
        let mut base_cfg = ScaleCfg::new(2_000, 1, seed);
        base_cfg.warmup = Duration::from_millis(2);
        base_cfg.measure = Duration::from_millis(8);
        let base = syrup::sim::scale::run(&base_cfg, ScaleEngine::Wheel);
        for shards in &SHARD_COUNTS[1..] {
            let mut cfg = ScaleCfg::new(2_000, *shards, seed);
            cfg.warmup = Duration::from_millis(2);
            cfg.measure = Duration::from_millis(8);
            let r = syrup::sim::scale::run(&cfg, ScaleEngine::Wheel);
            assert_eq!(
                r.fingerprint(),
                base.fingerprint(),
                "seed {seed} shards {shards}: scale fingerprint diverged"
            );
        }
    }
}
