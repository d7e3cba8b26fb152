//! Sharded replay determinism across the real scenarios.
//!
//! The `ShardedQueue` facade promises that shard count is a *layout*
//! choice, not a *semantic* one: the merge pops events in global
//! `(time, seq)` order no matter how pushes were routed, so any world
//! driven through it must produce byte-identical results at 1, 2, or 8
//! shards. These tests pin that promise on the two worlds that shard:
//! the quickstart pipeline, over several request counts, and the
//! million-flow scale world, across several seeds.

use syrup::apps::quickstart;
use syrup::sim::{Duration, ScaleCfg, ScaleEngine};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

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
