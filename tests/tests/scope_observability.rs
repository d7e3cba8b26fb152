//! Cross-crate integration tests for the `syrup::scope` observability
//! pipeline: snapshot-delta algebra under concurrent writers, sharded
//! scale runs feeding per-shard series, and the anomaly → blackbox
//! postmortem path.

use syrup::blackbox::{EventKind, Layer, Recorder};
use syrup::scope::{
    ingest_windows, AnomalyEngine, Sampler, Scope, ANOMALY_Z_THRESHOLD, DEFAULT_SERIES_CAPACITY,
};
use syrup::sim::scale::{ScaleCfg, ScaleEngine};
use syrup::telemetry::{Registry, Snapshot};

/// `Snapshot::delta` / `SnapshotDelta::apply` must be safe and coherent
/// while shard threads hammer the registry: snapshots taken mid-flight
/// never panic, deltas compose telescopically, and applying a delta to
/// its base reproduces the later snapshot exactly.
#[test]
fn snapshot_delta_composes_under_concurrent_writers() {
    let registry = Registry::new();
    let shards = 4;
    let per_shard_incs = 5_000u64;
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    std::thread::scope(|s| {
        for shard in 0..shards {
            let registry = &registry;
            s.spawn(move || {
                // Every shard writes the shared counters plus a counter,
                // gauge, and histogram of its own.
                let shared = registry.counter("scope/shared_events");
                let own = registry.counter(&format!("scope/shard{shard}_events"));
                let gauge = registry.gauge(&format!("scope/shard{shard}_depth"));
                let hist = registry.histogram(&format!("scope/shard{shard}_ns"));
                for i in 0..per_shard_incs {
                    shared.add(1);
                    own.add(2);
                    gauge.set(i as i64);
                    hist.record(i);
                }
            });
        }
        // A reader thread takes snapshot chains mid-flight: every
        // adjacent delta must apply back exactly, and composing two
        // adjacent deltas must telescope to the wide one.
        let registry = &registry;
        let reader_stop = stop.clone();
        let reader = s.spawn(move || {
            let stop = reader_stop;
            let mut chains = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let a = registry.snapshot();
                let b = registry.snapshot();
                let c = registry.snapshot();
                assert_eq!(b.delta(&a).apply(&a), b, "delta(a,b) ∘ a != b");
                assert_eq!(c.delta(&b).apply(&b), c, "delta(b,c) ∘ b != c");
                // Telescoping: applying the two short deltas in sequence
                // lands on the same snapshot as the wide delta.
                assert_eq!(
                    c.delta(&b).apply(&b.delta(&a).apply(&a)),
                    c.delta(&a).apply(&a)
                );
                chains += 1;
            }
            chains
        });
        s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(reader.join().unwrap() > 0, "reader never completed a chain");
    });

    // Quiescent totals reconcile: no increment was lost or duplicated.
    let end = registry.snapshot();
    assert_eq!(end.counter("scope/shared_events"), shards * per_shard_incs);
    for shard in 0..shards {
        assert_eq!(
            end.counter(&format!("scope/shard{shard}_events")),
            2 * per_shard_incs
        );
    }
    let whole = end.delta(&Snapshot::default());
    assert_eq!(whole.apply(&Snapshot::default()), end);
}

/// A sampler driven from concurrent shard threads' registry writes keeps
/// producing coherent series: counter series are increments (sum equals
/// the final counter value), timestamps are monotonic. The sampler ticks
/// at most `capacity − 1` times while the writers run, so with the final
/// tick the series never laps its ring and drops its oldest increments,
/// however the threads are scheduled.
#[test]
fn sampler_over_concurrent_writers_accounts_every_increment() {
    let registry = Registry::new();
    let scope = Scope::new();
    let mut sampler = Sampler::new(scope.clone(), "", 1_000);
    let writers = 4;
    let per_writer = 10_000u64;

    std::thread::scope(|s| {
        let done = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        for _ in 0..writers {
            let registry = &registry;
            let done = done.clone();
            s.spawn(move || {
                let c = registry.counter("scope/ticks");
                for _ in 0..per_writer {
                    c.add(1);
                }
                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
        let mut now = 0u64;
        let running = || done.load(std::sync::atomic::Ordering::Relaxed) < writers;
        for _ in 1..DEFAULT_SERIES_CAPACITY {
            if !running() {
                break;
            }
            now += 1_000;
            sampler.tick(now, &registry);
        }
        while running() {
            std::thread::yield_now();
        }
        // One final due tick so the tail increments land in the series.
        sampler.tick(now + 1_000, &registry);
    });

    let series = scope.get("scope/ticks").expect("sampler built the series");
    let total: f64 = series.points.iter().map(|p| p.value).sum();
    assert_eq!(total as u64, writers as u64 * per_writer);
    for pair in series.points.windows(2) {
        assert!(pair[0].at_ns <= pair[1].at_ns);
    }
}

/// The acceptance scenario: a sharded scale run (≥10⁵ flows via the
/// `SYRUP_SCALE`-independent event count; shards {2, 8}) produces
/// populated per-shard series for throughput, barrier-wait, and mailbox
/// traffic.
#[test]
fn sharded_scale_run_populates_per_shard_series() {
    for shards in [2usize, 8] {
        let mut cfg = ScaleCfg::new(2_000, shards, 3);
        cfg.measure = syrup::sim::Duration::from_millis(4);
        cfg.record_windows = true;
        let result = syrup::sim::scale::run(&cfg, ScaleEngine::Wheel);
        // Rings sized above the window count, so no point is evicted and
        // the series sums reconcile exactly with the run totals.
        let scope = Scope::with_capacity(16_384);
        let summary = ingest_windows(&scope, &result.per_shard_windows);
        assert!(summary.windows > 0, "shards={shards}: no windows recorded");
        assert_eq!(summary.events, result.events, "shards={shards}");

        for k in 0..shards {
            // ≥3 populated series per shard: throughput, barrier wait,
            // mailbox traffic (plus occupancy).
            for series in ["events", "barrier_wait_ns", "mailbox_out", "mailbox_in"] {
                let name = format!("shard{k}/{series}");
                let s = scope.get(&name).unwrap_or_else(|| panic!("missing {name}"));
                assert!(!s.points.is_empty(), "{name} is empty");
                assert_eq!(s.dropped, 0, "{name} evicted points");
            }
            let events: f64 = scope
                .get(&format!("shard{k}/events"))
                .unwrap()
                .points
                .iter()
                .map(|p| p.value)
                .sum();
            assert_eq!(events as u64, result.per_shard_events[k], "shards={shards}");
        }
        // Cross-shard traffic exists and balances.
        assert!(
            summary.mailbox_out > 0,
            "shards={shards}: no mailbox traffic"
        );
        assert_eq!(summary.mailbox_out, summary.mailbox_in);
        assert!(scope.get("imbalance/gini").is_some());
    }
}

/// An injected counter spike raises exactly one structured anomaly event,
/// and that event freezes the blackbox with `anomaly` as its own cause —
/// the postmortem explains itself.
#[test]
fn injected_spike_fires_one_anomaly_and_freezes_blackbox() {
    let registry = Registry::new();
    let counter = registry.counter("app/requests");
    let scope = Scope::new();
    let mut sampler = Sampler::new(scope.clone(), "", 1_000);
    let recorder = Recorder::new();
    let mut engine = AnomalyEngine::new();
    engine.attach_blackbox(&recorder);

    let mut events = Vec::new();
    for tick in 1..=40u64 {
        // Steady 10/tick baseline with one 40× spike at tick 30.
        counter.add(if tick == 30 { 400 } else { 10 });
        let now = tick * 1_000;
        if let Some(delta) = sampler.tick(now, &registry) {
            for (name, &diff) in &delta.counters {
                events.extend(engine.observe(name, now, diff as f64));
            }
        }
    }

    assert_eq!(events.len(), 1, "expected exactly one anomaly: {events:?}");
    assert_eq!(events[0].series, "app/requests");
    assert_eq!(events[0].at_ns, 30_000);
    assert!(events[0].z.abs() >= ANOMALY_Z_THRESHOLD);

    assert!(recorder.frozen(), "anomaly did not freeze the rings");
    let pm = recorder.capture();
    let trigger = pm.trigger.expect("frozen rings carry a trigger");
    assert_eq!(trigger.cause.as_str(), "anomaly");
    // The frozen window contains the anomaly event itself.
    let slo_events = recorder.events(Layer::Slo);
    assert!(
        slo_events
            .iter()
            .any(|e| e.kind == EventKind::Anomaly && e.at_ns == 30_000),
        "postmortem window misses its own cause: {slo_events:?}"
    );
}

/// The OpenMetrics exposition of a real quickstart snapshot passes the
/// line-format checker and keeps its stable schema markers.
#[test]
fn openmetrics_exposition_parses_and_is_stable() {
    let tracer = syrup::trace::Tracer::disabled();
    let q = syrup::apps::quickstart::run(&tracer, syrup::apps::quickstart::DEFAULT_REQUESTS);
    let text = syrup::scope::openmetrics(&q.syrupd.telemetry_snapshot());
    let samples = syrup::scope::check_exposition(&text).expect("exposition parses");
    assert!(samples > 10, "only {samples} samples");
    assert!(text.ends_with("# EOF\n"));
    // Stable schema spot checks: counter totals and histogram summaries.
    assert!(text.contains("syrup_app1_socket_select_invocations_total 64"));
    assert!(text.contains("quantile=\"0.99\""));
    assert!(text.contains("# TYPE syrup_vm_run_cycles summary"));
}
