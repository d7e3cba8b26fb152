//! End-to-end flight-recorder scenarios: the quickstart pipeline with
//! the recorder attached at every layer, an injected SLO burn freezing
//! the rings, and the postmortem JSON surviving the vendored parser.

use syrup::apps::quickstart;
use syrup::blackbox::{EventKind, Layer, Recorder, TriggerCause};
use syrup::profile::{Profiler, SloMonitor, SloRule};
use syrup::telemetry::Snapshot;
use syrup::trace::Tracer;

/// Runs the quickstart with an armed recorder and a deliberately
/// impossible SLO evaluated halfway through, mirroring
/// `syrupctl blackbox record --inject-burn`.
fn burned_run(requests: usize) -> (quickstart::Quickstart, Recorder) {
    let recorder = Recorder::new();
    let mut monitor = SloMonitor::new().with_rule(SloRule::new("vm/run_cycles", 0.99, 1));
    monitor.attach_blackbox(&recorder);
    let fire_at = (requests as u64 / 2).max(1);
    let rec = recorder.clone();
    let q = quickstart::run_observed(
        &Tracer::disabled(),
        &Profiler::disabled(),
        &recorder,
        requests,
        false,
        &mut |completed, now_ns, d| {
            if !rec.frozen() && completed >= fire_at {
                let _ = monitor.observe(now_ns, &d.telemetry_snapshot());
            }
        },
    );
    (q, recorder)
}

#[test]
fn injected_burn_freezes_a_four_layer_postmortem() {
    let (q, recorder) = burned_run(quickstart::DEFAULT_REQUESTS);
    assert_eq!(q.completed, quickstart::DEFAULT_REQUESTS as u64);
    assert!(recorder.frozen());
    let pm = recorder.capture();
    let trigger = pm.trigger.as_ref().expect("burn froze the rings");
    assert_eq!(trigger.cause, TriggerCause::SloBurn);
    let layers = pm.layer_names();
    assert!(
        layers.len() >= 4,
        "postmortem covers {layers:?}, wanted >= 4 layers"
    );
    for want in ["syrupd", "nic", "sock", "slo"] {
        assert!(layers.contains(&want), "{want} missing from {layers:?}");
    }
    // The frozen window is pre-trigger: every retained event is at or
    // before the trigger timestamp.
    for dump in &pm.layers {
        for e in &dump.events {
            assert!(e.at_ns <= trigger.at_ns, "{e:?} after trigger");
        }
    }
    // The implicated hot path is the quickstart app's last dispatch.
    assert_eq!(pm.implicated_app(), Some(q.app.0 as u16));
}

#[test]
fn postmortem_json_round_trips_through_the_vendored_parser() {
    let (_q, recorder) = burned_run(32);
    let pm = recorder.capture();
    let json = serde::json::to_string(&pm).expect("postmortem serializes");
    let value = serde::json::from_str(&json).expect("postmortem parses");
    assert_eq!(
        value
            .get("trigger")
            .and_then(|t| t.get("cause"))
            .and_then(|c| c.as_str()),
        Some("slo-burn")
    );
    let layers = value.get("layers").and_then(|v| v.as_array()).unwrap();
    assert_eq!(layers.len(), syrup::blackbox::NUM_LAYERS);
    let populated = layers
        .iter()
        .filter(|l| {
            l.get("events")
                .and_then(|e| e.as_array())
                .is_some_and(|e| !e.is_empty())
        })
        .count();
    assert!(populated >= 4, "{populated} populated layers in JSON");
}

#[test]
fn rings_freeze_at_the_burn_and_stay_frozen() {
    let (_q, recorder) = burned_run(quickstart::DEFAULT_REQUESTS);
    let before = recorder.capture().total_events();
    // Frozen rings drop everything: further traffic adds no events.
    recorder.dispatch(u64::MAX, 9, 9, 9, 9);
    recorder.enqueue_drop(Layer::Nic, 0, 0, 0);
    assert_eq!(recorder.capture().total_events(), before);
    assert!(recorder.frozen());
}

#[test]
fn snapshot_delta_between_observer_frames_telescopes() {
    // The `syrupctl watch` invariant: per-frame deltas applied in order
    // reproduce the final snapshot exactly.
    let recorder = Recorder::disabled();
    let mut frames: Vec<Snapshot> = Vec::new();
    let q = quickstart::run_observed(
        &Tracer::disabled(),
        &Profiler::disabled(),
        &recorder,
        48,
        false,
        &mut |completed, _now_ns, d| {
            if completed % 16 == 0 {
                frames.push(d.telemetry_snapshot());
            }
        },
    );
    assert_eq!(frames.len(), 3);
    // Consecutive frame deltas replay exactly, and the last frame is the
    // run's final state — so a watcher holding only deltas loses nothing.
    for w in frames.windows(2) {
        let delta = w[1].delta(&w[0]);
        assert_eq!(delta.apply(&w[0]), w[1]);
        assert!(!delta.is_empty(), "16 requests moved no counters?");
    }
    assert_eq!(frames.last().unwrap(), &q.syrupd.telemetry_snapshot());
}

#[test]
fn manual_trigger_mirrors_the_syrupctl_handle() {
    // `syrupctl blackbox record --trigger-manual`: pulling the handle
    // mid-run freezes the rings with whatever the layers emitted so far.
    let recorder = Recorder::new();
    let rec = recorder.clone();
    let q = quickstart::run_observed(
        &Tracer::disabled(),
        &Profiler::disabled(),
        &recorder,
        32,
        false,
        &mut |completed, _now_ns, _d| {
            if completed == 16 && !rec.frozen() {
                rec.trigger_manual("operator pulled the handle");
            }
        },
    );
    assert_eq!(q.completed, 32);
    let pm = recorder.capture();
    let trigger = pm.trigger.as_ref().expect("manual trigger fired");
    assert_eq!(trigger.cause, TriggerCause::Manual);
    assert_eq!(trigger.detail, "operator pulled the handle");
    // Only the first run-half's dispatches survive: three per request.
    let dispatches = pm.layers[Layer::Syrupd.index()]
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Dispatch)
        .count();
    assert_eq!(dispatches, 3 * 16);
}

#[test]
fn disabled_recorder_perturbs_nothing_end_to_end() {
    let tracer = Tracer::disabled();
    let plain = quickstart::run(&tracer, 32);
    let (q, recorder) = {
        let rec = Recorder::disabled();
        let q = quickstart::run_observed(
            &tracer,
            &Profiler::disabled(),
            &rec,
            32,
            false,
            &mut |_, _, _| {},
        );
        (q, rec)
    };
    assert_eq!(plain.completed, q.completed);
    assert_eq!(
        plain.syrupd.telemetry_snapshot(),
        q.syrupd.telemetry_snapshot()
    );
    assert!(recorder.capture().layers.is_empty());
}
