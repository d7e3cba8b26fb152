//! Flight-recorder subcommands: `blackbox record`, `dump`, `report`,
//! `validate`, and the live `watch` view.

use serde::json::Value;
use syrup::apps::quickstart::Quickstart;
use syrup::blackbox::{Layer, TriggerCause};
use syrup::profile::{SloMonitor, SloRule};
use syrup::telemetry::Snapshot;
use syrup::trace::chrome_trace_json;

use crate::args::{
    array_at, flag_value, has_flag, num_flag, operand, positive_flag, read_json, str_at, to_json,
    u64_at, write_file,
};
use crate::scenario::{Scenario, Sink};

/// Runs the quickstart with the flight recorder attached at every layer
/// (tracer and profiler too — the postmortem bundle wants all three
/// pillars). `--inject-burn` arms a deliberately-impossible SLO (one
/// cycle of p99 VM budget) and evaluates it mid-run, so the burn trigger
/// freezes the rings with a healthy pre-trigger window on both sides.
/// `--trigger-manual` pulls the handle directly at the halfway mark.
///
/// Returns everything the run produced: the scenario artifacts, the
/// scenario (for its recorder and profiler), and the telemetry snapshot
/// taken the moment the rings froze (final snapshot when no trigger
/// fired).
fn recorded(args: &[String]) -> Result<(Quickstart, Scenario, Snapshot), String> {
    let inject = has_flag(args, "--inject-burn");
    let manual = has_flag(args, "--trigger-manual");
    let scenario = Scenario::parse(args, &[Sink::Tracer, Sink::Profiler, Sink::Recorder])?;
    let rec = &scenario.recorder;
    let mut monitor = SloMonitor::new().with_rule(SloRule::new("vm/run_cycles", 0.99, 1));
    monitor.attach_blackbox(rec);
    // Evaluate the injected SLO only once half the requests are through,
    // so the frozen window holds events from every layer.
    let fire_at = (scenario.requests as u64 / 2).max(1);
    let mut at_freeze: Option<Snapshot> = None;
    let q = scenario.run(&mut |completed, now_ns, d| {
        if !rec.frozen() && completed >= fire_at {
            if inject {
                let _ = monitor.observe(now_ns, &d.telemetry_snapshot());
            } else if manual {
                rec.trigger_manual("syrupctl blackbox record --trigger-manual");
            }
        }
        if rec.frozen() && at_freeze.is_none() {
            at_freeze = Some(d.telemetry_snapshot());
        }
    });
    let at_freeze = at_freeze.unwrap_or_else(|| q.syrupd.telemetry_snapshot());
    Ok((q, scenario, at_freeze))
}

pub fn record(args: &[String]) -> Result<(), String> {
    let (q, scenario, at_freeze) = recorded(args)?;
    let wanted_trigger = has_flag(args, "--inject-burn") || has_flag(args, "--trigger-manual");
    let pm = scenario.recorder.capture();
    if wanted_trigger && pm.trigger.is_none() {
        return Err("a trigger was requested but the rings never froze".to_string());
    }
    // The bundle's telemetry view is the pre-trigger delta: everything
    // the counters accumulated from scenario start up to the freeze, so
    // it correlates with the retained event window.
    let delta = at_freeze.delta(&Snapshot::default());
    let trace_json = chrome_trace_json(&q.records);
    let bundle = format!(
        "{{\"schema\":\"syrup-blackbox-bundle/1\",\"completed\":{},\
         \"postmortem\":{},\"snapshot_delta\":{},\
         \"trace\":{trace_json},\"flame\":{}}}",
        q.completed,
        to_json(&pm)?,
        to_json(&delta)?,
        to_json(&scenario.profiler.flame())?
    );
    let trigger_line = match &pm.trigger {
        Some(t) => format!("{} at {} ns ({})", t.cause.as_str(), t.at_ns, t.detail),
        None => "none (live capture)".to_string(),
    };
    println!(
        "captured {} events across layers [{}], {} overwritten; trigger: {trigger_line}",
        pm.total_events(),
        pm.layer_names().join(", "),
        pm.total_dropped()
    );
    match flag_value(args, "--out")? {
        Some(path) => {
            write_file(path, &bundle)?;
            println!(
                "wrote {} bytes of postmortem bundle to {path}",
                bundle.len()
            );
        }
        None => println!("{bundle}"),
    }
    Ok(())
}

pub fn dump(args: &[String]) -> Result<(), String> {
    let pm = recorded(args)?.1.recorder.capture();
    if has_flag(args, "--json") {
        println!("{}", to_json(&pm)?);
        return Ok(());
    }
    println!(
        "{:<8} {:>10} {:<12} {:>6} {:>10} {:>20} {:>20}",
        "layer", "at_ns", "kind", "id", "aux", "w0", "w1"
    );
    for dump in &pm.layers {
        for e in &dump.events {
            println!(
                "{:<8} {:>10} {:<12} {:>6} {:>10} {:>20} {:>20}",
                dump.layer.as_str(),
                e.at_ns,
                e.kind.as_str(),
                e.id,
                e.aux,
                e.w0,
                e.w1
            );
        }
        if dump.dropped > 0 {
            println!(
                "{:<8} ({} older events overwritten)",
                dump.layer.as_str(),
                dump.dropped
            );
        }
    }
    Ok(())
}

/// The postmortem's trigger, `None` for a live capture.
fn trigger_of(pm: &Value) -> Option<&Value> {
    pm.get("trigger").filter(|t| !t.is_null())
}

/// Prints the `top` largest counters, ties in name order.
fn print_top_counters(mut rows: Vec<(&String, u64)>, top: usize) {
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    for (name, n) in rows.iter().take(top) {
        println!("  {name:<28} +{n}");
    }
}

pub fn report(args: &[String]) -> Result<(), String> {
    let path = operand(args, "blackbox report PATH")?;
    let value = read_json(path)?;
    let pm = value
        .get("postmortem")
        .ok_or_else(|| format!("{path}: no `postmortem` object (is this a blackbox bundle?)"))?;
    match trigger_of(pm) {
        Some(t) => println!(
            "trigger : {} at {} ns — {}",
            str_at(t, "cause").unwrap_or("?"),
            u64_at(t, "at_ns").unwrap_or(0),
            str_at(t, "detail").unwrap_or("")
        ),
        None => println!("trigger : none (live capture)"),
    }
    println!(
        "events  : {} retained, {} overwritten",
        u64_at(pm, "total_events").unwrap_or(0),
        u64_at(pm, "total_dropped").unwrap_or(0)
    );
    if let Some(layers) = array_at(pm, "layers") {
        println!("{:<8} {:>8} {:>10}  window", "layer", "events", "dropped");
        for l in layers {
            let Some(events) = array_at(l, "events").filter(|e| !e.is_empty()) else {
                continue;
            };
            let window = u64_at(&events[0], "at_ns")
                .zip(u64_at(&events[events.len() - 1], "at_ns"))
                .map(|(first, last)| format!("[{first}, {last}] ns"))
                .unwrap_or_default();
            println!(
                "{:<8} {:>8} {:>10}  {window}",
                str_at(l, "layer").unwrap_or("?"),
                events.len(),
                u64_at(l, "dropped").unwrap_or(0)
            );
        }
    }
    let counters = value.get("snapshot_delta").and_then(|d| d.get("counters"));
    if let Some(counters) = counters.and_then(|c| c.as_object()) {
        println!("\npre-trigger telemetry delta (top counters):");
        let rows = counters.iter().filter_map(|(k, v)| Some((k, v.as_u64()?)));
        print_top_counters(rows.collect(), 10);
    }
    if let Some(trace) = value.get("trace").and_then(|t| array_at(t, "traceEvents")) {
        println!("\ntrace   : {} Chrome-trace events bundled", trace.len());
    }
    if let Some(flame) = str_at(&value, "flame") {
        println!("flame   : {} folded stacks bundled", flame.lines().count());
    }
    Ok(())
}

/// The CI gate for postmortem bundles: the file must parse, hold a
/// structurally-sound postmortem (every layer dump present, events
/// carrying timestamps and kinds), a snapshot delta, and — with
/// `--min-layers N` — retained events from at least N distinct layers.
pub fn validate(args: &[String]) -> Result<(), String> {
    let path = operand(args, "blackbox validate PATH [--min-layers N]")?;
    let min_layers: usize = num_flag(args, "--min-layers", 1)?;
    let value = read_json(path)?;
    let pm = value
        .get("postmortem")
        .ok_or_else(|| format!("{path}: no `postmortem` object"))?;
    let layers = array_at(pm, "layers")
        .ok_or_else(|| format!("{path}: postmortem has no `layers` array"))?;
    if layers.len() != Layer::ALL.len() {
        return Err(format!(
            "{path}: expected {} layer dumps, found {}",
            Layer::ALL.len(),
            layers.len()
        ));
    }
    let mut populated = 0usize;
    let mut total_events = 0usize;
    for (i, (l, want)) in layers.iter().zip(Layer::ALL.map(Layer::as_str)).enumerate() {
        let name = str_at(l, "layer");
        if name != Some(want) {
            return Err(format!(
                "{path}: layer {i} is `{}`, expected `{want}`",
                name.unwrap_or("?")
            ));
        }
        let events = array_at(l, "events")
            .ok_or_else(|| format!("{path}: layer `{want}` has no `events` array"))?;
        for e in events {
            if u64_at(e, "at_ns").is_none() || str_at(e, "kind").is_none() {
                return Err(format!(
                    "{path}: layer `{want}` holds a malformed event (want at_ns + kind)"
                ));
            }
        }
        if !events.is_empty() {
            populated += 1;
        }
        total_events += events.len();
    }
    if populated < min_layers {
        return Err(format!(
            "{path}: events from only {populated} layers, wanted >= {min_layers}"
        ));
    }
    let cause = trigger_of(pm).map(|t| str_at(t, "cause"));
    if let Some(cause) = cause {
        if !TriggerCause::ALL.iter().any(|c| cause == Some(c.as_str())) {
            return Err(format!("{path}: unknown trigger cause {cause:?}"));
        }
    }
    let counters = value.get("snapshot_delta").and_then(|d| d.get("counters"));
    if counters.is_none() {
        return Err(format!("{path}: no `snapshot_delta.counters` object"));
    }
    println!(
        "{path}: OK — {total_events} events from {populated} layers, trigger {}",
        cause.flatten().unwrap_or("none")
    );
    Ok(())
}

/// A live `top`-style view of the running scenario: every `--interval`
/// completed requests, one frame showing what moved since the previous
/// frame, computed as a delta between consecutive telemetry snapshots.
pub fn watch(args: &[String]) -> Result<(), String> {
    let scenario = Scenario::parse(args, &[Sink::Recorder])?;
    let requests = scenario.requests;
    let interval: u64 = positive_flag(args, "--interval", 16)?;
    let json = has_flag(args, "--json");
    let mut prev = Snapshot::default();
    let mut frame = 0u64;
    let q = scenario.run(&mut |completed, now_ns, d| {
        if completed % interval != 0 && completed != requests as u64 {
            return;
        }
        frame += 1;
        let snap = d.telemetry_snapshot();
        let delta = snap.delta(&prev);
        if json {
            if let Ok(delta_json) = to_json(&delta) {
                println!(
                    "{{\"frame\":{frame},\"completed\":{completed},\
                     \"now_ns\":{now_ns},\"delta\":{delta_json}}}"
                );
            }
        } else {
            println!("frame {frame}  completed {completed}/{requests}  now {now_ns} ns");
            print_top_counters(delta.counters.iter().map(|(k, &v)| (k, v)).collect(), 8);
            for (name, g) in &delta.gauges {
                println!("  {name:<28} {g:+}");
            }
            println!();
        }
        prev = snap;
    });
    if !json {
        let events: usize = Layer::ALL
            .iter()
            .map(|&l| scenario.recorder.events(l).len())
            .sum();
        println!(
            "watched {} requests over {frame} frames; flight recorder retained {events} events",
            q.completed
        );
    }
    Ok(())
}
