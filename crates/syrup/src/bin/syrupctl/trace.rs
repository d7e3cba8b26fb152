//! Trace subcommands: `trace record`, `report`, `export`, `validate`.

use std::collections::{BTreeMap, BTreeSet};

use syrup::apps::quickstart::Quickstart;
use syrup::core::Hook;
use syrup::trace::{chrome_trace_json, StageBreakdown};

use crate::args::{array_at, flag_value, has_flag, read_json, str_at, to_json, u64_at, write_file};
use crate::scenario::{Scenario, Sink};

/// Runs the traced scenario (`--ranked` traces the rank-extension
/// variant, as it selects it for every other scenario subcommand).
fn traced(args: &[String]) -> Result<Quickstart, String> {
    Ok(Scenario::parse(args, &[Sink::Tracer])?.run(&mut |_, _, _| {}))
}

pub fn record(args: &[String]) -> Result<(), String> {
    let q = traced(args)?;
    let complete = q
        .timelines
        .iter()
        .filter(|t| t.close_ns().is_some())
        .count();
    println!(
        "recorded {} spans across {} traces ({} complete) from {} requests",
        q.records.len(),
        q.timelines.len(),
        complete,
        q.completed
    );
    if let Some(path) = flag_value(args, "--export")? {
        let json = chrome_trace_json(&q.records);
        write_file(path, &json)?;
        println!(
            "wrote {} bytes of Chrome-trace JSON to {path} (load at https://ui.perfetto.dev)",
            json.len()
        );
    }
    Ok(())
}

pub fn report(args: &[String]) -> Result<(), String> {
    let q = traced(args)?;
    for tl in &q.timelines {
        tl.validate()
            .map_err(|e| format!("invalid timeline {}: {e}", tl.trace_id))?;
    }
    let breakdown = StageBreakdown::from_timelines(&q.timelines);
    if has_flag(args, "--json") {
        println!("{}", to_json(&breakdown)?);
    } else {
        print!("{}", breakdown.render_table());
    }
    Ok(())
}

/// Shorthand for `trace record --export PATH`.
pub fn export(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(crate::usage)?;
    record(&["--export".to_string(), path.clone()])
}

/// The CI gate: an exported file must parse as JSON and hold at least one
/// complete trace (closed by an `end` instant) whose spans cover at least
/// three distinct hooks.
pub fn validate(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: syrupctl trace validate PATH")?;
    let value = read_json(path)?;
    let events =
        array_at(&value, "traceEvents").ok_or_else(|| format!("{path}: no `traceEvents` array"))?;
    // trace id -> (hook stages seen, closed by an `end` instant).
    let mut traces: BTreeMap<u64, (BTreeSet<&str>, bool)> = BTreeMap::new();
    for ev in events {
        let Some(args) = ev.get("args") else { continue };
        // Metadata events carry neither.
        let (Some(id), Some(stage)) = (u64_at(args, "trace_id"), str_at(args, "stage")) else {
            continue;
        };
        let entry = traces.entry(id).or_default();
        if let Some(hook) = Hook::ALL.iter().find(|h| h.name() == stage) {
            entry.0.insert(hook.name());
        }
        if stage == "end" {
            entry.1 = true;
        }
    }
    let good = traces
        .values()
        .filter(|(hooks, closed)| *closed && hooks.len() >= 3)
        .count();
    if good == 0 {
        return Err(format!(
            "{path}: {} traces, none complete with spans from >=3 distinct hooks",
            traces.len()
        ));
    }
    println!(
        "{path}: OK — {} events, {} traces, {good} complete multi-hook traces",
        events.len(),
        traces.len()
    );
    Ok(())
}
