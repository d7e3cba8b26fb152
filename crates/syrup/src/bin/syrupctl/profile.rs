//! Profile subcommands: `profile record`, `report`, `flame`, `pressure`.

use syrup::apps::quickstart::Quickstart;
use syrup::profile::{SloMonitor, SloRule};

use crate::args::{flag_value, has_flag, num_flag, to_json, write_file};
use crate::scenario::{run, Sink};

/// Ground truth for attribution coverage: the cycle total the VM itself
/// published into `vm/run_cycles`.
fn vm_total(q: &Quickstart) -> Option<u64> {
    q.syrupd
        .telemetry_snapshot()
        .histogram("vm/run_cycles")
        .map(|h| h.sum())
}

pub fn record(args: &[String]) -> Result<(), String> {
    let (q, profiler) = run(args, &[Sink::Profiler])?;
    let report = profiler.report(vm_total(&q), 10);
    println!(
        "profiled {} requests: {} VM runs, {} cycles attributed ({:.1}% of vm/run_cycles)",
        q.completed,
        report.runs,
        report.attributed_cycles,
        report.coverage * 100.0
    );
    if let Some(path) = flag_value(args, "--flame-out")? {
        let flame = profiler.flame();
        write_file(path, &flame)?;
        println!(
            "wrote {} folded stacks to {path} (inferno flamegraph / speedscope format)",
            flame.lines().count()
        );
    }
    Ok(())
}

pub fn report(args: &[String]) -> Result<(), String> {
    let (q, profiler) = run(args, &[Sink::Profiler])?;
    let report = profiler.report(vm_total(&q), num_flag(args, "--top", 10)?);
    if has_flag(args, "--json") {
        println!("{}", to_json(&report)?);
        return Ok(());
    }
    println!(
        "{} VM runs, {} of {} cycles attributed ({:.1}% coverage)\n",
        report.runs,
        report.attributed_cycles,
        report.total_cycles,
        report.coverage * 100.0
    );
    println!("{:<24} {:>12} {:>8}", "program", "cycles", "share");
    for p in &report.progs {
        println!("{:<24} {:>12} {:>7.1}%", p.prog, p.cycles, p.share * 100.0);
    }
    println!(
        "\n{:<24} {:>5} {:>12}  insn",
        "hotspot (program)", "pc", "cycles"
    );
    for h in &report.hotspots {
        println!(
            "{:<24} {:>5} {:>12}  {}",
            h.prog,
            h.pc,
            h.cycles,
            h.insn.as_deref().unwrap_or("-")
        );
    }
    println!("\n{:<16} {:>8} {:>12}", "helper", "calls", "cycles");
    for h in &report.helpers {
        println!("{:<16} {:>8} {:>12}", h.helper, h.calls, h.cycles);
    }
    Ok(())
}

pub fn flame(args: &[String]) -> Result<(), String> {
    let (_, profiler) = run(args, &[Sink::Profiler])?;
    let flame = profiler.flame();
    match flag_value(args, "--out")? {
        Some(path) => {
            write_file(path, &flame)?;
            println!("wrote {} folded stacks to {path}", flame.lines().count());
        }
        None => print!("{flame}"),
    }
    Ok(())
}

pub fn pressure(args: &[String]) -> Result<(), String> {
    let (q, profiler) = run(args, &[Sink::Profiler])?;
    let pressure = profiler.pressure();
    // A standing SLO over the VM's cycle budget: quickstart policies are
    // tiny, so a 10k-cycle p99 only burns when something regresses badly.
    let mut monitor = SloMonitor::new().with_rule(SloRule::new("vm/run_cycles", 0.99, 10_000));
    let now_ns = 1_000 + q.completed * 2_000;
    let burns = monitor.observe(now_ns, &q.syrupd.telemetry_snapshot());
    let statuses = monitor.statuses();
    if has_flag(args, "--json") {
        println!(
            "{{\"pressure\":{},\"slo\":{{\"statuses\":{},\"burns\":{}}}}}",
            to_json(&pressure)?,
            to_json(&statuses)?,
            to_json(&burns)?
        );
        return Ok(());
    }
    println!(
        "{:<10} {:>6} {:>8} {:>9} {:>9} {:>6}",
        "component", "queues", "samples", "max_depth", "max/mean", "gini"
    );
    for c in &pressure.components {
        println!(
            "{:<10} {:>6} {:>8} {:>9} {:>9.2} {:>6.3}",
            c.component, c.queues, c.samples, c.max_depth, c.max_mean_ratio, c.gini
        );
    }
    if !pressure.rank_bands.is_empty() {
        println!(
            "\n{:<10} {:>8} {:>9}  mean depth per rank band",
            "component", "samples", "max_depth"
        );
        for b in &pressure.rank_bands {
            println!(
                "{:<10} {:>8} {:>9}  {:.2?}",
                b.component, b.samples, b.max_depth, b.mean_depths
            );
        }
    }
    if !pressure.threads.is_empty() {
        println!(
            "\n{:<6} {:>12} {:>12} {:>12} {:>8}",
            "tid", "runnable_ns", "running_ns", "blocked_ns", "starved"
        );
        for t in &pressure.threads {
            println!(
                "{:<6} {:>12} {:>12} {:>12} {:>8}",
                t.tid, t.runnable_ns, t.running_ns, t.blocked_ns, t.starved
            );
        }
    }
    println!(
        "\nscheduling latency: {} samples, mean {:.0} ns, max {} ns; {} starvation events",
        pressure.sched_latency.samples,
        pressure.sched_latency.mean_ns,
        pressure.sched_latency.max_ns,
        pressure.starvation.len()
    );
    for s in &statuses {
        println!(
            "slo {} p{:.0}: value {} vs threshold {} — {}",
            s.metric,
            s.quantile * 100.0,
            s.value.map_or_else(|| "-".to_string(), |v| v.to_string()),
            s.threshold,
            if s.burning { "BURNING" } else { "ok" }
        );
    }
    Ok(())
}
