//! Table 2: per-policy overhead — LoC, instructions, and cycles.
//!
//! Each Figure 5 policy is compiled from its C source by `syrup-lang`,
//! verified, and executed on the VM over representative packets. Columns:
//!
//! * **LoC** — non-blank, non-comment source lines (the paper counts the
//!   policy file the same way).
//! * **Instructions** — static instruction count of the compiled program
//!   (the paper reports post-JIT x86 instructions; SCAN Avoid is the
//!   outlier in both because of loop unrolling).
//! * **Cycles** — modelled execution cost per invocation *including* the
//!   fixed enforcement cost of steering the packet, which Table 2 notes
//!   dominates: "most of this time is spent on enforcing … rather than
//!   making … each scheduling decision".
//!
//! `--trace-out <path>` samples ~1% of invocations through the request
//! tracer and writes the vm-exec stage-latency breakdown JSON there
//! (relative paths land in `results/`).
//!
//! `--profile-out <path>` attaches a cycle-attribution profiler per
//! policy and writes a JSON array of per-policy cost breakdowns: each
//! entry carries the enforcement constant, the mean total cycles (which
//! matches the Cycles column), and the full `(prog, pc)`/helper
//! attribution report.
//!
//! The policies run on the VM's default engine. Modelled cycles are
//! engine-independent by contract: a unit test below builds the rows on
//! the reference interpreter and on the fast engine and asserts the CSV
//! text (`--out <path>`, default `results/table2.csv`) is byte-identical.

use crate::{append_bench_record, datagram, flag_value, results_path, unix_ts, write_breakdown};
use syrup::ebpf::cycles::ENFORCEMENT;
use syrup::ebpf::maps::MapRegistry;
use syrup::ebpf::verify;
use syrup::ebpf::vm::{Backend, PacketCtx, RunEnv, Vm};
use syrup::net::RequestClass;
use syrup::policies::{c_sources, CorpusEntry};
use syrup::telemetry::Registry;

struct Row {
    name: &'static str,
    loc: usize,
    static_insns: usize,
    cycles_mean: f64,
    cycles_stdev: f64,
    executed_insns: f64,
}

fn measure(
    name: &'static str,
    entry: CorpusEntry,
    tracer: &syrup::trace::Tracer,
    profiler: &syrup::profile::Profiler,
    backend: Backend,
) -> Row {
    let maps = MapRegistry::new();
    let compiled = syrup::lang::compile(entry.source, &entry.opts, &maps).expect("compile");
    verify(&compiled.program, &maps).expect("verify");
    // The application half of the two policies that share a Map.
    let map = |name| maps.get(compiled.created_maps[name]).unwrap();
    match entry.name {
        "scan_avoid" => {
            // All threads currently serve GETs except one, so probing
            // really iterates.
            for i in 0..6u32 {
                let class = if i == 2 { 2 } else { 1 };
                map("scan_map").update_u64(i, class).unwrap();
            }
        }
        // Plenty of tokens so the consume path dominates.
        "token_based" => map("token_map").update_u64(1, u64::MAX / 2).unwrap(),
        _ => {}
    }
    let loc = compiled.source_loc;
    let static_insns = compiled.program.len();
    let mut vm = Vm::new(maps);
    vm.set_backend(backend);
    // The VM publishes per-run cycle/instruction histograms; this harness
    // only reads the snapshot at the end — the paper's methodology of
    // instrumenting the runtime rather than the experiment loop.
    let telemetry = Registry::new();
    vm.attach_telemetry(&telemetry);
    vm.attach_tracer(tracer);
    vm.attach_profiler(profiler);
    let slot = vm.load_unverified(compiled.program);

    let mut env = RunEnv {
        prandom_state: 42,
        ..RunEnv::default()
    };
    let get = datagram(RequestClass::Get);
    let scan = datagram(RequestClass::Scan);
    for i in 0..REPS {
        // Alternate classes so class-dependent paths both run.
        let mut pkt = if i % 10 == 0 {
            scan.clone()
        } else {
            get.clone()
        };
        // Space invocations out on the virtual clock so sampled traces
        // (`--trace-out`) don't overlap on the vm-exec track.
        env.now_ns = (i as u64) * 10_000;
        env.trace = tracer.ingress(env.now_ns);
        let mut ctx = PacketCtx::new(&mut pkt);
        let out = vm
            .run(slot, &mut ctx, &mut env)
            .expect("verified policy runs");
        tracer.finish(env.trace, env.now_ns + out.cycles);
    }

    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("vm/runs"), REPS as u64);
    assert_eq!(snap.counter(&format!("vm/runs_{backend}")), REPS as u64);
    let cycles = snap.histogram("vm/run_cycles").expect("runs recorded");
    let insns = snap.histogram("vm/run_insns").expect("runs recorded");
    Row {
        name,
        loc,
        static_insns,
        // Histograms carry exact sums/sum-of-squares, so mean and stdev
        // are exact; enforcement is a per-packet constant (shifts the
        // mean, leaves the spread).
        cycles_mean: cycles.mean() + ENFORCEMENT as f64,
        cycles_stdev: cycles.stdev(),
        executed_insns: insns.mean(),
    }
}

/// Invocations per policy.
const REPS: usize = 10_000;

/// One row per Table-2 policy, each run [`REPS`] times on `backend`.
fn measure_all(
    tracer: &syrup::trace::Tracer,
    profilers: &[syrup::profile::Profiler],
    backend: Backend,
) -> Vec<Row> {
    let names = ["Round Robin", "SCAN Avoid", "SITA", "Token-based"];
    c_sources::table2(6)
        .into_iter()
        .zip(names)
        .zip(profilers)
        .map(|((entry, name), profiler)| measure(name, entry, tracer, profiler, backend))
        .collect()
}

/// The CSV text of `rows`.
fn csv(rows: &[Row]) -> String {
    let mut csv = String::from("policy,loc,static_insns,exec_insns,cycles_mean,cycles_stdev\n");
    for r in rows {
        csv.push_str(&format!(
            "{},{},{},{:.1},{:.0},{:.0}\n",
            r.name, r.loc, r.static_insns, r.executed_insns, r.cycles_mean, r.cycles_stdev
        ));
    }
    csv
}

/// Regenerates `table2.csv` (or `--out`) and appends the run to
/// `BENCH_table2.json`.
pub fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = flag_value(&args, "--trace-out");
    let profile_out = flag_value(&args, "--profile-out");
    let csv_out = flag_value(&args, "--out");
    let backend = Backend::default();
    println!("# execution backend: {backend}");
    // With `--trace-out` every ~101st invocation is traced (per policy),
    // so the exported breakdown aggregates vm-exec spans from all four.
    let tracer = match trace_out {
        Some(_) => syrup::trace::Tracer::sampled(101),
        None => syrup::trace::Tracer::disabled(),
    };
    // One profiler per policy: the compiled programs all carry the
    // source-level name `schedule`, so a shared profiler would merge
    // their PC buckets.
    let mk_profiler = || {
        if profile_out.is_some() {
            syrup::profile::Profiler::new()
        } else {
            syrup::profile::Profiler::disabled()
        }
    };
    let profilers: Vec<syrup::profile::Profiler> = (0..4).map(|_| mk_profiler()).collect();
    let rows = measure_all(&tracer, &profilers, backend);

    println!("# Table 2: Overhead of different Syrup policies");
    println!(
        "{:<14} {:>5} {:>14} {:>16} {:>18}",
        "Policy", "LoC", "Instructions", "Exec insns/pkt", "Cycles (± stdev)"
    );
    for r in &rows {
        println!(
            "{:<14} {:>5} {:>14} {:>16.1} {:>10.0} (±{:>4.0})",
            r.name, r.loc, r.static_insns, r.executed_insns, r.cycles_mean, r.cycles_stdev
        );
    }
    println!("\n# Paper reference: RR 6 LoC/56 insns/1563 cyc; SCAN Avoid 21/311/1709;");
    println!("# SITA 16/81/1699; Token-based 45/106/1582. Enforcement dominates.");

    let path = results_path(csv_out.as_deref().unwrap_or("table2.csv"));
    if std::fs::write(&path, csv(&rows)).is_ok() {
        println!("wrote {}", path.display());
    }

    // Machine-readable trajectory: every run appends one record to
    // results/BENCH_table2.json, so per-policy cost drift is visible
    // across commits without diffing CSVs by hand.
    let mut rows_json = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            rows_json.push(',');
        }
        rows_json.push_str(&format!(
            "{{\"policy\":\"{}\",\"loc\":{},\"static_insns\":{},\"exec_insns\":{:.1},\
             \"cycles_mean\":{:.1},\"cycles_stdev\":{:.1}}}",
            r.name, r.loc, r.static_insns, r.executed_insns, r.cycles_mean, r.cycles_stdev
        ));
    }
    rows_json.push(']');
    append_bench_record(
        "BENCH_table2.json",
        &format!(
            "{{\"bench\":\"table2\",\"unix_ts\":{},\"backend\":\"{backend}\",\
             \"reps\":{REPS},\"rows\":{rows_json}}}",
            unix_ts()
        ),
    );

    if let Some(out) = trace_out {
        write_breakdown(&out, &tracer.drain());
    }

    if let Some(out) = profile_out {
        // Per-policy attribution breakdowns. The mean-total consistency
        // with the Cycles column is structural: the profiler attributes
        // every cycle the VM charged, so attributed/runs + enforcement
        // must equal `cycles_mean` exactly.
        let mut json = String::from("[");
        for (i, (row, profiler)) in rows.iter().zip(&profilers).enumerate() {
            let report = profiler.report(None, 10);
            let mean_total =
                report.attributed_cycles as f64 / report.runs as f64 + ENFORCEMENT as f64;
            assert!(
                (mean_total - row.cycles_mean).abs() < 1e-6,
                "{}: attribution ({mean_total}) disagrees with Table 2 ({})",
                row.name,
                row.cycles_mean
            );
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"policy\":\"{}\",\"enforcement\":{},\"mean_total_cycles\":{mean_total:.1},\
                 \"report\":{}}}",
                row.name,
                ENFORCEMENT,
                serde::json::to_string(&report).expect("report serializes")
            ));
        }
        json.push(']');
        let dest = results_path(&out);
        match std::fs::write(&dest, json) {
            Ok(()) => println!(
                "wrote per-policy cycle attribution ({} policies) to {}",
                rows.len(),
                dest.display()
            ),
            Err(e) => eprintln!("could not write {}: {e}", dest.display()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Modelled cycles are the engines' shared contract: Table 2 built on
    /// the reference interpreter and on the fast engine is the same text.
    #[test]
    fn both_engines_render_the_same_csv() {
        let tracer = syrup::trace::Tracer::disabled();
        let profilers: Vec<_> = (0..4)
            .map(|_| syrup::profile::Profiler::disabled())
            .collect();
        let render = |backend| csv(&measure_all(&tracer, &profilers, backend));
        assert_eq!(render(Backend::Interp), render(Backend::Fast));
    }
}
