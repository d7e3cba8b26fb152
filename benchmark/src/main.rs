//! `ledger`: the perf ledger of the whole Syrup trip.
//!
//! ```text
//! ledger [--workload W] [--seed N] [--seconds S] [--laps L] [--trace [0|1]]
//!        [--quick] [--out FILE] [--bless]
//! ledger compare A.json B.json
//! ```
//!
//! With `--workload` the process *is* that workload's run: set-up, laps,
//! output check, `name value unit` lines, and one JSON object on the last
//! line of standard output (`correct`, `attempted`, `failed`, `metrics`).
//! `--trace 1` runs the traced pass instead and reports every per-layer
//! metric. Without `--workload` the process runs every workload, each in
//! a child process of its own, then (with `--trace`) the traced pass, and
//! writes one JSON record with host facts. See `benchmark/README.md`.

mod compare;
mod layers;
mod record;
mod replay;
mod timing;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use record::Json;
use timing::{HostSpeed, LapStats};
use workloads::{Fingerprint, NAMES, QUICK_DIV};

/// An end-to-end metric: every workload reports all of them.
pub struct EndToEnd {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics and their regression bounds. Every bound is as
/// wide as `BENCHMARK.json` may state: ten runs of one workload spread by
/// 2–7 % of their median on a quiet reference host (15 % for the threaded
/// `scale-2shard`) and by 11–30 % when its neighbours are busy.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

/// Set-ups per run; `setup_s` is their median. A set-up costs about one
/// lap, and a single lap of a threaded workload can take twice the usual.
const SETUPS: usize = 5;
/// Fewest timed laps a measured run accepts.
const MIN_LAPS: usize = 3;
/// Requests of the replay written to `trace.json` (all are measured).
const TRACE_JSON_REQUESTS: u32 = 2_000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    laps: Option<usize>,
    trace: bool,
    quick: bool,
    bless: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: ledger [--workload W] [--seed N] [--seconds S] [--laps L] [--trace [0|1]] \
         [--quick] [--out FILE] [--bless]\n       ledger compare A.json B.json\nworkloads: {}",
        NAMES.join(" ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 8.0,
        laps: None,
        trace: false,
        quick: false,
        bless: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} takes {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}\n{}", usage()));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = s;
            }
            "--laps" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--laps: {e}"))?;
                if n == 0 || n > 10_000 {
                    return Err("--laps must be in 1..=10000".into());
                }
                args.laps = Some(n);
            }
            // `--trace` alone turns tracing on; the driver's form is
            // `--trace 0` / `--trace 1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--bless" => args.bless = true,
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let outcome = parse_args(&argv).and_then(|args| {
        // The default engine and scale are what is measured.
        for var in ["SYRUP_BACKEND", "SYRUP_SCALE"] {
            if std::env::var_os(var).is_some() {
                return Err(format!("ledger: {var} is set; unset it and run again"));
            }
        }
        if !args.quick {
            timing::refuse_debug_build()?;
        }
        let home = record::benchmark_dir().ok_or(
            "ledger: cannot find benchmark/run.sh above the executable or the working directory",
        )?;
        match (&args.workload, args.trace) {
            (None, _) => run_all(&args, &home),
            (Some(_), true) => run_traced(&args, &home),
            (Some(name), false) => run_workload(&args, name, &home, started),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn size_key(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

fn div(quick: bool) -> u64 {
    if quick {
        QUICK_DIV
    } else {
        1
    }
}

/// The blessed fingerprint of `workload` at this size, if `seed` is the
/// blessed seed and the file names the workload.
fn expected(
    home: &Path,
    workload: &str,
    seed: u64,
    quick: bool,
) -> Result<Option<Fingerprint>, String> {
    let path = home.join("expected.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde::json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("seed").and_then(|s| s.as_u64()) != Some(seed) {
        return Ok(None);
    }
    let Some(fields) = doc
        .get(size_key(quick))
        .and_then(|s| s.get(workload))
        .and_then(|w| w.as_object())
    else {
        return Ok(None);
    };
    let mut fp = Fingerprint::new();
    for (key, value) in fields {
        let n = value
            .as_u64()
            .ok_or_else(|| format!("{}: {workload}.{key} is not a count", path.display()))?;
        fp.insert(key.clone(), n);
    }
    Ok(Some(fp))
}

fn first_difference(got: &Fingerprint, want: &Fingerprint) -> String {
    let keys: std::collections::BTreeSet<&String> = got.keys().chain(want.keys()).collect();
    keys.into_iter()
        .find(|k| got.get(*k) != want.get(*k))
        .map_or_else(
            || "no difference".into(),
            |k| format!("{k}: got {:?}, want {:?}", got.get(k), want.get(k)),
        )
}

fn fingerprint_json(fp: &Fingerprint) -> Json {
    Json::obj(fp.iter().map(|(k, v)| (k.clone(), Json::Int(*v))))
}

fn metric_json(stats: &LapStats, samples: &[f64], e: &EndToEnd) -> Json {
    Json::obj([
        ("value", Json::Num(stats.median)),
        ("unit", Json::str(e.unit)),
        ("better", Json::str(e.better)),
        ("bound", Json::Num(e.bound)),
        ("min", Json::Num(stats.min)),
        ("max", Json::Num(stats.max)),
        ("n", Json::Int(stats.n as u64)),
        ("samples", Json::nums(samples)),
    ])
}

fn value_unit(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The last line of a single run's standard output.
fn driver_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &str)>,
) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1))),
        ("failed", Json::Int(failed)),
        (
            "metrics",
            Json::obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| (name, value_unit(value, unit))),
            ),
        ),
    ])
    .render()
}

/// One workload, in this process: set-ups, timed laps, output check.
fn run_workload(
    args: &Args,
    name: &str,
    home: &Path,
    process_start: Instant,
) -> Result<ExitCode, String> {
    let single = args.quick || args.bless;
    let setups = if single { 1 } else { SETUPS };
    let mut errors: Vec<String> = Vec::new();
    let mut agreed: Option<Fingerprint> = None;
    let mut check = |lap: &workloads::Lap, which: &str, errors: &mut Vec<String>| match &agreed {
        None => agreed = Some(lap.fingerprint.clone()),
        Some(first) if *first != lap.fingerprint => errors.push(format!(
            "{name}: {which} differs from the first lap ({})",
            first_difference(&lap.fingerprint, first)
        )),
        Some(_) => {}
    };

    // Set-up: input generation, world construction, policy compile +
    // verify + deploy, and one untimed warm-up lap. The first one starts
    // at process start; the median of several is reported. The host-speed
    // probe runs between the timed stretches, never inside one.
    let mut setup_s = Vec::new();
    let mut probe_s = Vec::new();
    let mut prepared: Option<(workloads::Workload, HostSpeed)> = None;
    for k in 0..setups {
        let t = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut w = workloads::prepare(name, args.seed, div(args.quick)).expect("validated name");
        let warm = w.lap();
        setup_s.push(t.elapsed().as_secs_f64());
        check(&warm, "a warm-up lap", &mut errors);
        let probe = match prepared.take() {
            Some((_, probe)) => probe,
            None => HostSpeed::new(w.threads),
        };
        probe_s.push(probe.sample());
        prepared = Some((w, probe));
    }
    let (mut workload, probe) = prepared.expect("at least one set-up");

    let laps_wanted = args.laps.or(single.then_some(1));
    let (mut lap_s, mut lap_ops, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let timed = Instant::now();
    loop {
        let t = Instant::now();
        let lap = workload.lap();
        let secs = t.elapsed().as_secs_f64();
        check(&lap, &format!("lap {}", lap_s.len() + 1), &mut errors);
        attempted += lap.ops;
        failed += lap.failed;
        rates.push(lap.ops as f64 / secs);
        lap_ops.push(lap.ops);
        lap_s.push(secs);
        probe_s.push(probe.sample());
        let done = match laps_wanted {
            Some(n) => lap_s.len() >= n,
            None => lap_s.len() >= MIN_LAPS && timed.elapsed().as_secs_f64() >= args.seconds,
        };
        if done {
            break;
        }
    }
    // Before the checks below run reference worlds of their own, and
    // less what the ledger's own probe keeps resident beside the workload.
    let rss = record::peak_rss_mib().ok_or("ledger: /proc/self/status has no VmHWM")?
        - probe.resident_mib();

    let agreed = agreed.expect("at least one lap ran");
    if !args.bless {
        if let Some(want) = expected(home, name, args.seed, args.quick)? {
            if want != agreed {
                errors.push(format!(
                    "{name}: fingerprint differs from expected.json ({}); if the simulated \
                     behaviour was meant to change, run `benchmark/run.sh --bless`",
                    first_difference(&agreed, &want)
                ));
            }
        }
    }
    let extras = match workload.cross_check(&agreed) {
        Ok(extras) => extras,
        Err(e) => {
            errors.push(e);
            Vec::new()
        }
    };
    if !errors.is_empty() {
        // A lap whose output is wrong did no useful work.
        failed = attempted;
    }

    // How slow the host ran during this run, and the timings it would
    // have produced at reference speed.
    let slowdown = timing::median(&probe_s) / probe.reference_s();
    let raw_rate = timing::median(&rates);
    let rates: Vec<f64> = rates.iter().map(|r| r * slowdown).collect();
    let extras: Vec<(String, f64)> = extras
        .into_iter()
        .map(|(n, rate)| (n, rate * slowdown))
        .collect();
    let raw_setup_s = setup_s.clone();
    let setup_s: Vec<f64> = setup_s.iter().map(|s| s / slowdown).collect();

    let stats = [
        LapStats::of(&rates).expect("laps ran"),
        LapStats::of(&setup_s).expect("set-ups ran"),
        LapStats::of(&[rss]).expect("one sample"),
    ];
    let samples: [&[f64]; 3] = [&rates, &setup_s, &[rss]];
    println!(
        "# {name}: op = {}, {} thread(s), seed {}, {} lap(s) of {} ops; median over laps, \
         min..max, n (no percentile above the median is supported by so few samples)",
        workload.op,
        workload.threads,
        args.seed,
        lap_s.len(),
        lap_ops[0]
    );
    println!(
        "# {name}: host ran {slowdown:.3}x slower than reference (probe median {:.2} ms); \
         timings are scaled to reference speed, raw ops_per_s {raw_rate}",
        1e3 * timing::median(&probe_s)
    );
    for (e, s) in END_TO_END.iter().zip(&stats) {
        println!(
            "{name}.{} {} {}  # min {} max {} n={}",
            e.name, s.median, e.unit, s.min, s.max, s.n
        );
    }
    println!("{name}.ops_attempted {attempted} count");
    println!("{name}.ops_failed {failed} count");
    for (extra, rate) in &extras {
        println!("{extra} {rate} op/s");
    }
    for e in &errors {
        eprintln!("ledger: output check failed: {e}");
    }

    let correct = errors.is_empty();
    let record = Json::obj([
        ("workload", Json::str(name)),
        ("op", Json::str(workload.op)),
        ("threads", Json::Int(workload.threads as u64)),
        ("seed", Json::Int(args.seed)),
        ("size", Json::str(size_key(args.quick))),
        ("laps", Json::Int(lap_s.len() as u64)),
        (
            "lap_ops",
            Json::Arr(lap_ops.iter().map(|&n| Json::Int(n)).collect()),
        ),
        ("lap_s", Json::nums(&lap_s)),
        ("setup_raw_s", Json::nums(&raw_setup_s)),
        (
            "host_speed",
            Json::obj([
                ("slowdown", Json::Num(slowdown)),
                ("reference_s", Json::Num(probe.reference_s())),
                ("probe_s", Json::nums(&probe_s)),
            ]),
        ),
        ("ops_attempted", Json::Int(attempted)),
        ("ops_failed", Json::Int(failed)),
        ("correct", Json::Bool(correct)),
        ("errors", Json::Arr(errors.iter().map(Json::str).collect())),
        (
            "metrics",
            Json::obj(
                END_TO_END
                    .iter()
                    .zip(&stats)
                    .zip(samples)
                    .map(|((e, s), samples)| (e.name, metric_json(s, samples, e))),
            ),
        ),
        (
            "extras",
            Json::obj(
                extras
                    .iter()
                    .map(|(n, rate)| (n.clone(), value_unit(*rate, "op/s"))),
            ),
        ),
        ("fingerprint", fingerprint_json(&agreed)),
    ]);
    println!("record {}", record.render());
    if !correct {
        return Ok(ExitCode::from(1));
    }
    let metrics = END_TO_END
        .iter()
        .zip(&stats)
        .map(|(e, s)| (e.name.to_string(), s.median, e.unit))
        .collect();
    println!("{}", driver_line(true, attempted, failed, metrics));
    Ok(ExitCode::SUCCESS)
}

/// The traced pass, in this process.
fn run_traced(args: &Args, home: &Path) -> Result<ExitCode, String> {
    let pass = traced::run(args.seed, div(args.quick))?;
    let mut errors = Vec::new();
    for (name, fp) in &pass.fingerprints {
        if let Some(want) = expected(home, name, args.seed, args.quick)? {
            if want != *fp {
                errors.push(format!(
                    "{name}: fingerprint differs from expected.json ({})",
                    first_difference(fp, &want)
                ));
            }
        }
    }
    println!("# traced pass: every per-layer metric (best of interleaved batches; see README)");
    for (name, value, unit) in &pass.metrics.0 {
        println!("{name} {value} {unit}");
    }
    let r = &pass.replay;
    println!(
        "# trip-replay: world {:.1} ns/op, untraced replay {:.1}, traced replay {:.1} \
         (tracing overhead {:.1} ns/op over {} spans/op)",
        r.world_ns,
        r.untraced_ns,
        r.traced_ns,
        r.traced_ns - r.untraced_ns,
        replay::SPAN_NAMES.len()
    );
    let out_dir = home.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join("trace.json");
    std::fs::write(&trace_path, replay::trace_json(r, TRACE_JSON_REQUESTS))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("# spans written to {}", trace_path.display());
    for e in &errors {
        eprintln!("ledger: output check failed: {e}");
    }
    let correct = errors.is_empty();
    let failed = if correct { pass.failed } else { pass.attempted };
    let record = Json::obj([
        ("seed", Json::Int(args.seed)),
        ("size", Json::str(size_key(args.quick))),
        ("ops_attempted", Json::Int(pass.attempted)),
        ("ops_failed", Json::Int(failed)),
        ("correct", Json::Bool(correct)),
        (
            "metrics",
            Json::obj(
                pass.metrics
                    .0
                    .iter()
                    .map(|(n, v, u)| (n.clone(), value_unit(*v, u))),
            ),
        ),
    ]);
    println!("record {}", record.render());
    if !correct {
        return Ok(ExitCode::from(1));
    }
    let metrics = pass
        .metrics
        .0
        .iter()
        .map(|(n, v, u)| (n.clone(), *v, *u))
        .collect();
    println!("{}", driver_line(true, pass.attempted, failed, metrics));
    Ok(ExitCode::SUCCESS)
}

/// Runs `ledger <args>` as a child, passes its report lines through, and
/// returns its `record` object (as text) and whether it succeeded.
fn child(extra: &[String]) -> Result<(Option<String>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a workload process: {e}"))?;
    let mut record = None;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if let Some(json) = line.strip_prefix("record ") {
            record = Some(json.to_string());
        } else if !line.starts_with('{') {
            println!("{line}");
        }
    }
    Ok((record, out.status.success()))
}

/// Every workload in a child process of its own, then the traced pass.
fn run_all(args: &Args, home: &Path) -> Result<ExitCode, String> {
    let mut common = vec![
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
    ];
    if let Some(laps) = args.laps {
        common.extend(["--laps".to_string(), laps.to_string()]);
    }
    if args.bless {
        common.push("--bless".into());
        return bless(args.seed, &common, home);
    }
    if args.quick {
        common.push("--quick".into());
    }

    let mut ok = true;
    let mut workloads = Vec::new();
    for name in NAMES {
        let mut argv = vec!["--workload".to_string(), name.to_string()];
        argv.extend(common.iter().cloned());
        let (record, success) = child(&argv)?;
        ok &= success;
        if let Some(record) = record {
            workloads.push((name, record));
        }
    }
    let mut layers = None;
    if args.trace {
        let mut argv = vec![
            "--workload".to_string(),
            NAMES[0].to_string(),
            "--trace".into(),
        ];
        argv.extend(common.iter().cloned());
        let (record, success) = child(&argv)?;
        ok &= success;
        layers = record;
    }

    // Children's records are already JSON text: splice them in as they are.
    let repo = home.parent().unwrap_or(home);
    let head = Json::obj([
        ("ledger", Json::Int(1)),
        ("host", record::host_facts(repo)),
        ("seed", Json::Int(args.seed)),
        ("size", Json::str(size_key(args.quick))),
        ("seconds", Json::Num(args.seconds)),
        (
            "laps",
            args.laps.map_or(Json::Null, |n| Json::Int(n as u64)),
        ),
        ("ok", Json::Bool(ok)),
    ])
    .render();
    let mut doc = head.trim_end_matches('}').to_string();
    doc.push_str(",\"workloads\":{");
    for (i, (name, record)) in workloads.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!("\n\"{name}\":{record}"));
    }
    doc.push_str("\n},\"layers\":");
    doc.push_str(layers.as_deref().unwrap_or("null"));
    doc.push_str("}\n");

    let out = args.out.clone().unwrap_or_else(|| {
        home.join("out")
            .join(format!("ledger-{}.json", size_key(args.quick)))
    });
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# record written to {}", out.display());
    if !ok {
        eprintln!("ledger: at least one workload failed its output check");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// Regenerates `expected.json` from one lap of every workload at both
/// sizes.
fn bless(seed: u64, common: &[String], home: &Path) -> Result<ExitCode, String> {
    let mut doc = format!("{{\n\"seed\": {seed}");
    for quick in [false, true] {
        doc.push_str(&format!(",\n\"{}\": {{", size_key(quick)));
        for (i, name) in NAMES.iter().enumerate() {
            let mut argv = vec!["--workload".to_string(), name.to_string()];
            argv.extend(common.iter().cloned());
            if quick {
                argv.push("--quick".into());
            }
            let (record, success) = child(&argv)?;
            let record = record
                .filter(|_| success)
                .ok_or_else(|| format!("bless: {name} failed"))?;
            let parsed = serde::json::from_str(&record).map_err(|e| format!("bless: {e}"))?;
            let fields = parsed
                .get("fingerprint")
                .and_then(|f| f.as_object())
                .ok_or("bless: record has no fingerprint")?;
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{k}\": {}", v.as_u64().unwrap_or(0)))
                .collect();
            let sep = if i > 0 { "," } else { "" };
            doc.push_str(&format!("{sep}\n  \"{name}\": {{{}}}", body.join(", ")));
        }
        doc.push_str("\n}");
    }
    doc.push_str("\n}\n");
    let path = home.join("expected.json");
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# blessed {}", path.display());
    Ok(ExitCode::SUCCESS)
}
