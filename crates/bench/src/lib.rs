//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation: it sweeps offered load (or another axis) across
//! seeds, prints the same rows/series the paper plots, and writes CSV
//! next to the repository in `results/`.
//!
//! The figure programs themselves are functions in [`figures`]; the
//! binaries are one-line mains over that registry, and `--bin all`
//! regenerates every artifact in one timed pass. Every figure runs its
//! seeds through the one [`sweep()`] loop, and every `benches/*` target
//! times and gates its sites through the one [`gate()`] table.
//!
//! Scale control: the `SYRUP_SCALE` environment variable (default `1.0`)
//! multiplies measurement durations and divides seed counts, so CI can run
//! `SYRUP_SCALE=0.2 cargo run --release -p bench --bin fig6` for a fast
//! smoke pass while the full setting reproduces the paper-fidelity sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

pub use syrup::sim::Duration;

pub mod figures;
mod gate;
mod sweep;

pub use gate::{gate, interleave, Batches, Limit, Site, Timing};
pub use sweep::{sweep, sweep_with, Series, Sweep};

/// Reports a mistake in the harness's environment or arguments and exits
/// with status 2 — before the run it would have mis-shaped has started.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Turns a harness result into the process's exit code, printing the
/// error: the `main` of every figure binary.
pub fn exit_code(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// A `SYRUP_SCALE` setting as a factor: `1.0` when unset, a finite
/// positive number clamped to `0.05..=10`, and an error for anything
/// else — a typo must not silently run the full sweep, and `nan` must not
/// turn every measurement window into zero.
fn parse_scale(setting: Option<&str>) -> Result<f64, String> {
    let Some(text) = setting else {
        return Ok(1.0);
    };
    match text.parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 => Ok(s.clamp(0.05, 10.0)),
        _ => Err(format!(
            "SYRUP_SCALE={text:?} is not a finite positive number (try 0.05, 1 or 2.5)"
        )),
    }
}

/// The measurement-scale factor from `SYRUP_SCALE` (clamped to
/// `0.05..=10`); a value that is not a finite positive number ends the
/// process with one line on stderr.
pub fn scale() -> f64 {
    let setting = std::env::var_os("SYRUP_SCALE").map(|s| s.to_string_lossy().into_owned());
    parse_scale(setting.as_deref()).unwrap_or_else(|e| usage_error(&e))
}

/// Scales a duration by [`scale`].
pub fn scaled(d: Duration) -> Duration {
    Duration::from_secs_f64(d.as_secs_f64() * scale())
}

/// Scales a seed count by [`scale`] (at least one seed).
pub fn scaled_seeds(n: u64) -> u64 {
    ((n as f64 * scale()).round() as u64).max(1)
}

/// The `(warmup, measure)` window of one run, given in milliseconds at
/// full scale and scaled by [`scale`].
pub fn window(warmup_ms: u64, measure_ms: u64) -> (Duration, Duration) {
    (
        scaled(Duration::from_millis(warmup_ms)),
        scaled(Duration::from_millis(measure_ms)),
    )
}

/// Where CSV output lands: `<repo>/results/`, in the checkout the harness
/// runs in — not the one it was compiled in, so a binary built elsewhere
/// never appends to another checkout's records.
pub fn results_dir() -> PathBuf {
    let dir = checkout_root().join("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Where an output named on a command line lands: a bare file name goes
/// into [`results_dir`], anything with a `/` is taken as given.
pub fn results_path(path: &str) -> PathBuf {
    if path.contains('/') {
        PathBuf::from(path)
    } else {
        results_dir().join(path)
    }
}

/// The nearest directory holding this crate at `crates/bench`, searched
/// upwards from the current directory and then from the executable (which
/// sits in the checkout's `target/`); the current directory if neither
/// is inside a checkout.
fn checkout_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    let exe = std::env::current_exe().unwrap_or_default();
    let root = [&cwd, &exe]
        .into_iter()
        .flat_map(|start| start.ancestors())
        .find(|dir| dir.join("crates/bench/Cargo.toml").is_file());
    root.unwrap_or(&cwd).to_path_buf()
}

/// Value of a `--name VALUE` flag, if the flag is present; a flag given
/// last has lost its value and is an error.
fn parse_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(value) => Ok(Some(value.clone())),
            None => Err(format!("{flag} requires a value")),
        },
    }
}

/// Value of a `--name VALUE` flag in a harness's argument list. A flag
/// with its value missing ends the process with one line on stderr: the
/// caller asked for an artifact the run would otherwise silently skip.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    parse_flag(args, flag).unwrap_or_else(|e| usage_error(&e))
}

/// `text`, the value given to the numeric flag `flag`, as a number; one
/// that does not parse ends the process with one line on stderr.
pub fn parse_num<T: std::str::FromStr>(flag: &str, text: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} `{text}` is not a number")))
}

/// Value of a numeric `--name N` flag, `default` when the flag is absent
/// (see [`flag_value`] and [`parse_num`] for what ends the process).
pub fn num_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag).map_or(default, |v| parse_num(flag, &v))
}

/// The request datagram the VM-facing harnesses run policies over: one
/// fixed flow to port 8080, user 1, of the given class.
pub fn datagram(class: syrup::net::RequestClass) -> Vec<u8> {
    use syrup::net::{AppHeader, FiveTuple, Frame};
    let flow = FiveTuple {
        src_ip: 1,
        dst_ip: 2,
        src_port: 40_000,
        dst_port: 8080,
    };
    let header = AppHeader {
        req_type: class.code(),
        user_id: 1,
        key_hash: 7,
        req_id: 0,
    };
    Frame::build(&flow, &header).datagram().to_vec()
}

/// A corpus policy compiled, verified and loaded on a VM pinned to
/// `backend`, its maps seeded so a timed run takes the hit path.
pub fn seeded_vm(
    source: &str,
    opts: &syrup::core::CompileOptions,
    backend: syrup::ebpf::vm::Backend,
) -> (syrup::ebpf::vm::Vm, syrup::ebpf::maps::ProgSlot) {
    let maps = syrup::ebpf::maps::MapRegistry::new();
    let compiled = syrup::lang::compile(source, opts, &maps).expect("corpus policy compiles");
    syrup::ebpf::verify(&compiled.program, &maps).expect("corpus policy verifies");
    for id in compiled.created_maps.values() {
        if let Some(m) = maps.get(*id) {
            for k in 0..6u32 {
                let _ = m.update_u64(k, 1_000_000);
            }
        }
    }
    let mut vm = syrup::ebpf::vm::Vm::new(maps);
    vm.set_backend(backend);
    let slot = vm.load_unverified(compiled.program);
    (vm, slot)
}

/// Reconstructs timelines from `records` and writes the per-stage latency
/// breakdown as JSON to `path` — the `--trace-out` flag of the fig7 and
/// table2 harnesses. Relative paths land in `results/`.
pub fn write_breakdown(path: &str, records: &[syrup::trace::SpanRecord]) {
    let timelines = syrup::trace::reconstruct(records);
    let breakdown = syrup::trace::StageBreakdown::from_timelines(&timelines);
    let json = serde::json::to_string(&breakdown).expect("breakdown serializes");
    let dest = results_path(path);
    match fs::write(&dest, json) {
        Ok(()) => println!(
            "wrote stage-latency breakdown ({} traces) to {}",
            breakdown.traces,
            dest.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", dest.display()),
    }
}

/// Seconds since the Unix epoch, stamped into bench-trajectory records.
pub fn unix_ts() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The members every tracked record carries about where it was produced,
/// as the inside of a JSON object: `git_sha` and `git_dirty` of the
/// checkout the harness runs in, `cores`, `cpu`, `rustc` and its host
/// `target` triple. What cannot be determined reads `"unknown"`.
pub fn host_facts() -> String {
    let stdout_of = |program: &str, args: &[&str]| {
        let out = std::process::Command::new(program)
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let root = checkout_root();
    let git = |args: &[&str]| stdout_of("git", &[&["-C", &root.to_string_lossy()], args].concat());
    let rustc = stdout_of("rustc", &["-vV"]).unwrap_or_default();
    let rustc_line = |prefix: &str| rustc.lines().find_map(|l| l.strip_prefix(prefix));
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1));
    let quoted = |fact: Option<&str>| {
        serde::json::to_string(fact.map_or("unknown", str::trim)).expect("a string serializes")
    };
    format!(
        "\"git_sha\":{},\"git_dirty\":{},\"cores\":{},\"cpu\":{},\"rustc\":{},\"target\":{}",
        quoted(git(&["rev-parse", "HEAD"]).as_deref()),
        git(&["status", "--porcelain"]).map_or("null".into(), |s| (!s.is_empty()).to_string()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        quoted(cpu),
        quoted(rustc_line("rustc ")),
        quoted(rustc_line("host: ")),
    )
}

/// Appends one machine-readable run record (a JSON object) to a
/// JSON-array trajectory file, creating `[record]` when the file is
/// missing. Relative paths land in `results/`. The file stays a valid
/// JSON array after every append: the helper re-parses the combined
/// text and panics on corruption rather than letting a malformed
/// trajectory accumulate, and a file that is not an array is restarted
/// fresh (with a warning) instead of being destroyed silently.
pub fn append_bench_record(file: &str, record_json: &str) {
    let dest = results_path(file);
    let existing = fs::read_to_string(&dest).unwrap_or_default();
    let trimmed = existing.trim();
    let combined = match trimmed.strip_suffix(']') {
        Some(body) if trimmed.starts_with('[') => {
            if body.trim_end().ends_with('[') {
                format!("[{record_json}]")
            } else {
                format!("{body},{record_json}]")
            }
        }
        _ if trimmed.is_empty() => format!("[{record_json}]"),
        _ => {
            eprintln!(
                "{} is not a JSON array; starting a fresh trajectory",
                dest.display()
            );
            format!("[{record_json}]")
        }
    };
    let n = serde::json::from_str(&combined)
        .expect("bench trajectory stays valid JSON")
        .as_array()
        .map_or(0, Vec::len);
    match fs::write(&dest, &combined) {
        Ok(()) => println!("appended run record to {} ({n} records)", dest.display()),
        Err(e) => eprintln!("could not write {}: {e}", dest.display()),
    }
}

/// Prints the sweep as a table and writes `results/<name>.csv`.
pub fn emit(name: &str, sweep: &Sweep) {
    println!("{}", sweep.to_table());
    let path = results_dir().join(format!("{name}.csv"));
    match fs::write(&path, sweep.to_csv()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Prints a headline comparison the way the paper's prose does, e.g.
/// "Round Robin sustains 124% more load than Vanilla before the tail
/// explodes".
pub fn knee_comparison(sweep: &Sweep, limit_us: f64, baseline: &str) {
    let Some(base) = sweep.series.iter().find(|s| s.label == baseline) else {
        return;
    };
    let Some(base_knee) = base.max_x_within(limit_us) else {
        return;
    };
    println!("\n# Sustained load before mean y exceeds {limit_us} (vs {baseline}):");
    for s in &sweep.series {
        if let Some(knee) = s.max_x_within(limit_us) {
            let gain = 100.0 * (knee - base_knee) / base_knee.max(1.0);
            println!("  {:<28} {:>12.0}  ({:+.0}%)", s.label, knee, gain);
        } else {
            println!("  {:<28} {:>12}  (never under limit)", s.label, "-");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_clamped() {
        assert_eq!(parse_scale(None), Ok(1.0));
        for (setting, factor) in [
            ("1", 1.0),
            ("0.2", 0.2),
            ("2.5", 2.5),
            // Out-of-range finite values clamp.
            ("0.001", 0.05),
            ("1e-300", 0.05),
            ("400", 10.0),
            ("1e300", 10.0),
        ] {
            assert_eq!(parse_scale(Some(setting)), Ok(factor), "{setting}");
        }
        assert!(scaled_seeds(10) >= 1);
    }

    #[test]
    fn scale_garbage_is_rejected_not_swallowed() {
        for setting in [
            "nan", "NaN", "inf", "-inf", "-1", "0", "-0.0", "abc", "fast", "", " 1",
        ] {
            let err = parse_scale(Some(setting)).expect_err(setting);
            assert!(
                err.starts_with("SYRUP_SCALE=") && err.contains(setting),
                "{err}"
            );
        }
    }

    #[test]
    fn a_flag_given_last_is_missing_its_value() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for flag in ["--trace-out", "--out", "--seed", "--profile-out"] {
            assert_eq!(parse_flag(&args(&["--x", "1"]), flag), Ok(None));
            assert_eq!(
                parse_flag(&args(&[flag, "v", "--x"]), flag),
                Ok(Some("v".to_string()))
            );
            assert_eq!(
                parse_flag(&args(&["--x", "1", flag]), flag),
                Err(format!("{flag} requires a value"))
            );
        }
    }

    // The one timer, under the names its two tests had when it was the
    // vendored criterion stub's `Bencher::iter`.
    #[test]
    fn bencher_measures_something() {
        let mut batches = Batches::new(|| 17u64.wrapping_mul(31));
        let n = batches.calibrate(std::time::Duration::from_micros(300));
        let t = interleave(&mut [(&mut batches, n)], 4)[0];
        assert!(0.0 <= t.min_ns && t.min_ns <= t.mean_ns && t.mean_ns <= t.max_ns);
    }

    #[test]
    fn smoke_mode_runs_once() {
        let mut calls = 0u32;
        let mut sites = [Site::new("x", Limit::Report, || calls += 1)];
        let rows = gate::time_rows("t", &mut sites, true, std::time::Duration::from_millis(100));
        assert!(rows.iter().all(|row| row.timing.is_none()));
        drop(sites);
        assert_eq!(calls, 1);
    }

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir();
        assert!(dir.exists());
    }

    #[test]
    fn results_dir_is_in_the_checkout_the_test_runs_in() {
        // A test runs in the checkout it was compiled in, so here (and
        // only here) the compile-time path is the answer.
        let compiled_in = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        assert_eq!(
            results_dir().canonicalize().unwrap(),
            compiled_in.canonicalize().unwrap()
        );
    }

    #[test]
    fn append_bench_record_grows_a_valid_json_array() {
        let dir = std::env::temp_dir().join(format!("syrup-bench-append-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("trajectory.json");
        let path_str = path.to_str().unwrap();
        let _ = fs::remove_file(&path);
        append_bench_record(path_str, "{\"bench\":\"t\",\"run\":1}");
        append_bench_record(path_str, "{\"bench\":\"t\",\"run\":2}");
        let text = fs::read_to_string(&path).unwrap();
        let value = serde::json::from_str(&text).expect("trajectory parses");
        let records = value.as_array().expect("trajectory is an array");
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].get("run").and_then(|v| v.as_u64()), Some(2));
        let _ = fs::remove_file(&path);
    }
}
