//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation: it sweeps offered load (or another axis) across
//! seeds, prints the same rows/series the paper plots, and writes CSV
//! next to the repository in `results/`.
//!
//! Scale control: the `SYRUP_SCALE` environment variable (default `1.0`)
//! multiplies measurement durations and divides seed counts, so CI can run
//! `SYRUP_SCALE=0.2 cargo run --release -p bench --bin fig6` for a fast
//! smoke pass while the full setting reproduces the paper-fidelity sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

pub use syrup::sim::sweep::{Series, Sweep};
pub use syrup::sim::Duration;

/// The measurement-scale factor from `SYRUP_SCALE` (clamped to
/// `0.05..=10`).
pub fn scale() -> f64 {
    std::env::var("SYRUP_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.05, 10.0)
}

/// Scales a duration by [`scale`].
pub fn scaled(d: Duration) -> Duration {
    Duration::from_secs_f64(d.as_secs_f64() * scale())
}

/// Scales a seed count by [`scale`] (at least one seed).
pub fn scaled_seeds(n: u64) -> u64 {
    ((n as f64 * scale()).round() as u64).max(1)
}

/// Where CSV output lands: `<repo>/results/`, in the checkout the harness
/// runs in — not the one it was compiled in, so a binary built elsewhere
/// never appends to another checkout's records.
pub fn results_dir() -> PathBuf {
    let dir = checkout_root().join("results");
    let _ = fs::create_dir_all(&dir);
    dir
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

/// Value of a `--name VALUE` flag in a harness's argument list.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Reconstructs timelines from `records` and writes the per-stage latency
/// breakdown as JSON to `path` — the `--trace-out` flag of the fig7 and
/// table2 harnesses. Relative paths land in `results/`.
pub fn write_breakdown(path: &str, records: &[syrup::trace::SpanRecord]) {
    let timelines = syrup::trace::reconstruct(records);
    let breakdown = syrup::trace::StageBreakdown::from_timelines(&timelines);
    let json = serde::json::to_string(&breakdown).expect("breakdown serializes");
    let dest = if path.contains('/') {
        PathBuf::from(path)
    } else {
        results_dir().join(path)
    };
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

/// Appends one machine-readable run record (a JSON object) to a
/// JSON-array trajectory file, creating `[record]` when the file is
/// missing. Relative paths land in `results/`. The file stays a valid
/// JSON array after every append: the helper re-parses the combined
/// text and panics on corruption rather than letting a malformed
/// trajectory accumulate, and a file that is not an array is restarted
/// fresh (with a warning) instead of being destroyed silently.
pub fn append_bench_record(file: &str, record_json: &str) {
    let dest = if file.contains('/') {
        PathBuf::from(file)
    } else {
        results_dir().join(file)
    };
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

/// Best-of-`rounds` nanoseconds per call over `batch`-call batches: the
/// timing the bench targets' cost gates (`blackbox`, `profile`, `scope`,
/// `wheel`) compare against their budgets.
pub fn best_of(rounds: u32, batch: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..rounds {
        let start = std::time::Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_clamped() {
        // Without the env var the default is 1.0.
        if std::env::var("SYRUP_SCALE").is_err() {
            assert_eq!(scale(), 1.0);
        }
        assert!(scaled_seeds(10) >= 1);
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
