//! `ledger compare A.json B.json`: is B no worse than A?
//!
//! For every workload × end-to-end metric the verdict is
//!
//! * `regressed` — B's median is worse than A's by more than the bound
//!   the record carries for that metric;
//! * `unresolved` — either run's own laps are spread (first to third
//!   quartile, as a share of the median) wider than the bound, so a
//!   difference of that size cannot be told from noise;
//! * `ok` — otherwise.
//!
//! A workload whose failed share of attempted ops rose is `regressed`
//! whatever its timings say. Exit code: 0 all ok, 1 something regressed,
//! 3 nothing regressed but something unresolved, 2 unusable input.

use std::path::Path;
use std::process::ExitCode;

use serde::json::Value;

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method). `None` under two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 when there are too
/// few samples to say.
pub fn spread(values: &[f64]) -> f64 {
    let med = crate::timing::median(values);
    match quartiles(values) {
        Some((q1, q3)) if values.len() >= 4 && med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Lap spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

/// Judges one metric from both runs' medians and samples.
pub fn judge(
    a: f64,
    b: f64,
    higher_is_better: bool,
    bound: f64,
    samples_a: &[f64],
    samples_b: &[f64],
) -> Verdict {
    if spread(samples_a).max(spread(samples_b)) > bound {
        Verdict::Unresolved
    } else if worse_by(a, b, higher_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde::json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn samples(metric: &Value) -> Vec<f64> {
    metric
        .get("samples")
        .and_then(|s| s.as_array())
        .map(|s| s.iter().filter_map(|v| v.as_f64()).collect())
        .unwrap_or_default()
}

fn failed_share(workload: &Value) -> f64 {
    let get = |k: &str| workload.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    get("ops_failed") / get("ops_attempted").max(1.0)
}

/// Compares two records and prints one row per workload × metric.
pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("ledger compare: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let host = |r: &Value| {
        r.get("host")
            .map(|h| (h.get("cpu").cloned(), h.get("nproc").cloned()))
    };
    if host(&a) != host(&b) {
        println!("# warning: the two records come from different hosts");
    }
    let Some(workloads) = a.get("workloads").and_then(|w| w.as_object()) else {
        eprintln!("ledger compare: {} has no workloads", a_path.display());
        return ExitCode::from(2);
    };
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread A", "spread B"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for (name, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<14} missing from {}  regressed", b_path.display());
            regressed += 1;
            continue;
        };
        let Some(metrics) = wa.get("metrics").and_then(|m| m.as_object()) else {
            continue;
        };
        for (metric, ma) in metrics {
            let mb = wb.get("metrics").and_then(|m| m.get(metric));
            let value = |m: &Value| m.get("value").and_then(|v| v.as_f64());
            let (Some(va), Some(vb)) = (value(ma), mb.and_then(value)) else {
                println!("{name:<14} {metric:<12} unreadable  regressed");
                regressed += 1;
                continue;
            };
            let higher = ma.get("better").and_then(|v| v.as_str()) == Some("higher");
            let bound = ma.get("bound").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let (sa, sb) = (samples(ma), mb.map(samples).unwrap_or_default());
            let verdict = judge(va, vb, higher, bound, &sa, &sb);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{name:<14} {metric:<12} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {}",
                100.0 * worse_by(va, vb, higher),
                100.0 * bound,
                100.0 * spread(&sa),
                100.0 * spread(&sb),
                verdict.as_str()
            );
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        let verdict = if fb > fa {
            regressed += 1;
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        println!(
            "{name:<14} {:<12} {fa:>14.6} {fb:>14.6} {:>48}",
            "failed_share",
            verdict.as_str()
        );
    }
    println!("# {regressed} regressed, {unresolved} unresolved");
    if regressed > 0 {
        ExitCode::from(1)
    } else if unresolved > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), 5.5 / 5.5);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), 0.0, "too few samples to say");
    }

    #[test]
    fn verdicts() {
        let tight = [100.0, 100.5, 99.5, 100.2, 99.8];
        // Higher is better: 8 % down against a 5 % bound regresses.
        assert_eq!(
            judge(100.0, 92.0, true, 0.05, &tight, &tight),
            Verdict::Regressed
        );
        assert_eq!(judge(100.0, 96.0, true, 0.05, &tight, &tight), Verdict::Ok);
        assert_eq!(judge(100.0, 120.0, true, 0.05, &tight, &tight), Verdict::Ok);
        // Lower is better: the same numbers read the other way.
        assert_eq!(
            judge(100.0, 108.0, false, 0.05, &tight, &tight),
            Verdict::Regressed
        );
        assert_eq!(judge(100.0, 80.0, false, 0.05, &tight, &tight), Verdict::Ok);
        // Laps spread wider than the bound decide nothing, either way.
        let loose = [100.0, 80.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(100.0, 92.0, true, 0.05, &tight, &loose),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 100.0, true, 0.05, &loose, &tight),
            Verdict::Unresolved
        );
        // One sample (peak RSS) has no spread and is judged on the median.
        assert_eq!(
            judge(50.0, 53.0, false, 0.05, &[50.0], &[53.0]),
            Verdict::Regressed
        );
    }
}
