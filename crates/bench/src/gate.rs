//! The one wall-clock timer and the one cost gate of the `benches/*`
//! targets.
//!
//! A bench target is a table of [`Site`]s: each names a hot-path call,
//! times it once through [`time`] and states its [`Limit`]. [`gate`]
//! reads the table and decides the exit code, so a contract such as
//! "a disabled record site costs at most 5 ns" is one row rather than a
//! reporting closure, a gating closure and a private copy of the
//! print / debug-build / over-budget / exit block.

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Per-call cost over the measured samples, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The fastest sample — what the gates compare: on a shared host the
    /// minimum is the reading least disturbed by the neighbours.
    pub min_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// The slowest sample.
    pub max_ns: f64,
}

/// How long one [`time`] call measures for, after calibration.
const MEASURE: Duration = Duration::from_millis(120);

/// Samples per measurement; each is a batch sized to `MEASURE / SAMPLES`.
const SAMPLES: u32 = 12;

/// Times `f`: per-call wall-clock nanoseconds over calibrated batches.
///
/// Only under `cargo bench`, which passes `--bench`. Run any other way —
/// `cargo test --benches` passes nothing, and `-- --test` asks for it —
/// `f` is called exactly once as a smoke test and there is no timing
/// (`None`).
pub fn time<O>(f: impl FnMut() -> O) -> Option<Timing> {
    let flag = |name: &str| std::env::args().any(|a| a == name);
    measure(!flag("--bench") || flag("--test"), MEASURE, f)
}

pub(crate) fn measure<O>(
    smoke: bool,
    budget: Duration,
    mut f: impl FnMut() -> O,
) -> Option<Timing> {
    use std::hint::black_box;
    if smoke {
        black_box(f());
        return None;
    }
    // Warm-up and calibration: grow the batch until it fills ~5 ms, so
    // the two `Instant` reads are amortised over the calls between them.
    let mut batch: u64 = 1;
    let per_call = loop {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(5) || batch >= 1 << 30 {
            break elapsed.as_secs_f64() / batch as f64;
        }
        batch *= 8;
    };
    let per_sample = budget.as_secs_f64() / f64::from(SAMPLES);
    let batch = ((per_sample / per_call.max(1e-9)) as u64).max(1);
    let (mut min, mut max, mut sum) = (f64::INFINITY, 0.0f64, 0.0f64);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64 / batch as f64;
        min = min.min(ns);
        max = max.max(ns);
        sum += ns;
    }
    Some(Timing {
        min_ns: min,
        mean_ns: sum / f64::from(SAMPLES),
        max_ns: max,
    })
}

/// What a [`Site`]'s fastest sample is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// Reported only: a baseline, or the enabled side shown for contrast.
    Report,
    /// At most this many nanoseconds per call.
    MaxNs(f64),
    /// At most `factor` times the named site of the same table — a
    /// no-regression bound when `factor` is above one, a required
    /// speed-up when below.
    Ratio {
        /// Name of the site compared against.
        of: &'static str,
        /// Largest allowed `this / of`.
        factor: f64,
    },
}

/// One row of a bench target's table: a timed call and its limit.
#[derive(Debug)]
pub struct Site {
    /// Name in the report and in a failure message.
    pub name: String,
    /// What the site's fastest sample must stay within.
    pub limit: Limit,
    /// The measurement; `None` in `cargo test`'s smoke mode.
    pub timing: Option<Timing>,
}

impl Site {
    /// Times `call` now (see [`time`]) and prints its report line.
    pub fn new<O>(name: impl Into<String>, limit: Limit, call: impl FnMut() -> O) -> Site {
        let name = name.into();
        let timing = time(call);
        match timing {
            Some(t) => println!(
                "{name:<40} time: [{} {} {}]",
                fmt_ns(t.min_ns),
                fmt_ns(t.mean_ns),
                fmt_ns(t.max_ns)
            ),
            None => println!("{name:<40} ok (smoke test)"),
        }
        Site {
            name,
            limit,
            timing,
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} µs", ns / 1_000.0)
    } else {
        format!("{:.3} ms", ns / 1_000_000.0)
    }
}

/// Holds every site of `target`'s table to its limit: prints the gated
/// rows and returns failure if any is over, naming each on stderr.
///
/// Gates only bite in release builds (a debug binary measures the
/// compiler, not the branch) and are skipped in `cargo test`'s smoke
/// mode, where nothing was timed.
pub fn gate(target: &str, sites: &[Site]) -> ExitCode {
    let (report, failures) = judge(target, sites, !cfg!(debug_assertions));
    print!("{report}");
    for failure in &failures {
        eprintln!("{failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The gate's stdout report and its failures, one per site over its
/// limit; `enforce` is false in a debug build, which only reports.
fn judge(target: &str, sites: &[Site], enforce: bool) -> (String, Vec<String>) {
    let best = |site: &Site| site.timing.map(|t| t.min_ns);
    let mut report = String::new();
    let mut failures = Vec::new();
    let mut gated = 0;
    for site in sites {
        let Some(ns) = best(site) else {
            return (
                format!("smoke mode — skipping the {target} cost gate\n"),
                vec![],
            );
        };
        let (bound, over) = match site.limit {
            Limit::Report => continue,
            Limit::MaxNs(budget) => (format!("budget {budget} ns"), ns > budget),
            Limit::Ratio { of, factor } => {
                let base = sites.iter().find(|s| s.name == of).and_then(best);
                let base = base.unwrap_or_else(|| panic!("{target}: no timed site `{of}`"));
                (
                    format!("{:.2}x {of}, limit {factor}x", ns / base),
                    ns > base * factor,
                )
            }
        };
        if gated == 0 {
            report.push_str(&format!(
                "\n{target} cost gate (fastest sample per call):\n"
            ));
        }
        gated += 1;
        report.push_str(&format!(
            "  {:<32} {:>10}  ({bound})\n",
            site.name,
            fmt_ns(ns)
        ));
        if over {
            failures.push(format!(
                "{target}: {} costs {} — {bound}",
                site.name,
                fmt_ns(ns)
            ));
        }
    }
    if gated == 0 {
        return (report, failures);
    }
    if !enforce {
        report.push_str("debug build — reporting only, not gating\n");
        return (report, vec![]);
    }
    if failures.is_empty() {
        report.push_str(&format!("{target} cost gate OK ({gated} gated)\n"));
    }
    (report, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(name: &str, limit: Limit, min_ns: f64) -> Site {
        Site {
            name: name.into(),
            limit,
            timing: Some(Timing {
                min_ns,
                mean_ns: min_ns * 1.1,
                max_ns: min_ns * 1.5,
            }),
        }
    }

    #[test]
    fn over_budget_site_fails_and_is_named() {
        let sites = [
            site("cheap_disabled", Limit::MaxNs(5.0), 0.4),
            site("grew_work_disabled", Limit::MaxNs(5.0), 21.0),
            site("enabled", Limit::Report, 48.0),
        ];
        let (report, failures) = judge("blackbox", &sites, true);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("blackbox: grew_work_disabled costs 21.00 ns"));
        assert!(report.contains("cheap_disabled") && !report.contains("enabled "));
        assert!(!report.contains("OK"));
    }

    #[test]
    fn ratio_limits_bound_regressions_and_demand_speedups() {
        let table = |wheel_ns| {
            [
                site("heap", Limit::Report, 400.0),
                site(
                    "wheel",
                    Limit::Ratio {
                        of: "heap",
                        factor: 0.5,
                    },
                    wheel_ns,
                ),
            ]
        };
        assert!(judge("wheel", &table(100.0), true).1.is_empty());
        let failures = judge("wheel", &table(250.0), true).1;
        assert!(failures[0].contains("wheel costs 250.00 ns — 0.62x heap, limit 0.5x"));
    }

    #[test]
    fn debug_build_reports_without_gating() {
        let sites = [site("grew_work_disabled", Limit::MaxNs(5.0), 21.0)];
        let (report, failures) = judge("scope", &sites, false);
        assert!(failures.is_empty());
        assert!(report.contains("grew_work_disabled"));
        assert!(report.ends_with("debug build — reporting only, not gating\n"));
    }

    #[test]
    fn smoke_mode_and_ungated_tables_pass_silently() {
        let untimed = Site {
            name: "x".into(),
            limit: Limit::MaxNs(5.0),
            timing: None,
        };
        let (report, failures) = judge("trace", &[untimed], true);
        assert!(failures.is_empty() && report.starts_with("smoke mode"));
        let ungated = [site("get", Limit::Report, 30.0)];
        assert_eq!(judge("maps", &ungated, true), (String::new(), vec![]));
    }
}
