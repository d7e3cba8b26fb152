//! The one wall-clock timer and the one cost gate of the `benches/*`
//! targets.
//!
//! A bench target is a table of [`Site`]s: each names a hot-path call
//! and states its [`Limit`]. [`gate`] times the table and decides the
//! exit code, so a contract such as "a disabled record site costs at
//! most 5 ns" is one row rather than a reporting closure, a gating
//! closure and a private copy of the print / debug-build / over-budget /
//! exit block.
//!
//! Every measurement is [`interleave`] over [`Batches`]: a site alone, a
//! [`Limit::Ratio`] site together with the site it names, sampled in
//! turn so that frequency drift and a neighbour's bursts fall on both
//! sides of the ratio alike. The harnesses that time outside a table
//! (`backend_guard`, `table3`) sample through the same two pieces.

use std::hint::black_box;
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

/// How long one site's samples take together, after calibration.
const MEASURE: Duration = Duration::from_millis(120);

/// Samples per measurement; each is a batch sized to `MEASURE / SAMPLES`.
const SAMPLES: u32 = 12;

/// A call, timed a batch at a time. The loop over the batch is compiled
/// for the call itself, so the one indirect call per batch is all the
/// timer adds.
pub struct Batches<'a>(Box<dyn FnMut(u64) -> f64 + 'a>);

impl<'a> Batches<'a> {
    /// Wraps `call`.
    pub fn new<O>(mut call: impl FnMut() -> O + 'a) -> Self {
        Batches(Box::new(move |n| {
            let start = Instant::now();
            for _ in 0..n {
                black_box(call());
            }
            start.elapsed().as_nanos() as f64 / n as f64
        }))
    }

    /// Runs a batch of `n` calls; nanoseconds per call.
    pub fn run(&mut self, n: u64) -> f64 {
        (self.0)(n)
    }

    /// Warms up and returns the batch size that fills `per_sample`:
    /// batches grow until one fills ~5 ms, so the two `Instant` reads are
    /// amortised over the calls between them.
    pub(crate) fn calibrate(&mut self, per_sample: Duration) -> u64 {
        let mut batch: u64 = 1;
        let per_call_ns = loop {
            let ns = self.run(batch);
            if ns * batch as f64 >= 5e6 || batch >= 1 << 30 {
                break ns;
            }
            batch *= 8;
        };
        ((per_sample.as_nanos() as f64 / per_call_ns.max(1.0)) as u64).max(1)
    }
}

/// Times each `(batches, n)` over `samples` rounds, each round one
/// `n`-call batch of every entry in order.
pub fn interleave(runs: &mut [(&mut Batches<'_>, u64)], samples: u32) -> Vec<Timing> {
    let mut per_call = vec![Vec::with_capacity(samples as usize); runs.len()];
    for _ in 0..samples {
        for ((batches, n), out) in runs.iter_mut().zip(&mut per_call) {
            out.push(batches.run(*n));
        }
    }
    per_call
        .iter()
        .map(|ns| Timing {
            min_ns: ns.iter().copied().fold(f64::INFINITY, f64::min),
            mean_ns: ns.iter().sum::<f64>() / ns.len() as f64,
            max_ns: ns.iter().copied().fold(0.0, f64::max),
        })
        .collect()
}

/// Calibrates each of `sites` to `budget / SAMPLES` per sample, then
/// times them together.
fn measure_together(sites: &mut [&mut Batches<'_>], budget: Duration) -> Vec<Timing> {
    let mut runs: Vec<_> = sites
        .iter_mut()
        .map(|b| {
            let n = b.calibrate(budget / SAMPLES);
            (&mut **b, n)
        })
        .collect();
    interleave(&mut runs, SAMPLES)
}

/// Whether this run only smoke-tests its sites. Only `cargo bench`
/// passes `--bench`; run any other way — `cargo test --benches` passes
/// nothing, and `-- --test` asks for it — every site is called exactly
/// once and nothing is timed.
fn smoke() -> bool {
    let flag = |name: &str| std::env::args().any(|a| a == name);
    !flag("--bench") || flag("--test")
}

/// What a [`Site`]'s fastest sample is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// Reported only: a baseline, or the enabled side shown for contrast.
    Report,
    /// At most this many nanoseconds per call.
    MaxNs(f64),
    /// At most `factor` times the named site of the same table, the two
    /// timed in alternating samples — a no-regression bound when `factor`
    /// is above one, a required speed-up when below.
    Ratio {
        /// Name of the site compared against.
        of: &'static str,
        /// Largest allowed `this / of`.
        factor: f64,
    },
}

/// One row of a bench target's table: a call and its limit, timed by
/// [`gate`].
pub struct Site<'a> {
    /// Name in the report and in a failure message.
    pub name: String,
    /// What the site's fastest sample must stay within.
    pub limit: Limit,
    call: Batches<'a>,
}

impl<'a> Site<'a> {
    /// A row timing `call`.
    pub fn new<O>(name: impl Into<String>, limit: Limit, call: impl FnMut() -> O + 'a) -> Self {
        Site {
            name: name.into(),
            limit,
            call: Batches::new(call),
        }
    }
}

/// A timed row: its own timing and, for a [`Limit::Ratio`] row, that of
/// the site it names from the same alternating samples.
pub(crate) struct Row<'s> {
    name: &'s str,
    limit: Limit,
    pub(crate) timing: Option<Timing>,
    base: Option<Timing>,
}

/// Times `sites` in table order, each alone over `budget` and a
/// [`Limit::Ratio`] site alternating with the site it names, printing a
/// line per row as it goes. In smoke mode each is called once instead.
pub(crate) fn time_rows<'s>(
    target: &str,
    sites: &'s mut [Site<'_>],
    smoke: bool,
    budget: Duration,
) -> Vec<Row<'s>> {
    let mut timed = Vec::with_capacity(sites.len());
    for i in 0..sites.len() {
        let (timing, base) = match sites[i].limit {
            _ if smoke => {
                sites[i].call.run(1);
                (None, None)
            }
            Limit::Ratio { of, .. } => {
                let j = sites.iter().position(|s| s.name == of);
                let j = j.unwrap_or_else(|| panic!("{target}: no site `{of}`"));
                let [site, of] = sites
                    .get_disjoint_mut([i, j])
                    .unwrap_or_else(|_| panic!("{target}: `{of}` is its own ratio"));
                let t = measure_together(&mut [&mut site.call, &mut of.call], budget);
                (Some(t[0]), Some(t[1]))
            }
            _ => (
                Some(measure_together(&mut [&mut sites[i].call], budget)[0]),
                None,
            ),
        };
        let name = &sites[i].name;
        match timing {
            Some(t) => println!(
                "{name:<40} time: [{} {} {}]",
                fmt_ns(t.min_ns),
                fmt_ns(t.mean_ns),
                fmt_ns(t.max_ns)
            ),
            None => println!("{name:<40} ok (smoke test)"),
        }
        timed.push((timing, base));
    }
    sites
        .iter()
        .zip(timed)
        .map(|(site, (timing, base))| Row {
            name: &site.name,
            limit: site.limit,
            timing,
            base,
        })
        .collect()
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

/// Times every site of `target`'s table and holds it to its limit:
/// prints the gated rows and returns failure if any is over, naming each
/// on stderr.
///
/// Gates only bite in release builds (a debug binary measures the
/// compiler, not the branch) and are skipped in `cargo test`'s smoke
/// mode, where nothing is timed.
pub fn gate(target: &str, sites: &mut [Site<'_>]) -> ExitCode {
    let rows = time_rows(target, sites, smoke(), MEASURE);
    let (report, failures) = judge(target, &rows, !cfg!(debug_assertions));
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

/// The gate's stdout report and its failures, one per row over its
/// limit; `enforce` is false in a debug build, which only reports.
fn judge(target: &str, rows: &[Row<'_>], enforce: bool) -> (String, Vec<String>) {
    let mut report = String::new();
    let mut failures = Vec::new();
    let mut gated = 0;
    for row in rows {
        let Some(ns) = row.timing.map(|t| t.min_ns) else {
            return (
                format!("smoke mode — skipping the {target} cost gate\n"),
                vec![],
            );
        };
        let (bound, over) = match row.limit {
            Limit::Report => continue,
            Limit::MaxNs(budget) => (format!("budget {budget} ns"), ns > budget),
            Limit::Ratio { of, factor } => {
                let base = row.base.expect("a ratio row is timed with its base");
                (
                    format!("{:.2}x {of}, limit {factor}x", ns / base.min_ns),
                    ns > base.min_ns * factor,
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
            row.name,
            fmt_ns(ns)
        ));
        if over {
            failures.push(format!(
                "{target}: {} costs {} — {bound}",
                row.name,
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
    use std::cell::RefCell;

    fn timing(min_ns: f64) -> Option<Timing> {
        Some(Timing {
            min_ns,
            mean_ns: min_ns * 1.1,
            max_ns: min_ns * 1.5,
        })
    }

    fn row(name: &str, limit: Limit, min_ns: f64) -> Row<'_> {
        Row {
            name,
            limit,
            timing: timing(min_ns),
            base: None,
        }
    }

    #[test]
    fn over_budget_site_fails_and_is_named() {
        let rows = [
            row("cheap_disabled", Limit::MaxNs(5.0), 0.4),
            row("grew_work_disabled", Limit::MaxNs(5.0), 21.0),
            row("enabled", Limit::Report, 48.0),
        ];
        let (report, failures) = judge("blackbox", &rows, true);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("blackbox: grew_work_disabled costs 21.00 ns"));
        assert!(report.contains("cheap_disabled") && !report.contains("enabled "));
        assert!(!report.contains("OK"));
    }

    /// A ratio compares against the base timed alongside it, not the
    /// base's own row.
    #[test]
    fn ratio_limits_bound_regressions_and_demand_speedups() {
        let table = |wheel_ns| {
            [
                row("heap", Limit::Report, 1.0),
                Row {
                    base: timing(400.0),
                    ..row(
                        "wheel",
                        Limit::Ratio {
                            of: "heap",
                            factor: 0.5,
                        },
                        wheel_ns,
                    )
                },
            ]
        };
        assert!(judge("wheel", &table(100.0), true).1.is_empty());
        let failures = judge("wheel", &table(250.0), true).1;
        assert!(failures[0].contains("wheel costs 250.00 ns — 0.62x heap, limit 0.5x"));
    }

    #[test]
    fn debug_build_reports_without_gating() {
        let rows = [row("grew_work_disabled", Limit::MaxNs(5.0), 21.0)];
        let (report, failures) = judge("scope", &rows, false);
        assert!(failures.is_empty());
        assert!(report.contains("grew_work_disabled"));
        assert!(report.ends_with("debug build — reporting only, not gating\n"));
    }

    #[test]
    fn smoke_mode_and_ungated_tables_pass_silently() {
        let untimed = Row {
            timing: None,
            ..row("x", Limit::MaxNs(5.0), 0.0)
        };
        let (report, failures) = judge("trace", &[untimed], true);
        assert!(failures.is_empty() && report.starts_with("smoke mode"));
        let ungated = [row("get", Limit::Report, 30.0)];
        assert_eq!(judge("maps", &ungated, true), (String::new(), vec![]));
    }

    /// A ratio site and the site it names are calibrated one after the
    /// other and then sampled in turn: the calls, with repeats folded,
    /// read `s b` (calibration) and then `s b` once per sample.
    #[test]
    fn a_ratio_site_is_sampled_alternately_with_its_base() {
        let calls = RefCell::new(String::new());
        let call = |who: char| {
            let mut calls = calls.borrow_mut();
            if !calls.ends_with(who) {
                calls.push(who);
            }
        };
        let ratio = Limit::Ratio {
            of: "base",
            factor: 2.0,
        };
        let mut sites = [
            Site::new("base", Limit::Report, || call('b')),
            Site::new("site", ratio, || call('s')),
        ];
        let rows = time_rows("t", &mut sites, false, Duration::from_millis(2));
        assert!(rows.iter().all(|r| r.timing.is_some()));
        assert!(rows[0].base.is_none() && rows[1].base.is_some());
        // The base alone first, then the pair.
        let pair = "sb".repeat(SAMPLES as usize + 1);
        assert_eq!(*calls.borrow(), format!("b{pair}"));
    }
}
