//! OpenMetrics / Prometheus text exposition for telemetry snapshots.
//!
//! Renders a [`Snapshot`] in the OpenMetrics text format with a stable
//! schema — CI machine-parses the output, so the rules here are load-
//! bearing:
//!
//! * Metric names are the registry names with every non-alphanumeric
//!   character mapped to `_` and a `syrup_` prefix (`sim/events` →
//!   `syrup_sim_events`); the original name is kept as a `# HELP` line.
//! * Counters expose as `# TYPE ... counter` with the `_total` sample
//!   suffix; gauges as `# TYPE ... gauge`.
//! * Histograms expose as `# TYPE ... summary`: one `{quantile="..."}`
//!   sample per exported quantile (0.5, 0.99, 0.999) plus `_sum` and
//!   `_count`.
//! * The exposition ends with `# EOF`.

use std::fmt::Write as _;

use crate::telemetry::Snapshot;

/// Quantiles exported for each histogram.
const QUANTILES: [f64; 3] = [0.5, 0.99, 0.999];

/// Maps a registry metric name to an OpenMetrics-legal one.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("syrup_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Renders the snapshot in OpenMetrics text format. The output is
/// deterministic: metrics appear in registry (BTreeMap) name order.
pub fn openmetrics(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, &value) in &snapshot.counters {
        let metric = sanitize(name);
        let _ = writeln!(out, "# HELP {metric} syrup counter {name}");
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric}_total {value}");
    }
    for (name, &value) in &snapshot.gauges {
        let metric = sanitize(name);
        let _ = writeln!(out, "# HELP {metric} syrup gauge {name}");
        let _ = writeln!(out, "# TYPE {metric} gauge");
        let _ = writeln!(out, "{metric} {value}");
    }
    for (name, hist) in &snapshot.histograms {
        let metric = sanitize(name);
        let _ = writeln!(out, "# HELP {metric} syrup histogram {name}");
        let _ = writeln!(out, "# TYPE {metric} summary");
        for q in QUANTILES {
            let v = hist.quantile(q);
            let _ = writeln!(out, "{metric}{{quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{metric}_sum {}", hist.sum());
        let _ = writeln!(out, "{metric}_count {}", hist.count());
    }
    out.push_str("# EOF\n");
    out
}

/// Validates OpenMetrics text structure: every sample line belongs to a
/// `# TYPE`-declared family, values parse as numbers, and the exposition
/// ends with `# EOF`. Returns the number of sample lines, or the first
/// offending line. This is the line-format checker CI runs against
/// `syrupctl metrics --openmetrics`.
pub fn check_exposition(text: &str) -> Result<usize, String> {
    let mut families: Vec<String> = Vec::new();
    let mut samples = 0usize;
    let mut saw_eof = false;
    for line in text.lines() {
        if saw_eof {
            return Err(format!("content after # EOF: {line}"));
        }
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if rest == "EOF" {
                saw_eof = true;
                continue;
            }
            let mut parts = rest.splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts.next().ok_or_else(|| format!("bare TYPE: {line}"))?;
                    match parts.next() {
                        Some("counter" | "gauge" | "summary" | "histogram") => {
                            families.push(name.to_string());
                        }
                        other => return Err(format!("bad TYPE {other:?}: {line}")),
                    }
                }
                Some("HELP") => {}
                other => return Err(format!("unknown comment {other:?}: {line}")),
            }
            continue;
        }
        // Sample line: `name[{labels}] value`.
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample without value: {line}"))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("non-numeric value {value}: {line}"))?;
        let bare = series.split('{').next().unwrap_or(series);
        let family_ok = families.iter().any(|f| {
            bare == f
                || bare == format!("{f}_total")
                || bare == format!("{f}_sum")
                || bare == format!("{f}_count")
        });
        if !family_ok {
            return Err(format!("sample outside any TYPE family: {line}"));
        }
        samples += 1;
    }
    if !saw_eof {
        return Err("missing # EOF terminator".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Registry;

    fn sample_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.counter("sim/events").add(1234);
        reg.counter("syrupd/dispatches").add(9);
        reg.gauge("ghost/runnable").set(-3);
        let h = reg.histogram("vm/run_cycles");
        for v in [100, 200, 300, 400] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn exposition_has_stable_schema() {
        let text = openmetrics(&sample_snapshot());
        assert!(text.contains("# TYPE syrup_sim_events counter"), "{text}");
        assert!(text.contains("syrup_sim_events_total 1234"), "{text}");
        assert!(text.contains("# TYPE syrup_ghost_runnable gauge"), "{text}");
        assert!(text.contains("syrup_ghost_runnable -3"), "{text}");
        assert!(
            text.contains("# TYPE syrup_vm_run_cycles summary"),
            "{text}"
        );
        assert!(
            text.contains("syrup_vm_run_cycles{quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(text.contains("syrup_vm_run_cycles_sum 1000"), "{text}");
        assert!(text.contains("syrup_vm_run_cycles_count 4"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
    }

    #[test]
    fn exposition_passes_its_own_checker() {
        let text = openmetrics(&sample_snapshot());
        let samples = check_exposition(&text).expect("valid exposition");
        // 2 counters + 1 gauge + (3 quantiles + sum + count).
        assert_eq!(samples, 8);
    }

    #[test]
    fn checker_rejects_malformed_text() {
        assert!(check_exposition("syrup_x_total 1\n# EOF\n").is_err()); // no TYPE
        assert!(check_exposition("# TYPE syrup_x counter\nsyrup_x_total one\n# EOF\n").is_err());
        assert!(check_exposition("# TYPE syrup_x counter\nsyrup_x_total 1\n").is_err()); // no EOF
        assert!(
            check_exposition("# TYPE syrup_x counter\nsyrup_x_total 1\n# EOF\nextra 2\n").is_err()
        );
    }

    #[test]
    fn sanitize_maps_separators() {
        assert_eq!(sanitize("sim/events"), "syrup_sim_events");
        assert_eq!(
            sanitize("app1/nic_steer/verdicts"),
            "syrup_app1_nic_steer_verdicts"
        );
        assert_eq!(sanitize("a-b.c"), "syrup_a_b_c");
    }

    #[test]
    fn empty_snapshot_is_just_eof() {
        let text = openmetrics(&Snapshot::default());
        assert_eq!(text, "# EOF\n");
        assert_eq!(check_exposition(&text).unwrap(), 0);
    }
}
