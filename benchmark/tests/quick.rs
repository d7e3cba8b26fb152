//! Runs the one command in `--quick` mode and checks what it reports
//! against `BENCHMARK.json`: every named workload and metric present
//! exactly once with its unit, nothing unnamed, and simulated statistics
//! that repeat exactly from run to run.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde::json::Value;

fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/run.sh <args>` with the variables it refuses cleared.
fn run_sh(args: &[&str]) -> Output {
    Command::new("bash")
        .arg(benchmark_dir().join("run.sh"))
        .args(args)
        .env_remove("SYRUP_BACKEND")
        .env_remove("SYRUP_SCALE")
        .output()
        .expect("bash runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "run.sh failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde::json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn named(spec: &Value, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .and_then(|l| l.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `name -> unit` of a `metrics` object in a record or result line.
fn reported(metrics: &Value) -> BTreeMap<String, String> {
    metrics
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(|v| v.as_f64()).is_some(), "{name}");
            let unit = m.get("unit").and_then(|u| u.as_str()).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn fingerprints(record: &Value) -> BTreeMap<String, Value> {
    record
        .get("workloads")
        .and_then(|w| w.as_object())
        .expect("workloads")
        .iter()
        .map(|(name, w)| {
            (
                name.clone(),
                w.get("fingerprint").expect("fingerprint").clone(),
            )
        })
        .collect()
}

/// One test, three parts in turn: they share `benchmark/out/` and the
/// build directory, so they must not run side by side.
#[test]
fn the_one_command() {
    quick_run_reports_exactly_what_benchmark_json_names();
    single_workload_form_prints_the_result_object_last();
    refuses_to_run_with_a_backend_or_scale_override();
}

fn quick_run_reports_exactly_what_benchmark_json_names() {
    let dir = benchmark_dir();
    let spec = json(&dir.join("../BENCHMARK.json"));
    let workloads: BTreeSet<String> = spec
        .get("workloads")
        .and_then(|w| w.as_array())
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect();
    let end_to_end = named(&spec, "end_to_end");
    let per_layer = named(&spec, "per_layer");
    assert_eq!(workloads.len(), 8);
    assert_eq!(per_layer.len(), 87);
    for name in workloads
        .iter()
        .chain(end_to_end.keys())
        .chain(per_layer.keys())
    {
        assert!(well_formed(name), "{name}");
    }

    let out_dir = dir.join("out");
    let (a_path, b_path) = (
        out_dir.join("test-quick-a.json"),
        out_dir.join("test-quick-b.json"),
    );
    let text = stdout(&run_sh(&[
        "--quick",
        "--trace",
        "--out",
        a_path.to_str().unwrap(),
    ]));
    let a = json(&a_path);

    // The record: the named workloads and metrics, with their units,
    // nothing more and nothing less.
    let recorded = a
        .get("workloads")
        .and_then(|w| w.as_object())
        .expect("workloads");
    assert_eq!(recorded.keys().cloned().collect::<BTreeSet<_>>(), workloads);
    for (name, w) in recorded {
        assert_eq!(
            reported(w.get("metrics").expect("metrics")),
            end_to_end,
            "{name}"
        );
        assert_eq!(
            w.get("ops_failed").and_then(|v| v.as_u64()),
            Some(0),
            "{name}"
        );
        assert!(
            w.get("ops_attempted").and_then(|v| v.as_u64()).unwrap() > 0,
            "{name}"
        );
        assert_eq!(
            w.get("correct").and_then(|v| v.as_bool()),
            Some(true),
            "{name}"
        );
        let laps = w.get("laps").and_then(|v| v.as_u64()).unwrap() as usize;
        assert_eq!(
            w.get("lap_ops").and_then(|v| v.as_array()).unwrap().len(),
            laps
        );
        let slowdown = w.get("host_speed").and_then(|h| h.get("slowdown"));
        assert!(slowdown.and_then(|v| v.as_f64()).unwrap() > 0.0, "{name}");
    }
    let layers = a.get("layers").expect("traced pass recorded");
    assert_eq!(reported(layers.get("metrics").expect("metrics")), per_layer);
    let host = a.get("host").expect("host facts");
    for fact in ["nproc", "cpu", "rustc", "git_sha", "git_dirty"] {
        assert!(host.get(fact).is_some(), "{fact}");
    }
    assert_eq!(a.get("seed").and_then(|v| v.as_u64()), Some(1));

    // The printed report: each metric by name, with its unit, once.
    let count = |prefix: &str, unit: &str| {
        text.lines()
            .filter(|l| {
                let mut words = l.split_whitespace();
                words.next() == Some(prefix)
                    && words.next().is_some_and(|v| v.parse::<f64>().is_ok())
                    && words.next() == Some(unit)
            })
            .count()
    };
    for w in &workloads {
        for (metric, unit) in &end_to_end {
            assert_eq!(count(&format!("{w}.{metric}"), unit), 1, "{w}.{metric}");
        }
    }
    for (metric, unit) in &per_layer {
        assert_eq!(count(metric, unit), 1, "{metric}");
    }
    assert_eq!(count("dispatch-mt.one_caller_ops_per_s", "op/s"), 1);

    // What the workload table predicts holds on the run itself.
    let rate = |w: &str| {
        recorded[w]
            .get("metrics")
            .and_then(|m| m.get("ops_per_s"))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
            .unwrap()
    };
    assert!(rate("trip-observed") < rate("trip-plain"));
    let fp_a = fingerprints(&a);
    assert_eq!(fp_a["scale-1shard"], fp_a["scale-2shard"]);
    for policy in ["round_robin", "scan_avoid", "sita", "token_based"] {
        let runs = fp_a["srv-native"].get(&format!("{policy}.vm_runs"));
        assert_eq!(runs.and_then(|v| v.as_u64()), Some(0), "{policy}");
    }

    // Simulated statistics repeat exactly.
    stdout(&run_sh(&["--quick", "--out", b_path.to_str().unwrap()]));
    assert_eq!(fingerprints(&json(&b_path)), fp_a);

    // `compare`: a record agrees with itself; halve one throughput and it
    // has regressed.
    let a_str = a_path.to_str().unwrap();
    assert_eq!(run_sh(&["compare", a_str, a_str]).status.code(), Some(0));
    let text = std::fs::read_to_string(&a_path).unwrap();
    let needle = "\"ops_per_s\":{\"value\":";
    let at = text.find(needle).expect("a throughput") + needle.len();
    let end = at + text[at..].find(',').unwrap();
    let worse = out_dir.join("test-quick-worse.json");
    std::fs::write(&worse, format!("{}1.0{}", &text[..at], &text[end..])).unwrap();
    let verdict = run_sh(&["compare", a_str, worse.to_str().unwrap()]);
    assert_eq!(verdict.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&verdict.stdout).contains("regressed"));
}

fn single_workload_form_prints_the_result_object_last() {
    let spec = json(&benchmark_dir().join("../BENCHMARK.json"));
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        // Seed 2 has no blessed fingerprint: it passes on cross-checks.
        let args = [
            "--workload",
            "srv-ebpf",
            "--seed",
            "2",
            "--seconds",
            "1",
            "--trace",
            trace,
        ];
        let text = stdout(&run_sh(&[&args[..], &["--quick"]].concat()));
        let last = text.lines().last().expect("a result line");
        let result = serde::json::from_str(last).expect("the last line is JSON");
        let keys: Vec<&str> = result
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert!(result.get("attempted").and_then(|v| v.as_u64()).unwrap() >= 1);
        assert_eq!(result.get("failed").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(reported(result.get("metrics").unwrap()), named(&spec, list));
    }
}

fn refuses_to_run_with_a_backend_or_scale_override() {
    for var in ["SYRUP_BACKEND", "SYRUP_SCALE"] {
        let out = Command::new("bash")
            .arg(benchmark_dir().join("run.sh"))
            .args(["--workload", "trip-plain", "--quick"])
            .env(var, "1")
            .output()
            .expect("bash runs");
        assert!(!out.status.success(), "{var}");
        assert!(out.stdout.is_empty(), "{var}: no result may be printed");
    }
}
