//! Smoke tests for every `syrupctl` subcommand: exit codes and the
//! stability of the `--json` output schemas that CI and scripts consume.

use std::path::PathBuf;
use std::process::{Command, Output};

fn syrupctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_syrupctl"))
        .args(args)
        .output()
        .expect("syrupctl spawns")
}

fn stdout_of(args: &[&str]) -> String {
    let out = syrupctl(args);
    assert!(
        out.status.success(),
        "`syrupctl {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn json_of(args: &[&str]) -> serde::json::Value {
    let text = stdout_of(args);
    serde::json::from_str(&text).unwrap_or_else(|e| {
        panic!(
            "`syrupctl {}` emitted bad JSON ({e}): {text}",
            args.join(" ")
        )
    })
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("syrupctl-smoke-{}-{name}", std::process::id()))
}

#[test]
fn no_args_and_unknown_subcommands_fail_with_usage() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["prog"][..],
        &["map"][..],
        &["trace"][..],
    ] {
        let out = syrupctl(args);
        assert!(
            !out.status.success(),
            "`syrupctl {}` should fail",
            args.join(" ")
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "stderr should print usage: {err}");
    }
}

#[test]
fn hooks_lists_every_deployment_hook() {
    let out = stdout_of(&["hooks"]);
    for hook in [
        "xdp-drv",
        "cpu-redirect",
        "socket-select",
        "thread-scheduler",
    ] {
        assert!(out.contains(hook), "hooks output missing {hook}: {out}");
    }
}

#[test]
fn demo_runs_the_end_to_end_workflow() {
    let out = stdout_of(&["demo"]);
    assert!(!out.is_empty());
}

#[test]
fn compile_accepts_a_policy_and_rejects_a_missing_file() {
    let src = tmp_path("rr.c");
    std::fs::write(&src, syrup::policies::c_sources::ROUND_ROBIN).unwrap();
    let out = stdout_of(&["compile", src.to_str().unwrap(), "-D", "NUM_THREADS=4"]);
    assert!(out.contains("insns") || out.contains("instructions") || !out.is_empty());
    std::fs::remove_file(&src).ok();

    let missing = syrupctl(&["compile", "/nonexistent/policy.c"]);
    assert!(!missing.status.success());
}

#[test]
fn verify_asm_rejects_an_unverifiable_program() {
    let src = tmp_path("bad.s");
    // No exit: falls off the end, which the verifier must reject.
    std::fs::write(&src, "mov r0, 0\n").unwrap();
    let out = syrupctl(&["verify-asm", src.to_str().unwrap()]);
    assert!(!out.status.success());
    std::fs::remove_file(&src).ok();
}

#[test]
fn prog_list_json_schema_is_stable() {
    let v = json_of(&["prog", "list", "--json"]);
    let rows = v.as_array().expect("array of deployments");
    assert_eq!(rows.len(), 3, "quickstart deploys three policies");
    for row in rows {
        assert!(row.get("app").and_then(|a| a.as_u64()).is_some());
        assert!(row.get("hook").and_then(|h| h.as_str()).is_some());
        let backend = row.get("backend").and_then(|b| b.as_str()).unwrap();
        assert!(
            backend == "native" || backend == "ebpf",
            "backend {backend}"
        );
    }
    assert!(rows.iter().any(|r| {
        r.get("hook").and_then(|h| h.as_str()) == Some("xdp-drv")
            && r.get("backend").and_then(|b| b.as_str()) == Some("ebpf")
    }));
}

#[test]
fn prog_list_surfaces_rank_capable_hooks() {
    // Default scenario: every hook reports ranked=false.
    let v = json_of(&["prog", "list", "--json"]);
    for row in v.as_array().unwrap() {
        assert_eq!(row.get("ranked").and_then(|r| r.as_bool()), Some(false));
    }
    // The ranked variant opts socket-select in and compiles it to eBPF.
    let v = json_of(&["prog", "list", "--json", "--ranked"]);
    let rows = v.as_array().unwrap();
    assert_eq!(rows.len(), 3);
    let sock = rows
        .iter()
        .find(|r| r.get("hook").and_then(|h| h.as_str()) == Some("socket-select"))
        .expect("socket-select deployed");
    assert_eq!(sock.get("ranked").and_then(|r| r.as_bool()), Some(true));
    assert_eq!(sock.get("backend").and_then(|b| b.as_str()), Some("ebpf"));
    for r in rows {
        if r.get("hook").and_then(|h| h.as_str()) != Some("socket-select") {
            assert_eq!(r.get("ranked").and_then(|b| b.as_bool()), Some(false));
        }
    }
}

#[test]
fn queue_list_json_schema_is_stable() {
    let v = json_of(&["queue", "list", "--json"]);
    let rows = v.as_array().expect("array of queues");
    // Four NIC rings + four reuseport sockets.
    assert_eq!(rows.len(), 8);
    for row in rows {
        let component = row.get("component").and_then(|c| c.as_str()).unwrap();
        assert!(component == "nic" || component == "sock", "{component}");
        assert!(row.get("index").and_then(|i| i.as_u64()).is_some());
        assert_eq!(row.get("kind").and_then(|k| k.as_str()), Some("fifo"));
        for field in ["depth", "enqueued", "dropped"] {
            assert!(row.get(field).and_then(|f| f.as_u64()).is_some(), "{field}");
        }
        let bands = row.get("bands").and_then(|b| b.as_array()).unwrap();
        assert_eq!(bands.len(), 4);
    }
    // All 64 requests flowed through the sockets.
    let sock_enqueued: u64 = rows
        .iter()
        .filter(|r| r.get("component").and_then(|c| c.as_str()) == Some("sock"))
        .filter_map(|r| r.get("enqueued").and_then(|e| e.as_u64()))
        .sum();
    assert_eq!(sock_enqueued, 64);

    // The ranked variant swaps the sockets to PIFO, rings stay FIFO.
    let v = json_of(&["queue", "list", "--json", "--ranked"]);
    for row in v.as_array().unwrap() {
        let component = row.get("component").and_then(|c| c.as_str()).unwrap();
        let want = if component == "sock" { "pifo" } else { "fifo" };
        assert_eq!(row.get("kind").and_then(|k| k.as_str()), Some(want));
    }
    // The table form renders both components.
    let table = stdout_of(&["queue", "list", "--ranked"]);
    assert!(table.contains("nic") && table.contains("pifo"), "{table}");
}

#[test]
fn prog_stats_json_reports_ebpf_costs_and_null_for_native() {
    let v = json_of(&["prog", "stats", "--json"]);
    let rows = v
        .get("programs")
        .and_then(|p| p.as_array())
        .expect("programs array");
    assert_eq!(rows.len(), 3);
    for row in rows {
        let backend = row.get("backend").and_then(|b| b.as_str()).unwrap();
        let insns = row.get("insns_per_invocation").expect("key present");
        let cycles = row.get("cycles_per_invocation").expect("key present");
        if backend == "ebpf" {
            assert!(insns.as_f64().unwrap() > 0.0);
            assert!(cycles.as_f64().unwrap() > 0.0);
        } else {
            assert!(insns.as_f64().is_none(), "native insns must be null");
            assert!(cycles.as_f64().is_none(), "native cycles must be null");
        }
    }
    // The envelope reports the active engine and per-backend totals.
    assert!(v.get("engine").and_then(|e| e.as_str()).is_some());
    for field in ["runs_interp", "runs_fast", "cycles_interp", "cycles_fast"] {
        assert!(v.get(field).and_then(|f| f.as_u64()).is_some(), "{field}");
    }
}

#[test]
fn prog_list_reports_the_fast_engine_per_ebpf_row() {
    // eBPF rows run on the daemon's default engine; native rows bypass
    // the VM and report no engine.
    let v = json_of(&["prog", "list", "--json"]);
    for row in v.as_array().unwrap() {
        let backend = row.get("backend").and_then(|b| b.as_str()).unwrap();
        let engine = row.get("engine").expect("engine key present");
        if backend == "ebpf" {
            assert_eq!(engine.as_str(), Some("fast"));
        } else {
            assert!(
                matches!(engine, serde::json::Value::Null),
                "native rows have no engine: {row:?}"
            );
        }
    }
}

#[test]
fn prog_stats_counts_every_run_on_the_fast_engine() {
    let f = json_of(&["prog", "stats", "--json"]);
    assert_eq!(f.get("engine").and_then(|e| e.as_str()), Some("fast"));
    let runs = |v: &serde::json::Value, k: &str| v.get(k).and_then(|f| f.as_u64()).unwrap();
    assert!(runs(&f, "runs_fast") > 0, "fast ran the scenario");
    assert_eq!(runs(&f, "runs_interp"), 0);
    assert!(runs(&f, "cycles_fast") > 0);
    assert_eq!(runs(&f, "cycles_interp"), 0);
}

#[test]
fn map_dump_json_lists_pinned_maps_with_definitions() {
    let v = json_of(&["map", "dump", "--json"]);
    let rows = v.as_array().expect("array of maps");
    assert!(!rows.is_empty());
    for row in rows {
        assert!(row.get("path").and_then(|p| p.as_str()).is_some());
        assert!(row.get("id").and_then(|i| i.as_u64()).is_some());
        assert!(row.get("kind").and_then(|k| k.as_str()).is_some());
        for field in ["key_size", "value_size", "max_entries"] {
            assert!(row.get(field).and_then(|f| f.as_u64()).is_some(), "{field}");
        }
    }
    assert!(rows
        .iter()
        .any(|r| r.get("path").and_then(|p| p.as_str()) == Some("/syrup/1/__globals")));
}

#[test]
fn map_get_reads_a_value_and_fails_on_unknown_paths() {
    let out = stdout_of(&["map", "get", "/syrup/1/__globals", "0"]);
    out.trim().parse::<u64>().expect("a u64 value");

    let missing = syrupctl(&["map", "get", "/not/pinned", "0"]);
    assert!(!missing.status.success());
    let bad_key = syrupctl(&["map", "get", "/syrup/1/__globals", "not-a-number"]);
    assert!(!bad_key.status.success());
}

#[test]
fn metrics_json_is_a_snapshot_object() {
    let v = json_of(&["metrics", "--json"]);
    let counters = v.get("counters").expect("counters key");
    assert!(counters
        .get("app1/xdp-drv/invocations")
        .and_then(|c| c.as_u64())
        .is_some_and(|n| n > 0));
    // The table form renders too.
    let table = stdout_of(&["metrics"]);
    assert!(table.contains("app1/xdp-drv/invocations"), "{table}");
}

#[test]
fn metrics_openmetrics_exposition_passes_the_checker() {
    let text = stdout_of(&["metrics", "--openmetrics"]);
    assert!(text.ends_with("# EOF\n"), "missing EOF terminator");
    let samples = syrup::scope::check_exposition(&text).expect("exposition parses");
    assert!(samples > 10, "only {samples} samples");
    assert!(text.contains("# TYPE syrup_app1_xdp_drv_invocations counter"));
    assert!(text.contains("syrup_app1_xdp_drv_invocations_total 64"));
}

#[test]
fn metrics_shards_adds_a_per_shard_breakdown() {
    // Without the flag the JSON schema is the bare snapshot (scripts
    // depend on it); with it, snapshot + per-shard wheel stats.
    let v = json_of(&["metrics", "--shards", "4", "--json"]);
    let snap = v.get("snapshot").expect("snapshot key");
    let pushes = snap
        .get("counters")
        .and_then(|c| c.get("sim/wheel_pushes"))
        .and_then(|n| n.as_u64())
        .expect("wheel pushes counter");
    let shards = v.get("shards").and_then(|s| s.as_array()).expect("shards");
    assert_eq!(shards.len(), 4);
    let split: u64 = shards
        .iter()
        .map(|s| s.get("pushes").and_then(|n| n.as_u64()).unwrap())
        .sum();
    assert_eq!(
        split, pushes,
        "per-shard pushes reconcile with the registry"
    );
    for s in shards {
        for key in [
            "shard",
            "len",
            "pops",
            "cascaded",
            "clamped",
            "wheel_drift_ns",
        ] {
            assert!(s.get(key).is_some(), "missing {key}: {s:?}");
        }
    }
    // The table form appends the breakdown under the snapshot.
    let table = stdout_of(&["metrics", "--shards", "4"]);
    assert!(table.contains("wheel_drift_ns"), "{table}");
}

#[test]
fn top_json_streams_frames_then_a_summary() {
    let out = stdout_of(&[
        "top", "--flows", "400", "--shards", "2", "--frames", "3", "--json",
    ]);
    let lines: Vec<serde::json::Value> = out
        .lines()
        .map(|l| serde::json::from_str(l).expect("each line is one JSON object"))
        .collect();
    let frames: Vec<_> = lines.iter().filter(|l| l.get("frame").is_some()).collect();
    let summaries: Vec<_> = lines
        .iter()
        .filter(|l| l.get("summary").is_some())
        .collect();
    assert!(!frames.is_empty() && frames.len() <= 3, "{}", frames.len());
    assert_eq!(summaries.len(), 1);
    for f in &frames {
        let shards = f.get("shards").and_then(|s| s.as_array()).expect("shards");
        assert_eq!(shards.len(), 2);
        for s in shards {
            for key in ["events", "barrier_wait_ns", "stall_pct", "occupancy"] {
                assert!(s.get(key).is_some(), "missing {key}: {s:?}");
            }
        }
    }
    let summary = summaries[0].get("summary").unwrap();
    assert!(summary
        .get("events")
        .and_then(|n| n.as_u64())
        .is_some_and(|n| n > 0));
    assert!(summary.get("rank_bands").is_some());
}

#[test]
fn trace_record_export_validate_round_trip() {
    let export = tmp_path("trace.json");
    let summary = stdout_of(&[
        "trace",
        "record",
        "--scenario",
        "quickstart",
        "--export",
        export.to_str().unwrap(),
    ]);
    assert!(summary.contains("recorded"), "{summary}");

    let verdict = stdout_of(&["trace", "validate", export.to_str().unwrap()]);
    assert!(verdict.contains("OK"), "{verdict}");

    // The export is Chrome-trace JSON with the expected envelope.
    let raw = std::fs::read_to_string(&export).unwrap();
    let v: serde::json::Value = serde::json::from_str(&raw).expect("export parses");
    assert!(v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .is_some_and(|e| !e.is_empty()));
    std::fs::remove_file(&export).ok();

    let missing = syrupctl(&["trace", "validate", "/nonexistent/trace.json"]);
    assert!(!missing.status.success());
}

#[test]
fn trace_export_shorthand_writes_the_file() {
    let export = tmp_path("shorthand.json");
    stdout_of(&["trace", "export", export.to_str().unwrap()]);
    assert!(export.exists());
    std::fs::remove_file(&export).ok();
}

#[test]
fn trace_report_json_schema_is_stable() {
    let v = json_of(&["trace", "report", "--scenario", "quickstart", "--json"]);
    assert!(v
        .get("traces")
        .and_then(|t| t.as_u64())
        .is_some_and(|n| n > 0));
    assert!(v.get("dropped").and_then(|d| d.as_u64()).is_some());
    for field in ["total_p50_ns", "total_p99_ns", "total_p999_ns"] {
        assert!(v.get(field).and_then(|f| f.as_u64()).is_some(), "{field}");
    }
    let stages = v
        .get("stages")
        .and_then(|s| s.as_array())
        .expect("stages array");
    assert!(stages.len() >= 3);
    for s in stages {
        assert!(s.get("stage").and_then(|n| n.as_str()).is_some());
        assert!(s.get("mean_ns").and_then(|f| f.as_f64()).is_some());
        for field in ["count", "p50_ns", "p99_ns", "p999_ns", "max_ns"] {
            assert!(s.get(field).and_then(|f| f.as_u64()).is_some(), "{field}");
        }
    }
    // The table form renders the same stages.
    let table = stdout_of(&["trace", "report", "--scenario", "quickstart"]);
    assert!(
        table.contains("STAGE") && table.contains("end-to-end"),
        "{table}"
    );

    // An unknown scenario is an error, not an empty report.
    let bad = syrupctl(&["trace", "report", "--scenario", "nope"]);
    assert!(!bad.status.success());
}

#[test]
fn profile_record_writes_folded_flame_output() {
    let flame_path = tmp_path("flame.folded");
    let summary = stdout_of(&[
        "profile",
        "record",
        "--requests",
        "32",
        "--flame-out",
        flame_path.to_str().unwrap(),
    ]);
    assert!(summary.contains("100.0% of vm/run_cycles"), "{summary}");

    // Collapsed-stack format: `frame;frame;... count` per line.
    let flame = std::fs::read_to_string(&flame_path).unwrap();
    assert!(!flame.trim().is_empty());
    for line in flame.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("space-separated count");
        assert!(stack.contains(';'), "multi-frame stack: {line}");
        assert!(stack.starts_with("vm;"), "vm layer root: {line}");
        count.parse::<u64>().expect("numeric suffix");
    }
    std::fs::remove_file(&flame_path).ok();

    // `profile flame` prints the same folded lines to stdout.
    let direct = stdout_of(&["profile", "flame", "--requests", "32"]);
    assert_eq!(direct.lines().count(), flame.lines().count());
}

#[test]
fn profile_report_json_schema_is_stable() {
    let v = json_of(&["profile", "report", "--json", "--top", "5"]);
    assert!(v
        .get("runs")
        .and_then(|r| r.as_u64())
        .is_some_and(|n| n > 0));
    let total = v.get("total_cycles").and_then(|t| t.as_u64()).unwrap();
    let attributed = v.get("attributed_cycles").and_then(|a| a.as_u64()).unwrap();
    assert_eq!(attributed, total, "every VM cycle lands in a PC bucket");
    assert!(v
        .get("coverage")
        .and_then(|c| c.as_f64())
        .is_some_and(|c| c >= 0.95));
    let hotspots = v.get("hotspots").and_then(|h| h.as_array()).unwrap();
    assert!(!hotspots.is_empty() && hotspots.len() <= 5);
    for h in hotspots {
        assert!(h.get("prog").and_then(|p| p.as_str()).is_some());
        assert!(h.get("pc").and_then(|p| p.as_u64()).is_some());
        assert!(h
            .get("cycles")
            .and_then(|c| c.as_u64())
            .is_some_and(|c| c > 0));
        assert!(
            h.get("insn").and_then(|i| i.as_str()).is_some(),
            "annotated"
        );
    }
    let helpers = v.get("helpers").and_then(|h| h.as_array()).unwrap();
    assert!(helpers
        .iter()
        .any(|h| h.get("helper").and_then(|n| n.as_str()) == Some("tail_call")));
    // The table form renders too.
    let table = stdout_of(&["profile", "report"]);
    assert!(
        table.contains("coverage") && table.contains("helper"),
        "{table}"
    );
}

#[test]
fn profile_pressure_json_reports_components_and_slo() {
    let v = json_of(&["profile", "pressure", "--json"]);
    let components = v
        .get("pressure")
        .and_then(|p| p.get("components"))
        .and_then(|c| c.as_array())
        .expect("components array");
    let names: Vec<&str> = components
        .iter()
        .filter_map(|c| c.get("component").and_then(|n| n.as_str()))
        .collect();
    assert!(
        names.contains(&"nic") && names.contains(&"sock"),
        "{names:?}"
    );
    for c in components {
        assert!(c.get("gini").and_then(|g| g.as_f64()).is_some());
        assert!(c.get("max_mean_ratio").and_then(|g| g.as_f64()).is_some());
        assert!(c
            .get("samples")
            .and_then(|s| s.as_u64())
            .is_some_and(|s| s > 0));
    }
    let statuses = v
        .get("slo")
        .and_then(|s| s.get("statuses"))
        .and_then(|s| s.as_array())
        .expect("slo statuses");
    assert_eq!(
        statuses[0].get("metric").and_then(|m| m.as_str()),
        Some("vm/run_cycles")
    );
    // The quickstart's tiny policies stay well under the cycle SLO.
    assert_eq!(
        statuses[0].get("burning").and_then(|b| b.as_bool()),
        Some(false)
    );
    assert!(v
        .get("slo")
        .and_then(|s| s.get("burns"))
        .and_then(|b| b.as_array())
        .is_some_and(|b| b.is_empty()));
}

#[test]
fn profile_pressure_ranked_reports_rank_band_occupancy() {
    // Unranked: the rank_bands key exists and stays empty.
    let v = json_of(&["profile", "pressure", "--json"]);
    assert!(v
        .get("pressure")
        .and_then(|p| p.get("rank_bands"))
        .and_then(|b| b.as_array())
        .is_some_and(|b| b.is_empty()));

    // Ranked: the PIFO sockets contribute a per-band series.
    let v = json_of(&["profile", "pressure", "--json", "--ranked"]);
    let bands = v
        .get("pressure")
        .and_then(|p| p.get("rank_bands"))
        .and_then(|b| b.as_array())
        .expect("rank_bands array");
    let sock = bands
        .iter()
        .find(|b| b.get("component").and_then(|c| c.as_str()) == Some("sock"))
        .expect("sock band series");
    assert!(sock
        .get("samples")
        .and_then(|s| s.as_u64())
        .is_some_and(|s| s > 0));
    let means = sock
        .get("mean_depths")
        .and_then(|m| m.as_array())
        .expect("mean_depths");
    assert!(means.iter().any(|d| d.as_f64().is_some_and(|d| d > 0.0)));
    // The table form renders the band section.
    let table = stdout_of(&["profile", "pressure", "--ranked"]);
    assert!(table.contains("mean depth per rank band"), "{table}");
}

#[test]
fn trace_record_respects_requests_and_sampling_flags() {
    let out = stdout_of(&["trace", "record", "--requests", "32", "--sample", "8"]);
    // 32 ingresses sampled 1-in-8 → exactly 4 traces.
    assert!(out.contains("across 4 traces"), "{out}");
    let bad = syrupctl(&["trace", "record", "--requests", "zero"]);
    assert!(!bad.status.success());
}

/// Every error path, by name: argv → the exact stderr → exit code 1.
/// `{dir}` is a scratch directory holding the fixture files; a row whose
/// expectation ends in `…` pins only that prefix (the usage text continues
/// with the full grammar).
#[test]
fn error_paths_print_one_line_and_exit_1() {
    let dir = tmp_path("errors");
    std::fs::create_dir_all(&dir).unwrap();
    let dir_str = dir.to_str().unwrap();
    for (name, contents) in [
        ("rr.c", syrup::policies::c_sources::ROUND_ROBIN),
        ("falls_off.s", "mov r0, 0\n"),
        ("garbage.s", "frob r0\n"),
        ("two_signs.s", "mov r0, --5\nexit\n"),
        ("past_min.s", "lddw r0, --9223372036854775808\nexit\n"),
        ("empty.json", "{}"),
        ("no_traces.json", "{\"traceEvents\":[]}"),
        ("no_layers.json", "{\"postmortem\":{}}"),
    ] {
        std::fs::write(dir.join(name), contents).unwrap();
    }
    // Deep enough to overflow a recursive parser's stack.
    std::fs::write(dir.join("nested.json"), "[".repeat(100_000)).unwrap();
    let policy = |body: String| format!("uint32_t schedule(void *a, void *b) {{ {body} }}");
    for (name, body) in [
        (
            "parens.c",
            format!("return {}1{};", "(".repeat(5_000), ")".repeat(5_000)),
        ),
        ("nots.c", format!("return {}1;", "!".repeat(100_000))),
        (
            "ifs.c",
            format!("{}return 1; return 0;", "if (1) ".repeat(20_000)),
        ),
        ("sum.c", format!("return 1{};", "+1".repeat(99_999))),
    ] {
        std::fs::write(dir.join(name), policy(body)).unwrap();
    }
    // Seven layer dumps named by `order`, the first holding one event, and
    // a trigger: the bundle shape `blackbox validate` checks past the parse.
    let layered = |order: [&str; 7], cause: &str| {
        let layers: Vec<String> = order
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let events = if i == 0 {
                    r#"[{"at_ns":1,"kind":"dispatch"}]"#
                } else {
                    "[]"
                };
                format!(r#"{{"layer":"{layer}","events":{events}}}"#)
            })
            .collect();
        format!(
            r#"{{"postmortem":{{"layers":[{}],"trigger":{{"cause":"{cause}","at_ns":1,"detail":""}}}}}}"#,
            layers.join(",")
        )
    };
    let layers = ["syrupd", "vm", "nic", "sock", "sched", "ghost", "slo"];
    let mut swapped = layers;
    swapped.swap(0, 1);
    std::fs::write(dir.join("swapped_layers.json"), layered(swapped, "manual")).unwrap();
    std::fs::write(dir.join("unknown_cause.json"), layered(layers, "meteor")).unwrap();
    let bundle = dir.join("bundle.json");
    stdout_of(&[
        "blackbox",
        "record",
        "--inject-burn",
        "--out",
        bundle.to_str().unwrap(),
    ]);
    // Real exports cut in half, and files of the right shape whose
    // `traceEvents` or `layers` hold the wrong types.
    let trace = dir.join("trace.json");
    stdout_of(&["trace", "record", "--export", trace.to_str().unwrap()]);
    for (name, whole) in [
        ("truncated_trace.json", &trace),
        ("truncated_bundle.json", &bundle),
    ] {
        let bytes = std::fs::read(whole).unwrap();
        std::fs::write(dir.join(name), &bytes[..bytes.len() / 2]).unwrap();
    }
    for (name, contents) in [
        ("typed_trace.json", r#"{"traceEvents":{"ph":"X"}}"#),
        (
            "typed_events.json",
            r#"{"traceEvents":[1,"x",null,{"args":5},{"args":{"trace_id":"7","stage":3}}]}"#,
        ),
        (
            "typed_layers.json",
            r#"{"postmortem":{"layers":{"syrupd":[]}}}"#,
        ),
        (
            "typed_dumps.json",
            r#"{"postmortem":{"layers":[1,2,3,4,5,6,7]}}"#,
        ),
    ] {
        std::fs::write(dir.join(name), contents).unwrap();
    }

    const USAGE: &str = "usage: syrupctl <subcommand>\n\npolicy pipeline:\n  compile FILE.c…";
    const ENOENT: &str = "No such file or directory (os error 2)";
    const EMPTY: &str = "JSON parse error at byte 0: unexpected end of input";
    const DEEP: &str = "JSON parse error at byte 128: nesting deeper than 128 levels";
    const NESTED: &str = "compile error: line 1: nesting deeper than 128 levels";
    let rows: &[(&str, String)] = &[
        // No subcommand, an unknown one, a family without its verb.
        ("", USAGE.into()),
        ("frobnicate", USAGE.into()),
        ("prog", USAGE.into()),
        ("queue", USAGE.into()),
        ("map", USAGE.into()),
        ("trace", USAGE.into()),
        ("trace export", USAGE.into()),
        ("profile", USAGE.into()),
        ("blackbox", USAGE.into()),
        // Policy pipeline.
        (
            "compile",
            "usage: syrupctl compile FILE.c [-D NAME=VALUE]...".into(),
        ),
        ("compile --json", "compile: unknown flag --json".into()),
        (
            "compile /nonexistent/policy.c",
            format!("cannot read /nonexistent/policy.c: {ENOENT}"),
        ),
        (
            "compile {dir}/rr.c",
            "compile error: line 4: unknown variable `NUM_THREADS`".into(),
        ),
        ("compile {dir}/rr.c -D", "-D requires NAME=VALUE".into()),
        (
            "compile {dir}/rr.c -D NUM",
            "bad define `NUM` (want NAME=VALUE)".into(),
        ),
        (
            "compile {dir}/rr.c -D NUM=x",
            "define value `x` is not an integer".into(),
        ),
        ("compile {dir}/parens.c", NESTED.into()),
        ("compile {dir}/nots.c", NESTED.into()),
        ("compile {dir}/ifs.c", NESTED.into()),
        ("compile {dir}/sum.c", NESTED.into()),
        ("verify-asm", "usage: syrupctl verify-asm FILE.s".into()),
        (
            "verify-asm /nonexistent/x.s",
            format!("cannot read /nonexistent/x.s: {ENOENT}"),
        ),
        (
            "verify-asm {dir}/falls_off.s",
            "REJECTED: control falls off program end".into(),
        ),
        (
            "verify-asm {dir}/garbage.s",
            "assembly error: line 1: unknown mnemonic `frob`".into(),
        ),
        // An immediate takes one sign; a second one is an error, never
        // a negation that overflows.
        (
            "verify-asm {dir}/two_signs.s",
            "assembly error: line 1: bad immediate `--5`".into(),
        ),
        (
            "verify-asm {dir}/past_min.s",
            "assembly error: line 1: bad immediate `--9223372036854775808`".into(),
        ),
        // Introspection. A flag the subcommand does not take, including
        // one it once took.
        (
            "prog list --frob x",
            "prog list: unknown flag --frob".into(),
        ),
        (
            "prog list --backend interp",
            "prog list: unknown flag --backend".into(),
        ),
        ("map get", "usage: syrupctl map get PATH KEY".into()),
        (
            "map get /syrup/1/__globals",
            "usage: syrupctl map get PATH KEY".into(),
        ),
        (
            "map get /syrup/1/__globals not-a-number",
            "key `not-a-number` is not a u32".into(),
        ),
        (
            "map get /not/pinned 0",
            "no map pinned at `/not/pinned` (try `syrupctl map dump`)".into(),
        ),
        (
            "map get /syrup/1/__globals 99",
            "lookup failed: IndexOutOfRange".into(),
        ),
        (
            "top --shards 0",
            "--shards and --frames must be positive".into(),
        ),
        (
            "top --frames 0",
            "--shards and --frames must be positive".into(),
        ),
        ("top --flows abc", "--flows `abc` is not a number".into()),
        (
            "top --shards 0 --frames abc",
            "--frames `abc` is not a number".into(),
        ),
        // Trace.
        (
            "trace record --requests zero",
            "--requests `zero` is not a number".into(),
        ),
        (
            "trace record --sample x",
            "--sample `x` is not a number".into(),
        ),
        (
            "trace record --scenario nope",
            "unknown scenario `nope` (only `quickstart` is built in)".into(),
        ),
        (
            "trace record --export /nonexistent/dir/t.json",
            format!("cannot write /nonexistent/dir/t.json: {ENOENT}"),
        ),
        (
            "trace report --scenario nope",
            "unknown scenario `nope` (only `quickstart` is built in)".into(),
        ),
        (
            "trace report --requests abc",
            "--requests `abc` is not a number".into(),
        ),
        (
            "trace validate",
            "usage: syrupctl trace validate PATH".into(),
        ),
        (
            "trace validate /nonexistent/trace.json",
            format!("cannot read /nonexistent/trace.json: {ENOENT}"),
        ),
        (
            "trace validate /dev/null",
            format!("/dev/null is not valid JSON: {EMPTY}"),
        ),
        (
            "trace validate {dir}/nested.json",
            format!("{{dir}}/nested.json is not valid JSON: {DEEP}"),
        ),
        (
            "trace validate {dir}/empty.json",
            "{dir}/empty.json: no `traceEvents` array".into(),
        ),
        (
            "trace validate {dir}/no_traces.json",
            "{dir}/no_traces.json: 0 traces, none complete with spans from >=3 distinct hooks"
                .into(),
        ),
        (
            "trace validate {dir}/truncated_trace.json",
            "{dir}/truncated_trace.json is not valid JSON: JSON parse error at byte …".into(),
        ),
        (
            "trace validate {dir}/typed_trace.json",
            "{dir}/typed_trace.json: no `traceEvents` array".into(),
        ),
        (
            "trace validate {dir}/typed_events.json",
            "{dir}/typed_events.json: 0 traces, none complete with spans from >=3 distinct hooks"
                .into(),
        ),
        // Profile.
        (
            "profile record --requests abc",
            "--requests `abc` is not a number".into(),
        ),
        (
            "profile record --flame-out /nonexistent/dir/f.folded",
            format!("cannot write /nonexistent/dir/f.folded: {ENOENT}"),
        ),
        (
            "profile report --top abc",
            "--top `abc` is not a number".into(),
        ),
        (
            "profile flame --requests x",
            "--requests `x` is not a number".into(),
        ),
        (
            "profile flame --out /nonexistent/dir/f",
            format!("cannot write /nonexistent/dir/f: {ENOENT}"),
        ),
        (
            "profile pressure --requests x",
            "--requests `x` is not a number".into(),
        ),
        // Flight recorder.
        (
            "blackbox record --requests x",
            "--requests `x` is not a number".into(),
        ),
        (
            "blackbox record --inject-burn --out /nonexistent/dir/b.json",
            format!("cannot write /nonexistent/dir/b.json: {ENOENT}"),
        ),
        (
            "blackbox dump --requests x",
            "--requests `x` is not a number".into(),
        ),
        (
            "blackbox report",
            "usage: syrupctl blackbox report PATH".into(),
        ),
        (
            "blackbox report --x",
            "blackbox report: unknown flag --x".into(),
        ),
        (
            "blackbox report /nonexistent/b.json",
            format!("cannot read /nonexistent/b.json: {ENOENT}"),
        ),
        (
            "blackbox report /dev/null",
            format!("/dev/null is not valid JSON: {EMPTY}"),
        ),
        (
            "blackbox report {dir}/empty.json",
            "{dir}/empty.json: no `postmortem` object (is this a blackbox bundle?)".into(),
        ),
        (
            "blackbox validate",
            "usage: syrupctl blackbox validate PATH [--min-layers N]".into(),
        ),
        (
            "blackbox validate /nonexistent/b.json",
            format!("cannot read /nonexistent/b.json: {ENOENT}"),
        ),
        (
            "blackbox validate /dev/null",
            format!("/dev/null is not valid JSON: {EMPTY}"),
        ),
        (
            "blackbox validate {dir}/nested.json",
            format!("{{dir}}/nested.json is not valid JSON: {DEEP}"),
        ),
        (
            "blackbox validate {dir}/empty.json",
            "{dir}/empty.json: no `postmortem` object".into(),
        ),
        (
            "blackbox validate {dir}/no_layers.json",
            "{dir}/no_layers.json: postmortem has no `layers` array".into(),
        ),
        (
            "blackbox validate {dir}/bundle.json --min-layers x",
            "--min-layers `x` is not a number".into(),
        ),
        (
            "blackbox validate {dir}/bundle.json --min-layers 9",
            "{dir}/bundle.json: events from only 4 layers, wanted >= 9".into(),
        ),
        (
            "blackbox validate {dir}/swapped_layers.json",
            "{dir}/swapped_layers.json: layer 0 is `vm`, expected `syrupd`".into(),
        ),
        (
            "blackbox validate {dir}/unknown_cause.json",
            "{dir}/unknown_cause.json: unknown trigger cause Some(\"meteor\")".into(),
        ),
        (
            "blackbox validate {dir}/truncated_bundle.json",
            "{dir}/truncated_bundle.json is not valid JSON: JSON parse error at byte …".into(),
        ),
        (
            "blackbox validate {dir}/typed_layers.json",
            "{dir}/typed_layers.json: postmortem has no `layers` array".into(),
        ),
        (
            "blackbox validate {dir}/typed_dumps.json",
            "{dir}/typed_dumps.json: layer 0 is `?`, expected `syrupd`".into(),
        ),
        (
            "watch --requests x",
            "--requests `x` is not a number".into(),
        ),
        (
            "watch --interval x",
            "--interval `x` is not a positive number".into(),
        ),
        (
            "watch --interval 0",
            "--interval `0` is not a positive number".into(),
        ),
        // Flags that used to reach an engine assertion, or be ignored.
        (
            "top --flows 0",
            "--flows must be between 1 and 4294967295".into(),
        ),
        (
            "top --flows 5000000000",
            "--flows must be between 1 and 4294967295".into(),
        ),
        (
            "top --flows 10 --shards 5000 --frames 1",
            "--shards must not exceed --flows".into(),
        ),
        (
            "metrics --shards abc",
            "--shards `abc` is not a positive number".into(),
        ),
        (
            "metrics --shards 0",
            "--shards `0` is not a positive number".into(),
        ),
        (
            "metrics --shards 99999999999999999999",
            "--shards `99999999999999999999` is not a positive number".into(),
        ),
        (
            "metrics --json --shards",
            "--shards requires a value".into(),
        ),
        (
            "trace record --requests",
            "--requests requires a value".into(),
        ),
        ("profile flame --out", "--out requires a value".into()),
    ];
    for (argv, want) in rows {
        let argv = argv.replace("{dir}", dir_str);
        let want = want.replace("{dir}", dir_str);
        let out = syrupctl(&argv.split_whitespace().collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        match want.strip_suffix('…') {
            Some(prefix) => assert!(stderr.starts_with(prefix), "`{argv}`: {stderr}"),
            None => assert_eq!(stderr, format!("{want}\n"), "`syrupctl {argv}`"),
        }
        assert_eq!(out.status.code(), Some(1), "`syrupctl {argv}`");
    }
    std::fs::remove_dir_all(&dir).ok();
}
