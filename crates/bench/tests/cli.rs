//! The harness binaries refuse a mis-set scale, a flag that lost its
//! value or a number they cannot run with before they run anything —
//! nothing is written, exit status 2.

use std::process::Command;

fn refused(exe: &str, args: &[&str], scale: &str) -> String {
    let out = Command::new(exe)
        .args(args)
        .env("SYRUP_SCALE", scale)
        .output()
        .expect("harness binary runs");
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}");
    assert!(out.stdout.is_empty(), "{exe} {args:?} ran before refusing");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn fig7_trace_out_without_a_value_is_an_error() {
    let stderr = refused(env!("CARGO_BIN_EXE_fig7"), &["--trace-out"], "0.05");
    assert_eq!(stderr, "--trace-out requires a value\n");
}

#[test]
fn table2_out_without_a_value_is_an_error() {
    let stderr = refused(env!("CARGO_BIN_EXE_table2"), &["--out"], "0.05");
    assert_eq!(stderr, "--out requires a value\n");
}

#[test]
fn numeric_flags_refuse_what_they_cannot_run() {
    let scale = env!("CARGO_BIN_EXE_scale");
    let guard = env!("CARGO_BIN_EXE_backend_guard");
    let flows = "--flows must be between 1 and 4294967295\n";
    for (exe, args, stderr) in [
        (scale, ["--flows", "abc"], "--flows `abc` is not a number\n"),
        (scale, ["--flows", "1,,2"], "--flows `` is not a number\n"),
        (scale, ["--flows", "0"], flows),
        (scale, ["--flows", "5000000000"], flows),
        (scale, ["--seed", "abc"], "--seed `abc` is not a number\n"),
        (
            scale,
            ["--shards", "abc"],
            "--shards `abc` is not a number\n",
        ),
        (
            guard,
            ["--min-speedup", "abc"],
            "--min-speedup `abc` is not a number\n",
        ),
        (guard, ["--reps", "abc"], "--reps `abc` is not a number\n"),
    ] {
        assert_eq!(refused(exe, &args, "0.05"), stderr, "{exe} {args:?}");
    }
}

#[test]
fn garbage_scale_stops_a_figure_before_it_writes() {
    let csv = bench::results_dir().join("fig6_latency.csv");
    let before = std::fs::read(&csv).ok();
    for scale in ["nan", "fast", "0", ""] {
        let stderr = refused(env!("CARGO_BIN_EXE_fig6"), &[], scale);
        assert!(stderr.starts_with("SYRUP_SCALE="), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
    assert_eq!(std::fs::read(&csv).ok(), before, "fig6_latency.csv moved");
}

#[test]
fn all_takes_no_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .arg("--check")
        .output()
        .expect("all runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: all"));
}
