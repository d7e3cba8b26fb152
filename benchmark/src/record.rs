//! The JSON record a run writes, and the facts about the host in it.
//!
//! Writing goes through the small [`Json`] tree below (the vendored
//! `serde` stub serialises only hand-implemented types); reading goes
//! through `serde::json::from_str`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A JSON value under construction. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A whole number (counts stay exact).
    Int(u64),
    /// A measurement; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array of measurements.
    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Compact rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `{}` prints the shortest digits that read back exactly.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a JSON string, escaped by the vendored `serde`.
fn write_str(out: &mut String, s: &str) {
    out.push_str(&serde::json::to_string(s).expect("writing to a String cannot fail"));
}

/// First line of a command's standard output, if it ran and succeeded.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Facts about the host and the checkout, stamped into every record.
/// `repo` is the directory that holds `benchmark/`; outside a git
/// checkout the sha reads `unknown` and the dirty flag is `null`.
pub fn host_facts(repo: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    // Only a checkout whose own top level is `repo` counts: a copy that
    // merely sits inside some other repository has no sha of its own.
    let repo_str = repo.to_string_lossy();
    let git = |args: &[&str]| {
        let mut full = vec!["-C", repo_str.as_ref()];
        full.extend_from_slice(args);
        first_line("git", &full)
    };
    let is_top = git(&["rev-parse", "--show-toplevel"])
        .and_then(|top| std::fs::canonicalize(top).ok())
        .zip(std::fs::canonicalize(repo).ok())
        .is_some_and(|(top, repo)| top == repo);
    let (sha, dirty) = if is_top {
        let out = Command::new("git")
            .args(["-C", repo_str.as_ref(), "status", "--porcelain"])
            .output()
            .ok();
        (
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            out.map_or(Json::Null, |o| Json::Bool(!o.stdout.is_empty())),
        )
    } else {
        ("unknown".into(), Json::Null)
    };
    Json::obj([
        ("nproc", Json::Int(nproc)),
        ("cpu", Json::str(cpu_model())),
        (
            "rustc",
            Json::str(first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("git_sha", Json::str(sha)),
        ("git_dirty", dirty),
        ("debug_build", Json::Bool(cfg!(debug_assertions))),
    ])
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The `benchmark/` directory, found at run time: the nearest ancestor of
/// the running executable (then of the working directory) that holds
/// `benchmark/run.sh`. Never baked in at compile time, so a binary
/// built in one checkout does not write into another.
pub fn benchmark_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok();
    let cwd = std::env::current_dir().ok();
    [exe, cwd].into_iter().flatten().find_map(|start| {
        start
            .ancestors()
            .map(|a| a.join("benchmark"))
            .find(|b| b.join("run.sh").is_file())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_and_reads_back() {
        let doc = Json::obj([
            ("n", Json::Int(u64::MAX)),
            ("x", Json::Num(0.1 + 0.2)),
            ("nan", Json::Num(f64::NAN)),
            ("s", Json::str("a\"b\\c\nd\u{1}")),
            ("l", Json::nums(&[1.0, 2.5])),
            ("o", Json::obj([("b", Json::Bool(true)), ("z", Json::Null)])),
        ]);
        let text = doc.render();
        assert!(text.starts_with("{\"n\":18446744073709551615,\"x\":0.30000000000000004,"));
        let back = serde::json::from_str(&text).expect("valid JSON");
        assert_eq!(back.get("x").and_then(|v| v.as_f64()), Some(0.1 + 0.2));
        assert!(back.get("nan").is_some_and(|v| v.is_null()));
        assert_eq!(
            back.get("s").and_then(|v| v.as_str()),
            Some("a\"b\\c\nd\u{1}")
        );
        assert_eq!(
            back.get("o")
                .and_then(|o| o.get("b"))
                .and_then(|b| b.as_bool()),
            Some(true)
        );
    }

    #[test]
    fn host_facts_name_the_host() {
        let facts = host_facts(Path::new("/nonexistent-checkout"));
        let back = serde::json::from_str(&facts.render()).expect("valid JSON");
        assert!(back.get("nproc").and_then(|v| v.as_u64()).is_some());
        assert_eq!(
            back.get("git_sha").and_then(|v| v.as_str()),
            Some("unknown")
        );
        assert!(back.get("git_dirty").is_some_and(|v| v.is_null()));
        assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
    }
}
