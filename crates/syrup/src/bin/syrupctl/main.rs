//! `syrupctl` — the operator's tool for Syrup policies.
//!
//! Policy pipeline subcommands:
//!
//! * `compile <file.c> [-D NAME=VALUE]...` — compile a C-subset policy,
//!   run the verifier, print the disassembly and Table 2-style stats.
//! * `verify-asm <file.s>` — assemble a text-format program and verify it.
//! * `hooks` — list the deployment hooks with their input/executor types.
//! * `demo` — run the §3.1 workflow end to end on a built-in policy.
//!
//! Introspection subcommands — these run the built-in quickstart scenario
//! (three policies on one request path: eBPF round robin at the XDP
//! driver hook, native round robin at CPU-redirect and socket-select) and
//! report on the live daemon state afterwards, standing in for attaching
//! to a long-running `syrupd`:
//!
//! Most introspection subcommands also take `--ranked`, which warms the
//! rank-extension variant of the scenario instead: the socket-select
//! policy is compiled C returning `(executor, rank)` pairs and the
//! reuseport sockets are PIFO-backed (see `crates/syrup-sched`).
//!
//! * `prog list [--json] [--ranked]` — deployed policies per hook (app,
//!   backend, the VM engine executing eBPF rows, whether
//!   `(executor, rank)` verdicts are honoured).
//! * `prog stats [--json] [--ranked]` — active engine, per-backend VM
//!   run/cycle totals, and per-policy mean instructions/cycles per
//!   invocation (Table 2 instrumentation).
//! * `queue list [--json] [--ranked]` — per-queue occupancy for the NIC
//!   rings and reuseport sockets: discipline, depth, enqueue/drop
//!   counters, and per-rank-band depths.
//! * `map dump [--json]` — every pinned map with its definition.
//! * `map get <path> <key>` — one value from a pinned map.
//! * `metrics [--json|--openmetrics] [--shards N]` — the full telemetry
//!   snapshot (counters, gauges, histogram percentiles); `--openmetrics`
//!   emits the OpenMetrics text exposition instead (stable schema, ends
//!   in `# EOF`); `--shards N` replays the warm-up through N timer
//!   wheels so the `sim/wheel_*` rows (pushes, cascades, clamp count,
//!   drift gauge) reflect a sharded schedule *and* appends a per-shard
//!   breakdown (pushes, pops, cascades, clamps, per-shard drift) that
//!   the shared registry deliberately never splits out.
//! * `top [--flows N] [--shards N] [--frames N] [--seed N] [--json]` —
//!   a `top`-style dashboard over a sharded scale run with per-window
//!   recording on: per-frame, per-shard throughput, barrier-stall %,
//!   and occupancy, plus cross-shard imbalance, live anomaly events
//!   (EWMA+MAD detectors over per-shard throughput), and the ranked
//!   quickstart's rank-band queue pressure. `--json` emits one JSON
//!   object per frame, then a summary object.
//! * `trace record [--requests N] [--sample N] [--export PATH] [--ranked]` —
//!   trace the scenario, print a summary, optionally write
//!   Chrome-trace/Perfetto JSON (load it at <https://ui.perfetto.dev>).
//! * `trace report [--requests N] [--json] [--ranked]` — per-stage latency breakdown
//!   (count, mean, p50/p99/p99.9 per stage, end-to-end percentiles).
//! * `trace export <PATH>` — shorthand for `trace record --export PATH`.
//! * `trace validate <PATH>` — check an exported file parses and holds at
//!   least one complete multi-hook trace (the CI gate).
//! * `profile record [--requests N] [--flame-out PATH]` — run the
//!   scenario with the cycle-attribution profiler attached, print an
//!   attribution summary, optionally write a collapsed-stack flame graph
//!   (inferno/speedscope format).
//! * `profile report [--requests N] [--top N] [--json]` — per-program,
//!   per-PC (disassembly-annotated), and per-helper cycle attribution
//!   against the VM's own `vm/run_cycles` total.
//! * `profile flame [--requests N] [--out PATH]` — just the folded
//!   flame-graph lines (stdout or PATH).
//! * `profile pressure [--requests N] [--json] [--ranked]` — executor
//!   pressure: per-component queue imbalance (max/mean, Gini), per-rank-band
//!   occupancy (ranked queues only), thread time-in-state, scheduling
//!   latency, starvation events, and SLO burn status.
//!
//! Exit status is nonzero on compile/verify failures, unknown maps, a
//! flag the subcommand does not take, or a failed validation, so the tool
//! slots into CI pipelines. Every subcommand that runs the scenario also
//! takes its flags: `--scenario quickstart`, `--requests N`, `--sample N`,
//! `--ranked` and `--shards N`.

mod args;
mod blackbox;
mod introspect;
mod pipeline;
mod profile;
mod scenario;
mod top;
mod trace;

use std::process::ExitCode;

/// A subcommand body: the arguments after its name in, the one line for
/// stderr out when it fails.
type Command = fn(&[String]) -> Result<(), String>;

/// The flags a subcommand takes.
#[derive(Clone, Copy)]
enum Flags {
    /// These alone.
    Own(&'static [&'static str]),
    /// These and the scenario's ([`SCENARIO`]).
    Scenario(&'static [&'static str]),
}

/// The flags `scenario::Scenario::parse` reads.
const SCENARIO: &[&str] = &[
    "--scenario",
    "--requests",
    "--sample",
    "--ranked",
    "--shards",
];

impl Flags {
    fn takes(self, flag: &str) -> bool {
        let (own, scenario) = match self {
            Flags::Own(own) => (own, false),
            Flags::Scenario(own) => (own, true),
        };
        own.contains(&flag) || (scenario && SCENARIO.contains(&flag))
    }
}

const COMMANDS: [(&str, Flags, Command); 24] = [
    ("compile", Flags::Own(&["-D"]), pipeline::compile),
    ("verify-asm", Flags::Own(&[]), pipeline::verify_asm),
    ("hooks", Flags::Own(&[]), pipeline::hooks),
    ("demo", Flags::Own(&[]), pipeline::demo),
    (
        "prog list",
        Flags::Scenario(&["--json"]),
        introspect::prog_list,
    ),
    (
        "prog stats",
        Flags::Scenario(&["--json"]),
        introspect::prog_stats,
    ),
    (
        "queue list",
        Flags::Scenario(&["--json"]),
        introspect::queue_list,
    ),
    (
        "map dump",
        Flags::Scenario(&["--json"]),
        introspect::map_dump,
    ),
    ("map get", Flags::Scenario(&[]), introspect::map_get),
    (
        "metrics",
        Flags::Scenario(&["--json", "--openmetrics"]),
        introspect::metrics,
    ),
    (
        "top",
        Flags::Own(&["--flows", "--shards", "--frames", "--seed", "--json"]),
        top::top,
    ),
    (
        "trace record",
        Flags::Scenario(&["--export"]),
        trace::record,
    ),
    ("trace report", Flags::Scenario(&["--json"]), trace::report),
    ("trace export", Flags::Own(&[]), trace::export),
    ("trace validate", Flags::Own(&[]), trace::validate),
    (
        "profile record",
        Flags::Scenario(&["--flame-out"]),
        profile::record,
    ),
    (
        "profile report",
        Flags::Scenario(&["--top", "--json"]),
        profile::report,
    ),
    ("profile flame", Flags::Scenario(&["--out"]), profile::flame),
    (
        "profile pressure",
        Flags::Scenario(&["--json"]),
        profile::pressure,
    ),
    (
        "blackbox record",
        Flags::Scenario(&["--inject-burn", "--trigger-manual", "--out"]),
        blackbox::record,
    ),
    (
        "blackbox dump",
        Flags::Scenario(&["--inject-burn", "--trigger-manual", "--json"]),
        blackbox::dump,
    ),
    ("blackbox report", Flags::Own(&[]), blackbox::report),
    (
        "blackbox validate",
        Flags::Own(&["--min-layers"]),
        blackbox::validate,
    ),
    (
        "watch",
        Flags::Scenario(&["--interval", "--json"]),
        blackbox::watch,
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    for (name, flags, command) in COMMANDS {
        let words = name.split(' ').count();
        if args.iter().take(words).eq(name.split(' ')) {
            let args = &args[words..];
            if let Some(flag) = args.iter().find(|a| is_flag(a) && !flags.takes(a)) {
                return Err(format!("{name}: unknown flag {flag}"));
            }
            return command(args);
        }
    }
    Err(usage())
}

/// Whether `arg` reads as a flag: a dash and then a letter or a dash, so
/// `-` and negative numbers stay operands.
fn is_flag(arg: &str) -> bool {
    let mut chars = arg.chars();
    chars.next() == Some('-') && chars.next().is_some_and(|c| c == '-' || c.is_alphabetic())
}

fn usage() -> String {
    "usage: syrupctl <subcommand>\n\
         \n\
         policy pipeline:\n\
         \x20 compile FILE.c [-D NAME=VALUE]...\n\
         \x20 verify-asm FILE.s\n\
         \x20 hooks\n\
         \x20 demo\n\
         \n\
         introspection (quickstart scenario; --ranked warms the\n\
         rank-extension variant):\n\
         \x20 prog list [--json] [--ranked]\n\
         \x20 prog stats [--json] [--ranked]\n\
         \x20 queue list [--json] [--ranked]\n\
         \x20 map dump [--json]\n\
         \x20 map get PATH KEY\n\
         \x20 metrics [--json|--openmetrics] [--shards N]\n\
         \x20 top [--flows N] [--shards N] [--frames N] [--seed N] [--json]\n\
         \x20 trace record [--scenario quickstart] [--requests N] [--sample N] [--export PATH] [--ranked]\n\
         \x20 trace report [--requests N] [--json] [--ranked]\n\
         \x20 trace export PATH\n\
         \x20 trace validate PATH\n\
         \x20 profile record [--requests N] [--flame-out PATH]\n\
         \x20 profile report [--requests N] [--top N] [--json]\n\
         \x20 profile flame [--requests N] [--out PATH]\n\
         \x20 profile pressure [--requests N] [--json] [--ranked]\n\
         \n\
         flight recorder:\n\
         \x20 blackbox record [--requests N] [--ranked] [--inject-burn] [--trigger-manual] [--out PATH]\n\
         \x20 blackbox dump [--requests N] [--ranked] [--json]\n\
         \x20 blackbox report PATH\n\
         \x20 blackbox validate PATH [--min-layers N]\n\
         \x20 watch [--requests N] [--interval K] [--ranked] [--json]"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grammar is written twice — the dispatch table and the usage
    /// text — so the two must name the same subcommands in the same order.
    #[test]
    fn usage_lists_exactly_the_dispatched_subcommands() {
        let usage = usage();
        let listed: Vec<&str> = usage
            .lines()
            .filter_map(|line| line.strip_prefix("  "))
            .collect();
        assert_eq!(listed.len(), COMMANDS.len());
        for (line, (name, _, _)) in listed.iter().zip(COMMANDS) {
            let operands = line.strip_prefix(name);
            assert!(
                operands.is_some_and(|rest| rest.is_empty() || rest.starts_with(' ')),
                "usage line `{line}` does not open with `{name}`"
            );
        }
    }
}
