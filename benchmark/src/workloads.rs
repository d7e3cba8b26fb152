//! The eight end-to-end workloads.
//!
//! A workload is prepared once (inputs generated from the seed, daemons
//! built, policies deployed) and then asked for laps: each lap runs the
//! same fixed work and returns what it did — the op count, the ops that
//! failed, the fingerprint of every simulated statistic (which must
//! repeat exactly, lap after lap and against `expected.json`), and how
//! many calls it made into each layer (what `ledger.attributed_share.*`
//! multiplies the isolated layer timings by).
//!
//! Everything here goes through public functions of the `syrup` facade.

use std::collections::BTreeMap;
use std::sync::Barrier;

use syrup::apps::mt_world::{self, MtConfig, SchedKind};
use syrup::apps::quickstart::{self, Quickstart};
use syrup::apps::server_world::{self, ServerConfig, ServerResult, SocketPolicyKind};
use syrup::blackbox::Recorder;
use syrup::core::{CompileOptions, Decision, Hook, HookMeta, PolicySource, Syrupd};
use syrup::net::{flow, AppHeader, Frame, RequestClass};
use syrup::policies::c_sources;
use syrup::profile::Profiler;
use syrup::scope::{Sampler, Scope};
use syrup::sim::{Duration, ScaleCfg, ScaleEngine, SimRng};
use syrup::telemetry::Snapshot;
use syrup::trace::Tracer;

/// Every simulated statistic a lap produced, by name. Wall-clock never
/// enters it, so it repeats exactly for a given seed and size.
pub type Fingerprint = BTreeMap<String, u64>;

/// What one lap did.
pub struct Lap {
    /// Ops performed (the workload's own op: request, event or call).
    pub ops: u64,
    /// Ops that failed: offered but neither completed nor dropped at
    /// drain, VM traps, unmatched dispatches, clamped wheel pushes.
    pub failed: u64,
    /// The simulated statistics.
    pub fingerprint: Fingerprint,
    /// `(per-layer metric, calls this lap made into it)`.
    pub calls: Vec<(String, f64)>,
}

/// A prepared workload.
pub struct Workload {
    /// What one op is.
    pub op: &'static str,
    /// OS threads a lap loads.
    pub threads: usize,
    lap: Box<dyn FnMut() -> Lap>,
    cross_check: Option<CrossCheck>,
}

/// A seed-independent check run once after the timed laps, against the
/// fingerprint they agreed on. Returns extra rates (name, op/s) to report
/// beside `ops_per_s` (the one-caller rate of `dispatch-mt`).
type CrossCheck = Box<dyn FnOnce(&Fingerprint) -> Result<Vec<(String, f64)>, String>>;

impl Workload {
    /// Runs one lap.
    pub fn lap(&mut self) -> Lap {
        (self.lap)()
    }

    /// Runs the workload's cross-check (at most once).
    pub fn cross_check(&mut self, agreed: &Fingerprint) -> Result<Vec<(String, f64)>, String> {
        match self.cross_check.take() {
            Some(check) => check(agreed),
            None => Ok(Vec::new()),
        }
    }
}

/// The workload handles, in the order they run and print.
pub const NAMES: [&str; 8] = [
    "srv-ebpf",
    "srv-native",
    "mt-ghost",
    "trip-plain",
    "trip-observed",
    "scale-1shard",
    "scale-2shard",
    "dispatch-mt",
];

/// Workloads whose op cost `ledger.attributed_share.*` explains.
pub const ATTRIBUTED: [&str; 6] = [
    "srv-ebpf",
    "srv-native",
    "mt-ghost",
    "trip-plain",
    "trip-observed",
    "scale-1shard",
];

/// Prepares `name` for `seed`. `div` divides every size: 1 for a
/// measured run, [`QUICK_DIV`] for `--quick`.
pub fn prepare(name: &str, seed: u64, div: u64) -> Option<Workload> {
    let div = div.max(1);
    Some(match name {
        "srv-ebpf" => srv(seed, div, true),
        "srv-native" => srv(seed, div, false),
        "mt-ghost" => mt_ghost(seed, div),
        "trip-plain" => trip(div, false),
        "trip-observed" => trip(div, true),
        "scale-1shard" => scale(seed, div, 1),
        "scale-2shard" => scale(seed, div, 2),
        "dispatch-mt" => dispatch_mt(seed, div),
        _ => return None,
    })
}

/// Size divisor of `--quick`.
pub const QUICK_DIV: u64 = 20;

// ---------------------------------------------------------------------
// srv-ebpf / srv-native: the four Table-2 policies on `server_world`.
// ---------------------------------------------------------------------

/// Simulated measure interval of one `srv-ebpf` policy run. The four
/// configurations together offer 1150 K requests per simulated second,
/// so with the 50 ms warm-up this is ≈0.17 M requests a lap.
const SRV_EBPF_MEASURE_MS: u64 = 100;
/// `srv-native` is ≈2.5× cheaper per request; a longer interval
/// (≈0.52 M requests) keeps its lap near the others' wall time.
const SRV_NATIVE_MEASURE_MS: u64 = 400;
const SRV_WARMUP_MS: u64 = 50;

/// The four Table-2 policies, by the names `BENCHMARK.json` uses, in the
/// order [`srv_configs`] deploys them.
pub const POLICIES: [&str; 4] = ["round_robin", "scan_avoid", "sita", "token_based"];

fn srv_configs(
    seed: u64,
    use_ebpf: bool,
    measure: Duration,
    warmup: Duration,
) -> Vec<ServerConfig> {
    let mut cfgs = vec![
        ServerConfig::fig6(SocketPolicyKind::RoundRobin, 300_000.0, seed),
        ServerConfig::fig6(SocketPolicyKind::ScanAvoid, 150_000.0, seed),
        ServerConfig::fig6(SocketPolicyKind::Sita, 300_000.0, seed),
        ServerConfig::fig7(
            SocketPolicyKind::TokenBased {
                rate_per_sec: 350_000,
            },
            200_000.0,
            200_000.0,
            seed,
        ),
    ];
    for cfg in &mut cfgs {
        cfg.use_ebpf = use_ebpf;
        cfg.measure = measure;
        cfg.warmup = warmup;
    }
    cfgs
}

fn vm_cycles(t: &Snapshot) -> u64 {
    t.histogram("vm/run_cycles").map_or(0, |h| h.sum())
}

/// The simulated outcome of one `server_world` run, under `prefix`.
fn srv_outcome(fp: &mut Fingerprint, prefix: &str, r: &ServerResult) {
    let o = &r.overall;
    for (key, value) in [
        ("offered", o.offered),
        ("completed", o.completed),
        ("dropped", o.dropped),
        ("p50_ns", o.latency.p50().as_nanos()),
        ("p99_ns", o.latency.p99().as_nanos()),
        ("max_ns", o.latency.max().as_nanos()),
    ] {
        fp.insert(format!("{prefix}.{key}"), value);
    }
}

fn srv(seed: u64, div: u64, use_ebpf: bool) -> Workload {
    let measure_ms = if use_ebpf {
        SRV_EBPF_MEASURE_MS
    } else {
        SRV_NATIVE_MEASURE_MS
    };
    let us = |ms: u64| Duration::from_micros(ms * 1_000 / div);
    let cfgs = srv_configs(seed, use_ebpf, us(measure_ms), us(SRV_WARMUP_MS));
    let lap_cfgs = cfgs.clone();
    let lap = move || {
        let mut calls: Vec<(String, f64)> = Vec::new();
        let mut call = |metric: &str, n: u64| calls.push((metric.to_string(), n as f64));
        let mut fp = Fingerprint::new();
        let (mut ops, mut failed) = (0, 0);
        for (policy, cfg) in POLICIES.iter().zip(&lap_cfgs) {
            let r = server_world::run(cfg);
            let (o, t) = (&r.overall, &r.telemetry);
            srv_outcome(&mut fp, policy, &r);
            let dispatches = t.counter("syrupd/dispatches");
            let delivered = t.counter("sock/delivered");
            for (key, value) in [
                ("dispatches", dispatches),
                ("vm_runs", t.counter("vm/runs")),
                ("vm_run_cycles", vm_cycles(t)),
                ("vm_traps", t.counter("vm/traps")),
                (
                    "sock_drops",
                    t.counter("sock/buffer_drops") + t.counter("sock/policy_drops"),
                ),
            ] {
                fp.insert(format!("{policy}.{key}"), value);
            }
            ops += o.offered;
            failed += o.offered.saturating_sub(o.completed + o.dropped)
                + t.counter("vm/traps")
                + t.counter("syrupd/unmatched");

            // Arrival + Deliver per request, Complete per delivered one.
            call("sim.wheel_push_pop_ns", 2 * dispatches + delivered);
            call("sim.arrival_draw_ns", dispatches);
            call("net.reuseport_deliver_recv_ns", delivered);
            let recorders = if cfg.tenants.is_empty() { 1 } else { 2 };
            call("sim.recorder_record_ns", recorders * o.completed);
            call(
                "sim.recorder_summary_ns_per_sample",
                recorders * o.completed,
            );
            if use_ebpf {
                call("core.dispatch_overhead_ns", dispatches);
                call(
                    &format!("ebpf.vm_run_ns.{policy}.interp"),
                    t.counter("vm/runs"),
                );
            } else {
                call("core.dispatch_native_ns", dispatches);
            }
            if *policy == "scan_avoid" {
                // The thread publishes its class at pick-up and completion.
                call("core.map_update_ns", 2 * delivered);
                if !use_ebpf {
                    call("policies.native_ns.scan_avoid", dispatches);
                }
            }
        }
        Lap {
            ops,
            failed,
            fingerprint: fp,
            calls,
        }
    };

    // Seed-independent: the bytecode and native forms of a policy with no
    // randomness decide identically, so the whole simulation must agree;
    // and the native path must never enter the VM.
    let cross_check: CrossCheck = Box::new(move |agreed| {
        if use_ebpf {
            for (policy, cfg) in POLICIES.iter().zip(&cfgs) {
                if !matches!(*policy, "round_robin" | "sita") {
                    continue;
                }
                let mut native = cfg.clone();
                native.use_ebpf = false;
                let mut want = Fingerprint::new();
                srv_outcome(&mut want, policy, &server_world::run(&native));
                for (key, value) in &want {
                    if agreed.get(key) != Some(value) {
                        return Err(format!(
                            "srv-ebpf {key} = {:?}, native form gives {value}",
                            agreed.get(key)
                        ));
                    }
                }
            }
        } else {
            for policy in POLICIES {
                if agreed.get(&format!("{policy}.vm_runs")) != Some(&0) {
                    return Err(format!("srv-native {policy} entered the VM"));
                }
            }
        }
        Ok(Vec::new())
    });

    Workload {
        op: "request",
        threads: 1,
        lap: Box::new(lap),
        cross_check: Some(cross_check),
    }
}

// ---------------------------------------------------------------------
// mt-ghost: the cross-layer Figure-8 deployment.
// ---------------------------------------------------------------------

/// Simulated measure interval: 8 K RPS × 40 s ≈ 0.32 M requests a lap.
const MT_MEASURE_MS: u64 = 40_000;

fn mt_ghost(seed: u64, div: u64) -> Workload {
    let mut cfg = MtConfig::fig8(SocketPolicyKind::ScanAvoid, SchedKind::Ghost, 8_000.0, seed);
    cfg.measure = Duration::from_millis(MT_MEASURE_MS / div);
    let lap = move || {
        let r = mt_world::run(&cfg);
        let mut fp = Fingerprint::new();
        for (key, value) in [
            ("completed", r.completed),
            ("dropped", r.dropped),
            ("preemptions", r.preemptions),
            ("get.p50_ns", r.get.p50().as_nanos()),
            ("get.p99_ns", r.get.p99().as_nanos()),
            ("get.max_ns", r.get.max().as_nanos()),
            ("scan.p50_ns", r.scan.p50().as_nanos()),
            ("scan.p99_ns", r.scan.p99().as_nanos()),
            ("scan.max_ns", r.scan.max().as_nanos()),
        ] {
            fp.insert(key.to_string(), value);
        }
        // `MtResult` carries no telemetry; the per-request call counts
        // are the world's structure (Arrival, Deliver, ThreadStart,
        // Complete events; one dispatch, delivery, wake-up and block).
        let requests = r.completed + r.dropped;
        let calls = [
            ("sim.sharded_push_pop_ns", 4 * requests + 2 * r.preemptions),
            ("sim.arrival_draw_ns", requests),
            ("core.dispatch_native_ns", requests),
            ("policies.native_ns.scan_avoid", requests),
            ("net.reuseport_deliver_recv_ns", requests),
            ("ghost.agent_ready_stopped_ns", requests),
            ("core.map_update_ns", 2 * requests),
            ("sim.recorder_record_ns", r.completed),
            ("sim.recorder_summary_ns_per_sample", r.completed),
        ];
        Lap {
            ops: requests,
            failed: 0,
            fingerprint: fp,
            calls: calls
                .iter()
                .map(|&(m, n)| (m.to_string(), n as f64))
                .collect(),
        }
    };
    Workload {
        op: "request",
        threads: 1,
        lap: Box::new(lap),
        cross_check: None,
    }
}

// ---------------------------------------------------------------------
// trip-plain / trip-observed: the quickstart world, sinks off and on.
// ---------------------------------------------------------------------

/// Requests per `trip-plain` lap.
pub const TRIP_PLAIN_REQUESTS: usize = 200_000;
/// Requests per `trip-observed` lap (≈7× dearer per request).
pub const TRIP_OBSERVED_REQUESTS: usize = 30_000;

/// What a quickstart trip (the world's or the replay's) left behind.
pub struct TripOutcome {
    /// Requests pushed in.
    pub requests: usize,
    /// Requests that reached a worker.
    pub completed: u64,
    /// The daemon's registry when the trip ended.
    pub telemetry: Snapshot,
    /// Frames the NIC rings refused.
    pub nic_ring_drops: u64,
    /// Datagrams the reuseport sockets refused.
    pub sock_buffer_drops: u64,
}

impl TripOutcome {
    /// Reads the outcome off a finished quickstart run.
    pub fn of(q: &Quickstart, requests: usize) -> Self {
        TripOutcome {
            requests,
            completed: q.completed,
            telemetry: q.syrupd.telemetry_snapshot(),
            nic_ring_drops: q.nic.ring_drops(),
            sock_buffer_drops: q.group.total_buffer_drops(),
        }
    }

    /// The simulated statistics.
    pub fn fingerprint(&self) -> Fingerprint {
        let t = &self.telemetry;
        let mut fp = Fingerprint::new();
        for (key, value) in [
            ("completed", self.completed),
            ("dispatches", t.counter("syrupd/dispatches")),
            ("vm_runs", t.counter("vm/runs")),
            ("vm_run_cycles", vm_cycles(t)),
            ("vm_traps", t.counter("vm/traps")),
            ("wheel_pushes", t.counter("sim/wheel_pushes")),
            ("wheel_clamped", t.counter("sim/wheel_clamped")),
            ("nic_ring_drops", self.nic_ring_drops),
            ("sock_buffer_drops", self.sock_buffer_drops),
        ] {
            fp.insert(key.to_string(), value);
        }
        fp
    }

    /// Requests that failed.
    pub fn failed(&self) -> u64 {
        let t = &self.telemetry;
        (self.requests as u64).saturating_sub(self.completed)
            + t.counter("vm/traps")
            + t.counter("syrupd/unmatched")
            + t.counter("sim/wheel_clamped")
    }
}

/// Per-request calls of the quickstart pipeline into each layer.
fn trip_calls(requests: u64) -> Vec<(String, f64)> {
    [
        ("sim.sharded_push_pop_ns", 1),
        ("net.rss_select_ns", 1),
        ("net.nic_ring_ns", 1),
        ("net.frame_build_ns", 1),
        ("core.dispatch_overhead_ns", 1),
        ("ebpf.vm_run_ns.round_robin.interp", 1),
        ("core.dispatch_native_ns", 2),
        ("core.verdict_extra_ns", 1),
        ("net.reuseport_deliver_recv_ns", 1),
    ]
    .iter()
    .map(|&(m, per_request)| (m.to_string(), (per_request * requests) as f64))
    .collect()
}

/// Which sinks an observed trip turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sinks {
    /// `syrup-trace` request tracer.
    pub trace: bool,
    /// `syrup-profile` cycle profiler.
    pub profile: bool,
    /// `syrup-blackbox` flight recorder.
    pub blackbox: bool,
    /// `syrup-scope` registry sampler, ticked from the observer.
    pub scope: bool,
}

impl Sinks {
    /// Every sink on.
    pub const ALL: Sinks = Sinks {
        trace: true,
        profile: true,
        blackbox: true,
        scope: true,
    };
    /// Every sink off.
    pub const NONE: Sinks = Sinks {
        trace: false,
        profile: false,
        blackbox: false,
        scope: false,
    };
}

/// What the sinks of one observed trip held when it ended.
pub struct Observed {
    /// The run itself.
    pub trip: TripOutcome,
    /// Span records the tracer's ring refused, and records offered.
    pub trace_dropped: u64,
    /// Span records the tracer kept.
    pub trace_kept: u64,
    /// Flight-recorder events overwritten before anyone read them.
    pub blackbox_overwritten: u64,
    /// Flight-recorder events still held.
    pub blackbox_kept: u64,
    /// Registry samples the scope sampler took.
    pub scope_ticks: u64,
}

/// One quickstart run with fresh instances of the chosen sinks.
pub fn run_trip(requests: usize, sinks: Sinks) -> Observed {
    use syrup::blackbox::Layer;
    let tracer = if sinks.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let profiler = if sinks.profile {
        Profiler::new()
    } else {
        Profiler::disabled()
    };
    let recorder = if sinks.blackbox {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let mut sampler = if sinks.scope {
        Sampler::with_default_cadence(Scope::new(), "")
    } else {
        Sampler::disabled()
    };
    let quickstart = quickstart::run_observed(
        &tracer,
        &profiler,
        &recorder,
        requests,
        false,
        &mut |_, now_ns, daemon| {
            sampler.tick(now_ns, daemon.telemetry());
        },
    );
    let layers = [Layer::Syrupd, Layer::Nic, Layer::Sock];
    Observed {
        trace_dropped: tracer.records_dropped(),
        trace_kept: quickstart.records.len() as u64,
        blackbox_overwritten: layers.iter().map(|&l| recorder.dropped(l)).sum(),
        blackbox_kept: layers
            .iter()
            .map(|&l| recorder.events(l).len() as u64)
            .sum(),
        scope_ticks: sampler.ticks(),
        trip: TripOutcome::of(&quickstart, requests),
    }
}

fn trip(div: u64, observed: bool) -> Workload {
    let requests = if observed {
        TRIP_OBSERVED_REQUESTS
    } else {
        TRIP_PLAIN_REQUESTS
    } / div as usize;
    let lap = move || {
        let mut calls = trip_calls(requests as u64);
        let (trip, sinks) = if observed {
            let o = run_trip(requests, Sinks::ALL);
            for sink in ["trace", "profile", "blackbox", "scope"] {
                calls.push((format!("{sink}.tax_ns_per_op"), requests as f64));
            }
            let sinks = vec![
                ("trace_kept", o.trace_kept),
                ("trace_dropped", o.trace_dropped),
                ("blackbox_kept", o.blackbox_kept),
                ("blackbox_overwritten", o.blackbox_overwritten),
                ("scope_ticks", o.scope_ticks),
            ];
            (o.trip, sinks)
        } else {
            let q = quickstart::run(&Tracer::disabled(), requests);
            (TripOutcome::of(&q, requests), Vec::new())
        };
        let mut fp = trip.fingerprint();
        fp.extend(sinks.into_iter().map(|(k, v)| (k.to_string(), v)));
        Lap {
            ops: requests as u64,
            failed: trip.failed(),
            fingerprint: fp,
            calls,
        }
    };
    Workload {
        op: "request",
        threads: 1,
        lap: Box::new(lap),
        cross_check: None,
    }
}

// ---------------------------------------------------------------------
// scale-1shard / scale-2shard: the timer wheel and the shard protocol.
// ---------------------------------------------------------------------

/// Concurrently pending events (one per closed-loop flow).
pub const SCALE_FLOWS: u64 = 300_000;
/// Simulated warm-up and measure intervals of one lap (`ScaleCfg::new`
/// uses 10 ms + 40 ms; these keep a lap near half a second while every
/// flow still completes a think–request–reply cycle).
const SCALE_WARMUP_US: u64 = 5_000;
const SCALE_MEASURE_US: u64 = 10_000;

/// The scale world's configuration at `shards`.
pub fn scale_cfg(seed: u64, div: u64, shards: usize) -> ScaleCfg {
    let mut cfg = ScaleCfg::new(SCALE_FLOWS / div, shards, seed);
    cfg.warmup = Duration::from_micros(SCALE_WARMUP_US);
    cfg.measure = Duration::from_micros(SCALE_MEASURE_US);
    cfg.sample_every = 0;
    cfg
}

fn scale_fingerprint(r: &syrup::sim::ScaleResult) -> Fingerprint {
    let s = &r.stats;
    let mut fp = Fingerprint::new();
    for (key, value) in [
        ("offered", s.offered),
        ("completed", s.completed),
        ("dropped", s.dropped),
        ("p50_ns", s.latency.p50().as_nanos()),
        ("p99_ns", s.latency.p99().as_nanos()),
        ("max_ns", s.latency.max().as_nanos()),
        ("events", r.events),
    ] {
        fp.insert(key.to_string(), value);
    }
    fp
}

fn scale(seed: u64, div: u64, shards: usize) -> Workload {
    let cfg = scale_cfg(seed, div, shards);
    let lap = move || {
        let r = syrup::sim::scale::run(&cfg, ScaleEngine::Wheel);
        let completed = r.stats.completed;
        let calls = [
            ("sim.wheel_push_pop_300k_ns", r.events),
            ("sim.recorder_record_ns", completed),
            ("sim.recorder_summary_ns_per_sample", completed),
        ];
        Lap {
            ops: r.events,
            failed: 0,
            fingerprint: scale_fingerprint(&r),
            calls: calls
                .iter()
                .map(|&(m, n)| (m.to_string(), n as f64))
                .collect(),
        }
    };
    // Seed-independent: the result must not depend on the shard count.
    let cross_check: Option<CrossCheck> = (shards > 1).then(|| {
        let check: CrossCheck = Box::new(move |agreed| {
            let one = syrup::sim::scale::run(&scale_cfg(seed, div, 1), ScaleEngine::Wheel);
            let want = scale_fingerprint(&one);
            if *agreed != want {
                return Err(format!(
                    "scale-{shards}shard {agreed:?} differs from one shard {want:?}"
                ));
            }
            Ok(Vec::new())
        });
        check
    });
    Workload {
        op: "event",
        threads: shards,
        lap: Box::new(lap),
        cross_check,
    }
}

// ---------------------------------------------------------------------
// dispatch-mt: two independent apps, two caller threads, one daemon.
// ---------------------------------------------------------------------

/// `schedule` calls per caller thread per lap.
const DISPATCH_CALLS_PER_THREAD: u64 = 48_000;
/// Socket-select executors of each app's round-robin policy.
const DISPATCH_EXECUTORS: u32 = 6;
/// Distinct datagrams each caller cycles through.
const DISPATCH_PACKETS: usize = 256;

/// One daemon with an app per port, each running compiled-C ROUND_ROBIN
/// at the socket-select hook.
pub fn dispatch_daemon(ports: &[u16]) -> Syrupd {
    let daemon = Syrupd::new();
    for port in ports {
        let (app, _maps) = daemon
            .register_app(format!("app-{port}"), &[*port])
            .expect("ports are distinct");
        daemon
            .deploy(
                app,
                Hook::SocketSelect,
                PolicySource::C {
                    source: c_sources::ROUND_ROBIN.to_string(),
                    options: CompileOptions::new()
                        .define("NUM_THREADS", i64::from(DISPATCH_EXECUTORS)),
                },
            )
            .expect("round robin deploys");
    }
    daemon
}

/// Seeded datagrams for one caller: random flows, classes, users, keys.
pub fn dispatch_packets(rng: &mut SimRng, port: u16, n: usize) -> Vec<Vec<u8>> {
    let flows = flow::client_flows(n, port, rng);
    flows
        .iter()
        .enumerate()
        .map(|(i, fl)| {
            let class = if rng.chance(0.05) {
                RequestClass::Scan
            } else {
                RequestClass::Get
            };
            let header = AppHeader {
                req_type: class.code(),
                user_id: rng.index(4) as u32,
                key_hash: rng.gen_u64(),
                req_id: i as u64,
            };
            Frame::build(fl, &header).datagram().to_vec()
        })
        .collect()
}

/// A closed loop of `calls` dispatches on `port`. Returns the sum of the
/// executors chosen and the calls that found no owner or no executor.
pub fn dispatch_loop(daemon: &Syrupd, port: u16, packets: &[Vec<u8>], calls: u64) -> (u64, u64) {
    let mut buf = packets[0].clone();
    let (mut sum, mut failed) = (0u64, 0u64);
    for i in 0..calls {
        let template = &packets[i as usize % packets.len()];
        buf.copy_from_slice(template);
        let meta = HookMeta {
            now_ns: i,
            dst_port: port,
            ..HookMeta::default()
        };
        match daemon.schedule(Hook::SocketSelect, &mut buf, &meta) {
            (Some(_), Decision::Executor(e)) => sum += u64::from(e),
            _ => failed += 1,
        }
    }
    (sum, failed)
}

/// One closed-loop caller thread per port, released together. Returns
/// each caller's [`dispatch_loop`] result and the seconds its loop took.
pub fn dispatch_callers(
    daemon: &Syrupd,
    ports: &[u16],
    packets: &[Vec<Vec<u8>>],
    calls: u64,
) -> Vec<((u64, u64), f64)> {
    let start = Barrier::new(ports.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = ports
            .iter()
            .zip(packets)
            .map(|(&port, packets)| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let began = std::time::Instant::now();
                    let result = dispatch_loop(daemon, port, packets, calls);
                    (result, began.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

const DISPATCH_PORTS: [u16; 2] = [7001, 7002];

fn dispatch_mt(seed: u64, div: u64) -> Workload {
    // A whole number of round-robin turns, so every lap sees the same
    // decisions although the policy's counter carries over between laps.
    let turn = u64::from(DISPATCH_EXECUTORS);
    let calls = (DISPATCH_CALLS_PER_THREAD / div).max(turn) / turn * turn;
    let mut rng = SimRng::new(seed);
    let packets: Vec<Vec<Vec<u8>>> = DISPATCH_PORTS
        .iter()
        .map(|&port| dispatch_packets(&mut rng, port, DISPATCH_PACKETS))
        .collect();
    let daemon = dispatch_daemon(&DISPATCH_PORTS);

    let lap_packets = packets.clone();
    let lap_daemon = daemon.clone();
    let lap = move || {
        let before = lap_daemon.telemetry_snapshot();
        let results: Vec<(u64, u64)> =
            dispatch_callers(&lap_daemon, &DISPATCH_PORTS, &lap_packets, calls)
                .into_iter()
                .map(|(result, _)| result)
                .collect();
        let after = lap_daemon.telemetry_snapshot();
        let counter = |name: &str| after.counter(name) - before.counter(name);
        let mut fp = Fingerprint::new();
        for (i, (sum, _)) in results.iter().enumerate() {
            fp.insert(format!("caller{i}.executor_sum"), *sum);
        }
        fp.insert("dispatches".into(), counter("syrupd/dispatches"));
        fp.insert("vm_runs".into(), counter("vm/runs"));
        fp.insert(
            "vm_run_cycles".into(),
            vm_cycles(&after) - vm_cycles(&before),
        );
        let ops = calls * DISPATCH_PORTS.len() as u64;
        Lap {
            ops,
            failed: results.iter().map(|r| r.1).sum::<u64>()
                + counter("vm/traps")
                + counter("syrupd/unmatched"),
            fingerprint: fp,
            calls: Vec::new(),
        }
    };

    // Seed-independent: the apps are independent, so what each caller is
    // told must be what it is told when it is the only caller. The same
    // pass gives the one-caller rate the two-caller aggregate sits beside.
    let cross_check: CrossCheck = Box::new(move |agreed| {
        let fresh = dispatch_daemon(&DISPATCH_PORTS);
        let started = std::time::Instant::now();
        let mut sums = Vec::new();
        for (&port, packets) in DISPATCH_PORTS.iter().zip(&packets) {
            sums.push(dispatch_loop(&fresh, port, packets, calls).0);
        }
        let secs = started.elapsed().as_secs_f64();
        for (i, sum) in sums.iter().enumerate() {
            let key = format!("caller{i}.executor_sum");
            if agreed.get(&key) != Some(sum) {
                return Err(format!(
                    "dispatch-mt {key} = {:?} with two callers, {sum} alone",
                    agreed.get(&key)
                ));
            }
        }
        let ops = (calls * DISPATCH_PORTS.len() as u64) as f64;
        Ok(vec![(
            "dispatch-mt.one_caller_ops_per_s".to_string(),
            ops / secs,
        )])
    });

    Workload {
        op: "dispatch call",
        threads: DISPATCH_PORTS.len(),
        lap: Box::new(lap),
        cross_check: Some(cross_check),
    }
}
