//! The pinned-thread server world: Figures 2, 6, and 7.
//!
//! §5.2's deployment: N RocksDB server threads, each pinned to its own
//! core and owning one `SO_REUSEPORT` UDP socket; an open-loop client
//! offers Poisson arrivals over a fixed set of 5-tuples; a Syrup
//! socket-select policy (deployed through `syrupd`) decides which socket —
//! and therefore which thread — handles each datagram.
//!
//! The world is a discrete-event simulation:
//!
//! ```text
//! arrival ──(stack latency)──► socket-select hook ──► socket FIFO ──►
//!   worker thread (syscall overhead + service time) ──► completion
//! ```
//!
//! Full buffers and policy `DROP`s are counted against offered load
//! (Figure 2b); completions record client-observed latency (arrival →
//! completion), from which the harness extracts p99 (Figures 2a, 6) and
//! per-user goodput (Figure 7).

use std::collections::HashMap;

use syrup_core::{Hook, MapDef, MapRef, PacketPolicy, PolicySource, Syrupd};
use syrup_ghost::ghost::class;
use syrup_net::socket::{Delivery, ReuseportGroup};
use syrup_net::StackCosts;
use syrup_policies::{
    c_sources, RoundRobinPolicy, ScanAvoidPolicy, SitaPolicy, TokenPolicy, VanillaPolicy,
};
use syrup_sim::{
    drive, Duration, EventQueue, LatencyRecorder, LatencySummary, OpenLoop, RequestMix, RunStats,
    SimRng, Time,
};

use crate::frontend::{ClientSpec, FrontEnd, Req};
use crate::rocksdb::RocksDbModel;
use crate::token_agent::TokenAgent;

/// Which paper policy to deploy at the socket-select hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketPolicyKind {
    /// No policy: Linux's default 5-tuple-hash reuseport selection
    /// ("Vanilla Linux").
    Vanilla,
    /// Figure 5a round robin.
    RoundRobin,
    /// Figure 5c SCAN Avoid (kernel half) + Figure 5b userspace updates.
    ScanAvoid,
    /// Figure 5d SITA.
    Sita,
    /// §5.2.2 token-based QoS with the userspace refill agent.
    TokenBased {
        /// LS token generation rate per second (the paper: 350K).
        rate_per_sec: u64,
    },
}

/// A tenant issuing requests (Figure 7 has an LS and a BE user).
#[derive(Debug, Clone, Copy)]
pub struct Tenant {
    /// Wire user id.
    pub user_id: u32,
    /// Offered load share (weights normalized across tenants).
    pub weight: f64,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Server threads (= cores = sockets).
    pub threads: usize,
    /// The UDP port all sockets share.
    pub port: u16,
    /// Number of distinct client 5-tuples (Figure 2 uses 50).
    pub num_flows: usize,
    /// Socket receive-buffer capacity in datagrams.
    pub socket_capacity: usize,
    /// Total offered load in requests per second.
    pub load_rps: f64,
    /// GET fraction; the rest are SCANs.
    pub get_fraction: f64,
    /// Service-time model.
    pub model: RocksDbModel,
    /// Per-request syscall work on the worker (recvmsg + sendmsg).
    pub per_request_overhead: Duration,
    /// RX path cost model.
    pub stack: StackCosts,
    /// The deployed policy.
    pub policy: SocketPolicyKind,
    /// Deploy the policy as compiled-and-verified eBPF bytecode instead of
    /// the native fast path — the full §3.1 pipeline exercised per packet.
    /// Slower to simulate; decision behaviour is identical (asserted by
    /// the `ebpf_end_to_end` integration test).
    pub use_ebpf: bool,
    /// Tenants (single anonymous tenant if empty).
    pub tenants: Vec<Tenant>,
    /// Warm-up interval excluded from statistics.
    pub warmup: Duration,
    /// Measured interval.
    pub measure: Duration,
    /// RNG seed (sweeps vary this for error bars).
    pub seed: u64,
    /// Request tracer (disabled by default — the fast path stays free).
    /// An enabled tracer samples ingresses and records a span per stage
    /// each traced request crosses: stack RX, the socket-select hook (and
    /// the VM, when `use_ebpf`), socket residency, and on-thread run.
    pub tracer: syrup_trace::Tracer,
}

impl ServerConfig {
    /// The §5.2 baseline setup: 6 threads, 50 flows, Figure 2's GET-only
    /// workload at `load_rps`.
    pub fn fig2(policy: SocketPolicyKind, load_rps: f64, seed: u64) -> Self {
        ServerConfig {
            threads: 6,
            port: 8080,
            num_flows: 50,
            socket_capacity: 256,
            load_rps,
            get_fraction: 1.0,
            model: RocksDbModel::default(),
            per_request_overhead: Duration::from_micros(2),
            stack: StackCosts::default(),
            policy,
            use_ebpf: false,
            tenants: Vec::new(),
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(300),
            seed,
            tracer: syrup_trace::Tracer::disabled(),
        }
    }

    /// Figure 6's mix: 99.5% GET / 0.5% SCAN.
    pub fn fig6(policy: SocketPolicyKind, load_rps: f64, seed: u64) -> Self {
        ServerConfig {
            get_fraction: 0.995,
            ..ServerConfig::fig2(policy, load_rps, seed)
        }
    }

    /// Figure 7's two-tenant GET-only workload: total load fixed, split
    /// between the LS user (id 0) and the BE user (id 1).
    pub fn fig7(policy: SocketPolicyKind, ls_rps: f64, be_rps: f64, seed: u64) -> Self {
        ServerConfig {
            load_rps: ls_rps + be_rps,
            get_fraction: 1.0,
            // Saturation for Figure 7 sits near 400K RPS in the paper's
            // setup; a heavier syscall path reproduces that.
            per_request_overhead: Duration::from_micros(4),
            tenants: vec![
                Tenant {
                    user_id: 0,
                    weight: ls_rps,
                },
                Tenant {
                    user_id: 1,
                    weight: be_rps,
                },
            ],
            ..ServerConfig::fig2(policy, ls_rps + be_rps, seed)
        }
    }
}

/// Per-tenant outcome.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Requests offered post warm-up.
    pub offered: u64,
    /// Requests completed and measured.
    pub completed: u64,
    /// Requests dropped (policy or buffer).
    pub dropped: u64,
    /// Latency order statistics.
    pub latency: LatencySummary,
}

impl TenantStats {
    /// Goodput over the measured window.
    pub fn throughput_rps(&self, measure: Duration) -> f64 {
        self.completed as f64 / measure.as_secs_f64()
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct ServerResult {
    /// Aggregate statistics.
    pub overall: RunStats,
    /// Per-tenant breakdown (empty unless tenants were configured).
    pub per_tenant: HashMap<u32, TenantStats>,
    /// Per-class latency (GET vs SCAN), for Figure 6 commentary.
    pub per_class: HashMap<u32, LatencySummary>,
    /// End-of-run metrics exported by `syrupd` and the substrates
    /// (dispatch/verdict counters, VM cycle histograms, socket drops).
    pub telemetry: syrup_telemetry::Snapshot,
}

enum Ev {
    Arrival,
    Deliver(Req),
    Complete { thread: usize },
    TokenEpoch,
}

struct PendingTenant {
    recorder: LatencyRecorder,
    offered: u64,
    completed: u64,
    dropped: u64,
}

/// Runs one experiment and returns its statistics.
pub fn run(cfg: &ServerConfig) -> ServerResult {
    World::new(cfg).run()
}

struct World<'c> {
    cfg: &'c ServerConfig,
    front: FrontEnd<'c>,
    /// Current request per thread (None = idle).
    busy: Vec<Option<Req>>,
    /// Picks each request's tenant (None = the single anonymous user 0).
    tenant_mix: Option<RequestMix>,
    recorder: LatencyRecorder,
    per_class: HashMap<u32, Vec<u64>>,
    tenants: HashMap<u32, PendingTenant>,
    offered: u64,
    dropped: u64,
    scan_map: Option<MapRef>,
    token_agent: Option<TokenAgent>,
}

impl<'c> World<'c> {
    fn new(cfg: &'c ServerConfig) -> Self {
        let rng = SimRng::new(cfg.seed);
        let syrupd = Syrupd::new();
        let (app, maps) = syrupd
            .register_app("rocksdb", &[cfg.port])
            .expect("fresh daemon has no port conflicts");

        let n = cfg.threads as u32;
        let deploy = |source: PolicySource| {
            syrupd
                .deploy(app, Hook::SocketSelect, source)
                .expect("policy deploys")
        };
        // Deploys the Table-2 policy `name` — its compiled C, or the form
        // `native` builds — and returns the Map it shares with userspace:
        // the one the C source pins, or one created under the same name.
        let table2 =
            |name: &str,
             pinned: Option<(&str, u32)>,
             native: &dyn Fn(Option<MapRef>) -> Box<dyn PacketPolicy>| {
                if cfg.use_ebpf {
                    let entry = c_sources::table2(n)
                        .into_iter()
                        .find(|e| e.name == name)
                        .expect("a Table-2 policy");
                    let handle = deploy(PolicySource::C {
                        source: entry.source.to_string(),
                        options: entry.opts,
                    });
                    pinned.map(|(map, _)| {
                        maps.open(&handle.pinned_maps[map])
                            .expect("policy pinned its map")
                    })
                } else {
                    let map = pinned.map(|(map, slots)| {
                        maps.create_pinned(map, MapDef::u64_array(slots))
                            .expect("create the policy's map")
                    });
                    deploy(PolicySource::Native(native(map.clone())));
                    map
                }
            };
        let mut scan_map = None;
        let mut token_agent = None;
        match cfg.policy {
            SocketPolicyKind::Vanilla => {
                deploy(PolicySource::Native(Box::new(VanillaPolicy)));
            }
            SocketPolicyKind::RoundRobin => {
                table2("round_robin", None, &|_| Box::new(RoundRobinPolicy::new(n)));
            }
            SocketPolicyKind::ScanAvoid => {
                let map = table2("scan_avoid", Some(("scan_map", 64)), &|map| {
                    let map = map.expect("created above");
                    Box::new(ScanAvoidPolicy::new(map, n, cfg.seed ^ 0xABCD))
                })
                .expect("SCAN Avoid has a map");
                // All threads start "serving GETs".
                for i in 0..n {
                    map.update_u64(i, class::GET).expect("in range");
                }
                scan_map = Some(map);
            }
            SocketPolicyKind::Sita => {
                table2("sita", None, &|_| Box::new(SitaPolicy::new(n)));
            }
            SocketPolicyKind::TokenBased { rate_per_sec } => {
                let map = table2("token_based", Some(("token_map", 16)), &|map| {
                    Box::new(TokenPolicy::new(map.expect("created above"), n))
                })
                .expect("the token policy has a map");
                let mut agent =
                    TokenAgent::new(map, Duration::from_micros(100), rate_per_sec, 0, 1);
                agent.on_epoch();
                token_agent = Some(agent);
            }
        }

        let users: Vec<u32> = if cfg.tenants.is_empty() {
            vec![0]
        } else {
            cfg.tenants.iter().map(|t| t.user_id).collect()
        };
        // Requests are split over the tenants by offered-load share.
        let shares: Vec<(u32, f64)> = cfg.tenants.iter().map(|t| (t.user_id, t.weight)).collect();
        let tenant_mix = shares
            .iter()
            .any(|&(_, weight)| weight > 0.0)
            .then(|| RequestMix::new(&shares));

        let load = OpenLoop::poisson(cfg.load_rps, cfg.warmup, cfg.measure);
        let tenants = cfg
            .tenants
            .iter()
            .map(|t| {
                (
                    t.user_id,
                    PendingTenant {
                        recorder: load.recorder(),
                        offered: 0,
                        completed: 0,
                        dropped: 0,
                    },
                )
            })
            .collect();

        let mut group = ReuseportGroup::new(cfg.threads, cfg.socket_capacity);
        group.attach_telemetry(syrupd.telemetry(), "sock");
        let spec = ClientSpec {
            app,
            port: cfg.port,
            num_flows: cfg.num_flows,
            users,
            get_fraction: cfg.get_fraction,
            model: cfg.model,
            rx_latency: cfg.stack.standard_rx_latency(),
            tracer: &cfg.tracer,
        };
        World {
            cfg,
            busy: vec![None; cfg.threads],
            tenant_mix,
            recorder: load.recorder(),
            per_class: HashMap::new(),
            tenants,
            offered: 0,
            dropped: 0,
            scan_map,
            token_agent,
            front: FrontEnd::new(spec, rng, syrupd, group, load),
        }
    }

    fn run(mut self) -> ServerResult {
        let mut queue = EventQueue::new();
        self.front.schedule_arrival(&mut queue, Ev::Arrival);
        if self.token_agent.is_some() {
            queue.push(Time::ZERO + Duration::from_micros(100), Ev::TokenEpoch);
        }

        drive("server_world", &mut queue, |now, ev, q| match ev {
            Ev::Arrival => self.on_arrival(now, q),
            Ev::Deliver(req) => self.on_deliver(now, req, q),
            Ev::Complete { thread } => self.on_complete(now, thread, q),
            Ev::TokenEpoch => {
                if let Some(agent) = self.token_agent.as_mut() {
                    agent.on_epoch();
                    if now < self.front.load.end() {
                        q.push(now + agent.epoch, Ev::TokenEpoch);
                    }
                }
            }
        });

        let overall =
            RunStats::from_recorder(&self.recorder, self.offered, self.dropped, self.cfg.measure);
        // Export per-tenant aggregates into the registry so downstream
        // consumers (the fig7 harness) can work from the snapshot alone.
        let registry = self.front.syrupd.telemetry().clone();
        for (id, t) in &self.tenants {
            let p = format!("tenant{id}");
            registry.counter(&format!("{p}/offered")).add(t.offered);
            registry.counter(&format!("{p}/completed")).add(t.completed);
            registry.counter(&format!("{p}/dropped")).add(t.dropped);
            let hist = registry.histogram(&format!("{p}/latency_ns"));
            for &ns in t.recorder.summary().samples() {
                hist.record(ns);
            }
        }
        let telemetry = self.front.syrupd.telemetry_snapshot();
        let per_tenant = self
            .tenants
            .into_iter()
            .map(|(id, t)| {
                (
                    id,
                    TenantStats {
                        offered: t.offered,
                        completed: t.completed,
                        dropped: t.dropped,
                        latency: t.recorder.summary(),
                    },
                )
            })
            .collect();
        let per_class = self
            .per_class
            .into_iter()
            .map(|(c, samples)| (c, LatencySummary::from_nanos(samples)))
            .collect();
        ServerResult {
            overall,
            per_tenant,
            per_class,
            telemetry,
        }
    }

    fn on_arrival(&mut self, now: Time, q: &mut EventQueue<Ev>) {
        // Schedule the next arrival first (open loop).
        self.front.schedule_arrival(q, Ev::Arrival);
        let tenant_mix = &self.tenant_mix;
        let (deliver_at, req) = self.front.arrive(now, |rng| {
            tenant_mix.as_ref().map_or(0, |mix| mix.sample(rng))
        });
        if req.measured {
            self.offered += 1;
            if let Some(t) = self.tenants.get_mut(&req.user) {
                t.offered += 1;
            }
        }
        q.push(deliver_at, Ev::Deliver(req));
    }

    fn on_deliver(&mut self, now: Time, req: Req, q: &mut EventQueue<Ev>) {
        match self.front.deliver(now, req) {
            Delivery::Enqueued(socket) => {
                if self.busy[socket].is_none() {
                    self.start_next(now, socket, q);
                }
            }
            Delivery::Dropped { .. } => {
                if req.measured {
                    self.dropped += 1;
                    if let Some(t) = self.tenants.get_mut(&req.user) {
                        t.dropped += 1;
                    }
                }
            }
        }
    }

    fn start_next(&mut self, now: Time, thread: usize, q: &mut EventQueue<Ev>) {
        let Some(req) = self.front.recv(now, thread) else {
            return;
        };
        // Figure 5b's userspace half: publish what this thread is serving.
        if let Some(map) = &self.scan_map {
            let _ = map.update_u64(thread as u32, req.thread_class());
        }
        let busy_for = self.cfg.per_request_overhead + req.service;
        self.cfg.tracer.span_arg(
            req.trace,
            syrup_trace::Stage::Run,
            now.as_nanos(),
            (now + busy_for).as_nanos(),
            thread as u64,
        );
        self.busy[thread] = Some(req);
        q.push(now + busy_for, Ev::Complete { thread });
    }

    fn on_complete(&mut self, now: Time, thread: usize, q: &mut EventQueue<Ev>) {
        if let Some(req) = self.busy[thread].take() {
            self.cfg.tracer.finish(req.trace, now.as_nanos());
            if req.measured {
                self.recorder.record(req.arrival, now);
                self.per_class
                    .entry(req.class.class_id())
                    .or_default()
                    .push(now.since(req.arrival).as_nanos());
                if let Some(t) = self.tenants.get_mut(&req.user) {
                    t.completed += 1;
                    t.recorder.record(req.arrival, now);
                }
            }
        }
        if let Some(map) = &self.scan_map {
            let _ = map.update_u64(thread as u32, class::GET);
        }
        self.start_next(now, thread, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(policy: SocketPolicyKind, load: f64, get_frac: f64) -> ServerResult {
        let mut cfg = ServerConfig::fig2(policy, load, 42);
        cfg.get_fraction = get_frac;
        cfg.warmup = Duration::from_millis(20);
        cfg.measure = Duration::from_millis(120);
        run(&cfg)
    }

    #[test]
    fn low_load_latency_is_near_service_time() {
        let r = quick(SocketPolicyKind::RoundRobin, 50_000.0, 1.0);
        let p50 = r.overall.latency.p50().as_micros_f64();
        // ~11µs service + ~4µs stack + 2µs syscall, plus light queueing.
        assert!((14.0..40.0).contains(&p50), "p50 {p50}us");
        assert_eq!(r.overall.dropped, 0);
        assert!(r.overall.completed > 4_000);
    }

    #[test]
    fn fig2_vanilla_drops_and_explodes_where_rr_does_not() {
        // At 350K RPS: vanilla's hottest hash bucket saturates; RR is fine.
        let mut vanilla_bad = 0;
        for seed in [1, 2, 3] {
            let mut cfg = ServerConfig::fig2(SocketPolicyKind::Vanilla, 350_000.0, seed);
            cfg.warmup = Duration::from_millis(20);
            cfg.measure = Duration::from_millis(150);
            let v = run(&cfg);
            if v.overall.drop_pct() > 0.5 || v.overall.latency.p99() > Duration::from_micros(500) {
                vanilla_bad += 1;
            }
        }
        assert!(
            vanilla_bad >= 2,
            "vanilla should struggle at 350K in most seeds"
        );

        let mut cfg = ServerConfig::fig2(SocketPolicyKind::RoundRobin, 350_000.0, 1);
        cfg.warmup = Duration::from_millis(20);
        cfg.measure = Duration::from_millis(150);
        let rr = run(&cfg);
        assert_eq!(rr.overall.dropped, 0, "RR balances perfectly");
        assert!(
            rr.overall.latency.p99() < Duration::from_micros(200),
            "RR p99 {}",
            rr.overall.latency.p99()
        );
    }

    #[test]
    fn fig6_sita_beats_scan_avoid_beats_rr() {
        let load = 150_000.0;
        let rr = quick(SocketPolicyKind::RoundRobin, load, 0.995);
        let sa = quick(SocketPolicyKind::ScanAvoid, load, 0.995);
        let sita = quick(SocketPolicyKind::Sita, load, 0.995);
        let (rr99, sa99, sita99) = (
            rr.overall.latency.p99(),
            sa.overall.latency.p99(),
            sita.overall.latency.p99(),
        );
        // SCANs dominate RR's tail; SCAN-Avoid and SITA keep it low.
        assert!(rr99 > Duration::from_micros(600), "RR p99 {rr99}");
        assert!(sa99 < rr99, "SCAN-Avoid {sa99} vs RR {rr99}");
        assert!(sita99 < Duration::from_micros(200), "SITA p99 {sita99}");
    }

    #[test]
    fn fig7_token_policy_caps_ls_latency() {
        // Offered 400K total (above the ~370K effective capacity); the
        // token policy admits only 350K so the LS user stays fast.
        let mut cfg = ServerConfig::fig7(
            SocketPolicyKind::TokenBased {
                rate_per_sec: 350_000,
            },
            200_000.0,
            200_000.0,
            7,
        );
        cfg.warmup = Duration::from_millis(30);
        cfg.measure = Duration::from_millis(150);
        let r = run(&cfg);
        let ls = &r.per_tenant[&0];
        let be = &r.per_tenant[&1];
        assert!(
            ls.latency.p99() < Duration::from_micros(400),
            "LS p99 {}",
            ls.latency.p99()
        );
        // Drops happen (admission control) but BE still gets leftovers.
        assert!(be.completed > 0);
        assert!(
            r.overall.dropped > 0,
            "admission control must drop something"
        );
    }

    #[test]
    fn telemetry_snapshot_covers_the_stack() {
        let r = quick(SocketPolicyKind::RoundRobin, 50_000.0, 1.0);
        let t = &r.telemetry;
        assert_eq!(t.counter("syrupd/deploys"), 1);
        // Every datagram went through the socket-select hook once...
        assert!(t.counter("syrupd/dispatches") > r.overall.completed);
        // ...and was delivered to some socket (warm-up included, so the
        // exported count exceeds the measured completions).
        assert!(t.counter("sock/delivered") >= r.overall.completed);
        assert_eq!(t.counter("sock/policy_drops"), 0);
        // The native RR policy's per-app verdict counters line up.
        let app = r.telemetry.filter_prefix("app1/");
        assert_eq!(
            app.counter("socket-select/verdict_executor"),
            t.counter("syrupd/dispatches") - t.counter("syrupd/unmatched")
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = quick(SocketPolicyKind::RoundRobin, 100_000.0, 0.995);
        let b = quick(SocketPolicyKind::RoundRobin, 100_000.0, 0.995);
        assert_eq!(a.overall.completed, b.overall.completed);
        assert_eq!(a.overall.latency.p99(), b.overall.latency.p99());
        assert_eq!(a.overall.dropped, b.overall.dropped);
    }

    #[test]
    fn overload_explodes_tail_for_everyone() {
        // 800K on ~460K capacity: open-loop queues grow without bound.
        let r = quick(SocketPolicyKind::RoundRobin, 800_000.0, 1.0);
        assert!(
            r.overall.latency.p99() > Duration::from_millis(1) || r.overall.drop_pct() > 5.0,
            "overload must be visible"
        );
    }
}
