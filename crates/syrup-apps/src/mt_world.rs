//! The multiplexed-thread world: Figure 8 (cross-layer scheduling).
//!
//! §5.3's deployment: RocksDB with 36 threads on 6 cores, 50% GET / 50%
//! SCAN. Threads are multiplexed by either the CFS-like default scheduler
//! (6 app cores, type-oblivious, millisecond slices) or a ghOSt agent
//! running the Syrup GET-priority policy (5 app cores + 1 agent core,
//! preemption via IPIs). Socket selection is either the vanilla hash or
//! the SCAN-Avoid Syrup policy. The four combinations reproduce the
//! figure's three plotted configurations (plus the omitted baseline):
//!
//! | socket layer | thread layer | paper series                 |
//! |--------------|--------------|------------------------------|
//! | SCAN Avoid   | CFS          | "SCAN Avoid"                 |
//! | vanilla hash | ghOSt        | "Thread Scheduling"          |
//! | SCAN Avoid   | ghOSt        | "SCAN Avoid + Thread Sched." |
//! | vanilla hash | CFS          | (omitted: off the chart)     |
//!
//! The request class each thread is about to serve is published in a Map
//! at enqueue time (the application-populated Map of §5.3), which is what
//! lets the ghOSt policy prioritize GET threads.
//!
//! Every event runs through one timer wheel ([`EventQueue`]), which pops
//! by time and, at equal times, in push order: a run is sequential and a
//! function of its configuration and seed.

use syrup_core::{Hook, MapDef, MapRef, PacketPolicy, PolicySource, Syrupd};
use syrup_ghost::cfs::{CfsParams, CfsSched};
use syrup_ghost::ghost::{class, GhostParams, GhostSched};
use syrup_ghost::{Assignment, CoreId, ThreadId, ThreadScheduler};
use syrup_net::socket::{Delivery, ReuseportGroup};
use syrup_net::{RequestClass, StackCosts};
use syrup_policies::{ScanAvoidPolicy, VanillaPolicy};
use syrup_sim::{
    drive, Duration, EventQueue, LatencyRecorder, LatencySummary, OpenLoop, SimRng, Time,
};

use crate::frontend::{ClientSpec, FrontEnd, Req};
use crate::rocksdb::RocksDbModel;
use crate::server_world::SocketPolicyKind;

/// Which thread scheduler multiplexes the 36 threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// The CFS-like kernel default on all cores.
    Cfs,
    /// ghOSt with the GET-priority Syrup policy; one core goes to the
    /// agent.
    Ghost,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct MtConfig {
    /// Application threads (the paper: 36).
    pub threads: usize,
    /// Machine cores (the paper: 6; ghOSt reserves one).
    pub cores: usize,
    /// Shared UDP port.
    pub port: u16,
    /// Distinct client flows.
    pub num_flows: usize,
    /// Socket buffer capacity per thread.
    pub socket_capacity: usize,
    /// Offered load (requests per second).
    pub load_rps: f64,
    /// GET fraction (the paper: 0.5).
    pub get_fraction: f64,
    /// Service model.
    pub model: RocksDbModel,
    /// Per-request syscall overhead.
    pub per_request_overhead: Duration,
    /// RX path costs.
    pub stack: StackCosts,
    /// Socket-select policy (vanilla or SCAN Avoid).
    pub socket_policy: SocketPolicyKind,
    /// Thread scheduler.
    pub sched: SchedKind,
    /// Warm-up interval.
    pub warmup: Duration,
    /// Measured interval.
    pub measure: Duration,
    /// RNG seed.
    pub seed: u64,
    /// Request tracer (disabled by default). An enabled tracer records
    /// stack-RX, socket-select, socket-residency, and run spans per
    /// sampled request, plus ghOSt enqueue/dispatch/preempt spans when
    /// `sched` is [`SchedKind::Ghost`].
    pub tracer: syrup_observe::trace::Tracer,
}

impl MtConfig {
    /// The §5.3 setup at a given load.
    pub fn fig8(
        socket_policy: SocketPolicyKind,
        sched: SchedKind,
        load_rps: f64,
        seed: u64,
    ) -> Self {
        MtConfig {
            threads: 36,
            cores: 6,
            port: 8080,
            num_flows: 50,
            socket_capacity: 256,
            load_rps,
            get_fraction: 0.5,
            model: RocksDbModel::default(),
            per_request_overhead: Duration::from_micros(2),
            stack: StackCosts::default(),
            socket_policy,
            sched,
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(800),
            seed,
            tracer: syrup_observe::trace::Tracer::disabled(),
        }
    }
}

/// Per-class latency outcome of one run.
#[derive(Debug, Clone)]
pub struct MtResult {
    /// GET latency statistics (Figure 8a).
    pub get: LatencySummary,
    /// SCAN latency statistics (Figure 8b).
    pub scan: LatencySummary,
    /// Completed requests.
    pub completed: u64,
    /// Dropped requests.
    pub dropped: u64,
    /// Preemptions issued by the ghOSt policy (0 under CFS).
    pub preemptions: u64,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    req: Req,
    remaining: Duration,
    started: Option<Time>,
}

enum Ev {
    Arrival,
    Deliver(Req),
    ThreadStart {
        thread: usize,
        core: CoreId,
        token: u64,
    },
    Complete {
        thread: usize,
        token: u64,
    },
    SliceTick {
        core: CoreId,
    },
}

type Queue = EventQueue<Ev>;

enum Sched {
    Cfs(CfsSched),
    Ghost(GhostSched),
}

impl Sched {
    fn as_dyn(&mut self) -> &mut dyn ThreadScheduler {
        match self {
            Sched::Cfs(s) => s,
            Sched::Ghost(s) => s,
        }
    }
}

/// Runs one Figure 8 configuration.
pub fn run(cfg: &MtConfig) -> MtResult {
    let rng = SimRng::new(cfg.seed);
    let syrupd = Syrupd::new();
    let (app, maps) = syrupd
        .register_app("rocksdb-mt", &[cfg.port])
        .expect("fresh daemon");

    // The thread-class Map: written at the socket layer / by the app,
    // read by both the SCAN-Avoid policy and the ghOSt policy (§3.4).
    let class_map: MapRef = maps
        .create_pinned("thread_class", MapDef::u64_array(64))
        .expect("create class map");
    for t in 0..cfg.threads as u32 {
        class_map.update_u64(t, class::GET).expect("in range");
    }

    let policy: Box<dyn PacketPolicy> = match cfg.socket_policy {
        SocketPolicyKind::Vanilla => Box::new(VanillaPolicy),
        SocketPolicyKind::ScanAvoid => Box::new(ScanAvoidPolicy::new(
            class_map.clone(),
            cfg.threads as u32,
            cfg.seed ^ 0x5A5A,
        )),
        other => panic!("Figure 8 uses vanilla or SCAN Avoid, not {other:?}"),
    };
    syrupd
        .deploy(app, Hook::SocketSelect, PolicySource::Native(policy))
        .expect("deploy");

    let sched = match cfg.sched {
        SchedKind::Cfs => Sched::Cfs(CfsSched::new(
            (0..cfg.cores as u32).map(CoreId).collect(),
            CfsParams::default(),
        )),
        SchedKind::Ghost => {
            let mut g = GhostSched::new(
                (0..cfg.cores as u32).map(CoreId).collect(),
                class_map.clone(),
                GhostParams::default(),
            );
            g.attach_tracer(&cfg.tracer);
            Sched::Ghost(g)
        }
    };

    let load = OpenLoop::poisson(cfg.load_rps, cfg.warmup, cfg.measure);
    let spec = ClientSpec {
        app,
        port: cfg.port,
        num_flows: cfg.num_flows,
        get_fraction: cfg.get_fraction,
        model: cfg.model,
        rx_latency: cfg.stack.standard_rx_latency(),
        tracer: &cfg.tracer,
    };
    let group = ReuseportGroup::new(cfg.threads, cfg.socket_capacity);
    let mut world = MtWorld {
        cfg,
        class_map,
        sched,
        threads: Threads {
            current: vec![None; cfg.threads],
            on_core: vec![None; cfg.threads],
            token: vec![0; cfg.threads],
        },
        get_rec: load.recorder(),
        scan_rec: load.recorder(),
        dropped: 0,
        front: FrontEnd::new(spec, rng, syrupd, group, load),
    };
    world.run()
}

struct MtWorld<'c> {
    cfg: &'c MtConfig,
    front: FrontEnd<'c>,
    class_map: MapRef,
    sched: Sched,
    threads: Threads,
    get_rec: LatencyRecorder,
    scan_rec: LatencyRecorder,
    dropped: u64,
}

/// Per-thread run state, apart from the scheduler so that a decision the
/// scheduler lends out can be applied while it is borrowed.
struct Threads {
    /// In-flight request per thread (paused when `started` is None).
    current: Vec<Option<InFlight>>,
    /// Core each thread currently occupies.
    on_core: Vec<Option<CoreId>>,
    /// Run-token per thread: stale ThreadStart/Complete events are ignored.
    token: Vec<u64>,
}

impl MtWorld<'_> {
    fn run(&mut self) -> MtResult {
        let mut queue = Queue::new();
        self.front.schedule_arrival(&mut queue, Ev::Arrival);
        // CFS needs periodic per-core slice ticks.
        if let Some(slice) = self.sched.as_dyn().timeslice() {
            for core in self.sched.as_dyn().app_cores() {
                queue.push(Time::ZERO + slice, Ev::SliceTick { core });
            }
        }

        drive("mt_world", &mut queue, |now, ev, q| match ev {
            Ev::Arrival => self.on_arrival(now, q),
            Ev::Deliver(req) => self.on_deliver(now, req, q),
            Ev::ThreadStart {
                thread,
                core,
                token,
            } => self.on_thread_start(now, thread, core, token, q),
            Ev::Complete { thread, token } => self.on_complete(now, thread, token, q),
            Ev::SliceTick { core } => {
                let assignments = self.sched.as_dyn().preempt_check(core, now);
                self.threads.apply(&self.cfg.tracer, now, assignments, q);
                if now < self.front.load.end() + Duration::from_millis(50) {
                    let slice = self
                        .sched
                        .as_dyn()
                        .timeslice()
                        .expect("tick only scheduled for sliced scheds");
                    q.push(now + slice, Ev::SliceTick { core });
                }
            }
        });

        let preemptions = match &self.sched {
            Sched::Ghost(g) => g.preemptions,
            Sched::Cfs(_) => 0,
        };
        MtResult {
            get: self.get_rec.summary(),
            scan: self.scan_rec.summary(),
            completed: (self.get_rec.len() + self.scan_rec.len()) as u64,
            dropped: self.dropped,
            preemptions,
        }
    }

    fn on_arrival(&mut self, now: Time, q: &mut Queue) {
        self.front.schedule_arrival(q, Ev::Arrival);
        let (deliver_at, req) = self.front.arrive(now, |_| 0);
        q.push(deliver_at, Ev::Deliver(req));
    }

    fn on_deliver(&mut self, now: Time, req: Req, q: &mut Queue) {
        match self.front.deliver(now, req) {
            Delivery::Enqueued(thread) => {
                // Publish the class this thread will serve next if it is
                // about to pick this request up (head of an empty queue).
                let idle = self.threads.current[thread].is_none();
                if idle && self.front.group.socket(thread).map(|s| s.len()) == Some(1) {
                    let _ = self.class_map.update_u64(thread as u32, req.thread_class());
                }
                if idle {
                    // The thread will pick this request up next: attribute
                    // its ghOSt enqueue/dispatch spans to this trace.
                    self.set_ghost_trace(thread, req.trace);
                    let assignments = self
                        .sched
                        .as_dyn()
                        .thread_ready(ThreadId(thread as u32), now);
                    self.threads.apply(&self.cfg.tracer, now, assignments, q);
                }
            }
            Delivery::Dropped { .. } => {
                if req.measured {
                    self.dropped += 1;
                }
            }
        }
    }

    /// Points ghOSt's per-thread trace attribution at `ctx` (no-op under
    /// CFS, which records no scheduler spans).
    fn set_ghost_trace(&mut self, thread: usize, ctx: syrup_observe::trace::TraceCtx) {
        if let Sched::Ghost(g) = &mut self.sched {
            g.set_thread_trace(ThreadId(thread as u32), ctx);
        }
    }

    /// `thread` takes the head request off its socket (if any), publishes
    /// its class and starts on it at `now`; the `Complete` carries `token`.
    fn take_next(&mut self, now: Time, thread: usize, token: u64, q: &mut Queue) -> bool {
        let Some(req) = self.front.recv(now, thread) else {
            return false;
        };
        let _ = self.class_map.update_u64(thread as u32, req.thread_class());
        self.set_ghost_trace(thread, req.trace);
        let remaining = self.cfg.per_request_overhead + req.service;
        self.threads.current[thread] = Some(InFlight {
            req,
            remaining,
            started: Some(now),
        });
        q.push(now + remaining, Ev::Complete { thread, token });
        true
    }

    fn on_thread_start(
        &mut self,
        now: Time,
        thread: usize,
        core: CoreId,
        token: u64,
        q: &mut Queue,
    ) {
        if self.threads.token[thread] != token {
            return; // superseded
        }
        self.threads.on_core[thread] = Some(core);
        if let Some(inflight) = self.threads.current[thread].as_mut() {
            // Resuming a preempted request.
            inflight.started = Some(now);
            q.push(now + inflight.remaining, Ev::Complete { thread, token });
        } else if !self.take_next(now, thread, token, q) {
            // Spurious wakeup: nothing to do, block again.
            let assignments =
                self.sched
                    .as_dyn()
                    .thread_stopped(ThreadId(thread as u32), core, now);
            self.threads.apply(&self.cfg.tracer, now, assignments, q);
        }
    }

    fn on_complete(&mut self, now: Time, thread: usize, token: u64, q: &mut Queue) {
        if self.threads.token[thread] != token {
            return; // the thread was preempted before finishing
        }
        let inflight = self.threads.current[thread].take().expect("was running");
        let core = self.threads.on_core[thread].expect("completing thread is on a core");
        if let Some(started) = inflight.started {
            self.cfg.tracer.span_arg(
                inflight.req.trace,
                syrup_observe::trace::Stage::Run,
                started.as_nanos(),
                now.as_nanos(),
                thread as u64,
            );
        }
        self.cfg.tracer.finish(inflight.req.trace, now.as_nanos());
        if inflight.req.measured {
            match inflight.req.class {
                RequestClass::Scan => self.scan_rec.record(inflight.req.arrival, now),
                _ => self.get_rec.record(inflight.req.arrival, now),
            }
        }
        // More work queued? The thread keeps its core and loops. Either
        // way its next run is a new one.
        self.threads.token[thread] += 1;
        if self.take_next(now, thread, self.threads.token[thread], q) {
            return;
        }
        // Idle: release the core.
        let _ = self.class_map.update_u64(thread as u32, class::GET);
        self.set_ghost_trace(thread, syrup_observe::trace::TraceCtx::none());
        self.threads.on_core[thread] = None;
        let assignments = self
            .sched
            .as_dyn()
            .thread_stopped(ThreadId(thread as u32), core, now);
        self.threads.apply(&self.cfg.tracer, now, assignments, q);
    }
}

impl Threads {
    fn apply(
        &mut self,
        tracer: &syrup_observe::trace::Tracer,
        now: Time,
        assignments: &[Assignment],
        q: &mut Queue,
    ) {
        for a in assignments {
            if let Some(victim) = a.preempted {
                self.pause_thread(tracer, victim.0 as usize, a.start_at.max(now));
            }
            let thread = a.thread.0 as usize;
            self.token[thread] += 1;
            q.push(
                a.start_at,
                Ev::ThreadStart {
                    thread,
                    core: a.core,
                    token: self.token[thread],
                },
            );
        }
    }

    /// Stops a running thread at `at`, banking its remaining service.
    fn pause_thread(&mut self, tracer: &syrup_observe::trace::Tracer, thread: usize, at: Time) {
        self.token[thread] += 1; // invalidate its Complete event
        self.on_core[thread] = None;
        if let Some(inflight) = self.current[thread].as_mut() {
            if let Some(started) = inflight.started.take() {
                let ran = at.since(started);
                inflight.remaining = inflight.remaining - ran;
                // Each on-core interval is its own run span, so a
                // preempted request's timeline shows the gap.
                tracer.span_arg(
                    inflight.req.trace,
                    syrup_observe::trace::Stage::Run,
                    started.as_nanos(),
                    at.as_nanos(),
                    thread as u64,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(policy: SocketPolicyKind, sched: SchedKind, load: f64) -> MtResult {
        let mut cfg = MtConfig::fig8(policy, sched, load, 11);
        cfg.warmup = Duration::from_millis(50);
        cfg.measure = Duration::from_millis(400);
        run(&cfg)
    }

    #[test]
    fn low_load_completes_everything() {
        let r = quick(SocketPolicyKind::ScanAvoid, SchedKind::Cfs, 2_000.0);
        assert!(r.completed > 500, "completed {}", r.completed);
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn ghost_preempts_scans_for_gets() {
        let r = quick(SocketPolicyKind::Vanilla, SchedKind::Ghost, 4_000.0);
        assert!(r.preemptions > 0, "GET-priority policy should preempt");
    }

    #[test]
    fn cross_layer_beats_single_layer_on_get_tail() {
        let load = 6_000.0;
        let socket_only = quick(SocketPolicyKind::ScanAvoid, SchedKind::Cfs, load);
        let thread_only = quick(SocketPolicyKind::Vanilla, SchedKind::Ghost, load);
        let both = quick(SocketPolicyKind::ScanAvoid, SchedKind::Ghost, load);
        let (so, to, bo) = (socket_only.get.p99(), thread_only.get.p99(), both.get.p99());
        assert!(
            bo < so && bo < to,
            "cross-layer GET p99 {bo} vs socket-only {so} / thread-only {to}"
        );
    }

    #[test]
    fn thread_only_get_tail_is_high_even_at_low_load() {
        // §5.3: "GET tail latency is very high (>800µs) even for very low
        // load as GETs can still get stuck behind SCANs in a network
        // socket."
        let r = quick(SocketPolicyKind::Vanilla, SchedKind::Ghost, 3_000.0);
        assert!(
            r.get.p99() > Duration::from_micros(300),
            "thread-only GET p99 {}",
            r.get.p99()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = quick(SocketPolicyKind::ScanAvoid, SchedKind::Ghost, 5_000.0);
        let b = quick(SocketPolicyKind::ScanAvoid, SchedKind::Ghost, 5_000.0);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.get.p99(), b.get.p99());
    }
}
