//! Isolated per-layer timings: one crate at a time, from outside.
//!
//! Every number here times calls into a public function of one layer in
//! batches ([`crate::timing::best_of`]: warm-up, then the best of several
//! batches, variants that are compared interleaved). Nothing inside the
//! program is instrumented; spans around the calls of a whole trip are
//! `replay.rs`. The names and what each should move are tabulated in
//! `benchmark/README.md`.

use std::hint::black_box;

use syrup::apps::rocksdb::RocksDbModel;
use syrup::core::{Decision, Hook, HookMeta, MapDef, PacketPolicy, PolicySource, Syrupd};
use syrup::ebpf::maps::{MapRegistry, ProgSlot, UpdateFlag};
use syrup::ebpf::verify;
use syrup::ebpf::vm::{Backend, PacketCtx, RunEnv, Vm};
use syrup::ghost::cfs::{CfsParams, CfsSched};
use syrup::ghost::ghost::class;
use syrup::ghost::{CoreId, GhostParams, GhostSched, ThreadId, ThreadScheduler};
use syrup::net::{flow, AppHeader, Frame, Nic, RequestClass, ReuseportGroup};
use syrup::policies::{corpus, CorpusEntry, RoundRobinPolicy, ScanAvoidPolicy};
use syrup::sched::{ExecQueue, QueueKind};
use syrup::sim::{
    ArrivalGen, Duration, EventQueue, LatencyRecorder, RequestMix, ShardedQueue, SimRng, Time,
};
use syrup::telemetry::Registry;

use crate::timing::{best_of, best_one, median};
use crate::workloads::{dispatch_callers, dispatch_daemon, dispatch_packets, POLICIES};

/// Named measurements with units, in the order they were taken.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one measurement.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// How much work a layer pass does.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Calls per timed batch of a nanosecond-scale operation.
    pub batch: u64,
    /// Timed batches per variant (the best is kept).
    pub rounds: usize,
}

impl Effort {
    /// Batches of 10⁵ (÷ `div`), best of five.
    pub fn new(div: u64) -> Self {
        Effort {
            batch: (100_000 / div.max(1)).max(1_000),
            rounds: 5,
        }
    }

    /// Batch size for microsecond-scale operations (compile, deploy).
    fn slow_batch(&self) -> u64 {
        (self.batch / 500).max(10)
    }
}

fn table2() -> Vec<CorpusEntry> {
    let all = corpus();
    POLICIES
        .iter()
        .map(|p| {
            all.iter()
                .find(|e| e.name == *p)
                .cloned()
                .expect("the corpus holds every Table-2 policy")
        })
        .collect()
}

const PORT: u16 = 8080;

fn datagram(class: RequestClass) -> Vec<u8> {
    let fl = syrup::net::FiveTuple {
        src_ip: 1,
        dst_ip: 2,
        src_port: 40_000,
        dst_port: PORT,
    };
    let header = AppHeader {
        req_type: class.code(),
        user_id: 1,
        key_hash: 7,
        req_id: 0,
    };
    Frame::build(&fl, &header).datagram().to_vec()
}

/// Runs every isolated layer timing. Returns the metrics plus the traps
/// and clamped pushes met on the way (both must stay 0).
pub fn measure_all(e: Effort, seed: u64, m: &mut Metrics) -> LayerFaults {
    let mut faults = LayerFaults::default();
    sim(e, seed, m, &mut faults);
    ebpf(e, m, &mut faults);
    core(e, m);
    contention(e, seed, m);
    deploy(e, m);
    net(e, seed, m);
    sched(e, m);
    ghost(e, m);
    policies(e, m);
    telemetry(e, m);
    faults
}

/// Faults met while timing layers.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerFaults {
    /// Event-queue pushes clamped to "now" (a logic error anywhere).
    pub wheel_clamped: u64,
    /// VM runs that trapped.
    pub traps: u64,
}

// ---------------------------------------------------------------------
// syrup-sim
// ---------------------------------------------------------------------

/// Hold-model deltas: what a popped event is re-armed by.
fn deltas(rng: &mut SimRng, mean: Duration) -> Vec<u64> {
    (0..1024)
        .map(|_| rng.exp_duration(mean).as_nanos().max(1))
        .collect()
}

fn sim(e: Effort, seed: u64, m: &mut Metrics, faults: &mut LayerFaults) {
    let mut rng = SimRng::new(seed);

    // Classic hold model: pop the earliest event, push it back later, at
    // a steady number of pending events.
    let mut hold = |pending: u64, mean: Duration| -> f64 {
        let deltas = deltas(&mut rng, mean);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..pending {
            q.push(Time::from_nanos(deltas[i as usize % deltas.len()]), i);
        }
        let ns = best_one(e.batch, e.rounds, |n| {
            for _ in 0..n {
                let (at, id) = q.pop().expect("the hold model never drains");
                q.push(
                    Time::from_nanos(at.as_nanos() + deltas[id as usize % deltas.len()]),
                    id,
                );
            }
        });
        faults.wheel_clamped += q.clamp_stats().0;
        ns
    };
    // 64 pending, tens of microseconds apart: the figure worlds.
    let small = hold(64, Duration::from_micros(20));
    m.push("sim.wheel_push_pop_ns", small, "ns");
    // 3×10⁵ pending, think times of milliseconds: the scale worlds.
    let large = hold(300_000, Duration::from_millis(10));
    m.push("sim.wheel_push_pop_300k_ns", large, "ns");

    let deltas = deltas(&mut rng, Duration::from_micros(20));
    let mut sharded: ShardedQueue<u64> = ShardedQueue::new(1);
    for i in 0..64u64 {
        sharded.push_keyed(Time::from_nanos(deltas[i as usize]), i, i);
    }
    let ns = best_one(e.batch, e.rounds, |n| {
        for _ in 0..n {
            let (at, id) = sharded.pop().expect("the hold model never drains");
            let next = at.as_nanos() + deltas[id as usize % deltas.len()];
            sharded.push_keyed(Time::from_nanos(next), id, id);
        }
    });
    faults.wheel_clamped += sharded.clamp_stats().0;
    m.push("sim.sharded_push_pop_ns", ns, "ns");

    let ns = best_one(e.batch, e.rounds, |n| {
        let mut rec = LatencyRecorder::new(Time::ZERO);
        for i in 0..n {
            rec.record(Time::from_nanos(i), Time::from_nanos(2 * i + 1_000));
        }
        black_box(rec.len());
    });
    m.push("sim.recorder_record_ns", ns, "ns");

    let mut rec = LatencyRecorder::new(Time::ZERO);
    for i in 0..e.batch {
        let latency = deltas[i as usize % deltas.len()];
        rec.record(Time::from_nanos(i), Time::from_nanos(i + latency));
    }
    let per_summary = best_one(3, e.rounds, |n| {
        for _ in 0..n {
            black_box(rec.summary().p99());
        }
    });
    m.push(
        "sim.recorder_summary_ns_per_sample",
        per_summary / e.batch as f64,
        "ns",
    );

    let mut arrivals = ArrivalGen::poisson(300_000.0);
    let mix = RequestMix::new(&[
        (RequestClass::Get.class_id(), 0.995),
        (RequestClass::Scan.class_id(), 0.005),
    ]);
    let model = RocksDbModel::default();
    let ns = best_one(e.batch, e.rounds, |n| {
        for _ in 0..n {
            let at = arrivals.next_arrival(&mut rng);
            let class = if mix.sample(&mut rng) == RequestClass::Scan.class_id() {
                RequestClass::Scan
            } else {
                RequestClass::Get
            };
            black_box((at, model.sample(class, &mut rng)));
        }
    });
    m.push("sim.arrival_draw_ns", ns, "ns");
}

// ---------------------------------------------------------------------
// syrup-ebpf
// ---------------------------------------------------------------------

/// A compiled, verified, map-seeded policy pinned to one backend (the
/// `backend_guard` recipe: the hot path, not the miss path, is measured).
fn vm_world(entry: &CorpusEntry, backend: Backend) -> (Vm, ProgSlot) {
    let maps = MapRegistry::new();
    let compiled =
        syrup::lang::compile(entry.source, &entry.opts, &maps).expect("corpus policy compiles");
    verify(&compiled.program, &maps).expect("corpus policy verifies");
    for id in compiled.created_maps.values() {
        if let Some(map) = maps.get(*id) {
            for k in 0..6u32 {
                let _ = map.update_u64(k, 1_000_000);
            }
        }
    }
    let mut vm = Vm::new(maps);
    vm.set_backend(backend);
    let slot = vm.load_unverified(compiled.program);
    (vm, slot)
}

fn ebpf(e: Effort, m: &mut Metrics, faults: &mut LayerFaults) {
    let get = datagram(RequestClass::Get);
    let scan = datagram(RequestClass::Scan);
    let mut buf = get.clone();
    for entry in table2() {
        let (interp_vm, interp_slot) = vm_world(&entry, Backend::Interp);
        let (fast_vm, fast_slot) = vm_world(&entry, Backend::Fast);
        let traps = std::cell::Cell::new(0u64);
        let run = |vm: &Vm, slot: ProgSlot, n: u64, buf: &mut [u8]| {
            let mut env = RunEnv::default();
            for _ in 0..n {
                buf.copy_from_slice(&get);
                let mut ctx = PacketCtx::new(buf);
                match vm.run(slot, &mut ctx, &mut env) {
                    Ok(out) => {
                        black_box(out.ret);
                    }
                    Err(_) => traps.set(traps.get() + 1),
                }
            }
        };
        let (mut buf_a, mut buf_b) = (buf.clone(), buf.clone());
        let best = best_of(
            e.batch,
            e.rounds,
            &mut [
                &mut |n| run(&interp_vm, interp_slot, n, &mut buf_a),
                &mut |n| run(&fast_vm, fast_slot, n, &mut buf_b),
            ],
        );
        m.push(
            format!("ebpf.vm_run_ns.{}.interp", entry.name),
            best[0],
            "ns",
        );
        m.push(format!("ebpf.vm_run_ns.{}.fast", entry.name), best[1], "ns");

        // Executed instructions are modelled, not timed: an exact mean
        // over a fixed input sequence (every tenth packet a SCAN).
        let (vm, slot) = vm_world(&entry, Backend::Interp);
        let mut env = RunEnv::default();
        let (mut insns, runs) = (0u64, 1_000u64);
        for i in 0..runs {
            buf.copy_from_slice(if i % 10 == 0 { &scan } else { &get });
            let mut ctx = PacketCtx::new(&mut buf);
            match vm.run(slot, &mut ctx, &mut env) {
                Ok(out) => insns += out.insns,
                Err(_) => traps.set(traps.get() + 1),
            }
        }
        m.push(
            format!("ebpf.insns_per_run.{}", entry.name),
            insns as f64 / runs as f64,
            "count",
        );
        faults.traps += traps.get();
    }

    let maps = MapRegistry::new();
    let array = maps
        .get(maps.create(MapDef::u64_array(64)))
        .expect("just created");
    let hash = maps
        .get(maps.create(MapDef::u64_hash(1024)))
        .expect("just created");
    for k in 0..64u32 {
        array.update_u64(k, u64::from(k)).expect("in range");
    }
    for k in 0..512u32 {
        hash.update_u64(k, u64::from(k)).expect("under capacity");
    }
    let ns = best_one(e.batch, e.rounds, |n| {
        for i in 0..n {
            black_box(array.lookup_u64(i as u32 % 64).expect("array lookup"));
        }
    });
    m.push("ebpf.map_array_lookup_ns", ns, "ns");
    let ns = best_one(e.batch, e.rounds, |n| {
        for i in 0..n {
            black_box(hash.lookup_u64(i as u32 % 512).expect("hash lookup"));
        }
    });
    m.push("ebpf.map_hash_lookup_ns", ns, "ns");
    let ns = best_one(e.batch, e.rounds, |n| {
        for i in 0..n {
            let key = (i as u32 % 512).to_le_bytes();
            hash.update(&key, &i.to_le_bytes(), UpdateFlag::default())
                .expect("hash update");
        }
    });
    m.push("ebpf.map_hash_update_ns", ns, "ns");
}

// ---------------------------------------------------------------------
// syrup-core
// ---------------------------------------------------------------------

/// A daemon with one app on [`PORT`] and `source` at socket-select.
fn daemon_with(telemetry: Registry, source: PolicySource) -> Syrupd {
    let daemon = Syrupd::with_telemetry(telemetry);
    let (app, _maps) = daemon.register_app("bench", &[PORT]).expect("fresh daemon");
    daemon
        .deploy(app, Hook::SocketSelect, source)
        .expect("policy deploys");
    daemon
}

fn native_rr() -> PolicySource {
    PolicySource::Native(Box::new(RoundRobinPolicy::new(6)))
}

fn ebpf_rr() -> PolicySource {
    let rr = &table2()[0];
    PolicySource::C {
        source: rr.source.to_string(),
        options: rr.opts.clone(),
    }
}

/// `n` dispatches of `template` addressed to `port`.
fn dispatch(daemon: &Syrupd, port: u16, template: &[u8], buf: &mut [u8], n: u64) {
    for i in 0..n {
        buf.copy_from_slice(template);
        let meta = HookMeta {
            now_ns: i,
            dst_port: port,
            ..HookMeta::default()
        };
        black_box(daemon.schedule(Hook::SocketSelect, buf, &meta));
    }
}

fn core(e: Effort, m: &mut Metrics) {
    let template = datagram(RequestClass::Get);
    let native = daemon_with(Registry::new(), native_rr());
    let bytecode = daemon_with(Registry::new(), ebpf_rr());

    let (mut b0, mut b1) = (template.clone(), template.clone());
    let (mut b2, mut b3) = (template.clone(), template.clone());
    let best = best_of(
        e.batch,
        e.rounds,
        &mut [
            &mut |n| dispatch(&native, PORT, &template, &mut b0, n),
            &mut |n| dispatch(&bytecode, PORT, &template, &mut b1, n),
            // The hook exists but nobody owns the port.
            &mut |n| dispatch(&native, PORT + 1, &template, &mut b2, n),
            &mut |n| {
                for i in 0..n {
                    b3.copy_from_slice(&template);
                    let meta = HookMeta {
                        now_ns: i,
                        dst_port: PORT,
                        ..HookMeta::default()
                    };
                    black_box(native.schedule_verdict(Hook::SocketSelect, &mut b3, &meta));
                }
            },
        ],
    );
    m.push("core.dispatch_native_ns", best[0], "ns");
    m.push("core.dispatch_ebpf_ns", best[1], "ns");
    let vm_alone = m
        .get("ebpf.vm_run_ns.round_robin.interp")
        .expect("the ebpf layer is timed first");
    m.push("core.dispatch_overhead_ns", best[1] - vm_alone, "ns");
    m.push("core.dispatch_unmatched_ns", best[2], "ns");
    m.push("core.verdict_extra_ns", best[3] - best[0], "ns");

    // The Table-1 Map API an application calls (permission check
    // included), as opposed to the raw maps timed under `ebpf.map_*`.
    let (_app, maps) = native.register_app("maps", &[PORT + 2]).expect("free port");
    let map = maps
        .create_pinned("bench", MapDef::u64_array(64))
        .expect("fresh name");
    let ns = best_one(e.batch, e.rounds, |n| {
        for i in 0..n {
            maps.update(&map, i as u32 % 64, i).expect("own map");
        }
    });
    m.push("core.map_update_ns", ns, "ns");
    let ns = best_one(e.batch, e.rounds, |n| {
        for i in 0..n {
            black_box(maps.lookup(&map, i as u32 % 64).expect("own map"));
        }
    });
    m.push("core.map_lookup_ns", ns, "ns");
}

/// Two independent apps on one daemon: per-call cost with both callers
/// running over per-call cost with one. 1.0 is perfect independence.
fn contention(e: Effort, seed: u64, m: &mut Metrics) {
    let ports = [7001u16, 7002];
    let daemon = dispatch_daemon(&ports);
    let mut rng = SimRng::new(seed);
    let packets: Vec<_> = ports
        .iter()
        .map(|&p| dispatch_packets(&mut rng, p, 64))
        .collect();
    let calls = e.batch;
    let ns_per_call = |timed: &[((u64, u64), f64)]| {
        timed.iter().map(|(_, secs)| secs * 1e9).sum::<f64>() / (timed.len() as u64 * calls) as f64
    };
    let (mut alone, mut together) = (Vec::new(), Vec::new());
    dispatch_callers(&daemon, &ports[..1], &packets[..1], calls);
    for _ in 0..e.rounds {
        let one = dispatch_callers(&daemon, &ports[..1], &packets[..1], calls);
        alone.push(ns_per_call(&one));
        let two = dispatch_callers(&daemon, &ports, &packets, calls);
        together.push(ns_per_call(&two));
    }
    m.push(
        "core.dispatch_2thr_slowdown",
        median(&together) / median(&alone),
        "ratio",
    );
}

/// Compile, verify and deploy cost of each Table-2 policy.
fn deploy(e: Effort, m: &mut Metrics) {
    let batch = e.slow_batch();
    let us = |ns: f64| ns / 1_000.0;
    for entry in table2() {
        let ns = best_one(batch, e.rounds, |n| {
            for _ in 0..n {
                let maps = MapRegistry::new();
                black_box(syrup::lang::compile(entry.source, &entry.opts, &maps).is_ok());
            }
        });
        m.push(format!("lang.compile_us.{}", entry.name), us(ns), "us");

        let maps = MapRegistry::new();
        let compiled =
            syrup::lang::compile(entry.source, &entry.opts, &maps).expect("corpus compiles");
        let ns = best_one(batch, e.rounds, |n| {
            for _ in 0..n {
                black_box(verify(&compiled.program, &maps).is_ok());
            }
        });
        m.push(format!("ebpf.verify_us.{}", entry.name), us(ns), "us");

        // Redeploying onto a live hook: compile + verify + load + the
        // daemon's own wiring (executor map, pins, isolation dispatch).
        let daemon = Syrupd::new();
        let (app, _maps) = daemon
            .register_app("deploy", &[PORT])
            .expect("fresh daemon");
        let ns = best_one(batch, e.rounds, |n| {
            for _ in 0..n {
                let source = PolicySource::C {
                    source: entry.source.to_string(),
                    options: entry.opts.clone(),
                };
                black_box(daemon.deploy(app, Hook::SocketSelect, source).is_ok());
            }
        });
        m.push(format!("core.deploy_us.{}", entry.name), us(ns), "us");
    }
}

// ---------------------------------------------------------------------
// syrup-net
// ---------------------------------------------------------------------

fn net(e: Effort, seed: u64, m: &mut Metrics) {
    let mut rng = SimRng::new(seed);
    let flows = flow::client_flows(8, PORT, &mut rng);
    let mut nic: Nic<u64> = Nic::new(4, 64);
    let ns = best_one(e.batch, e.rounds, |n| {
        for i in 0..n {
            black_box(nic.select_queue(&flows[i as usize % flows.len()], None));
        }
    });
    m.push("net.rss_select_ns", ns, "ns");
    let ns = best_one(e.batch, e.rounds, |n| {
        for i in 0..n {
            let q = i as u32 % 4;
            nic.enqueue(q, i);
            black_box(nic.dequeue(q));
        }
    });
    m.push("net.nic_ring_ns", ns, "ns");

    // What every world does per packet: build the frame, copy the
    // datagram out for the hook to scribble on.
    let ns = best_one(e.batch, e.rounds, |n| {
        for i in 0..n {
            let header = AppHeader {
                req_type: 0,
                user_id: 0,
                key_hash: i,
                req_id: i,
            };
            let frame = Frame::build(&flows[i as usize % flows.len()], &header);
            black_box(frame.datagram().to_vec());
        }
    });
    m.push("net.frame_build_ns", ns, "ns");

    let mut group: ReuseportGroup<u64> = ReuseportGroup::new(6, 256);
    let hashes: Vec<u32> = flows.iter().map(|f| f.flow_hash()).collect();
    let mut deliver = |decide: &dyn Fn(u64) -> Decision| {
        best_one(e.batch, e.rounds, |n| {
            for i in 0..n {
                let hash = hashes[i as usize % hashes.len()];
                if let syrup::net::Delivery::Enqueued(s) = group.deliver(i, hash, decide(i)) {
                    black_box(group.recv(s));
                }
            }
        })
    };
    let ns = deliver(&|i| Decision::Executor(i as u32 % 6));
    m.push("net.reuseport_deliver_recv_ns", ns, "ns");
    let ns = deliver(&|_| Decision::Pass);
    m.push("net.reuseport_hash_deliver_ns", ns, "ns");
}

// ---------------------------------------------------------------------
// syrup-sched, syrup-ghost, syrup-policies, syrup-telemetry
// ---------------------------------------------------------------------

fn sched(e: Effort, m: &mut Metrics) {
    for (name, kind) in [
        ("fifo", QueueKind::Fifo),
        ("pifo", QueueKind::Pifo),
        (
            "bucket",
            QueueKind::Bucket {
                buckets: 512,
                granularity: 1,
            },
        ),
    ] {
        let mut q: ExecQueue<u64> = ExecQueue::new(kind);
        // A steady depth of 64, ranks scattered inside the bucket horizon.
        for i in 0..64u64 {
            q.push(i, (i * 37 % 512) as u32);
        }
        let ns = best_one(e.batch, e.rounds, |n| {
            for i in 0..n {
                black_box(q.pop());
                q.push(i, (i * 37 % 512) as u32);
            }
        });
        m.push(format!("sched.{name}_push_pop_ns"), ns, "ns");
    }
}

/// One wake-up and one block per op on an otherwise idle machine — the
/// regime `mt-ghost` (8 K RPS on five cores) spends most of its time in.
fn wake_block(sched: &mut dyn ThreadScheduler, n: u64) {
    for i in 0..n {
        let thread = ThreadId(i as u32 % 36);
        let now = Time::from_nanos(i * 100_000);
        let placed = sched.thread_ready(thread, now);
        let core = placed.first().map_or(CoreId(0), |a| a.core);
        black_box(sched.thread_stopped(thread, core, now + Duration::from_micros(20)));
    }
}

fn ghost(e: Effort, m: &mut Metrics) {
    let cores = || (0..6u32).map(CoreId).collect::<Vec<_>>();
    let maps = MapRegistry::new();
    let classes = maps
        .get(maps.create(MapDef::u64_array(64)))
        .expect("just created");
    for t in 0..36u32 {
        let c = if t % 2 == 0 { class::GET } else { class::SCAN };
        classes.update_u64(t, c).expect("in range");
    }
    let mut agent = GhostSched::new(cores(), classes, GhostParams::default());
    let mut cfs = CfsSched::new(cores(), CfsParams::default());
    let best = best_of(
        e.batch,
        e.rounds,
        &mut [&mut |n| wake_block(&mut agent, n), &mut |n| {
            wake_block(&mut cfs, n)
        }],
    );
    m.push("ghost.agent_ready_stopped_ns", best[0], "ns");
    m.push("ghost.cfs_ready_stopped_ns", best[1], "ns");
}

fn policies(e: Effort, m: &mut Metrics) {
    let template = datagram(RequestClass::Get);
    let maps = MapRegistry::new();
    let scan_map = maps
        .get(maps.create(MapDef::u64_array(64)))
        .expect("just created");
    for t in 0..6u32 {
        scan_map.update_u64(t, class::GET).expect("in range");
    }
    let mut rr = RoundRobinPolicy::new(6);
    let mut scan_avoid = ScanAvoidPolicy::new(scan_map, 6, 1);
    let meta = HookMeta {
        dst_port: PORT,
        ..HookMeta::default()
    };
    let (mut b0, mut b1) = (template.clone(), template.clone());
    let best = best_of(
        e.batch,
        e.rounds,
        &mut [
            &mut |n| {
                for _ in 0..n {
                    black_box(rr.schedule(&mut b0, &meta));
                }
            },
            &mut |n| {
                for _ in 0..n {
                    black_box(scan_avoid.schedule(&mut b1, &meta));
                }
            },
        ],
    );
    m.push("policies.native_ns.round_robin", best[0], "ns");
    m.push("policies.native_ns.scan_avoid", best[1], "ns");
}

fn telemetry(e: Effort, m: &mut Metrics) {
    let registry = Registry::new();
    let counter = registry.counter("bench/counter");
    let hist = registry.histogram("bench/hist");
    let ns = best_one(e.batch, e.rounds, |n| {
        for _ in 0..n {
            counter.inc();
        }
    });
    m.push("telemetry.counter_inc_ns", ns, "ns");
    let ns = best_one(e.batch, e.rounds, |n| {
        for i in 0..n {
            hist.record(i);
        }
    });
    m.push("telemetry.hist_record_ns", ns, "ns");

    // What telemetry being on by default costs one native dispatch.
    let template = datagram(RequestClass::Get);
    let on = daemon_with(Registry::new(), native_rr());
    let off = daemon_with(Registry::disabled(), native_rr());
    let (mut b0, mut b1) = (template.clone(), template.clone());
    let best = best_of(
        e.batch,
        e.rounds,
        &mut [
            &mut |n| dispatch(&on, PORT, &template, &mut b0, n),
            &mut |n| dispatch(&off, PORT, &template, &mut b1, n),
        ],
    );
    m.push("telemetry.dispatch_tax_ns", best[0] - best[1], "ns");

    // A daemon's registry after real traffic (≈20 instruments).
    let ns = best_one(e.slow_batch(), e.rounds, |n| {
        for _ in 0..n {
            black_box(on.telemetry_snapshot());
        }
    });
    m.push("telemetry.snapshot_us", ns / 1_000.0, "us");
}
