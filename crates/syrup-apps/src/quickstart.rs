//! The quickstart scenario: one traced request pipeline across the stack.
//!
//! A compact, deterministic end-to-end run used by `syrupctl trace
//! record` and the observability docs. It wires the real substrates
//! together the way §3–§4 describe — NIC steering, the XDP driver hook
//! (an eBPF policy through the verifier and VM), the CPU-redirect hook,
//! kernel RX processing, the socket-select hook, a `SO_REUSEPORT` group,
//! and per-socket worker threads — and pushes a few hundred requests
//! through while a [`syrup_observe::trace::Tracer`] records every stage each
//! sampled request crosses.
//!
//! Unlike the figure worlds, time here is hand-laid-out (fixed per-stage
//! latencies, round-robin policies, no RNG in the data path), so the
//! resulting timelines are easy to eyeball in Perfetto and stable for the
//! CLI smoke tests.

use syrup_core::{AppId, CompileOptions, Hook, HookMeta, PolicySource, Syrupd};
use syrup_net::packet::{FRAME_LEN, UDP_OFF};
use syrup_net::socket::{Delivery, ReuseportGroup};
use syrup_net::{flow, AppHeader, Frame, Nic, QueueKind};
use syrup_observe::blackbox::Recorder;
use syrup_observe::profile::Profiler;
use syrup_observe::trace::{Stage, Tracer};
use syrup_policies::RoundRobinPolicy;
use syrup_sim::{drive, ShardQueueStats, ShardedQueue, SimRng, Time};

/// The UDP port the quickstart application owns.
pub const PORT: u16 = 9090;

/// Worker threads (= sockets = NIC queues).
pub const THREADS: usize = 4;

/// Requests a run pushes through unless told otherwise.
pub const DEFAULT_REQUESTS: usize = 64;

/// The artifacts of one quickstart run.
pub struct Quickstart {
    /// The daemon, still holding the three deployed policies — `syrupctl
    /// prog list/stats` and `map dump` introspect it after the run.
    pub syrupd: Syrupd,
    /// The registered application.
    pub app: AppId,
    /// Requests that reached a worker and completed.
    pub completed: u64,
    /// Every span record the tracer captured, moved out of it: the
    /// tracer's buffer is empty after the run (its counters stand).
    pub records: Vec<syrup_observe::trace::SpanRecord>,
    /// The records grouped into per-request timelines.
    pub timelines: Vec<syrup_observe::trace::Timeline>,
    /// The NIC, rings intact — `syrupctl queue list` reads occupancy and
    /// drop counters from it after the run.
    pub nic: Nic<usize>,
    /// The reuseport group (FIFO by default, PIFO in the ranked variant).
    pub group: ReuseportGroup<usize>,
    /// Per-wheel accounting from the ingress [`ShardedQueue`] (one entry
    /// per shard): pushes, pops, cascades, and the clamp/drift figures
    /// attributed to the shard that owned each key. `syrupctl metrics
    /// --shards N` renders this breakdown; the shared registry stays
    /// shard-count invariant.
    pub shard_stats: Vec<ShardQueueStats>,
}

/// Pushes `requests` requests through the pipeline, recording spans for
/// every input `tracer` samples; every other sink is off.
pub fn run(tracer: &Tracer, requests: usize) -> Quickstart {
    run_observed(
        tracer,
        &Profiler::disabled(),
        &Recorder::disabled(),
        requests,
        false,
        &mut |_, _, _| {},
    )
}

/// [`run_driven`] on one timer wheel.
pub fn run_observed(
    tracer: &Tracer,
    profiler: &Profiler,
    recorder: &Recorder,
    requests: usize,
    ranked: bool,
    observe: &mut dyn FnMut(u64, u64, &Syrupd),
) -> Quickstart {
    run_driven(tracer, profiler, recorder, requests, ranked, 1, observe)
}

/// The general entry point; every argument is one thing a run can vary.
///
/// With a `profiler` attached the VM charges every instruction it runs
/// to a `(prog, pc)` bucket, and the NIC rings and reuseport sockets
/// contribute one depth sample per request to the pressure report.
///
/// The `recorder` is attached to `syrupd` (dispatch verdicts and VM
/// events), the NIC rings, and the reuseport sockets — the latter two
/// with a depth threshold of 1 so every enqueue/dequeue pair emits a
/// crossing, giving the postmortem visibility into queue motion even
/// when nothing drops.
///
/// `ranked` selects the rank-extension variant: the socket-select policy
/// is compiled C returning an `(executor, rank)` pair, ranks are opted in
/// for the hook, and the reuseport sockets are PIFO-backed so the most
/// urgent service class is served first. Everything else matches the
/// plain scenario exactly.
///
/// The ingress schedule is spread over `shards` timer wheels. The
/// scenario itself is byte-identical for every shard count: requests
/// are keyed by flow hash into a [`ShardedQueue`], and the merge pops
/// them back in `(time, seq)` order — ingress instants are strictly
/// increasing, so the replay order (and with it every policy decision,
/// span, and telemetry counter the scenario emits) cannot depend on the
/// routing. What sharding *adds* is the `sim/wheel_*` telemetry the
/// queue publishes into the daemon's registry, which is how `syrupctl
/// metrics --shards N` surfaces wheel drift and clamp accounting.
///
/// `observe` runs after each completed request with `(completed, now_ns,
/// &syrupd)`; `syrupctl watch` uses it to render live telemetry deltas
/// between requests.
pub fn run_driven(
    tracer: &Tracer,
    profiler: &Profiler,
    recorder: &Recorder,
    requests: usize,
    ranked: bool,
    shards: usize,
    observe: &mut dyn FnMut(u64, u64, &Syrupd),
) -> Quickstart {
    let mut rng = SimRng::new(7);
    let syrupd = Syrupd::new();
    syrupd.attach_tracer(tracer);
    syrupd.attach_profiler(profiler);
    syrupd.attach_blackbox(recorder);
    let (app, _maps) = syrupd
        .register_app("quickstart", &[PORT])
        .expect("fresh daemon has no port conflicts");

    // Three policies on one input path: the XDP-tier one is compiled C
    // running in the eBPF VM (so traces show vm-exec spans with cycle
    // accounts); the lower-cost hooks use the native forms.
    syrupd
        .deploy(
            app,
            Hook::XdpDrv,
            PolicySource::C {
                source: syrup_policies::c_sources::ROUND_ROBIN.to_string(),
                options: CompileOptions::new().define("NUM_THREADS", THREADS as i64),
            },
        )
        .expect("xdp policy deploys");
    syrupd
        .deploy(
            app,
            Hook::CpuRedirect,
            PolicySource::Native(Box::new(RoundRobinPolicy::new(THREADS as u32))),
        )
        .expect("cpu-redirect policy deploys");
    if ranked {
        // The rank path end to end: a C policy returning `(q, rank)`, the
        // per-hook opt-in, and PIFO sockets that honour the rank.
        syrupd
            .deploy(
                app,
                Hook::SocketSelect,
                PolicySource::C {
                    source: syrup_policies::c_sources::RANKED_SRPT.to_string(),
                    options: CompileOptions::new().define("NUM_THREADS", THREADS as i64),
                },
            )
            .expect("ranked socket policy deploys");
        syrupd.enable_ranks(app, Hook::SocketSelect);
    } else {
        syrupd
            .deploy(
                app,
                Hook::SocketSelect,
                PolicySource::Native(Box::new(RoundRobinPolicy::new(THREADS as u32))),
            )
            .expect("socket policy deploys");
    }

    let mut nic: Nic<usize> = Nic::new(THREADS, 64);
    nic.attach_tracer(tracer);
    nic.attach_profiler(profiler);
    nic.attach_blackbox(recorder, 1);
    let sock_kind = if ranked {
        QueueKind::Pifo
    } else {
        QueueKind::Fifo
    };
    let mut group: ReuseportGroup<usize> = ReuseportGroup::new_with(THREADS, 64, sock_kind);
    group.attach_tracer(tracer);
    group.attach_profiler(profiler);
    group.attach_blackbox(recorder, 1);

    let flows = flow::client_flows(8, PORT, &mut rng);
    let mut free_at = [0u64; THREADS];
    let mut completed = 0u64;

    // The ingress schedule lives in the simulation core's sharded timer
    // wheel rather than a counter: each request is keyed by its flow hash
    // and popped back in global `(time, seq)` order. Attaching the queue
    // to the daemon's registry is what puts `sim/wheel_*` (pushes,
    // cascades, clamp count, drift gauge) into `syrupctl metrics`.
    let mut ingress: ShardedQueue<usize> = ShardedQueue::new(shards);
    ingress.attach_telemetry(syrupd.telemetry(), "sim");
    for i in 0..requests {
        let fl = &flows[i % flows.len()];
        let t0 = 1_000 + (i as u64) * 2_000;
        ingress.push_keyed(Time::from_nanos(t0), u64::from(fl.flow_hash()), i);
    }

    drive("quickstart", &mut ingress, |at, i, _| {
        let t0 = at.as_nanos();
        let ctx = tracer.ingress(t0);
        let fl = &flows[i % flows.len()];

        // NIC: steer to an RX queue, sit in the ring until the driver poll.
        let q = nic.select_queue_traced(fl, None, ctx, t0);
        nic.enqueue(q, i);
        nic.sample_depths(t0);
        let t_poll = t0 + 300;
        tracer.span(ctx, Stage::NicQueue, t0, t_poll);
        let _ = nic.dequeue(q);

        // XDP driver hook: the eBPF policy sees the raw datagram. The frame
        // lives on the stack; all three hooks see (and may rewrite) it.
        let mut frame = [0; FRAME_LEN];
        Frame::write(
            &mut frame,
            fl,
            &AppHeader {
                req_type: 0,
                user_id: 0,
                key_hash: i as u64,
                req_id: i as u64,
            },
        );
        let pkt = &mut frame[UDP_OFF..];
        let meta = HookMeta {
            now_ns: t_poll,
            cpu: q,
            rx_queue: q,
            dst_port: PORT,
            trace: ctx,
        };
        let (_, _xdp) = syrupd.schedule(Hook::XdpDrv, pkt, &meta);

        // CPU redirect, then protocol processing up to the socket layer.
        let t_redirect = t_poll + 250;
        let meta = HookMeta {
            now_ns: t_redirect,
            ..meta
        };
        let (_, _cpu) = syrupd.schedule(Hook::CpuRedirect, pkt, &meta);
        let t_sock = t_redirect + 600;
        tracer.span(ctx, Stage::StackRx, t_redirect, t_sock);

        // Socket select + enqueue on the chosen reuseport socket.
        let meta = HookMeta {
            now_ns: t_sock,
            ..meta
        };
        // `schedule_verdict` forces the rank to 0 unless the hook opted
        // in, so the FIFO scenario is unchanged by asking for it.
        let (_, verdict) = syrupd.schedule_verdict(Hook::SocketSelect, pkt, &meta);
        let socket = match group.deliver_verdict_traced(i, fl.flow_hash(), verdict, ctx, t_sock) {
            Delivery::Enqueued(s) => s,
            // Round robin never drops, but keep the path honest: a drop
            // already closed the timeline inside `deliver_traced`.
            Delivery::Dropped { .. } => return,
        };
        group.sample_depths(t_sock);

        // Worker thread: one request at a time per socket, FIFO.
        let _ = group.recv(socket);
        let start = free_at[socket].max(t_sock);
        tracer.span_arg(ctx, Stage::SockQueue, t_sock, start, socket as u64);
        let service = 3_000 + (i as u64 % 4) * 2_000;
        tracer.span_arg(ctx, Stage::Run, start, start + service, socket as u64);
        free_at[socket] = start + service;
        tracer.finish(ctx, start + service);
        completed += 1;
        observe(completed, start + service, &syrupd);
    });

    let records = tracer.drain();
    let timelines = syrup_observe::trace::reconstruct(&records);
    let shard_stats = ingress.per_shard_stats();
    Quickstart {
        syrupd,
        app,
        completed,
        records,
        timelines,
        nic,
        group,
        shard_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain scenario with `requests`, `ranked` and `shards` varied and
    /// `profiler` attached: the general entry with the rest at rest.
    fn scenario(
        tracer: &Tracer,
        profiler: &Profiler,
        requests: usize,
        ranked: bool,
        shards: usize,
    ) -> Quickstart {
        let recorder = Recorder::disabled();
        run_driven(
            tracer,
            profiler,
            &recorder,
            requests,
            ranked,
            shards,
            &mut |_, _, _| {},
        )
    }

    #[test]
    fn every_timeline_is_valid_and_multi_hook() {
        let tracer = syrup_observe::trace::Tracer::new();
        let q = run(&tracer, DEFAULT_REQUESTS);
        assert_eq!(q.completed, DEFAULT_REQUESTS as u64);
        assert_eq!(q.timelines.len(), DEFAULT_REQUESTS);
        for tl in &q.timelines {
            tl.validate().expect("quickstart timelines are well formed");
            assert!(
                tl.distinct_hook_stages() >= 3,
                "trace {} crossed only {} hooks",
                tl.trace_id,
                tl.distinct_hook_stages()
            );
        }
    }

    #[test]
    fn breakdown_covers_nic_to_thread() {
        let tracer = syrup_observe::trace::Tracer::new();
        let q = run(&tracer, DEFAULT_REQUESTS);
        let breakdown = syrup_observe::trace::StageBreakdown::from_timelines(&q.timelines);
        let stages: Vec<&str> = breakdown.stages.iter().map(|s| s.stage.as_str()).collect();
        for want in [
            "nic-queue",
            "xdp-drv",
            "vm-exec",
            "socket-select",
            "sock-queue",
            "run",
        ] {
            assert!(stages.contains(&want), "missing stage {want} in {stages:?}");
        }
    }

    #[test]
    fn sampling_traces_a_subset() {
        let tracer = syrup_observe::trace::Tracer::sampled(8);
        let q = run(&tracer, 64);
        assert_eq!(q.completed, 64);
        assert_eq!(q.timelines.len(), 8, "one in eight ingresses sampled");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = syrup_observe::trace::Tracer::disabled();
        let q = run(&tracer, DEFAULT_REQUESTS);
        assert_eq!(q.completed, DEFAULT_REQUESTS as u64);
        assert!(q.records.is_empty());
        assert!(q.timelines.is_empty());
    }

    #[test]
    fn profiled_run_attributes_all_vm_cycles() {
        let tracer = syrup_observe::trace::Tracer::disabled();
        let profiler = syrup_observe::profile::Profiler::new();
        let q = scenario(&tracer, &profiler, DEFAULT_REQUESTS, false, 1);
        assert_eq!(q.completed, DEFAULT_REQUESTS as u64);

        // Attribution covers the VM's own telemetry total exactly.
        let total = q
            .syrupd
            .telemetry_snapshot()
            .histogram("vm/run_cycles")
            .expect("vm publishes run_cycles")
            .sum();
        let report = profiler.report(Some(total), 10);
        assert_eq!(report.attributed_cycles, total);
        assert!(report.coverage >= 0.95, "coverage {}", report.coverage);
        // One VM run per request (only the XDP policy is eBPF).
        assert_eq!(report.runs, DEFAULT_REQUESTS as u64);

        // Both network components contributed depth samples.
        let p = profiler.pressure();
        let comps: Vec<&str> = p.components.iter().map(|c| c.component.as_str()).collect();
        assert!(
            comps.contains(&"nic") && comps.contains(&"sock"),
            "{comps:?}"
        );

        // The folded flame graph has VM frames with cycle counts.
        let flame = profiler.flame();
        assert!(flame.lines().any(|l| l.starts_with("vm;syrupd_dispatch;")));
    }

    #[test]
    fn unprofiled_run_matches_profiled_run() {
        // The profiler must observe, not perturb: decisions and telemetry
        // are identical with and without it attached.
        let plain = run(&syrup_observe::trace::Tracer::disabled(), 32);
        let profiled = scenario(&Tracer::disabled(), &Profiler::new(), 32, false, 1);
        assert_eq!(plain.completed, profiled.completed);
        let a = plain.syrupd.telemetry_snapshot();
        let b = profiled.syrupd.telemetry_snapshot();
        assert_eq!(
            a.histogram("vm/run_cycles").map(|h| (h.count(), h.sum())),
            b.histogram("vm/run_cycles").map(|h| (h.count(), h.sum())),
        );
    }

    #[test]
    fn ranked_run_uses_pifo_sockets_and_completes() {
        let tracer = syrup_observe::trace::Tracer::disabled();
        let q = scenario(&tracer, &Profiler::disabled(), DEFAULT_REQUESTS, true, 1);
        assert_eq!(q.completed, DEFAULT_REQUESTS as u64);
        assert_eq!(q.group.kind(), QueueKind::Pifo);
        assert_eq!(q.nic.kind(), QueueKind::Fifo);
        assert!(q.syrupd.ranks_enabled(q.app, Hook::SocketSelect));
        // The socket-select policy is now eBPF too (two VM programs).
        let rows = q.syrupd.deployed();
        let (_, _, native) = rows
            .iter()
            .find(|(_, h, _)| *h == Hook::SocketSelect)
            .expect("socket-select deployed");
        assert!(!native);
    }

    #[test]
    fn ranked_profiled_run_samples_sock_rank_bands() {
        let tracer = syrup_observe::trace::Tracer::disabled();
        let profiler = syrup_observe::profile::Profiler::new();
        let q = scenario(&tracer, &profiler, DEFAULT_REQUESTS, true, 1);
        assert_eq!(q.completed, DEFAULT_REQUESTS as u64);
        let p = profiler.pressure();
        let sock_bands = p
            .rank_bands
            .iter()
            .find(|b| b.component == "sock")
            .expect("ranked sockets report per-band occupancy");
        assert!(sock_bands.samples > 0);
        // Ranks 0/100/200/300 spread the four service classes over the
        // first three bands; the >4095 band stays empty.
        assert!(sock_bands.mean_depths.iter().take(3).any(|&d| d > 0.0));
        // The unranked scenario must not grow a band series.
        let plain = syrup_observe::profile::Profiler::new();
        let _ = scenario(&tracer, &plain, DEFAULT_REQUESTS, false, 1);
        assert!(plain.pressure().rank_bands.is_empty());
    }

    #[test]
    fn observed_run_feeds_three_stack_layers_into_the_recorder() {
        use syrup_observe::blackbox::{EventKind, Layer, Recorder};
        let tracer = syrup_observe::trace::Tracer::disabled();
        let rec = Recorder::new();
        let mut calls = 0u64;
        let q = run_observed(
            &tracer,
            &syrup_observe::profile::Profiler::disabled(),
            &rec,
            16,
            false,
            &mut |completed, now_ns, _d| {
                calls += 1;
                assert_eq!(completed, calls);
                assert!(now_ns > 0);
            },
        );
        assert_eq!(q.completed, 16);
        assert_eq!(calls, 16);
        // Three dispatches per request, every one with the packed
        // `(rank << 32) | executor` return word.
        let dispatches = rec.events(Layer::Syrupd);
        assert_eq!(dispatches.len(), 3 * 16);
        assert!(dispatches.iter().all(|e| e.kind == EventKind::Dispatch));
        // Depth threshold 1 turns every enqueue/dequeue into a crossing.
        assert!(!rec.events(Layer::Nic).is_empty());
        assert!(!rec.events(Layer::Sock).is_empty());
    }

    #[test]
    fn disabled_recorder_leaves_the_run_untouched() {
        let tracer = syrup_observe::trace::Tracer::disabled();
        let plain = run(&tracer, 32);
        let rec = syrup_observe::blackbox::Recorder::disabled();
        let observed = run_observed(
            &tracer,
            &syrup_observe::profile::Profiler::disabled(),
            &rec,
            32,
            false,
            &mut |_, _, _| {},
        );
        assert_eq!(plain.completed, observed.completed);
        assert_eq!(
            plain.syrupd.telemetry_snapshot(),
            observed.syrupd.telemetry_snapshot()
        );
        for layer in [
            syrup_observe::blackbox::Layer::Syrupd,
            syrup_observe::blackbox::Layer::Nic,
            syrup_observe::blackbox::Layer::Sock,
        ] {
            assert!(rec.events(layer).is_empty());
        }
    }

    #[test]
    fn sharded_run_is_shard_count_invariant() {
        // One wheel or eight, the replay is the same scenario: ingress
        // instants are strictly increasing, so the sharded merge cannot
        // reorder anything. Spans, completions, and daemon telemetry
        // must match byte for byte; only wheel-internal motion counters
        // (cascades, instantaneous depth) are allowed to depend on how
        // entries were spread across wheels.
        let strip_layout = |q: &Quickstart| {
            let mut s = q.syrupd.telemetry_snapshot();
            s.counters.remove("sim/wheel_cascades");
            s.gauges.remove("sim/wheel_depth");
            s
        };
        let tracer = syrup_observe::trace::Tracer::new();
        let base = scenario(&tracer, &Profiler::disabled(), DEFAULT_REQUESTS, false, 1);
        for shards in [2usize, 8] {
            let tracer = syrup_observe::trace::Tracer::new();
            let q = scenario(
                &tracer,
                &Profiler::disabled(),
                DEFAULT_REQUESTS,
                false,
                shards,
            );
            assert_eq!(q.completed, base.completed, "shards={shards}");
            assert_eq!(q.records, base.records, "shards={shards}");
            assert_eq!(strip_layout(&q), strip_layout(&base), "shards={shards}");
            // The wheel metrics the run added are visible in the daemon
            // registry — that is what `syrupctl metrics` renders.
            let snap = q.syrupd.telemetry_snapshot();
            assert_eq!(snap.counter("sim/wheel_pushes"), DEFAULT_REQUESTS as u64);
            assert_eq!(snap.counter("sim/wheel_clamped"), 0);
            assert_eq!(snap.gauge("sim/wheel_drift_ns"), 0);
            // The per-shard breakdown reconciles with the registry totals
            // without ever entering it (which would break the invariance
            // just asserted).
            assert_eq!(q.shard_stats.len(), shards);
            let pushes: u64 = q.shard_stats.iter().map(|s| s.pushes).sum();
            assert_eq!(pushes, DEFAULT_REQUESTS as u64);
            assert!(q.shard_stats.iter().all(|s| s.clamped == 0 && s.len == 0));
        }
    }

    #[test]
    fn deployed_rows_cover_three_hooks() {
        let tracer = syrup_observe::trace::Tracer::disabled();
        let q = run(&tracer, DEFAULT_REQUESTS);
        let rows = q.syrupd.deployed();
        assert_eq!(rows.len(), 3);
        // The XDP policy is eBPF (not native) and has per-invocation stats.
        let (app, _, native) = rows
            .iter()
            .find(|(_, h, _)| *h == Hook::XdpDrv)
            .expect("xdp-drv deployed");
        assert!(!native);
        let (insns, cycles) = q
            .syrupd
            .policy_stats(*app, Hook::XdpDrv)
            .expect("ebpf policy has stats");
        assert!(insns > 0.0 && cycles > 0.0);
    }
}
