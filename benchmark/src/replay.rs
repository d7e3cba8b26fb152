//! `trip-replay`: the quickstart trip re-stated here, with a span around
//! every call into a layer.
//!
//! `syrup::apps::quickstart::run_driven` is one loop over public calls:
//! pop the ingress wheel, steer to a NIC queue, ring in and out, build
//! the frame, three hook dispatches, deliver to a reuseport socket,
//! receive. [`replay`] makes the same calls in the same order on the same
//! inputs, and — when tracing — wraps each in a [`Span`] (name, start,
//! end, parent, request id). Spans inside the program are a later
//! change; until then this is where a wall-microsecond of `trip-plain`
//! is seen to go.
//!
//! The replay is only evidence while it is faithful: run untraced it must
//! cost what the world costs (`trip.replay_vs_world_ratio`), and its
//! simulated statistics must equal the world's.

use std::time::Instant;

use syrup::apps::quickstart::{self, PORT, THREADS};
use syrup::blackbox::Recorder;
use syrup::core::{CompileOptions, Hook, HookMeta, PolicySource, Syrupd};
use syrup::net::{flow, AppHeader, Delivery, Frame, Nic, ReuseportGroup};
use syrup::policies::{c_sources, RoundRobinPolicy};
use syrup::profile::Profiler;
use syrup::sim::{ShardedQueue, SimRng, Time};
use syrup::trace::Tracer;

use crate::layers::Metrics;
use crate::timing::{best_of, instant_overhead_ns};
use crate::workloads::{Fingerprint, TripOutcome};

/// The spans around one request's calls, in call order. `request` is the
/// parent of the rest.
pub const SPAN_NAMES: [&str; 10] = [
    "request",
    "ingress_pop",
    "select_queue",
    "nic_ring",
    "frame_build",
    "schedule_xdp",
    "schedule_redirect",
    "schedule_sockselect",
    "deliver",
    "recv",
];

/// One timed interval around a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`SPAN_NAMES`].
    pub name: u8,
    /// Index of the parent span in the log, `u32::MAX` for a root.
    pub parent: u32,
    /// The request this span belongs to.
    pub request: u32,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created.
    pub end_ns: u64,
}

/// In-memory span log. With `ON = false` every method is a no-op, so the
/// untraced replay is the traced one minus the clock reads and pushes.
pub struct SpanLog<const ON: bool> {
    epoch: Instant,
    /// Every span recorded, in order of completion of its start.
    pub spans: Vec<Span>,
    open_request: u32,
    request: u32,
}

const NO_PARENT: u32 = u32::MAX;

impl<const ON: bool> SpanLog<ON> {
    fn new(capacity: usize) -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(if ON { capacity } else { 0 }),
            open_request: NO_PARENT,
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of `request`.
    fn begin_request(&mut self, request: u32) {
        if ON {
            self.request = request;
            self.open_request = self.spans.len() as u32;
            let now = self.now();
            self.spans.push(Span {
                name: 0,
                parent: NO_PARENT,
                request,
                start_ns: now,
                end_ns: now,
            });
        }
    }

    /// Closes the open root span.
    fn end_request(&mut self) {
        if ON {
            let now = self.now();
            self.spans[self.open_request as usize].end_ns = now;
            self.open_request = NO_PARENT;
        }
    }

    /// Times `call` as a child of the open request.
    #[inline(always)]
    fn span<T>(&mut self, name: u8, call: impl FnOnce() -> T) -> T {
        if !ON {
            return call();
        }
        let start_ns = self.now();
        let out = call();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open_request,
            request: self.request,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Mean duration of `n` spans around nothing: what a span adds to what
/// it measures.
fn empty_span_ns(n: u32) -> f64 {
    let mut log: SpanLog<true> = SpanLog::new(n as usize + 1);
    log.begin_request(0);
    for _ in 0..n {
        log.span(1, || {});
    }
    log.end_request();
    let total: u64 = log.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
    total as f64 / f64::from(n)
}

/// `quickstart::run_driven(disabled sinks, requests, ranked = false,
/// shards = 1, no observer)`, call for call.
fn replay<const ON: bool>(requests: usize) -> (TripOutcome, SpanLog<ON>) {
    let tracer = Tracer::disabled();
    let profiler = Profiler::disabled();
    let recorder = Recorder::disabled();
    let mut log: SpanLog<ON> = SpanLog::new(requests * SPAN_NAMES.len());

    let mut rng = SimRng::new(7);
    let syrupd = Syrupd::new();
    syrupd.attach_tracer(&tracer);
    syrupd.attach_profiler(&profiler);
    syrupd.attach_blackbox(&recorder);
    let (app, _maps) = syrupd
        .register_app("quickstart", &[PORT])
        .expect("fresh daemon has no port conflicts");
    syrupd
        .deploy(
            app,
            Hook::XdpDrv,
            PolicySource::C {
                source: c_sources::ROUND_ROBIN.to_string(),
                options: CompileOptions::new().define("NUM_THREADS", THREADS as i64),
            },
        )
        .expect("xdp policy deploys");
    for hook in [Hook::CpuRedirect, Hook::SocketSelect] {
        syrupd
            .deploy(
                app,
                hook,
                PolicySource::Native(Box::new(RoundRobinPolicy::new(THREADS as u32))),
            )
            .expect("native policy deploys");
    }

    let mut nic: Nic<usize> = Nic::new(THREADS, 64);
    nic.attach_tracer(&tracer);
    nic.attach_profiler(&profiler);
    nic.attach_blackbox(&recorder, 1);
    let mut group: ReuseportGroup<usize> = ReuseportGroup::new(THREADS, 64);
    group.attach_tracer(&tracer);
    group.attach_profiler(&profiler);
    group.attach_blackbox(&recorder, 1);

    let flows = flow::client_flows(8, PORT, &mut rng);
    let mut free_at = [0u64; THREADS];
    let mut completed = 0u64;

    let mut ingress: ShardedQueue<usize> = ShardedQueue::new(1);
    ingress.attach_telemetry(syrupd.telemetry(), "sim");
    for i in 0..requests {
        let fl = &flows[i % flows.len()];
        let t0 = 1_000 + (i as u64) * 2_000;
        ingress.push_keyed(Time::from_nanos(t0), u64::from(fl.flow_hash()), i);
    }

    let mut next = 0u32;
    loop {
        log.begin_request(next);
        let Some((at, i)) = log.span(1, || ingress.pop()) else {
            // The pop that found the wheel empty belongs to no request.
            if ON {
                log.spans.truncate(log.open_request as usize);
            }
            break;
        };
        next += 1;
        let t0 = at.as_nanos();
        let ctx = tracer.ingress(t0);
        let fl = &flows[i % flows.len()];

        let q = log.span(2, || nic.select_queue_traced(fl, None, ctx, t0));
        let t_poll = t0 + 300;
        log.span(3, || {
            nic.enqueue(q, i);
            nic.sample_depths(t0);
            tracer.span(ctx, syrup::trace::Stage::NicQueue, t0, t_poll);
            let _ = nic.dequeue(q);
        });

        let mut pkt = log.span(4, || {
            let frame = Frame::build(
                fl,
                &AppHeader {
                    req_type: 0,
                    user_id: 0,
                    key_hash: i as u64,
                    req_id: i as u64,
                },
            );
            frame.datagram().to_vec()
        });
        let meta = HookMeta {
            now_ns: t_poll,
            cpu: q,
            rx_queue: q,
            dst_port: PORT,
            trace: ctx,
        };
        let _ = log.span(5, || syrupd.schedule(Hook::XdpDrv, &mut pkt, &meta));

        let t_redirect = t_poll + 250;
        let meta = HookMeta {
            now_ns: t_redirect,
            ..meta
        };
        let _ = log.span(6, || syrupd.schedule(Hook::CpuRedirect, &mut pkt, &meta));
        let t_sock = t_redirect + 600;
        tracer.span(ctx, syrup::trace::Stage::StackRx, t_redirect, t_sock);

        let meta = HookMeta {
            now_ns: t_sock,
            ..meta
        };
        let (_, verdict) = log.span(7, || {
            syrupd.schedule_verdict(Hook::SocketSelect, &mut pkt, &meta)
        });
        let delivery = log.span(8, || {
            let d = group.deliver_verdict_traced(i, fl.flow_hash(), verdict, ctx, t_sock);
            group.sample_depths(t_sock);
            d
        });
        let socket = match delivery {
            Delivery::Enqueued(s) => s,
            Delivery::Dropped { .. } => {
                log.end_request();
                continue;
            }
        };

        let _ = log.span(9, || group.recv(socket));
        let start = free_at[socket].max(t_sock);
        tracer.span_arg(
            ctx,
            syrup::trace::Stage::SockQueue,
            t_sock,
            start,
            socket as u64,
        );
        let service = 3_000 + (i as u64 % 4) * 2_000;
        tracer.span_arg(
            ctx,
            syrup::trace::Stage::Run,
            start,
            start + service,
            socket as u64,
        );
        free_at[socket] = start + service;
        tracer.finish(ctx, start + service);
        completed += 1;
        log.end_request();
    }

    // The world's epilogue, so the untraced replay costs what it costs.
    let records = tracer.peek();
    let timelines = syrup::trace::reconstruct(&records);
    std::hint::black_box((timelines, ingress.per_shard_stats()));
    let outcome = TripOutcome {
        requests,
        completed,
        telemetry: syrupd.telemetry_snapshot(),
        nic_ring_drops: nic.ring_drops(),
        sock_buffer_drops: group.total_buffer_drops(),
    };
    (outcome, log)
}

/// What the traced pass learned from the replay.
pub struct ReplayReport {
    /// Requests replayed.
    pub requests: usize,
    /// Requests that failed in any of the runs.
    pub failed: u64,
    /// The traced replay's spans.
    pub spans: Vec<Span>,
    /// Calibrated cost of one span around nothing.
    pub span_overhead_ns: f64,
    /// Wall ns per request: the world, the untraced and the traced replay.
    pub world_ns: f64,
    /// See `world_ns`.
    pub untraced_ns: f64,
    /// See `world_ns`.
    pub traced_ns: f64,
}

/// Times the world and both replays interleaved, checks the replay
/// against the world, and pushes the `trip.*` / `ledger.span_overhead_ns`
/// metrics.
pub fn measure(requests: usize, rounds: usize, m: &mut Metrics) -> Result<ReplayReport, String> {
    let requests = requests.max(1);
    let plain = Tracer::disabled();
    let mut world_fp: Option<Fingerprint> = None;
    let mut replay_fp: Option<Fingerprint> = None;
    let failed = std::cell::Cell::new(0u64);
    let mut spans = Vec::new();
    // One "call" per batch is a whole run, so ns/call ÷ requests is ns/op.
    let best = best_of(
        1,
        rounds,
        &mut [
            &mut |n| {
                for _ in 0..n {
                    let q = TripOutcome::of(&quickstart::run(&plain, requests), requests);
                    failed.set(failed.get() + q.failed());
                    world_fp = Some(q.fingerprint());
                }
            },
            &mut |n| {
                for _ in 0..n {
                    let (q, _) = replay::<false>(requests);
                    failed.set(failed.get() + q.failed());
                    replay_fp = Some(q.fingerprint());
                }
            },
            &mut |n| {
                for _ in 0..n {
                    let (q, log) = replay::<true>(requests);
                    failed.set(failed.get() + q.failed());
                    spans = log.spans;
                }
            },
        ],
    );
    if world_fp != replay_fp {
        return Err(format!(
            "trip-replay is not the quickstart trip: world {world_fp:?}, replay {replay_fp:?}"
        ));
    }
    let per_op = |ns: f64| ns / requests as f64;
    let (world_ns, untraced_ns, traced_ns) = (per_op(best[0]), per_op(best[1]), per_op(best[2]));

    // A span's clock reads cost what an `Instant` pair costs; an empty
    // span shows how much of that lands inside the measured interval.
    let span_overhead_ns = empty_span_ns(100_000).min(instant_overhead_ns(100_000));
    m.push("ledger.span_overhead_ns", span_overhead_ns, "ns");

    let mut total = [0u64; SPAN_NAMES.len()];
    for s in &spans {
        total[s.name as usize] += s.end_ns - s.start_ns;
    }
    for (name, total) in SPAN_NAMES.iter().zip(total).skip(1) {
        // Leaves: self time is the whole span, less what timing added.
        let mean = total as f64 / requests as f64 - span_overhead_ns;
        m.push(format!("trip.span_ns.{name}"), mean.max(0.0), "ns");
    }
    m.push(
        "trip.replay_vs_world_ratio",
        untraced_ns / world_ns,
        "ratio",
    );

    Ok(ReplayReport {
        requests,
        failed: failed.get(),
        spans,
        span_overhead_ns,
        world_ns,
        untraced_ns,
        traced_ns,
    })
}

/// Renders the report as the `trace.json` document. At most
/// `max_requests` requests' spans are written; the totals say how many
/// were measured.
pub fn trace_json(report: &ReplayReport, max_requests: u32) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let written = report
        .spans
        .iter()
        .filter(|s| s.request < max_requests)
        .count();
    let _ = write!(
        out,
        "{{\"clock\":\"ns since the replay started\",\"requests\":{},\"spans_measured\":{},\
         \"spans_written\":{written},\"span_overhead_ns\":{:.3},\"world_ns_per_op\":{:.3},\
         \"untraced_replay_ns_per_op\":{:.3},\"traced_replay_ns_per_op\":{:.3},\"spans\":[",
        report.requests,
        report.spans.len(),
        report.span_overhead_ns,
        report.world_ns,
        report.untraced_ns,
        report.traced_ns,
    );
    let mut first = true;
    for (id, s) in report.spans.iter().enumerate() {
        if s.request >= max_requests {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "\n{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\
             \"start\":{},\"end\":{}}}",
            SPAN_NAMES[s.name as usize], s.request, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_the_world_and_spans_nest() {
        let requests = 200;
        let world = TripOutcome::of(&quickstart::run(&Tracer::disabled(), requests), requests);
        let (q, log) = replay::<true>(requests);
        assert_eq!(q.fingerprint(), world.fingerprint());
        assert_eq!(q.telemetry, world.telemetry);
        assert_eq!(q.failed(), 0);
        assert_eq!(log.spans.len(), requests * SPAN_NAMES.len());
        for (i, s) in log.spans.iter().enumerate() {
            assert!(s.start_ns <= s.end_ns);
            if s.name == 0 {
                assert_eq!(s.parent, NO_PARENT);
            } else {
                let parent = log.spans[s.parent as usize];
                assert_eq!(parent.name, 0, "span {i}");
                assert_eq!(parent.request, s.request);
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
        let (untraced, off) = replay::<false>(requests);
        assert!(off.spans.is_empty());
        assert_eq!(untraced.fingerprint(), world.fingerprint());
    }

    #[test]
    fn trace_json_parses_and_caps_requests() {
        let (_, log) = replay::<true>(20);
        let report = ReplayReport {
            requests: 20,
            failed: 0,
            spans: log.spans,
            span_overhead_ns: 1.0,
            world_ns: 1.0,
            untraced_ns: 1.0,
            traced_ns: 1.0,
        };
        let doc = serde::json::from_str(&trace_json(&report, 5)).expect("valid JSON");
        let spans = doc.get("spans").and_then(|s| s.as_array()).expect("spans");
        assert_eq!(spans.len(), 5 * SPAN_NAMES.len());
        assert_eq!(
            doc.get("spans_measured").and_then(|v| v.as_u64()),
            Some(20 * SPAN_NAMES.len() as u64)
        );
        assert!(spans[0].get("parent").is_some_and(|p| p.is_null()));
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
    }
}
