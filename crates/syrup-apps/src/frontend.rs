//! The RocksDB front-end [`crate::server_world`] and [`crate::mt_world`]
//! share: an open-loop client over a fixed set of 5-tuples offering a
//! GET/SCAN mix, the stack's receive path, and the socket-select hook
//! that picks the `SO_REUSEPORT` socket — and with it the thread — for
//! each datagram. What happens once a datagram sits in a socket (pinned
//! workers, or threads multiplexed by a scheduler) is the world's own.

use syrup_core::{AppId, Hook, HookMeta, Syrupd};
use syrup_ghost::ghost::class;
use syrup_net::socket::{Delivery, ReuseportGroup};
use syrup_net::{flow, AppHeader, Frame, RequestClass};
use syrup_observe::trace::{Stage, TraceCtx, Tracer};
use syrup_sim::{Duration, OpenLoop, RequestMix, SimQueue, SimRng, Time};

use crate::rocksdb::RocksDbModel;

/// A two-class workload: GETs plus one other class.
pub(crate) struct ClassMix {
    mix: RequestMix,
    other: RequestClass,
}

impl ClassMix {
    /// `get_fraction` GETs, the rest `other`.
    pub(crate) fn new(get_fraction: f64, other: RequestClass) -> Self {
        ClassMix {
            mix: RequestMix::new(&[
                (RequestClass::Get.class_id(), get_fraction),
                (other.class_id(), 1.0 - get_fraction),
            ]),
            other,
        }
    }

    /// Samples a class (one draw).
    pub(crate) fn sample(&self, rng: &mut SimRng) -> RequestClass {
        if self.mix.sample(rng) == self.other.class_id() {
            self.other
        } else {
            RequestClass::Get
        }
    }
}

/// One client request on its way to a worker thread.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Req {
    pub(crate) arrival: Time,
    pub(crate) class: RequestClass,
    pub(crate) user: u32,
    pub(crate) service: Duration,
    pub(crate) flow_hash: u32,
    /// Arrived after the warm-up.
    pub(crate) measured: bool,
    /// Trace context (untraced unless the world's tracer sampled it).
    pub(crate) trace: TraceCtx,
}

impl Req {
    /// What the thread serving this request publishes in the class Map
    /// (Figure 5b's userspace half).
    pub(crate) fn thread_class(&self) -> u64 {
        if self.class == RequestClass::Scan {
            class::SCAN
        } else {
            class::GET
        }
    }
}

/// Client, receive path and socket-select hook of one RocksDB server.
pub(crate) struct FrontEnd<'c> {
    pub(crate) syrupd: Syrupd,
    pub(crate) group: ReuseportGroup<Req>,
    pub(crate) load: OpenLoop,
    spec: ClientSpec<'c>,
    rng: SimRng,
    mix: ClassMix,
    flow_hashes: Vec<u32>,
    /// One pre-built frame per request class, in `class_id` order. A
    /// request's datagram is a stack copy of its class's frame with its
    /// user written in: policies read only the class/user/key fields.
    templates: [Frame; 3],
}

/// What a world's config says about its client and receive path.
pub(crate) struct ClientSpec<'c> {
    /// The application registered on `port`.
    pub(crate) app: AppId,
    pub(crate) port: u16,
    pub(crate) num_flows: usize,
    pub(crate) get_fraction: f64,
    pub(crate) model: RocksDbModel,
    pub(crate) rx_latency: Duration,
    pub(crate) tracer: &'c Tracer,
}

// `arrive`, `deliver` and `recv` run once per request in worlds whose cost
// is mostly this glue; without `#[inline]` they are calls across codegen
// units and `mt_world` measured ~2 % slower than with the code in place.
impl<'c> FrontEnd<'c> {
    /// Draws the client flow set from `rng` and attaches the tracer to
    /// the daemon and the sockets.
    pub(crate) fn new(
        spec: ClientSpec<'c>,
        mut rng: SimRng,
        syrupd: Syrupd,
        mut group: ReuseportGroup<Req>,
        load: OpenLoop,
    ) -> Self {
        let flows = flow::client_flows(spec.num_flows, spec.port, &mut rng);
        let templates = [RequestClass::Get, RequestClass::Scan, RequestClass::Put].map(|class| {
            Frame::build(
                &flows[0],
                &AppHeader {
                    req_type: class.code(),
                    user_id: 0,
                    key_hash: 0,
                    req_id: 0,
                },
            )
        });
        group.attach_tracer(spec.tracer);
        syrupd.attach_tracer(spec.tracer);
        FrontEnd {
            syrupd,
            group,
            load,
            rng,
            mix: ClassMix::new(spec.get_fraction, RequestClass::Scan),
            flow_hashes: flows.iter().map(|f| f.flow_hash()).collect(),
            templates,
            spec,
        }
    }

    /// Schedules the client's next arrival on `queue` as `event`, unless
    /// the window has closed.
    pub(crate) fn schedule_arrival<E>(&mut self, queue: &mut impl SimQueue<E>, event: E) {
        self.load.schedule_next(&mut self.rng, queue, event);
    }

    /// The request arriving at `now` and the instant the stack hands it
    /// to the socket layer. Draws, in order: class, `user`'s own draws,
    /// flow, service time.
    #[inline]
    pub(crate) fn arrive(
        &mut self,
        now: Time,
        user: impl FnOnce(&mut SimRng) -> u32,
    ) -> (Time, Req) {
        let class = self.mix.sample(&mut self.rng);
        let user = user(&mut self.rng);
        let flow = self.rng.index(self.flow_hashes.len());
        let trace = self.spec.tracer.ingress(now.as_nanos());
        let deliver_at = now + self.spec.rx_latency;
        self.spec
            .tracer
            .span(trace, Stage::StackRx, now.as_nanos(), deliver_at.as_nanos());
        let req = Req {
            arrival: now,
            class,
            user,
            service: self.spec.model.sample(class, &mut self.rng),
            flow_hash: self.flow_hashes[flow],
            measured: self.load.measured(now),
            trace,
        };
        (deliver_at, req)
    }

    /// Runs the socket-select hook on `req`'s datagram and enqueues it on
    /// the socket the policy (or the flow hash) chose.
    #[inline]
    pub(crate) fn deliver(&mut self, now: Time, req: Req) -> Delivery {
        let mut frame = self.templates[req.class.class_id() as usize].clone();
        let pkt = frame.datagram_mut();
        // `user_id` sits at datagram offset 16 (see `syrup_net::packet`).
        pkt[16..20].copy_from_slice(&req.user.to_le_bytes());
        let meta = HookMeta {
            now_ns: now.as_nanos(),
            cpu: 0,
            rx_queue: 0,
            dst_port: self.spec.port,
            trace: req.trace,
        };
        let (app, decision) = self.syrupd.schedule(Hook::SocketSelect, pkt, &meta);
        debug_assert!(app.is_none() || app == Some(self.spec.app));
        self.group
            .deliver_traced(req, req.flow_hash, decision, req.trace, now.as_nanos())
    }

    /// `recvmsg` on `thread`'s socket; the request's socket residency
    /// (post-hook enqueue until now) becomes its `SockQueue` span.
    #[inline]
    pub(crate) fn recv(&mut self, now: Time, thread: usize) -> Option<Req> {
        let req = self.group.recv(thread)?;
        self.spec.tracer.span_arg(
            req.trace,
            Stage::SockQueue,
            (req.arrival + self.spec.rx_latency).as_nanos(),
            now.as_nanos(),
            thread as u64,
        );
        Some(req)
    }
}
