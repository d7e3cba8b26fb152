//! Sockets: bounded buffers and `SO_REUSEPORT` groups.
//!
//! A [`SocketBuf`] models one socket's receive queue: a FIFO with a finite
//! capacity, like the kernel's `sk_rcvbuf`. When a datagram arrives at a
//! full buffer it is dropped — these drops are exactly what Figure 2b
//! counts.
//!
//! A [`ReuseportGroup`] models N sockets bound to the same UDP port with
//! `SO_REUSEPORT`. The default Linux behaviour selects a socket by flow
//! hash; a deployed Syrup socket-select policy overrides the choice
//! (§4.2's Socket Select hook), with `PASS` falling back to the hash and
//! `DROP` discarding the datagram.
//!
//! Buffers are FIFO by default and byte-identical to the pre-`syrup-sched`
//! behaviour. Constructing with a ranked [`QueueKind`] (PIFO or bucket
//! queue) makes `recvmsg` dequeue in rank order; ranks arrive via
//! [`ReuseportGroup::deliver_verdict`], which carries the policy's full
//! [`Verdict`] instead of just its low-word [`Decision`].

use syrup_core::{Decision, Verdict};
use syrup_observe::telemetry::{CounterHandle, Registry};
use syrup_sched::{ExecQueue, QueueKind, NUM_RANK_BANDS};

/// Default receive-queue capacity in datagrams, approximating Linux's
/// default `net.core.rmem_default` divided by our datagram size.
pub const DEFAULT_CAPACITY: usize = 256;

/// One socket's bounded receive queue: FIFO by default, rank-ordered when
/// built over a ranked [`QueueKind`].
#[derive(Debug, Clone)]
pub struct SocketBuf<T> {
    queue: ExecQueue<T>,
    capacity: usize,
    /// Datagrams dropped because the buffer was full.
    pub dropped: u64,
    /// Datagrams ever enqueued.
    pub enqueued: u64,
    recorder: syrup_observe::blackbox::Recorder,
    bb_layer: syrup_observe::blackbox::Layer,
    bb_queue: u16,
    /// Depth at which crossing events fire (0 = no depth events).
    depth_threshold: usize,
}

impl<T> SocketBuf<T> {
    /// Creates a FIFO buffer holding up to `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self::new_with(QueueKind::Fifo, capacity)
    }

    /// Creates a buffer with an explicit queue discipline.
    pub fn new_with(kind: QueueKind, capacity: usize) -> Self {
        SocketBuf {
            queue: ExecQueue::new(kind),
            capacity,
            dropped: 0,
            enqueued: 0,
            recorder: syrup_observe::blackbox::Recorder::disabled(),
            bb_layer: syrup_observe::blackbox::Layer::Sock,
            bb_queue: 0,
            depth_threshold: 0,
        }
    }

    /// The queue discipline this buffer was built with.
    pub fn kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// Streams this buffer's full-queue drops and depth-threshold
    /// crossings into the flight recorder. `layer` says which stack layer
    /// the buffer plays ([`syrup_observe::blackbox::Layer::Nic`] for RX rings,
    /// [`syrup_observe::blackbox::Layer::Sock`] for sockets), `queue` identifies it
    /// within the layer, and a depth of `depth_threshold` (0 disables
    /// depth events) fires rising/falling crossing events.
    pub fn attach_blackbox(
        &mut self,
        recorder: &syrup_observe::blackbox::Recorder,
        layer: syrup_observe::blackbox::Layer,
        queue: u16,
        depth_threshold: usize,
    ) {
        self.recorder = recorder.clone();
        self.bb_layer = layer;
        self.bb_queue = queue;
        self.depth_threshold = depth_threshold;
    }

    /// Enqueues an item at rank 0; returns `false` (and counts a drop)
    /// when full.
    pub fn push(&mut self, item: T) -> bool {
        self.push_ranked(item, 0)
    }

    /// Enqueues an item at `rank` (ignored by FIFO buffers); returns
    /// `false` (and counts a drop) when full.
    pub fn push_ranked(&mut self, item: T, rank: u32) -> bool {
        if self.queue.len() >= self.capacity {
            self.dropped += 1;
            self.recorder
                .enqueue_drop(self.bb_layer, self.bb_queue, rank, self.queue.len() as u64);
            return false;
        }
        self.enqueued += 1;
        self.queue.push(item, rank);
        if self.recorder.is_enabled() {
            let depth = self.queue.len();
            if self.depth_threshold > 0 && depth == self.depth_threshold {
                self.recorder.depth_cross(
                    self.bb_layer,
                    self.bb_queue,
                    true,
                    depth as u64,
                    self.depth_threshold as u64,
                );
            }
        }
        true
    }

    /// Dequeues the head item: oldest for FIFO (`recvmsg`), lowest rank
    /// for ranked disciplines.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.queue.pop();
        if item.is_some() && self.recorder.is_enabled() {
            let depth = self.queue.len();
            if self.depth_threshold > 0 && depth + 1 == self.depth_threshold {
                self.recorder.depth_cross(
                    self.bb_layer,
                    self.bb_queue,
                    false,
                    depth as u64,
                    self.depth_threshold as u64,
                );
            }
        }
        item
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Peeks at the head without removing it (late-binding support).
    pub fn peek(&self) -> Option<&T> {
        self.queue.peek()
    }

    /// The head item's rank (0 for FIFO buffers).
    pub fn peek_rank(&self) -> Option<u32> {
        self.queue.peek_rank()
    }

    /// Occupancy per rank band (see [`syrup_sched::rank_band`]).
    pub fn band_depths(&self) -> [usize; NUM_RANK_BANDS] {
        self.queue.band_depths()
    }
}

/// Outcome of delivering one datagram to a reuseport group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Enqueued on the socket at this index.
    Enqueued(usize),
    /// The policy chose to drop it, or the chosen socket's buffer was full.
    Dropped {
        /// `true` when a full buffer (not the policy) caused the drop.
        buffer_full: bool,
    },
}

/// Delivery counters for one reuseport group, split the way Figure 2b
/// needs them: policy drops vs full-buffer drops. Disabled (free) until
/// [`ReuseportGroup::attach_telemetry`].
#[derive(Debug, Default)]
struct GroupTelemetry {
    delivered: CounterHandle,
    policy_drops: CounterHandle,
    buffer_drops: CounterHandle,
}

/// N sockets bound to one port with `SO_REUSEPORT`.
#[derive(Debug)]
pub struct ReuseportGroup<T> {
    sockets: Vec<SocketBuf<T>>,
    telemetry: GroupTelemetry,
    tracer: syrup_observe::trace::Tracer,
    profiler: syrup_observe::profile::Profiler,
}

impl<T> ReuseportGroup<T> {
    /// Creates `n` FIFO sockets, each with `capacity` datagram slots.
    pub fn new(n: usize, capacity: usize) -> Self {
        Self::new_with(n, capacity, QueueKind::Fifo)
    }

    /// Creates `n` sockets with an explicit queue discipline. With a
    /// ranked kind, [`ReuseportGroup::deliver_verdict`] orders each
    /// socket's `recv` by the policy's rank.
    pub fn new_with(n: usize, capacity: usize, kind: QueueKind) -> Self {
        assert!(n > 0, "a reuseport group needs at least one socket");
        ReuseportGroup {
            sockets: (0..n)
                .map(|_| SocketBuf::new_with(kind, capacity))
                .collect(),
            telemetry: GroupTelemetry::default(),
            tracer: syrup_observe::trace::Tracer::disabled(),
            profiler: syrup_observe::profile::Profiler::disabled(),
        }
    }

    /// The queue discipline the group's sockets use.
    pub fn kind(&self) -> QueueKind {
        self.sockets[0].kind()
    }

    /// Starts feeding per-socket queue-depth samples to the pressure
    /// profiler (component `sock`) via [`ReuseportGroup::sample_depths`].
    pub fn attach_profiler(&mut self, profiler: &syrup_observe::profile::Profiler) {
        self.profiler = profiler.clone();
    }

    /// Records one occupancy sample per socket into the attached
    /// profiler, plus a rank-band occupancy sample when the sockets are
    /// ranked. A single branch when no profiler is attached.
    pub fn sample_depths(&self, now_ns: u64) {
        if self.profiler.is_enabled() {
            let depths = self.sockets.iter().map(|s| s.len());
            crate::sample_queue_depths(&self.profiler, "sock", now_ns, depths);
            if self.kind().is_ranked() {
                self.profiler
                    .queue_rank_bands("sock", now_ns, &self.rank_band_depths());
            }
        }
    }

    /// Starts closing traced datagrams' timelines on delivery drops
    /// (policy `DROP` or full buffer) via [`ReuseportGroup::deliver_traced`].
    pub fn attach_tracer(&mut self, tracer: &syrup_observe::trace::Tracer) {
        self.tracer = tracer.clone();
    }

    /// Streams per-socket full-buffer drops and depth-threshold crossings
    /// into the flight recorder on [`syrup_observe::blackbox::Layer::Sock`], one
    /// queue id per socket index (`depth_threshold` 0 disables depth
    /// events).
    pub fn attach_blackbox(
        &mut self,
        recorder: &syrup_observe::blackbox::Recorder,
        depth_threshold: usize,
    ) {
        for (i, s) in self.sockets.iter_mut().enumerate() {
            s.attach_blackbox(
                recorder,
                syrup_observe::blackbox::Layer::Sock,
                i as u16,
                depth_threshold,
            );
        }
    }

    /// Publishes delivery counters under `<prefix>/` in `registry`
    /// (`<prefix>/delivered`, `<prefix>/policy_drops`,
    /// `<prefix>/buffer_drops`). The prefix lets one registry host many
    /// groups (e.g. `sock8080`).
    pub fn attach_telemetry(&mut self, registry: &Registry, prefix: &str) {
        self.telemetry = GroupTelemetry {
            delivered: registry.counter(&format!("{prefix}/delivered")),
            policy_drops: registry.counter(&format!("{prefix}/policy_drops")),
            buffer_drops: registry.counter(&format!("{prefix}/buffer_drops")),
        };
    }

    /// Number of sockets in the group.
    pub fn len(&self) -> usize {
        self.sockets.len()
    }

    /// Whether the group is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sockets.is_empty()
    }

    /// The default Linux selection: flow hash modulo group size.
    pub fn default_select(&self, flow_hash: u32) -> usize {
        (flow_hash as usize) % self.sockets.len()
    }

    /// Delivers a datagram according to a policy decision (or the hash
    /// default on [`Decision::Pass`]), at rank 0.
    pub fn deliver(&mut self, item: T, flow_hash: u32, decision: Decision) -> Delivery {
        self.deliver_verdict(item, flow_hash, Verdict::unranked(decision))
    }

    /// Delivers a datagram according to a full policy verdict: the
    /// decision picks the socket exactly like [`ReuseportGroup::deliver`],
    /// and the rank picks the position within a ranked socket (FIFO
    /// sockets ignore it, so this is byte-identical to `deliver` there).
    pub fn deliver_verdict(&mut self, item: T, flow_hash: u32, verdict: Verdict) -> Delivery {
        let Verdict { decision, rank } = verdict;
        let index = match decision {
            Decision::Executor(i) => {
                // An out-of-range executor index falls back to the default
                // (a policy can only hurt its own app, not crash the host).
                let i = i as usize;
                if i < self.sockets.len() {
                    i
                } else {
                    self.default_select(flow_hash)
                }
            }
            Decision::Pass => self.default_select(flow_hash),
            Decision::Drop => {
                self.telemetry.policy_drops.inc();
                return Delivery::Dropped { buffer_full: false };
            }
        };
        if self.sockets[index].push_ranked(item, rank) {
            self.telemetry.delivered.inc();
            Delivery::Enqueued(index)
        } else {
            self.telemetry.buffer_drops.inc();
            Delivery::Dropped { buffer_full: true }
        }
    }

    /// [`ReuseportGroup::deliver`] for a traced datagram: a drop (policy
    /// `DROP` or full buffer) closes the datagram's timeline with a
    /// dropped record at the socket stage, and an enqueue records a
    /// `sock-queue` instant carrying the chosen socket.
    pub fn deliver_traced(
        &mut self,
        item: T,
        flow_hash: u32,
        decision: Decision,
        ctx: syrup_observe::trace::TraceCtx,
        now_ns: u64,
    ) -> Delivery {
        self.deliver_verdict_traced(item, flow_hash, Verdict::unranked(decision), ctx, now_ns)
    }

    /// [`ReuseportGroup::deliver_verdict`] for a traced datagram (same
    /// trace records as [`ReuseportGroup::deliver_traced`]).
    pub fn deliver_verdict_traced(
        &mut self,
        item: T,
        flow_hash: u32,
        verdict: Verdict,
        ctx: syrup_observe::trace::TraceCtx,
        now_ns: u64,
    ) -> Delivery {
        let outcome = self.deliver_verdict(item, flow_hash, verdict);
        match outcome {
            Delivery::Enqueued(socket) => self.tracer.instant(
                ctx,
                syrup_observe::trace::Stage::SockQueue,
                now_ns,
                socket as u64,
            ),
            Delivery::Dropped { .. } => {
                self.tracer
                    .drop_input(ctx, syrup_observe::trace::Stage::SockQueue, now_ns)
            }
        }
        outcome
    }

    /// `recvmsg` on socket `index`.
    pub fn recv(&mut self, index: usize) -> Option<T> {
        self.sockets.get_mut(index)?.pop()
    }

    /// Immutable access to a socket.
    pub fn socket(&self, index: usize) -> Option<&SocketBuf<T>> {
        self.sockets.get(index)
    }

    /// Total drops across the group (policy drops are not included; count
    /// those at the hook).
    pub fn total_buffer_drops(&self) -> u64 {
        self.sockets.iter().map(|s| s.dropped).sum()
    }

    /// Queue depth per socket (for load-imbalance assertions).
    pub fn depths(&self) -> Vec<usize> {
        self.sockets.iter().map(|s| s.len()).collect()
    }

    /// Occupancy per rank band, summed across the group's sockets.
    pub fn rank_band_depths(&self) -> [usize; NUM_RANK_BANDS] {
        let mut bands = [0; NUM_RANK_BANDS];
        for s in &self.sockets {
            for (total, d) in bands.iter_mut().zip(s.band_depths()) {
                *total += d;
            }
        }
        bands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_buf_fifo_and_capacity() {
        let mut buf = SocketBuf::new(2);
        assert!(buf.push(1));
        assert!(buf.push(2));
        assert!(!buf.push(3));
        assert_eq!(buf.dropped, 1);
        assert_eq!(buf.enqueued, 2);
        assert_eq!(buf.pop(), Some(1));
        assert_eq!(buf.peek(), Some(&2));
        assert_eq!(buf.pop(), Some(2));
        assert_eq!(buf.pop(), None);
    }

    #[test]
    fn default_selection_follows_hash() {
        let mut group: ReuseportGroup<u32> = ReuseportGroup::new(6, 4);
        let d = group.deliver(7, 13, Decision::Pass);
        assert_eq!(d, Delivery::Enqueued(13 % 6));
        assert_eq!(group.recv(13 % 6), Some(7));
    }

    #[test]
    fn policy_decision_overrides_hash() {
        let mut group: ReuseportGroup<u32> = ReuseportGroup::new(6, 4);
        assert_eq!(
            group.deliver(7, 13, Decision::Executor(2)),
            Delivery::Enqueued(2)
        );
        assert_eq!(group.recv(2), Some(7));
    }

    #[test]
    fn drop_decision_discards() {
        let mut group: ReuseportGroup<u32> = ReuseportGroup::new(2, 4);
        assert_eq!(
            group.deliver(7, 0, Decision::Drop),
            Delivery::Dropped { buffer_full: false }
        );
        assert!(group.depths().iter().all(|&d| d == 0));
    }

    #[test]
    fn out_of_range_executor_falls_back_to_hash() {
        let mut group: ReuseportGroup<u32> = ReuseportGroup::new(2, 4);
        assert_eq!(
            group.deliver(7, 3, Decision::Executor(99)),
            Delivery::Enqueued(1)
        );
    }

    #[test]
    fn telemetry_splits_policy_and_buffer_drops() {
        let registry = Registry::new();
        let mut group: ReuseportGroup<u32> = ReuseportGroup::new(1, 1);
        group.attach_telemetry(&registry, "sock8080");
        group.deliver(1, 0, Decision::Pass); // enqueued
        group.deliver(2, 0, Decision::Drop); // policy drop
        group.deliver(3, 0, Decision::Pass); // buffer full
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sock8080/delivered"), 1);
        assert_eq!(snap.counter("sock8080/policy_drops"), 1);
        assert_eq!(snap.counter("sock8080/buffer_drops"), 1);
    }

    #[test]
    fn ranked_sockets_recv_in_rank_order() {
        let mut group: ReuseportGroup<u32> = ReuseportGroup::new_with(2, 8, QueueKind::Pifo);
        assert!(group.kind().is_ranked());
        for (item, rank) in [(10, 30), (11, 5), (12, 5), (13, 1)] {
            let v = Verdict {
                decision: Decision::Executor(0),
                rank,
            };
            assert_eq!(group.deliver_verdict(item, 0, v), Delivery::Enqueued(0));
        }
        // Lowest rank first; FIFO between the two rank-5 datagrams.
        assert_eq!(group.recv(0), Some(13));
        assert_eq!(group.recv(0), Some(11));
        assert_eq!(group.recv(0), Some(12));
        assert_eq!(group.recv(0), Some(10));
    }

    #[test]
    fn fifo_sockets_ignore_verdict_ranks() {
        let mut group: ReuseportGroup<u32> = ReuseportGroup::new(1, 8);
        for (item, rank) in [(1, 99), (2, 0), (3, 42)] {
            let v = Verdict {
                decision: Decision::Executor(0),
                rank,
            };
            group.deliver_verdict(item, 0, v);
        }
        assert_eq!(group.recv(0), Some(1));
        assert_eq!(group.recv(0), Some(2));
        assert_eq!(group.recv(0), Some(3));
    }

    #[test]
    fn group_aggregates_rank_bands() {
        let mut group: ReuseportGroup<u32> = ReuseportGroup::new_with(2, 8, QueueKind::Pifo);
        group.deliver_verdict(
            1,
            0,
            Verdict {
                decision: Decision::Executor(0),
                rank: 3,
            },
        );
        group.deliver_verdict(
            2,
            0,
            Verdict {
                decision: Decision::Executor(1),
                rank: 500,
            },
        );
        assert_eq!(group.rank_band_depths(), [1, 0, 1, 0]);
    }

    #[test]
    fn blackbox_records_drops_and_depth_crossings() {
        use syrup_observe::blackbox::{EventKind, Layer, Recorder};
        let rec = Recorder::new();
        rec.set_now(70);
        let mut group: ReuseportGroup<u32> = ReuseportGroup::new(2, 2);
        group.attach_blackbox(&rec, 2);
        // Socket 1 fills: depth 2 crosses the threshold, the third
        // datagram drops on the full buffer.
        for item in [1, 2, 3] {
            group.deliver(item, 1, Decision::Pass);
        }
        let events = rec.events(Layer::Sock);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::DepthUp);
        assert_eq!((events[0].id, events[0].w0, events[0].w1), (1, 2, 2));
        assert_eq!(events[1].kind, EventKind::EnqueueDrop);
        assert_eq!((events[1].id, events[1].w0), (1, 2));
        assert_eq!(events[1].at_ns, 70, "queue events take the recorder clock");
        // Draining back under the threshold fires the falling edge once.
        group.recv(1);
        group.recv(1);
        let events = rec.events(Layer::Sock);
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].kind, EventKind::DepthDown);
        assert_eq!((events[2].id, events[2].w0, events[2].w1), (1, 1, 2));
    }

    #[test]
    fn full_buffer_drop_is_counted() {
        let mut group: ReuseportGroup<u32> = ReuseportGroup::new(1, 1);
        assert_eq!(group.deliver(1, 0, Decision::Pass), Delivery::Enqueued(0));
        assert_eq!(
            group.deliver(2, 0, Decision::Pass),
            Delivery::Dropped { buffer_full: true }
        );
        assert_eq!(group.total_buffer_drops(), 1);
    }
}
