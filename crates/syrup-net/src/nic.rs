//! NIC model: RX queues, steering, and IRQ affinity.
//!
//! The paper configures "a number of RX queues equal to the number of
//! hyperthreads used by the application" and maps "the corresponding
//! interrupts to the hyperthread buddies of the hyperthreads that host
//! application threads" (§5.1.1). A [`Nic`] reproduces that shape:
//!
//! * incoming frames are steered to an RX queue by Toeplitz RSS (the
//!   default), by MICA-style exact flow-steering rules, or by an
//!   XDP-offload Syrup policy running *on the NIC* (§5.4's Syrup HW);
//! * each queue's interrupt is affined to a core.

use std::collections::HashMap;

use syrup_sched::QueueKind;
use syrup_telemetry::{CounterHandle, Registry};

use crate::flow::FiveTuple;
use crate::rss::Toeplitz;
use crate::socket::SocketBuf;

/// How the NIC picks an RX queue for a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steering {
    /// Toeplitz RSS over the 5-tuple (hardware default).
    Rss,
    /// Exact-match flow rules with an RSS fallback (MICA's server-side
    /// `ethtool` flow steering).
    FlowRules,
    /// A Syrup policy offloaded to the NIC picks the queue (Figure 4's
    /// XDP Offload hook). The decision is supplied by the caller, which
    /// runs the policy through `syrupd`.
    Offload,
}

/// Per-queue and steering-mode counters, mirroring the percpu stats a
/// hardware driver exports via `ethtool -S`. Disabled (free) by default;
/// [`Nic::attach_telemetry`] wires them to a registry.
#[derive(Debug, Default)]
struct NicTelemetry {
    q_enqueued: Vec<CounterHandle>,
    q_dropped: Vec<CounterHandle>,
    steer_rss: CounterHandle,
    steer_flow_rule: CounterHandle,
    steer_offload: CounterHandle,
}

/// The NIC: RX queues with bounded descriptor rings plus steering state.
#[derive(Debug)]
pub struct Nic<T> {
    queues: Vec<SocketBuf<T>>,
    irq_affinity: Vec<u32>,
    toeplitz: Toeplitz,
    steering: Steering,
    flow_rules: HashMap<FiveTuple, u32>,
    telemetry: NicTelemetry,
    tracer: syrup_trace::Tracer,
    profiler: syrup_profile::Profiler,
}

impl<T> Nic<T> {
    /// Creates a NIC with `num_queues` FIFO RX queues of `ring_size`
    /// descriptors each. Queue `q`'s interrupt initially targets core `q`.
    pub fn new(num_queues: usize, ring_size: usize) -> Self {
        Self::new_with(num_queues, ring_size, QueueKind::Fifo)
    }

    /// Creates a NIC whose RX rings use an explicit queue discipline.
    /// Ranked rings model NIC-offloaded PIFO scheduling ("Programmable
    /// Packet Scheduling at Line Rate"): [`Nic::enqueue_ranked`] places a
    /// frame by rank and [`Nic::dequeue`] drains lowest-rank-first.
    pub fn new_with(num_queues: usize, ring_size: usize, kind: QueueKind) -> Self {
        assert!(num_queues > 0, "a NIC has at least one queue");
        Nic {
            queues: (0..num_queues)
                .map(|_| SocketBuf::new_with(kind, ring_size))
                .collect(),
            irq_affinity: (0..num_queues as u32).collect(),
            toeplitz: Toeplitz::default(),
            steering: Steering::Rss,
            flow_rules: HashMap::new(),
            telemetry: NicTelemetry::default(),
            tracer: syrup_trace::Tracer::disabled(),
            profiler: syrup_profile::Profiler::disabled(),
        }
    }

    /// Starts feeding RX-ring occupancy samples to the pressure profiler
    /// (component `nic`) via [`Nic::sample_depths`].
    pub fn attach_profiler(&mut self, profiler: &syrup_profile::Profiler) {
        self.profiler = profiler.clone();
    }

    /// Records one occupancy sample per RX queue into the attached
    /// profiler, plus a rank-band occupancy sample when the rings are
    /// ranked. A single branch when no profiler is attached.
    pub fn sample_depths(&self, now_ns: u64) {
        if self.profiler.is_enabled() {
            let depths = self.queues.iter().map(|q| q.len());
            crate::sample_queue_depths(&self.profiler, "nic", now_ns, depths);
            if self.kind().is_ranked() {
                self.profiler
                    .queue_rank_bands("nic", now_ns, &self.rank_band_depths());
            }
        }
    }

    /// The queue discipline the RX rings use.
    pub fn kind(&self) -> QueueKind {
        self.queues[0].kind()
    }

    /// Starts recording a `nic-steer` instant (arg = chosen queue) per
    /// traced frame passed to [`Nic::select_queue_traced`].
    pub fn attach_tracer(&mut self, tracer: &syrup_trace::Tracer) {
        self.tracer = tracer.clone();
    }

    /// Streams per-ring wire drops and depth-threshold crossings into the
    /// flight recorder on [`syrup_blackbox::Layer::Nic`], one queue id per
    /// RX queue (`depth_threshold` 0 disables depth events).
    pub fn attach_blackbox(&mut self, recorder: &syrup_blackbox::Recorder, depth_threshold: usize) {
        for (i, q) in self.queues.iter_mut().enumerate() {
            q.attach_blackbox(
                recorder,
                syrup_blackbox::Layer::Nic,
                i as u16,
                depth_threshold,
            );
        }
    }

    /// Publishes per-queue enqueue/drop and steering-mode counters under
    /// `nic/` in `registry` (`nic/q<i>/enqueued`, `nic/q<i>/ring_drops`,
    /// `nic/steer_{rss,flow_rule,offload}`).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = NicTelemetry {
            q_enqueued: (0..self.queues.len())
                .map(|q| registry.counter(&format!("nic/q{q}/enqueued")))
                .collect(),
            q_dropped: (0..self.queues.len())
                .map(|q| registry.counter(&format!("nic/q{q}/ring_drops")))
                .collect(),
            steer_rss: registry.counter("nic/steer_rss"),
            steer_flow_rule: registry.counter("nic/steer_flow_rule"),
            steer_offload: registry.counter("nic/steer_offload"),
        };
    }

    /// Number of RX queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Selects the steering mode.
    pub fn set_steering(&mut self, steering: Steering) {
        self.steering = steering;
    }

    /// The current steering mode.
    pub fn steering(&self) -> Steering {
        self.steering
    }

    /// Pins queue `q`'s interrupt to `core` (§5.1.1's hyperthread-buddy
    /// mapping).
    pub fn set_irq_affinity(&mut self, queue: usize, core: u32) {
        self.irq_affinity[queue] = core;
    }

    /// The core that services queue `q`'s interrupt.
    pub fn irq_core(&self, queue: usize) -> u32 {
        self.irq_affinity[queue]
    }

    /// Installs a MICA-style exact flow rule.
    pub fn add_flow_rule(&mut self, flow: FiveTuple, queue: u32) {
        self.flow_rules
            .insert(flow, queue % self.queues.len() as u32);
    }

    /// Computes the RX queue for `flow`. For [`Steering::Offload`] the
    /// caller passes the NIC-resident policy's decision as
    /// `offload_choice`; `None` (policy PASS) falls back to RSS.
    pub fn select_queue(&self, flow: &FiveTuple, offload_choice: Option<u32>) -> u32 {
        let n = self.queues.len() as u32;
        match self.steering {
            Steering::Rss => {
                self.telemetry.steer_rss.inc();
                self.toeplitz.queue_for(flow, n)
            }
            Steering::FlowRules => match self.flow_rules.get(flow) {
                Some(&q) => {
                    self.telemetry.steer_flow_rule.inc();
                    q
                }
                None => {
                    self.telemetry.steer_rss.inc();
                    self.toeplitz.queue_for(flow, n)
                }
            },
            Steering::Offload => match offload_choice {
                Some(q) => {
                    self.telemetry.steer_offload.inc();
                    q % n
                }
                None => {
                    self.telemetry.steer_rss.inc();
                    self.toeplitz.queue_for(flow, n)
                }
            },
        }
    }

    /// [`Nic::select_queue`] for a traced frame: additionally records a
    /// `nic-steer` instant carrying the chosen queue on the frame's
    /// timeline.
    pub fn select_queue_traced(
        &self,
        flow: &FiveTuple,
        offload_choice: Option<u32>,
        ctx: syrup_trace::TraceCtx,
        now_ns: u64,
    ) -> u32 {
        let q = self.select_queue(flow, offload_choice);
        self.tracer
            .instant(ctx, syrup_trace::Stage::NicSteer, now_ns, u64::from(q));
        q
    }

    /// Enqueues a frame descriptor on `queue` at rank 0; `false` means the
    /// ring was full and the frame was dropped on the wire.
    pub fn enqueue(&mut self, queue: u32, frame: T) -> bool {
        self.enqueue_ranked(queue, frame, 0)
    }

    /// Enqueues a frame descriptor on `queue` at `rank` (ignored by FIFO
    /// rings); `false` means the ring was full and the frame was dropped
    /// on the wire.
    pub fn enqueue_ranked(&mut self, queue: u32, frame: T, rank: u32) -> bool {
        let ok = self.queues[queue as usize].push_ranked(frame, rank);
        if let Some(c) = self.telemetry.q_enqueued.get(queue as usize) {
            if ok {
                c.inc();
            } else {
                self.telemetry.q_dropped[queue as usize].inc();
            }
        }
        ok
    }

    /// Drains the next descriptor from `queue` (driver poll / IRQ work).
    pub fn dequeue(&mut self, queue: u32) -> Option<T> {
        self.queues[queue as usize].pop()
    }

    /// Immutable access to one RX ring's buffer (occupancy introspection).
    pub fn queue(&self, queue: usize) -> Option<&SocketBuf<T>> {
        self.queues.get(queue)
    }

    /// Ring occupancy per queue.
    pub fn depths(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.len()).collect()
    }

    /// Frames dropped at full rings.
    pub fn ring_drops(&self) -> u64 {
        self.queues.iter().map(|q| q.dropped).sum()
    }

    /// Occupancy per rank band, summed across the RX rings.
    pub fn rank_band_depths(&self) -> [usize; syrup_sched::NUM_RANK_BANDS] {
        let mut bands = [0; syrup_sched::NUM_RANK_BANDS];
        for q in &self.queues {
            for (total, d) in bands.iter_mut().zip(q.band_depths()) {
                *total += d;
            }
        }
        bands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(sport: u16) -> FiveTuple {
        FiveTuple {
            src_ip: u32::from_be_bytes([10, 0, 0, 1]),
            dst_ip: u32::from_be_bytes([10, 0, 0, 2]),
            src_port: sport,
            dst_port: 8080,
        }
    }

    #[test]
    fn rss_steering_is_stable_per_flow() {
        let nic: Nic<u64> = Nic::new(8, 64);
        let q1 = nic.select_queue(&flow(1000), None);
        let q2 = nic.select_queue(&flow(1000), None);
        assert_eq!(q1, q2);
        assert!(q1 < 8);
    }

    #[test]
    fn flow_rules_override_rss() {
        let mut nic: Nic<u64> = Nic::new(8, 64);
        nic.set_steering(Steering::FlowRules);
        nic.add_flow_rule(flow(1000), 5);
        assert_eq!(nic.select_queue(&flow(1000), None), 5);
        // Unmatched flows fall back to RSS.
        let fallback = nic.select_queue(&flow(2000), None);
        assert!(fallback < 8);
    }

    #[test]
    fn offload_policy_chooses_queue() {
        let mut nic: Nic<u64> = Nic::new(8, 64);
        nic.set_steering(Steering::Offload);
        assert_eq!(nic.select_queue(&flow(1), Some(3)), 3);
        assert_eq!(nic.select_queue(&flow(1), Some(11)), 11 % 8);
        // Policy PASS falls back to RSS.
        assert!(nic.select_queue(&flow(1), None) < 8);
    }

    #[test]
    fn ring_overflow_drops() {
        let mut nic: Nic<u64> = Nic::new(1, 2);
        assert!(nic.enqueue(0, 1));
        assert!(nic.enqueue(0, 2));
        assert!(!nic.enqueue(0, 3));
        assert_eq!(nic.ring_drops(), 1);
        assert_eq!(nic.dequeue(0), Some(1));
        assert_eq!(nic.depths(), vec![1]);
    }

    #[test]
    fn telemetry_counts_steering_and_ring_activity() {
        let registry = Registry::new();
        let mut nic: Nic<u64> = Nic::new(2, 1);
        nic.attach_telemetry(&registry);

        nic.select_queue(&flow(1000), None); // RSS
        nic.set_steering(Steering::Offload);
        nic.select_queue(&flow(1000), Some(1)); // offload pick
        nic.select_queue(&flow(1000), None); // offload PASS → RSS

        assert!(nic.enqueue(0, 1));
        assert!(!nic.enqueue(0, 2)); // ring full

        let snap = registry.snapshot();
        assert_eq!(snap.counter("nic/steer_rss"), 2);
        assert_eq!(snap.counter("nic/steer_offload"), 1);
        assert_eq!(snap.counter("nic/q0/enqueued"), 1);
        assert_eq!(snap.counter("nic/q0/ring_drops"), 1);
        assert_eq!(snap.counter("nic/q1/enqueued"), 0);
        // Internal tallies agree with the exported counters.
        assert_eq!(nic.ring_drops(), snap.counter("nic/q0/ring_drops"));
    }

    #[test]
    fn profiler_samples_queue_imbalance() {
        let profiler = syrup_profile::Profiler::new();
        let mut nic: Nic<u64> = Nic::new(4, 64);
        nic.attach_profiler(&profiler);
        // Pile everything onto queue 0.
        for i in 0..12 {
            nic.enqueue(0, i);
        }
        nic.sample_depths(1_000);
        nic.sample_depths(2_000);

        let p = profiler.pressure();
        let nic_p = p.components.iter().find(|c| c.component == "nic").unwrap();
        assert_eq!(nic_p.queues, 4);
        assert_eq!(nic_p.samples, 2);
        assert_eq!(nic_p.max_depth, 12);
        // One hot queue out of four: mean depth 3, hottest mean 12.
        assert!((nic_p.max_mean_ratio - 4.0).abs() < 1e-9);
        assert!(nic_p.gini > 0.7);
    }

    #[test]
    fn profiler_samples_more_queues_than_the_stack_snapshot_holds() {
        let profiler = syrup_profile::Profiler::new();
        let mut nic: Nic<u64> = Nic::new(70, 8);
        nic.attach_profiler(&profiler);
        nic.enqueue(69, 1);
        nic.sample_depths(1_000);
        let p = profiler.pressure();
        let nic_p = p.components.iter().find(|c| c.component == "nic").unwrap();
        assert_eq!(nic_p.queues, 70);
        assert_eq!(nic_p.mean_depths[69], 1.0);
        assert_eq!(nic_p.mean_depths[..69], [0.0; 69]);
    }

    #[test]
    fn ranked_rings_dequeue_by_rank_and_feed_band_pressure() {
        let profiler = syrup_profile::Profiler::new();
        let mut nic: Nic<u64> = Nic::new_with(1, 8, QueueKind::Pifo);
        nic.attach_profiler(&profiler);
        assert!(nic.kind().is_ranked());
        assert!(nic.enqueue_ranked(0, 100, 900));
        assert!(nic.enqueue_ranked(0, 101, 2));
        assert!(nic.enqueue_ranked(0, 102, 40));
        nic.sample_depths(1_000);
        assert_eq!(nic.dequeue(0), Some(101));
        assert_eq!(nic.dequeue(0), Some(102));
        assert_eq!(nic.dequeue(0), Some(100));
        let p = profiler.pressure();
        let bands = p.rank_bands.iter().find(|b| b.component == "nic").unwrap();
        // Ranks 2 / 40 / 900 land in bands 0 / 1 / 2.
        assert_eq!(bands.mean_depths, vec![1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn fifo_rings_never_sample_rank_bands() {
        let profiler = syrup_profile::Profiler::new();
        let mut nic: Nic<u64> = Nic::new(2, 8);
        nic.attach_profiler(&profiler);
        nic.enqueue(0, 1);
        nic.sample_depths(500);
        assert!(profiler.pressure().rank_bands.is_empty());
    }

    #[test]
    fn blackbox_records_wire_drops_per_ring() {
        use syrup_blackbox::{EventKind, Layer, Recorder};
        let rec = Recorder::new();
        let mut nic: Nic<u64> = Nic::new(2, 1);
        nic.attach_blackbox(&rec, 1);
        assert!(nic.enqueue(1, 10)); // depth 1 == threshold: rising edge
        assert!(!nic.enqueue(1, 11)); // ring full: wire drop
        let events = rec.events(Layer::Nic);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::DepthUp);
        assert_eq!(events[1].kind, EventKind::EnqueueDrop);
        assert_eq!(events[1].id, 1, "queue id names the RX ring");
        assert!(rec.events(Layer::Sock).is_empty());
    }

    #[test]
    fn irq_affinity_is_configurable() {
        let mut nic: Nic<u64> = Nic::new(4, 8);
        assert_eq!(nic.irq_core(2), 2);
        // Hyperthread-buddy mapping: queue q -> core q + 4.
        for q in 0..4 {
            nic.set_irq_affinity(q, (q as u32) + 4);
        }
        assert_eq!(nic.irq_core(2), 6);
    }
}
