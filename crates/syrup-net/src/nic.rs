//! NIC model: RX queues and queue steering.
//!
//! The paper configures "a number of RX queues equal to the number of
//! hyperthreads used by the application" (§5.1.1). A [`Nic`] reproduces
//! that shape: each RX queue is a bounded FIFO descriptor ring, and an
//! incoming frame is steered to one by Toeplitz RSS, or by the decision of
//! an XDP-offload Syrup policy running *on the NIC* (§5.4's Syrup HW) when
//! the caller supplies one.

use syrup_sched::QueueKind;

use crate::flow::FiveTuple;
use crate::rss::Toeplitz;
use crate::socket::SocketBuf;

/// The NIC: RX queues with bounded FIFO descriptor rings.
#[derive(Debug)]
pub struct Nic<T> {
    queues: Vec<SocketBuf<T>>,
    toeplitz: Toeplitz,
    tracer: syrup_observe::trace::Tracer,
    profiler: syrup_observe::profile::Profiler,
}

impl<T> Nic<T> {
    /// Creates a NIC with `num_queues` FIFO RX queues of `ring_size`
    /// descriptors each.
    pub fn new(num_queues: usize, ring_size: usize) -> Self {
        assert!(num_queues > 0, "a NIC has at least one queue");
        Nic {
            queues: (0..num_queues).map(|_| SocketBuf::new(ring_size)).collect(),
            toeplitz: Toeplitz,
            tracer: syrup_observe::trace::Tracer::disabled(),
            profiler: syrup_observe::profile::Profiler::disabled(),
        }
    }

    /// Starts feeding RX-ring occupancy samples to the pressure profiler
    /// (component `nic`) via [`Nic::sample_depths`].
    pub fn attach_profiler(&mut self, profiler: &syrup_observe::profile::Profiler) {
        self.profiler = profiler.clone();
    }

    /// Records one occupancy sample per RX queue into the attached
    /// profiler. A single branch when no profiler is attached.
    pub fn sample_depths(&self, now_ns: u64) {
        if self.profiler.is_enabled() {
            let depths = self.queues.iter().map(|q| q.len());
            crate::sample_queue_depths(&self.profiler, "nic", now_ns, depths);
        }
    }

    /// The queue discipline the RX rings use.
    pub fn kind(&self) -> QueueKind {
        self.queues[0].kind()
    }

    /// Starts recording a `nic-steer` instant (arg = chosen queue) per
    /// traced frame passed to [`Nic::select_queue_traced`].
    pub fn attach_tracer(&mut self, tracer: &syrup_observe::trace::Tracer) {
        self.tracer = tracer.clone();
    }

    /// Streams per-ring wire drops and depth-threshold crossings into the
    /// flight recorder on [`syrup_observe::blackbox::Layer::Nic`], one queue id per
    /// RX queue (`depth_threshold` 0 disables depth events).
    pub fn attach_blackbox(
        &mut self,
        recorder: &syrup_observe::blackbox::Recorder,
        depth_threshold: usize,
    ) {
        for (i, q) in self.queues.iter_mut().enumerate() {
            q.attach_blackbox(
                recorder,
                syrup_observe::blackbox::Layer::Nic,
                i as u16,
                depth_threshold,
            );
        }
    }

    /// Number of RX queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Computes the RX queue for `flow`: the NIC-resident policy's
    /// decision `offload_choice` modulo the queue count when it made one
    /// (Figure 4's XDP Offload hook; the caller runs the policy through
    /// `syrupd`), Toeplitz RSS when it passed (`None`).
    pub fn select_queue(&self, flow: &FiveTuple, offload_choice: Option<u32>) -> u32 {
        let n = self.queues.len() as u32;
        match offload_choice {
            Some(q) => q % n,
            None => self.toeplitz.queue_for(flow, n),
        }
    }

    /// [`Nic::select_queue`] for a traced frame: additionally records a
    /// `nic-steer` instant carrying the chosen queue on the frame's
    /// timeline.
    pub fn select_queue_traced(
        &self,
        flow: &FiveTuple,
        offload_choice: Option<u32>,
        ctx: syrup_observe::trace::TraceCtx,
        now_ns: u64,
    ) -> u32 {
        let q = self.select_queue(flow, offload_choice);
        self.tracer.instant(
            ctx,
            syrup_observe::trace::Stage::NicSteer,
            now_ns,
            u64::from(q),
        );
        q
    }

    /// Enqueues a frame descriptor on `queue`; `false` means the ring was
    /// full and the frame was dropped on the wire.
    pub fn enqueue(&mut self, queue: u32, frame: T) -> bool {
        self.queues[queue as usize].push(frame)
    }

    /// Drains the next descriptor from `queue` (driver poll / IRQ work).
    pub fn dequeue(&mut self, queue: u32) -> Option<T> {
        self.queues[queue as usize].pop()
    }

    /// Immutable access to one RX ring's buffer (occupancy introspection).
    pub fn queue(&self, queue: usize) -> Option<&SocketBuf<T>> {
        self.queues.get(queue)
    }

    /// Frames dropped at full rings.
    pub fn ring_drops(&self) -> u64 {
        self.queues.iter().map(|q| q.dropped).sum()
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
        // `None` is the NIC-resident policy's PASS, which leaves the frame
        // to RSS: the same flow always lands on the same queue.
        let rss = Toeplitz;
        for n in [1u32, 6, 8] {
            let nic: Nic<u64> = Nic::new(n as usize, 64);
            for sport in [1, 1000, 2000, u16::MAX] {
                let f = flow(sport);
                let q = nic.select_queue(&f, None);
                assert_eq!(q, rss.queue_for(&f, n));
                assert_eq!(q, nic.select_queue(&f, None));
                assert!(q < n);
            }
        }
    }

    #[test]
    fn offload_policy_chooses_queue() {
        // `Some(q)` is the NIC-resident policy's pick, taken modulo the
        // queue count.
        for n in [1u32, 6, 8] {
            let nic: Nic<u64> = Nic::new(n as usize, 64);
            for sport in [1, 1000, 2000, u16::MAX] {
                let f = flow(sport);
                for q in [0, n - 1, n, u32::MAX] {
                    assert_eq!(nic.select_queue(&f, Some(q)), q % n, "{n} queues, pick {q}");
                }
            }
        }
    }

    #[test]
    fn ring_overflow_drops() {
        let mut nic: Nic<u64> = Nic::new(1, 2);
        assert!(nic.enqueue(0, 1));
        assert!(nic.enqueue(0, 2));
        assert!(!nic.enqueue(0, 3));
        assert_eq!(nic.ring_drops(), 1);
        assert_eq!(nic.dequeue(0), Some(1));
        assert_eq!(nic.queue(0).map(SocketBuf::len), Some(1));
    }

    #[test]
    fn profiler_samples_queue_imbalance() {
        let profiler = syrup_observe::profile::Profiler::new();
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
        let profiler = syrup_observe::profile::Profiler::new();
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
    fn fifo_rings_never_sample_rank_bands() {
        let profiler = syrup_observe::profile::Profiler::new();
        let mut nic: Nic<u64> = Nic::new(2, 8);
        nic.attach_profiler(&profiler);
        nic.enqueue(0, 1);
        nic.sample_depths(500);
        assert!(profiler.pressure().rank_bands.is_empty());
    }

    #[test]
    fn blackbox_records_wire_drops_per_ring() {
        use syrup_observe::blackbox::{EventKind, Layer, Recorder};
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
}
