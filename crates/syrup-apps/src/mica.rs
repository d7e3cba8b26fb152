//! The MICA-like partitioned key-value store: Figure 9.
//!
//! MICA partitions data across cores and steers each request to its key's
//! "home" core. §5.4 compares three placements of that steering decision
//! with Syrup, using an AF_XDP backend:
//!
//! * **SW Redirect (original MICA)** — the NIC RSS-hashes packets to
//!   queues; whichever thread owns the queue parses the request and, for
//!   the ~7/8 of requests whose home is elsewhere, forwards it over a
//!   software queue ("packet redirection at the application layer may
//!   require 2 data movements").
//! * **Syrup SW** — the paper's hash policy runs at the kernel XDP hook
//!   and redirects each packet straight to the home thread's AF_XDP
//!   socket: the core-to-core forward disappears, but delivery crosses
//!   cores inside the kernel.
//! * **Syrup HW** — the same policy runs on the programmable NIC and
//!   picks the home RX queue, whose interrupt targets the home core's
//!   hyperthread buddy: "eliminates all end-host data movement".
//!
//! Since the Netronome NIC in set B does not support zero-copy, all three
//! run the AF_XDP *generic* path (§5.4 notes overall numbers are lower
//! than MICA's originals for exactly this reason).
//!
//! The three configurations differ only in per-request CPU costs and hop
//! latencies; saturation (where the 99.9% latency explodes) follows from
//! the bottleneck thread's occupancy, which is how the paper's 1.7–1.8 /
//! 2.7–2.8 / 3.2–3.3 MRPS knees arise.

use syrup_core::{Decision, Hook, HookMeta, MapDef, PolicySource, Syrupd};
use syrup_net::socket::SocketBuf;
use syrup_net::{flow, AppHeader, Frame, RequestClass, Toeplitz};
use syrup_policies::MicaHomePolicy;
use syrup_sim::{drive, Duration, EventQueue, LatencySummary, OpenLoop, SimRng, Time};

use crate::frontend::ClassMix;

/// Steering placement (the figure's three series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicaMode {
    /// Application-layer software redirect (original MICA server-side
    /// fallback).
    SwRedirect,
    /// Syrup policy at the kernel XDP hook → home AF_XDP socket.
    SyrupSw,
    /// Syrup policy offloaded to the NIC → home RX queue.
    SyrupHw,
}

impl MicaMode {
    /// Figure legend label.
    pub fn label(self) -> &'static str {
        match self {
            MicaMode::SwRedirect => "SW Redirect (Original MICA)",
            MicaMode::SyrupSw => "Syrup SW (Kernel)",
            MicaMode::SyrupHw => "Syrup HW (NIC)",
        }
    }
}

/// Per-request CPU/latency cost model for the three paths.
#[derive(Debug, Clone, Copy)]
pub struct MicaCosts {
    /// Hash/partition work per request (GET).
    pub process_get: Duration,
    /// Store work per request (PUT).
    pub process_put: Duration,
    /// AF_XDP generic receive when the packet arrived on the thread's own
    /// queue (descriptor + copy, warm cache).
    pub afxdp_local_rx: Duration,
    /// AF_XDP receive when the XDP program redirected from another
    /// queue's core (cold descriptor ring, cache-line transfer).
    pub afxdp_remote_rx: Duration,
    /// Parsing a request to find its home partition (ingress thread,
    /// SW-redirect mode only).
    pub parse: Duration,
    /// Enqueueing onto another thread's software queue.
    pub forward_tx: Duration,
    /// Dequeueing from the inter-thread software queue at the home core.
    pub forward_rx: Duration,
    /// Wire→userspace latency component (not CPU occupancy).
    pub delivery_latency: Duration,
    /// Extra latency of one core-to-core hop.
    pub hop_latency: Duration,
}

impl Default for MicaCosts {
    fn default() -> Self {
        MicaCosts {
            process_get: Duration::from_nanos(1_850),
            process_put: Duration::from_nanos(1_950),
            afxdp_local_rx: Duration::from_nanos(560),
            afxdp_remote_rx: Duration::from_nanos(1_010),
            parse: Duration::from_nanos(350),
            forward_tx: Duration::from_nanos(750),
            forward_rx: Duration::from_nanos(700),
            delivery_latency: Duration::from_nanos(1_900),
            hop_latency: Duration::from_nanos(700),
        }
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct MicaConfig {
    /// Server threads (= cores = partitions; the paper: 8).
    pub threads: usize,
    /// UDP port.
    pub port: u16,
    /// Offered load (requests per second).
    pub load_rps: f64,
    /// GET fraction (the rest are PUTs): 0.5 or 0.95 in Figure 9.
    pub get_fraction: f64,
    /// Steering placement.
    pub mode: MicaMode,
    /// Zero-copy AF_XDP (the Intel 82599 XDP_DRV path of §5.4's closing
    /// note). The programmable Netronome NIC of set B forces the generic
    /// copy path (`false`), which is why the figure's absolute numbers sit
    /// below MICA's originals.
    pub zero_copy: bool,
    /// Cost model.
    pub costs: MicaCosts,
    /// Per-thread work-queue capacity.
    pub queue_capacity: usize,
    /// Warm-up interval.
    pub warmup: Duration,
    /// Measured interval.
    pub measure: Duration,
    /// RNG seed.
    pub seed: u64,
}

impl MicaConfig {
    /// The §5.4 setup at a given load and mix.
    pub fn fig9(mode: MicaMode, get_fraction: f64, load_rps: f64, seed: u64) -> Self {
        MicaConfig {
            threads: 8,
            port: 9090,
            load_rps,
            get_fraction,
            mode,
            zero_copy: false,
            costs: MicaCosts::default(),
            queue_capacity: 4096,
            warmup: Duration::from_millis(20),
            measure: Duration::from_millis(120),
            seed,
        }
    }
}

/// Outcome of one run.
#[derive(Debug, Clone)]
pub struct MicaResult {
    /// Latency order statistics (the figure plots p99.9).
    pub latency: LatencySummary,
    /// Completed requests.
    pub completed: u64,
    /// Requests dropped at full queues.
    pub dropped: u64,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    arrival: Time,
    class: RequestClass,
    key_hash: u64,
    measured: bool,
}

#[derive(Debug, Clone, Copy)]
enum Work {
    /// Parse + (maybe) forward at the ingress thread (SW redirect only).
    Ingress(Req),
    /// Process at the home thread; `remote_rx` selects the receive cost.
    Home {
        req: Req,
        remote_rx: bool,
        via_queue: bool,
    },
}

enum Ev {
    Arrival,
    Enqueue { thread: usize, work: Work },
    Done { thread: usize },
}

/// Runs one Figure 9 configuration.
pub fn run(cfg: &MicaConfig) -> MicaResult {
    let mut rng = SimRng::new(cfg.seed);
    let syrupd = Syrupd::new();
    let (app, _maps) = syrupd
        .register_app("mica", &[cfg.port])
        .expect("fresh daemon");

    // Deploy the home-core policy at the hook the mode dictates. The
    // decision logic is identical — that is the portability claim of §5.4.
    let hook = match cfg.mode {
        MicaMode::SwRedirect => None,
        MicaMode::SyrupSw => Some(Hook::XdpSkb),
        MicaMode::SyrupHw => Some(Hook::XdpOffload),
    };
    if let Some(hook) = hook {
        syrupd
            .deploy(
                app,
                hook,
                PolicySource::Native(Box::new(MicaHomePolicy::new(cfg.threads as u32))),
            )
            .expect("deploy mica policy");
        // The executor count could also come from a map (§3.3); create it
        // for parity with the C version even though the native policy
        // carries the count.
        let core_map = syrupd.registry().create(MapDef::u64_array(1));
        let _ = syrupd
            .registry()
            .get(core_map)
            .map(|m| m.update_u64(0, cfg.threads as u64));
    }

    let flows = flow::client_flows(256, cfg.port, &mut rng);
    let toeplitz = Toeplitz;

    // §5.4's closing note: with a zero-copy (XDP_DRV) NIC the AF_XDP
    // receive path sheds its copy, and throughput approaches MICA's
    // original numbers.
    let mut costs = cfg.costs;
    if cfg.zero_copy {
        costs.afxdp_local_rx = Duration::from_nanos(220);
        costs.afxdp_remote_rx = Duration::from_nanos(520);
        costs.delivery_latency = Duration::from_nanos(1_100);
    }
    let cfg = &MicaConfig {
        costs,
        ..cfg.clone()
    };

    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut load = OpenLoop::poisson(cfg.load_rps, cfg.warmup, cfg.measure);
    let mix = ClassMix::new(cfg.get_fraction, RequestClass::Put);
    let mut threads: Vec<SocketBuf<Work>> = (0..cfg.threads)
        .map(|_| SocketBuf::new(cfg.queue_capacity))
        .collect();
    let mut busy = vec![false; cfg.threads];
    let mut recorder = load.recorder();
    let mut dropped: u64 = 0;

    load.schedule_next(&mut rng, &mut queue, Ev::Arrival);

    // One shared template packet, rewritten with each request's key hash;
    // the deployed policy reads only the key-hash field.
    let template = Frame::build(
        &flows[0],
        &AppHeader {
            req_type: 1,
            user_id: 0,
            key_hash: 0,
            req_id: 0,
        },
    );

    drive("mica", &mut queue, |now, ev, q| match ev {
        Ev::Arrival => {
            load.schedule_next(&mut rng, q, Ev::Arrival);
            let class = mix.sample(&mut rng);
            let key_hash = rng.gen_u64();
            let flow = &flows[rng.index(flows.len())];
            let req = Req {
                arrival: now,
                class,
                key_hash,
                measured: load.measured(now),
            };
            // NIC RSS picks the ingress queue, except when the
            // NIC-resident policy picks the RX queue itself.
            let rss_queue = (cfg.mode != MicaMode::SyrupHw)
                .then(|| toeplitz.queue_for(flow, cfg.threads as u32));

            let (thread, work, latency) = match hook {
                None => (
                    rss_queue.expect("RSS steers SW redirect") as usize,
                    Work::Ingress(req),
                    cfg.costs.delivery_latency,
                ),
                Some(hook) => {
                    // The policy redirects to the home thread: from the
                    // RSS queue's core to the home AF_XDP socket (kernel
                    // XDP hook), or straight onto the home core (NIC).
                    let mut frame = template.clone();
                    let pkt = frame.datagram_mut();
                    pkt[20..28].copy_from_slice(&key_hash.to_le_bytes());
                    let meta = HookMeta {
                        now_ns: now.as_nanos(),
                        cpu: 0,
                        rx_queue: rss_queue.unwrap_or(0),
                        dst_port: cfg.port,
                        ..HookMeta::default()
                    };
                    let (_, d) = syrupd.schedule(hook, pkt, &meta);
                    let target = match d {
                        Decision::Executor(i) => i as usize % cfg.threads,
                        _ => (key_hash % cfg.threads as u64) as usize,
                    };
                    let remote_rx = rss_queue.is_some_and(|q| q as usize != target);
                    let work = Work::Home {
                        req,
                        remote_rx,
                        via_queue: false,
                    };
                    let hop = if remote_rx {
                        cfg.costs.hop_latency
                    } else {
                        Duration::ZERO
                    };
                    (target, work, cfg.costs.delivery_latency + hop)
                }
            };
            q.push(now + latency, Ev::Enqueue { thread, work });
        }
        Ev::Enqueue { thread, work } => {
            let measured = match &work {
                Work::Ingress(r) | Work::Home { req: r, .. } => r.measured,
            };
            if threads[thread].push(work) {
                if !busy[thread] {
                    busy[thread] = true;
                    start_next(q, &mut threads, thread, now, cfg);
                }
            } else if measured {
                dropped += 1;
            }
        }
        Ev::Done { thread } => {
            // The item at the head of this thread's queue just
            // finished; act on it.
            let work = threads[thread].pop().expect("a work item was in service");
            match work {
                Work::Ingress(req) => {
                    // Local: process on this thread, modelled as a fresh
                    // enqueue on its own queue. Remote: forward over the
                    // home thread's software queue.
                    let home = (req.key_hash % cfg.threads as u64) as usize;
                    let via_queue = home != thread;
                    let hop = if via_queue {
                        cfg.costs.hop_latency
                    } else {
                        Duration::ZERO
                    };
                    let work = Work::Home {
                        req,
                        remote_rx: false,
                        via_queue,
                    };
                    q.push(now + hop, Ev::Enqueue { thread: home, work });
                }
                Work::Home { req, .. } => {
                    if req.measured {
                        recorder.record(req.arrival, now);
                    }
                }
            }
            if threads[thread].is_empty() {
                busy[thread] = false;
            } else {
                start_next(q, &mut threads, thread, now, cfg);
            }
        }
    });

    MicaResult {
        latency: recorder.summary(),
        completed: recorder.len() as u64,
        dropped,
    }
}

/// Schedules the completion of the head work item on `thread`.
fn start_next(
    queue: &mut EventQueue<Ev>,
    threads: &mut [SocketBuf<Work>],
    thread: usize,
    now: Time,
    cfg: &MicaConfig,
) {
    let Some(work) = threads[thread].peek() else {
        return;
    };
    let cost = match *work {
        Work::Ingress(_) => {
            // Receive + parse (+ forward for the remote case, charged here
            // unconditionally approximating that 7/8 of requests forward).
            cfg.costs.afxdp_local_rx + cfg.costs.parse + cfg.costs.forward_tx
        }
        Work::Home {
            req,
            remote_rx,
            via_queue,
        } => {
            let rx = if via_queue {
                cfg.costs.forward_rx
            } else if remote_rx {
                cfg.costs.afxdp_remote_rx
            } else {
                cfg.costs.afxdp_local_rx
            };
            rx + match req.class {
                RequestClass::Put => cfg.costs.process_put,
                _ => cfg.costs.process_get,
            }
        }
    };
    queue.push(now + cost, Ev::Done { thread });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mode: MicaMode, load: f64) -> MicaResult {
        run(&MicaConfig::fig9(mode, 0.5, load, 3))
    }

    #[test]
    fn low_load_latency_is_microseconds() {
        let r = quick(MicaMode::SyrupHw, 100_000.0);
        assert!(r.completed > 5_000);
        assert_eq!(r.dropped, 0);
        let p50 = r.latency.p50().as_micros_f64();
        assert!((2.0..15.0).contains(&p50), "p50 {p50}us");
    }

    #[test]
    fn capacity_ordering_matches_figure9() {
        // At 2.4 MRPS: SW redirect is saturated, the Syrup modes are not.
        let app = quick(MicaMode::SwRedirect, 2_400_000.0);
        let sw = quick(MicaMode::SyrupSw, 2_400_000.0);
        let hw = quick(MicaMode::SyrupHw, 2_400_000.0);
        let (a, s, h) = (app.latency.p999(), sw.latency.p999(), hw.latency.p999());
        assert!(
            a > Duration::from_millis(1),
            "SW redirect should be saturated at 2.4M (p999 {a})"
        );
        assert!(s < Duration::from_millis(1), "Syrup SW p999 {s}");
        assert!(h < s, "Syrup HW {h} should beat Syrup SW {s}");
    }

    #[test]
    fn syrup_hw_outlasts_syrup_sw() {
        // At 3.0 MRPS: SW nears its knee, HW still comfortable.
        let sw = quick(MicaMode::SyrupSw, 3_000_000.0);
        let hw = quick(MicaMode::SyrupHw, 3_000_000.0);
        assert!(
            hw.latency.p999() < sw.latency.p999(),
            "HW {} vs SW {}",
            hw.latency.p999(),
            sw.latency.p999()
        );
        assert!(hw.latency.p999() < Duration::from_millis(1));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = quick(MicaMode::SyrupSw, 1_000_000.0);
        let b = quick(MicaMode::SyrupSw, 1_000_000.0);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency.p999(), b.latency.p999());
    }

    #[test]
    fn zero_copy_raises_the_knee() {
        // §5.4's closing note: the zero-copy Intel path outperforms the
        // Netronome generic path at the same load.
        let mut zc = MicaConfig::fig9(MicaMode::SyrupHw, 0.5, 3_400_000.0, 4);
        zc.zero_copy = true;
        let copy = run(&MicaConfig::fig9(MicaMode::SyrupHw, 0.5, 3_400_000.0, 4));
        let zero = run(&zc);
        assert!(
            zero.latency.p999() < copy.latency.p999(),
            "zero-copy {} vs generic {}",
            zero.latency.p999(),
            copy.latency.p999()
        );
        assert!(zero.latency.p999() < Duration::from_micros(300));
    }

    #[test]
    fn mix_affects_put_cost() {
        // 95% GET is slightly cheaper than 50% GET near saturation.
        let mostly_get = run(&MicaConfig::fig9(MicaMode::SyrupHw, 0.95, 3_100_000.0, 5));
        let half = run(&MicaConfig::fig9(MicaMode::SyrupHw, 0.5, 3_100_000.0, 5));
        assert!(mostly_get.latency.p999() <= half.latency.p999());
    }
}
