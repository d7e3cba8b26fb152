//! Flow locality via the CPU-redirect hook (paper §2.1's RFS example).
//!
//! §2.1 motivates scheduling *flexibility* with a counter-example to
//! round robin: "Optimizations like Linux's Receive Flow Steering (RFS)
//! that places network processing on the same core as the receiving
//! application would be impossible without hash-based scheduling. A
//! netperf TCP_RR test that uses RFS has been shown to achieve up to 200%
//! higher throughput than one without RFS."
//!
//! This world reproduces that trade: packets are steered to cores for
//! network-stack processing through the CPU-redirect hook. A Syrup
//! RFS-like policy reads a flow→core Map the application maintains and
//! processes each packet on its consumer's core (warm caches, no
//! cross-core handoff); the baseline hashes flows across cores, paying a
//! cold-cache application pass plus an inter-core handoff.

use std::collections::HashMap;

use syrup_core::{Decision, Hook, HookMeta, MapDef, MapRef, PolicySource, Syrupd};
use syrup_net::socket::SocketBuf;
use syrup_policies::RfsPolicy;
use syrup_sim::{drive, Duration, EventQueue, LatencySummary, OpenLoop, SimRng, Time};

/// Steering discipline at the CPU-redirect hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steering {
    /// Hash the flow across cores (no locality).
    Hash,
    /// RFS-like: process on the flow's consumer core, per the shared Map.
    Rfs,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct RfsConfig {
    /// Cores (one application thread each).
    pub cores: usize,
    /// Client flows.
    pub flows: usize,
    /// Offered load (RPS).
    pub load_rps: f64,
    /// Steering discipline.
    pub steering: Steering,
    /// Network-stack processing per packet.
    pub stack_cost: Duration,
    /// Application processing with a warm cache (same core).
    pub app_warm: Duration,
    /// Application processing after a cross-core handoff (cold cache).
    pub app_cold: Duration,
    /// Cross-core handoff cost charged to the consumer core.
    pub handoff: Duration,
    /// Warm-up interval.
    pub warmup: Duration,
    /// Measured interval.
    pub measure: Duration,
    /// RNG seed.
    pub seed: u64,
}

impl RfsConfig {
    /// The netperf-style request/response setup at `load_rps`.
    pub fn netperf(steering: Steering, load_rps: f64, seed: u64) -> Self {
        RfsConfig {
            cores: 4,
            flows: 32,
            load_rps,
            steering,
            stack_cost: Duration::from_nanos(1_500),
            app_warm: Duration::from_nanos(1_500),
            app_cold: Duration::from_nanos(6_000),
            handoff: Duration::from_nanos(2_500),
            warmup: Duration::from_millis(30),
            measure: Duration::from_millis(200),
            seed,
        }
    }
}

/// Outcome of one run.
#[derive(Debug, Clone)]
pub struct RfsResult {
    /// Request latency order statistics.
    pub latency: LatencySummary,
    /// Completed requests.
    pub completed: u64,
    /// Goodput over the measured interval.
    pub throughput_rps: f64,
}

#[derive(Debug, Clone, Copy)]
struct Work {
    arrival: Time,
    flow: u32,
    /// Second stage (application pass) after cross-core handoff.
    app_stage: bool,
    measured: bool,
}

enum Ev {
    Arrival,
    Enqueue { core: usize, work: Work },
    Done { core: usize },
}

/// Runs one configuration.
pub fn run(cfg: &RfsConfig) -> RfsResult {
    let mut rng = SimRng::new(cfg.seed);
    let syrupd = Syrupd::new();
    let (app, maps) = syrupd
        .register_app("netperf", &[4242])
        .expect("fresh daemon");

    // The application maintains flow → consumer-core in a Map; the
    // RFS-like policy is just a lookup (a two-line Syrup policy).
    let flow_core: MapRef = maps
        .create_pinned("flow_core", MapDef::u64_array(4096))
        .expect("create flow map");
    for f in 0..cfg.flows as u32 {
        flow_core
            .update_u64(f, u64::from(f) % cfg.cores as u64)
            .expect("in range");
    }
    if cfg.steering == Steering::Rfs {
        let policy = RfsPolicy::new(flow_core.clone());
        syrupd
            .deploy(
                app,
                Hook::CpuRedirect,
                PolicySource::Native(Box::new(policy)),
            )
            .expect("deploy rfs policy");
    }

    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut load = OpenLoop::poisson(cfg.load_rps, cfg.warmup, cfg.measure);
    let mut cores: Vec<SocketBuf<Work>> = (0..cfg.cores).map(|_| SocketBuf::new(8192)).collect();
    let mut busy = vec![false; cfg.cores];
    let mut recorder = load.recorder();
    // Per-flow hash steering for the baseline/PASS path.
    let flow_hash: HashMap<u32, usize> = (0..cfg.flows as u32)
        .map(|f| (f, (f.wrapping_mul(0x9E37_79B9) >> 16) as usize % cfg.cores))
        .collect();

    load.schedule_next(&mut rng, &mut queue, Ev::Arrival);

    let home_of = |flow: u32| flow_core.lookup_u64(flow).ok().flatten().unwrap_or(0) as usize;
    let cost_of = |work: &Work, core: usize| -> Duration {
        if work.app_stage {
            // The consumer core's pass after a handoff: cold cache.
            cfg.handoff + cfg.app_cold
        } else if core == home_of(work.flow) {
            // Stack + warm application pass fused on one core.
            cfg.stack_cost + cfg.app_warm
        } else {
            // Stack pass only; the application stage is forwarded.
            cfg.stack_cost
        }
    };

    drive("rfs_world", &mut queue, |now, ev, q| match ev {
        Ev::Arrival => {
            load.schedule_next(&mut rng, q, Ev::Arrival);
            let flow = rng.index(cfg.flows) as u32;
            let mut pkt = flow.to_le_bytes().to_vec();
            pkt.extend_from_slice(&[0u8; 28]);
            let meta = HookMeta {
                dst_port: 4242,
                ..HookMeta::default()
            };
            let (_, decision) = syrupd.schedule(Hook::CpuRedirect, &mut pkt, &meta);
            let core = match decision {
                Decision::Executor(c) => c as usize % cfg.cores,
                _ => flow_hash[&flow],
            };
            let work = Work {
                arrival: now,
                flow,
                app_stage: false,
                measured: load.measured(now),
            };
            q.push(now + Duration::from_nanos(900), Ev::Enqueue { core, work });
        }
        Ev::Enqueue { core, work } => {
            if cores[core].push(work) && !busy[core] {
                busy[core] = true;
                q.push(now + cost_of(&work, core), Ev::Done { core });
            }
        }
        Ev::Done { core } => {
            let work = cores[core].pop().expect("in service");
            let home = home_of(work.flow);
            if work.app_stage || core == home {
                // Request finished (either fused warm pass or the
                // post-handoff application pass). Completions after the
                // measurement window (queue drain) are excluded so
                // goodput is not inflated under overload.
                if work.measured && now < load.end() {
                    recorder.record(work.arrival, now);
                }
            } else {
                // Hand off to the consumer's core for the app pass.
                let work = Work {
                    app_stage: true,
                    ..work
                };
                q.push(
                    now + Duration::from_nanos(500),
                    Ev::Enqueue { core: home, work },
                );
            }
            if let Some(next) = cores[core].peek() {
                q.push(now + cost_of(next, core), Ev::Done { core });
            } else {
                busy[core] = false;
            }
        }
    });

    RfsResult {
        latency: recorder.summary(),
        completed: recorder.len() as u64,
        throughput_rps: recorder.len() as f64 / cfg.measure.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(steering: Steering, load: f64) -> RfsResult {
        let mut cfg = RfsConfig::netperf(steering, load, 5);
        cfg.warmup = Duration::from_millis(20);
        cfg.measure = Duration::from_millis(120);
        run(&cfg)
    }

    #[test]
    fn rfs_latency_beats_hash_at_moderate_load() {
        let load = 600_000.0;
        let rfs = quick(Steering::Rfs, load);
        let hash = quick(Steering::Hash, load);
        assert!(
            rfs.latency.p99() < hash.latency.p99(),
            "RFS {} vs hash {}",
            rfs.latency.p99(),
            hash.latency.p99()
        );
    }

    #[test]
    fn rfs_sustains_much_higher_throughput() {
        // Past the hash capacity (~4 cores / 5.5us spread over stages),
        // RFS still completes nearly everything.
        let load = 1_600_000.0;
        let rfs = quick(Steering::Rfs, load);
        let hash = quick(Steering::Hash, load);
        assert!(
            rfs.throughput_rps > 2.0 * hash.throughput_rps,
            "RFS {} vs hash {}",
            rfs.throughput_rps,
            hash.throughput_rps
        );
    }

    #[test]
    fn low_load_both_complete() {
        let rfs = quick(Steering::Rfs, 50_000.0);
        let hash = quick(Steering::Hash, 50_000.0);
        assert!(rfs.completed > 1_000);
        assert!(hash.completed > 1_000);
    }
}
