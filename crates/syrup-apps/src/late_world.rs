//! Early vs late binding (paper §6.3) on the head-of-line workload.
//!
//! Early binding commits each datagram to a socket at arrival; late
//! binding stages datagrams centrally and matches one to a thread when
//! that thread calls `recvmsg` — §6.3's proposed extension. On the
//! Figure 6 mix (99.5% GET / 0.5% SCAN) the difference is the classic
//! d-FCFS vs c-FCFS gap: with early binding a GET can be stuck behind a
//! SCAN on its socket while other threads sit idle; with late binding
//! that cannot happen.

use syrup_core::{Decision, HookMeta, PacketPolicy};
use syrup_net::socket::{Delivery, ReuseportGroup};
use syrup_net::{FifoPick, LateBindingGroup, RequestClass, StackCosts};
use syrup_policies::RoundRobinPolicy;
use syrup_sim::{drive, Duration, EventQueue, LatencySummary, OpenLoop, SimRng, Time};

use crate::frontend::ClassMix;
use crate::rocksdb::RocksDbModel;

/// Binding discipline under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// Commit to a socket at arrival (round-robin, the best early-binding
    /// policy for this homogeneous-thread setup).
    Early,
    /// Stage centrally; bind when a thread becomes available (§6.3).
    Late,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct LateConfig {
    /// Worker threads (= cores).
    pub threads: usize,
    /// Offered load (RPS).
    pub load_rps: f64,
    /// GET fraction (rest are SCANs).
    pub get_fraction: f64,
    /// Binding discipline.
    pub binding: Binding,
    /// Staging/socket capacity.
    pub capacity: usize,
    /// Warm-up, excluded from statistics.
    pub warmup: Duration,
    /// Measured interval.
    pub measure: Duration,
    /// RNG seed.
    pub seed: u64,
}

impl LateConfig {
    /// The Figure 6 workload shape at `load_rps`.
    pub fn fig6_style(binding: Binding, load_rps: f64, seed: u64) -> Self {
        LateConfig {
            threads: 6,
            load_rps,
            get_fraction: 0.995,
            binding,
            capacity: 1536,
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(300),
            seed,
        }
    }
}

/// Outcome of one run.
#[derive(Debug, Clone)]
pub struct LateResult {
    /// Overall latency order statistics.
    pub latency: LatencySummary,
    /// Completed requests.
    pub completed: u64,
    /// Dropped requests (full buffers).
    pub dropped: u64,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    arrival: Time,
    service: Duration,
    measured: bool,
}

enum Ev {
    Arrival,
    Deliver(Req),
    Complete { thread: usize },
}

/// Per-request syscall work on the worker.
const OVERHEAD: Duration = Duration::from_micros(2);

/// `thread` starts serving `req` at `now`.
fn start(inflight: &mut [Option<Req>], q: &mut EventQueue<Ev>, now: Time, thread: usize, req: Req) {
    inflight[thread] = Some(req);
    q.push(now + OVERHEAD + req.service, Ev::Complete { thread });
}

/// Runs one configuration.
pub fn run(cfg: &LateConfig) -> LateResult {
    let mut rng = SimRng::new(cfg.seed);
    let model = RocksDbModel::default();
    let stack = StackCosts::default();
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut load = OpenLoop::poisson(cfg.load_rps, cfg.warmup, cfg.measure);
    let mix = ClassMix::new(cfg.get_fraction, RequestClass::Scan);

    let mut early: ReuseportGroup<Req> = ReuseportGroup::new(cfg.threads, cfg.capacity);
    let mut early_policy = RoundRobinPolicy::new(cfg.threads as u32);
    let mut late: LateBindingGroup<Req> = LateBindingGroup::new(cfg.capacity, Box::new(FifoPick));

    let mut recorder = load.recorder();
    let mut dropped = 0u64;
    // The request each thread is serving (None = idle).
    let mut inflight: Vec<Option<Req>> = vec![None; cfg.threads];

    load.schedule_next(&mut rng, &mut queue, Ev::Arrival);

    drive("late_world", &mut queue, |now, ev, q| match ev {
        Ev::Arrival => {
            load.schedule_next(&mut rng, q, Ev::Arrival);
            let class = mix.sample(&mut rng);
            let req = Req {
                arrival: now,
                service: model.sample(class, &mut rng),
                measured: load.measured(now),
            };
            q.push(now + stack.standard_rx_latency(), Ev::Deliver(req));
        }
        Ev::Deliver(req) => match cfg.binding {
            Binding::Early => {
                let decision = match early_policy.schedule(&mut [], &HookMeta::default()) {
                    d @ Decision::Executor(_) => d,
                    _ => Decision::Pass,
                };
                match early.deliver(req, 0, decision) {
                    Delivery::Enqueued(thread) => {
                        if inflight[thread].is_none() {
                            if let Some(r) = early.recv(thread) {
                                start(&mut inflight, q, now, thread, r);
                            }
                        }
                    }
                    Delivery::Dropped { .. } => {
                        if req.measured {
                            dropped += 1;
                        }
                    }
                }
            }
            Binding::Late => {
                if !late.stage(req) {
                    if req.measured {
                        dropped += 1;
                    }
                } else if let Some(thread) = inflight.iter().position(Option::is_none) {
                    let r = late.pull(thread as u32).expect("just staged");
                    start(&mut inflight, q, now, thread, r);
                }
            }
        },
        Ev::Complete { thread } => {
            let done = inflight[thread]
                .take()
                .expect("thread had an in-flight request");
            if done.measured {
                recorder.record(done.arrival, now);
            }
            let next = match cfg.binding {
                Binding::Early => early.recv(thread),
                Binding::Late => late.pull(thread as u32),
            };
            if let Some(r) = next {
                start(&mut inflight, q, now, thread, r);
            }
        }
    });

    LateResult {
        latency: recorder.summary(),
        completed: recorder.len() as u64,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(binding: Binding, load: f64) -> LateResult {
        let mut cfg = LateConfig::fig6_style(binding, load, 9);
        cfg.warmup = Duration::from_millis(20);
        cfg.measure = Duration::from_millis(150);
        run(&cfg)
    }

    #[test]
    fn late_binding_beats_early_on_the_tail() {
        let load = 200_000.0;
        let early = quick(Binding::Early, load);
        let late = quick(Binding::Late, load);
        assert!(
            late.latency.p99() < early.latency.p99(),
            "late {} vs early {}",
            late.latency.p99(),
            early.latency.p99()
        );
    }

    #[test]
    fn both_disciplines_complete_offered_load_when_underloaded() {
        let early = quick(Binding::Early, 50_000.0);
        let late = quick(Binding::Late, 50_000.0);
        assert_eq!(early.dropped, 0);
        assert_eq!(late.dropped, 0);
        let ratio = early.completed as f64 / late.completed.max(1) as f64;
        assert!((0.9..1.1).contains(&ratio));
    }
}
