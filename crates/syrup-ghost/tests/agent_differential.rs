//! Differential property test: the ghOSt agent, which keeps its runnable
//! threads in per-class bitsets and one running slot per core, must
//! decide exactly as the policy it replaced, which sorted a keyed `Vec` of
//! runnable threads on every decision and kept its running threads in a
//! `BTreeMap` by core. [`SortAgent`] is that policy, kept here as the
//! oracle only.
//!
//! Scripts are random sequences of wakeups, stops of a running thread on
//! its core, and class-Map writes, over thread ids 0–99 and 1–8 app cores
//! whose ids come in shuffled order, so the order idle cores are filled
//! in (the cores' order) and the order victims are searched in (core id)
//! differ. After every step both agents must have returned the same
//! assignments and agree on preemptions, messages and runnable count.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use syrup_ebpf::maps::{MapDef, MapRef, MapRegistry};
use syrup_ghost::ghost::class;
use syrup_ghost::{Assignment, CoreId, GhostParams, GhostSched, ThreadId, ThreadScheduler};
use syrup_sim::{Duration, Time};

/// Thread ids the scripts use, all held by the class Map.
const THREADS: u32 = 100;

/// The agent as it decided before its bitsets: every decision reads each
/// runnable thread's class, sorts them by (class rank, thread id), fills
/// idle cores in the cores' order and preempts SCANs, searched in core id
/// order, for waiting GETs.
struct SortAgent {
    params: GhostParams,
    app_cores: Vec<CoreId>,
    class_map: MapRef,
    running: BTreeMap<CoreId, ThreadId>,
    runnable: Vec<ThreadId>,
    agent_busy_until: Time,
    messages: u64,
    preemptions: u64,
}

impl SortAgent {
    fn new(cores: Vec<CoreId>, class_map: MapRef, params: GhostParams) -> Self {
        let mut app_cores = cores;
        app_cores.pop();
        SortAgent {
            params,
            app_cores,
            class_map,
            running: BTreeMap::new(),
            runnable: Vec::new(),
            agent_busy_until: Time::ZERO,
            messages: 0,
            preemptions: 0,
        }
    }

    fn class_of(&self, t: ThreadId) -> u64 {
        self.class_map
            .lookup_u64(t.0)
            .ok()
            .flatten()
            .unwrap_or(class::UNKNOWN)
    }

    fn agent_process_time(&mut self, now: Time) -> Time {
        let arrival = now + self.params.message_delay;
        let start = arrival.max(self.agent_busy_until);
        let done = start + self.params.agent_cost;
        self.agent_busy_until = done;
        self.messages += 1;
        done
    }

    fn policy(&mut self, decision_at: Time) -> Vec<Assignment> {
        let mut out = Vec::new();
        let mut keyed: Vec<(u8, ThreadId)> = self
            .runnable
            .iter()
            .map(|&t| {
                let key = match self.class_of(t) {
                    class::GET => 0u8,
                    class::UNKNOWN => 1,
                    _ => 2,
                };
                (key, t)
            })
            .collect();
        keyed.sort_by_key(|&(k, t)| (k, t.0));
        self.runnable = keyed.into_iter().map(|(_, t)| t).collect();
        while let Some(&idle) = self
            .app_cores
            .iter()
            .find(|c| !self.running.contains_key(c))
        {
            if self.runnable.is_empty() {
                break;
            }
            let t = self.runnable.remove(0);
            self.running.insert(idle, t);
            out.push(Assignment {
                core: idle,
                thread: t,
                start_at: decision_at + self.params.ctx_switch,
                preempted: None,
            });
        }
        #[allow(clippy::while_let_loop)] // Two coupled lookups per iteration.
        loop {
            let Some(pos) = self
                .runnable
                .iter()
                .position(|&t| self.class_of(t) == class::GET)
            else {
                break;
            };
            let Some((&core, &victim)) = self
                .running
                .iter()
                .find(|(_, &t)| self.class_of(t) == class::SCAN)
            else {
                break;
            };
            let get_thread = self.runnable.remove(pos);
            self.running.insert(core, get_thread);
            self.runnable.push(victim);
            self.preemptions += 1;
            out.push(Assignment {
                core,
                thread: get_thread,
                start_at: decision_at + self.params.ipi,
                preempted: Some(victim),
            });
        }
        out
    }

    fn thread_ready(&mut self, t: ThreadId, now: Time) -> Vec<Assignment> {
        if self.runnable.contains(&t) || self.running.values().any(|&r| r == t) {
            return Vec::new();
        }
        let decision_at = self.agent_process_time(now);
        self.runnable.push(t);
        self.policy(decision_at)
    }

    fn thread_stopped(&mut self, t: ThreadId, core: CoreId, now: Time) -> Vec<Assignment> {
        let decision_at = self.agent_process_time(now);
        if self.running.get(&core) == Some(&t) {
            self.running.remove(&core);
        }
        self.runnable.retain(|&x| x != t);
        self.policy(decision_at)
    }
}

/// One scripted step, `gap_ns` after the last.
#[derive(Debug, Clone)]
enum Step {
    /// Thread `t` wakes up.
    Ready { t: u32, gap_ns: u64 },
    /// The `pick`-th running thread (modulo how many run) stops on its
    /// core; nothing happens when none runs.
    Stop { pick: usize, gap_ns: u64 },
    /// The application writes `class` for thread `t`.
    Class { t: u32, class: u64 },
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..10, 0u32..THREADS, 0usize..5, any::<u64>()).prop_map(|(kind, t, class, raw)| {
        let gap_ns = raw % 20_000;
        match kind {
            0..=3 => Step::Ready { t, gap_ns },
            4..=6 => Step::Stop {
                pick: raw as usize,
                gap_ns,
            },
            // Mostly the three codes the policy ranks, sometimes another.
            _ => Step::Class {
                t,
                class: [class::UNKNOWN, class::GET, class::SCAN, 3, 7][class],
            },
        }
    })
}

/// `n` app cores and the agent's, in an order drawn from `keys`: the
/// last one listed is the agent's.
fn shuffled_cores(n: usize, keys: &[u64]) -> Vec<CoreId> {
    let mut cores: Vec<(u64, CoreId)> = (0..=n as u32)
        .map(|c| (keys[c as usize], CoreId(c)))
        .collect();
    cores.sort();
    cores.into_iter().map(|(_, c)| c).collect()
}

fn check(cores: Vec<CoreId>, script: &[Step]) -> Result<(), TestCaseError> {
    let maps = MapRegistry::new();
    let class_map = maps
        .get(maps.create(MapDef::u64_array(THREADS)))
        .expect("created");
    let params = GhostParams::default();
    let mut agent = GhostSched::new(cores.clone(), class_map.clone(), params);
    let mut oracle = SortAgent::new(cores, class_map.clone(), params);
    let mut now = Time::ZERO;
    for (i, step) in script.iter().enumerate() {
        let (got, want) = match *step {
            Step::Ready { t, gap_ns } => {
                now += Duration::from_nanos(gap_ns);
                let t = ThreadId(t);
                (
                    agent.thread_ready(t, now).to_vec(),
                    oracle.thread_ready(t, now),
                )
            }
            Step::Stop { pick, gap_ns } => {
                if oracle.running.is_empty() {
                    continue;
                }
                now += Duration::from_nanos(gap_ns);
                let (&core, &t) = oracle
                    .running
                    .iter()
                    .nth(pick % oracle.running.len())
                    .expect("in range");
                (
                    agent.thread_stopped(t, core, now).to_vec(),
                    oracle.thread_stopped(t, core, now),
                )
            }
            Step::Class { t, class } => {
                class_map.update_u64(t, class).expect("in range");
                continue;
            }
        };
        prop_assert_eq!(&got, &want, "step {} ({:?})", i, step);
        prop_assert_eq!(agent.preemptions, oracle.preemptions, "step {}", i);
        prop_assert_eq!(agent.messages, oracle.messages, "step {}", i);
        prop_assert_eq!(agent.runnable_count(), oracle.runnable.len(), "step {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_agent_decides_as_the_sorting_policy(
        n in 1usize..=8,
        keys in prop::collection::vec(any::<u64>(), 9),
        script in prop::collection::vec(step(), 1..300),
    ) {
        check(shuffled_cores(n, &keys), &script)?;
    }
}

/// Few threads on few cores keep every core busy and the runnable set
/// deep, so most decisions preempt or pass over a SCAN.
#[test]
fn a_crowded_agent_decides_as_the_sorting_policy() {
    for case in 0..256 {
        let mut rng = proptest::test_runner::rng_for("crowded", case);
        let n = Strategy::sample(&(1usize..=3), &mut rng);
        let keys = Strategy::sample(&prop::collection::vec(any::<u64>(), 9), &mut rng);
        let script = Strategy::sample(
            &prop::collection::vec(
                step().prop_map(|s| match s {
                    Step::Ready { t, gap_ns } => Step::Ready { t: t % 12, gap_ns },
                    Step::Class { t, class } => Step::Class { t: t % 12, class },
                    stop => stop,
                }),
                1..300,
            ),
            &mut rng,
        );
        if let Err(e) = check(shuffled_cores(n, &keys), &script) {
            panic!("case {case}: {e:?}");
        }
    }
}
