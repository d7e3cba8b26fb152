//! The ghOSt-style centralized scheduler with a Syrup thread policy.
//!
//! ghOSt forwards thread state changes to a *spinning userspace agent*
//! over a message queue; the agent runs the policy and commits decisions
//! back via syscalls, which the kernel enforces with IPIs to the target
//! cores (§4.1). Three costs of that architecture matter for Figure 8 and
//! are modelled explicitly:
//!
//! 1. the agent occupies a whole core ("only five cores can be used for
//!    application processing; one is reserved for the spinning ghOSt
//!    agent"),
//! 2. messages serialize through the agent (queueing delay under load),
//! 3. preemptions pay an IPI + context switch before the new thread runs.
//!
//! The deployed policy is the paper's §5.3 one: strict priority for
//! threads processing GETs, "preempting at will threads processing SCAN
//! requests", with the GET/SCAN classification read from an
//! application-populated Map — Syrup's cross-layer communication in
//! action.

use std::collections::BTreeMap;

use syrup_ebpf::maps::MapRef;
use syrup_sim::{Duration, Time};

use crate::{Assignment, CoreId, ThreadId, ThreadScheduler};

/// Request-class codes stored in the thread-class Map.
pub mod class {
    /// Thread is idle / class unknown.
    pub const UNKNOWN: u64 = 0;
    /// Thread is processing (or about to process) a GET.
    pub const GET: u64 = 1;
    /// Thread is processing a SCAN.
    pub const SCAN: u64 = 2;
}

/// Cost parameters of the ghOSt machinery.
#[derive(Debug, Clone, Copy)]
pub struct GhostParams {
    /// Kernel → agent message latency.
    pub message_delay: Duration,
    /// Agent processing cost per message (the spinning thread's loop).
    pub agent_cost: Duration,
    /// IPI delivery + remote context switch for a preemption.
    pub ipi: Duration,
    /// Plain dispatch context switch (no IPI needed).
    pub ctx_switch: Duration,
}

impl Default for GhostParams {
    fn default() -> Self {
        GhostParams {
            message_delay: Duration::from_nanos(1_000),
            agent_cost: Duration::from_nanos(600),
            ipi: Duration::from_micros(5),
            ctx_switch: Duration::from_micros(2),
        }
    }
}

/// The runnable threads, one bit per thread id, kept in the word of the
/// class rank ([`rank`]) the agent last read for the thread. Each entry
/// holds the three ranks' words for 64 ids; the vector grows to the
/// largest id seen.
#[derive(Debug, Default)]
struct Runnable {
    words: Vec<[u64; RANKS]>,
}

/// Class ranks, highest priority first: GET, unknown, then the rest.
const RANKS: usize = 3;

/// The pick order of a thread serving `class`.
fn rank(class: u64) -> usize {
    match class {
        class::GET => 0,
        class::UNKNOWN => 1,
        _ => 2,
    }
}

impl Runnable {
    fn split(t: ThreadId) -> (usize, u64) {
        (t.0 as usize / 64, 1 << (t.0 % 64))
    }

    fn contains(&self, t: ThreadId) -> bool {
        let (w, bit) = Self::split(t);
        self.words
            .get(w)
            .is_some_and(|ranks| ranks.iter().any(|&r| r & bit != 0))
    }

    fn insert(&mut self, t: ThreadId, rank: usize) {
        let (w, bit) = Self::split(t);
        if self.words.len() <= w {
            self.words.resize(w + 1, [0; RANKS]);
        }
        self.words[w][rank] |= bit;
    }

    fn remove(&mut self, t: ThreadId) {
        let (w, bit) = Self::split(t);
        if let Some(ranks) = self.words.get_mut(w) {
            for r in ranks {
                *r &= !bit;
            }
        }
    }

    fn len(&self) -> usize {
        let ones = self.words.iter().flatten().map(|r| r.count_ones());
        ones.sum::<u32>() as usize
    }

    /// Moves every thread to the word of `rank_of(thread)`: one call per
    /// runnable thread.
    fn regroup(&mut self, mut rank_of: impl FnMut(ThreadId) -> usize) {
        for (w, ranks) in self.words.iter_mut().enumerate() {
            let mut all = ranks.iter().fold(0, |all, r| all | r);
            *ranks = [0; RANKS];
            while all != 0 {
                let b = all.trailing_zeros();
                all &= all - 1;
                let t = ThreadId(w as u32 * 64 + b);
                ranks[rank_of(t)] |= 1 << b;
            }
        }
    }

    /// Whether a thread of `rank` is runnable.
    fn has(&self, rank: usize) -> bool {
        self.words.iter().any(|ranks| ranks[rank] != 0)
    }

    /// Takes the lowest thread id of `rank`.
    fn pop(&mut self, rank: usize) -> Option<ThreadId> {
        let (w, ranks) = self
            .words
            .iter_mut()
            .enumerate()
            .find(|(_, ranks)| ranks[rank] != 0)?;
        let b = ranks[rank].trailing_zeros();
        ranks[rank] &= ranks[rank] - 1;
        Some(ThreadId(w as u32 * 64 + b))
    }

    /// Takes the first thread in (rank, id) order.
    fn pop_first(&mut self) -> Option<ThreadId> {
        (0..RANKS).find_map(|rank| self.pop(rank))
    }
}

/// The centralized scheduler state.
#[derive(Debug)]
pub struct GhostSched {
    params: GhostParams,
    app_cores: Vec<CoreId>,
    /// The core burned by the spinning agent.
    pub agent_core: CoreId,
    /// Thread → class, written by the application layer (§3.4 Map).
    class_map: MapRef,
    /// One `(core, running thread)` slot per distinct app core, in
    /// `app_cores` order: the order idle cores are filled in.
    running: Vec<(CoreId, Option<ThreadId>)>,
    /// `running`'s slots by ascending core id: the order victims are
    /// searched in, fixed so seeded runs stay deterministic.
    victim_order: Vec<usize>,
    runnable: Runnable,
    /// The current decision's assignments, lent out by the
    /// [`ThreadScheduler`] calls.
    out: Vec<Assignment>,
    /// When the agent finishes its current message backlog.
    agent_busy_until: Time,
    /// Total messages processed (diagnostics).
    pub messages: u64,
    /// Total preemptions issued (diagnostics).
    pub preemptions: u64,
    tracer: syrup_observe::trace::Tracer,
    profiler: syrup_observe::profile::Profiler,
    recorder: syrup_observe::blackbox::Recorder,
    /// Trace context of the request each thread is serving, set by the
    /// application via [`GhostSched::set_thread_trace`].
    thread_trace: BTreeMap<u32, syrup_observe::trace::TraceCtx>,
}

impl GhostSched {
    /// Creates the scheduler: `cores` are the machine's cores; the last
    /// one is taken by the agent and the rest host application threads.
    ///
    /// `class_map` is the Map the application populates with each
    /// thread's current request class (key = thread id).
    pub fn new(cores: Vec<CoreId>, class_map: MapRef, params: GhostParams) -> Self {
        assert!(cores.len() >= 2, "ghOSt needs an agent core plus app cores");
        let mut app_cores = cores;
        let agent_core = app_cores.pop().expect("nonempty");
        let mut running: Vec<(CoreId, Option<ThreadId>)> = Vec::new();
        for &core in &app_cores {
            if running.iter().all(|&(c, _)| c != core) {
                running.push((core, None));
            }
        }
        let mut victim_order: Vec<usize> = (0..running.len()).collect();
        victim_order.sort_by_key(|&slot| running[slot].0);
        GhostSched {
            params,
            app_cores,
            agent_core,
            class_map,
            running,
            victim_order,
            runnable: Runnable::default(),
            out: Vec::new(),
            agent_busy_until: Time::ZERO,
            messages: 0,
            preemptions: 0,
            tracer: syrup_observe::trace::Tracer::disabled(),
            profiler: syrup_observe::profile::Profiler::disabled(),
            recorder: syrup_observe::blackbox::Recorder::disabled(),
            thread_trace: BTreeMap::new(),
        }
    }

    /// Starts feeding the pressure profiler: per-thread time-in-state
    /// (runnable on wakeup, running at dispatch, blocked on stop),
    /// scheduling-latency samples (wakeup → agent decision), and
    /// starvation events when a thread sat runnable past the profiler's
    /// threshold before being served.
    pub fn attach_profiler(&mut self, profiler: &syrup_observe::profile::Profiler) {
        self.profiler = profiler.clone();
    }

    /// Streams thread state changes into the flight recorder
    /// ([`syrup_observe::blackbox::Layer::Ghost`]; state 0 runnable, 1 running,
    /// 2 blocked), mirroring the transitions the pressure profiler
    /// aggregates.
    pub fn attach_blackbox(&mut self, recorder: &syrup_observe::blackbox::Recorder) {
        self.recorder = recorder.clone();
    }

    /// Starts recording the agent pipeline onto request timelines:
    /// `ghost-enqueue` (wakeup message → agent decision), `ghost-dispatch`
    /// (decision → thread running, covering ctx-switch/IPI cost), and a
    /// `ghost-preempt` instant on the victim's timeline.
    pub fn attach_tracer(&mut self, tracer: &syrup_observe::trace::Tracer) {
        self.tracer = tracer.clone();
    }

    /// Associates `thread` with the trace context of the request it is
    /// (about to be) serving. Subsequent agent decisions about the thread
    /// land on that request's timeline; pass
    /// [`syrup_observe::trace::TraceCtx::none`] to detach.
    pub fn set_thread_trace(&mut self, thread: ThreadId, ctx: syrup_observe::trace::TraceCtx) {
        if ctx.is_traced() {
            self.thread_trace.insert(thread.0, ctx);
        } else {
            self.thread_trace.remove(&thread.0);
        }
    }

    fn trace_of(&self, thread: ThreadId) -> syrup_observe::trace::TraceCtx {
        self.thread_trace
            .get(&thread.0)
            .copied()
            .unwrap_or_default()
    }

    /// Models the agent serialization: a message arriving now is handled
    /// after the queue drains, costing one loop iteration.
    fn agent_process_time(&mut self, now: Time) -> Time {
        let arrival = now + self.params.message_delay;
        let start = arrival.max(self.agent_busy_until);
        let done = start + self.params.agent_cost;
        self.agent_busy_until = done;
        self.messages += 1;
        done
    }

    /// Runs the deployed policy and performs the shared bookkeeping
    /// (dispatch traces, thread-state samples).
    fn policy(&mut self, decision_at: Time) -> &[Assignment] {
        self.policy_classes(decision_at);
        for a in &self.out {
            self.tracer.span_arg(
                self.trace_of(a.thread),
                syrup_observe::trace::Stage::GhostDispatch,
                decision_at.as_nanos(),
                a.start_at.as_nanos(),
                u64::from(a.core.0),
            );
            self.profiler.thread_state(
                u64::from(a.thread.0),
                syrup_observe::profile::ThreadState::Running,
                a.start_at.as_nanos(),
            );
            self.recorder
                .thread_state(a.start_at.as_nanos(), u64::from(a.thread.0), 1);
            if let Some(victim) = a.preempted {
                self.profiler.thread_state(
                    u64::from(victim.0),
                    syrup_observe::profile::ThreadState::Runnable,
                    a.start_at.as_nanos(),
                );
                self.recorder
                    .thread_state(a.start_at.as_nanos(), u64::from(victim.0), 0);
            }
        }
        &self.out
    }

    /// The paper's §5.3 policy: match runnable threads to cores, GETs
    /// first, preempting SCANs when a GET would otherwise wait. Fills
    /// `out`.
    fn policy_classes(&mut self, decision_at: Time) {
        self.out.clear();
        // Highest priority first: GETs, then unknown, then SCANs, each by
        // thread id.
        let class_map = &self.class_map;
        self.runnable.regroup(|t| rank(class_of(class_map, t)));
        // Fill idle cores, highest priority first.
        for (core, slot) in &mut self.running {
            if slot.is_some() {
                continue;
            }
            let Some(t) = self.runnable.pop_first() else {
                break;
            };
            *slot = Some(t);
            self.out.push(Assignment {
                core: *core,
                thread: t,
                start_at: decision_at + self.params.ctx_switch,
                preempted: None,
            });
        }
        // Preempt SCANs for waiting GETs. A core passed over holds no
        // SCAN, and a preempted one now runs a GET, so each search picks
        // up after the last victim.
        let mut searched = 0;
        while self.runnable.has(rank(class::GET)) {
            let found = self.victim_order[searched..].iter().position(|&slot| {
                let t = self.running[slot].1;
                t.is_some_and(|t| class_of(&self.class_map, t) == class::SCAN)
            });
            let Some(at) = found else {
                break;
            };
            searched += at + 1;
            let (core, running) = &mut self.running[self.victim_order[searched - 1]];
            let core = *core;
            let get_thread = self.runnable.pop(rank(class::GET)).expect("has a GET");
            let victim = running.replace(get_thread).expect("a SCAN runs here");
            self.runnable.insert(victim, rank(class::SCAN));
            self.preemptions += 1;
            self.tracer.instant(
                self.trace_of(victim),
                syrup_observe::trace::Stage::GhostPreempt,
                decision_at.as_nanos(),
                u64::from(core.0),
            );
            self.out.push(Assignment {
                core,
                thread: get_thread,
                start_at: decision_at + self.params.ipi,
                preempted: Some(victim),
            });
        }
    }
}

/// The class `class_map` holds for `t`: [`class::UNKNOWN`] when it holds
/// none.
fn class_of(class_map: &MapRef, t: ThreadId) -> u64 {
    class_map
        .lookup_u64(t.0)
        .ok()
        .flatten()
        .unwrap_or(class::UNKNOWN)
}

impl ThreadScheduler for GhostSched {
    fn app_cores(&self) -> Vec<CoreId> {
        self.app_cores.clone()
    }

    fn thread_ready(&mut self, t: ThreadId, now: Time) -> &[Assignment] {
        if self.runnable.contains(t) || self.running.iter().any(|&(_, r)| r == Some(t)) {
            return &[];
        }
        let decision_at = self.agent_process_time(now);
        self.tracer.span(
            self.trace_of(t),
            syrup_observe::trace::Stage::GhostEnqueue,
            now.as_nanos(),
            decision_at.as_nanos(),
        );
        self.profiler.thread_state(
            u64::from(t.0),
            syrup_observe::profile::ThreadState::Runnable,
            now.as_nanos(),
        );
        self.recorder
            .thread_state(now.as_nanos(), u64::from(t.0), 0);
        self.profiler
            .sched_latency(decision_at.since(now).as_nanos());
        // The decision reads its class before it is picked.
        self.runnable.insert(t, rank(class::UNKNOWN));
        self.policy(decision_at)
    }

    fn thread_stopped(&mut self, t: ThreadId, core: CoreId, now: Time) -> &[Assignment] {
        let decision_at = self.agent_process_time(now);
        self.profiler.thread_state(
            u64::from(t.0),
            syrup_observe::profile::ThreadState::Blocked,
            now.as_nanos(),
        );
        self.recorder
            .thread_state(now.as_nanos(), u64::from(t.0), 2);
        if let Some((_, running)) = self.running.iter_mut().find(|(c, _)| *c == core) {
            if *running == Some(t) {
                *running = None;
            }
        }
        self.runnable.remove(t);
        self.policy(decision_at)
    }

    fn preempt_check(&mut self, _core: CoreId, _now: Time) -> &[Assignment] {
        // Purely event-driven: preemption decisions happen in `policy`.
        &[]
    }

    fn timeslice(&self) -> Option<Duration> {
        None
    }

    fn runnable_count(&self) -> usize {
        self.runnable.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrup_ebpf::maps::{MapDef, MapRegistry};

    fn setup(n_cores: u32) -> (GhostSched, MapRef) {
        let reg = MapRegistry::new();
        let map = reg.get(reg.create(MapDef::u64_array(64))).unwrap();
        let sched = GhostSched::new(
            (0..n_cores).map(CoreId).collect(),
            map.clone(),
            GhostParams::default(),
        );
        (sched, map)
    }

    #[test]
    fn agent_takes_the_last_core() {
        let (s, _) = setup(6);
        assert_eq!(s.agent_core, CoreId(5));
        assert_eq!(s.app_cores().len(), 5);
    }

    #[test]
    fn assignments_include_agent_latency() {
        let (mut s, _) = setup(2);
        let a = s.thread_ready(ThreadId(1), Time::ZERO);
        assert_eq!(a.len(), 1);
        // message delay + agent cost + ctx switch.
        let expected = Duration::from_nanos(1_000 + 600 + 2_000);
        assert_eq!(a[0].start_at, Time::ZERO + expected);
    }

    #[test]
    fn messages_queue_at_the_agent() {
        let (mut s, _) = setup(4);
        let a1 = s.thread_ready(ThreadId(1), Time::ZERO).to_vec();
        let a2 = s.thread_ready(ThreadId(2), Time::ZERO);
        // The second decision lands one agent-cost later than the first.
        assert!(a2[0].start_at > a1[0].start_at);
        assert_eq!(s.messages, 2);
    }

    #[test]
    fn get_preempts_scan() {
        let (mut s, map) = setup(2); // one app core + agent
        map.update_u64(1, class::SCAN).unwrap();
        map.update_u64(2, class::GET).unwrap();
        let a = s.thread_ready(ThreadId(1), Time::ZERO);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].preempted, None);

        // The GET arrives while the SCAN occupies the only app core.
        let b = s.thread_ready(ThreadId(2), Time::from_micros(100)).to_vec();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].thread, ThreadId(2));
        assert_eq!(b[0].preempted, Some(ThreadId(1)));
        assert_eq!(s.preemptions, 1);
        // The preempted SCAN waits in the runnable pool.
        assert_eq!(s.runnable_count(), 1);
        // IPI cost applies.
        assert!(b[0].start_at.since(Time::from_micros(100)) >= Duration::from_micros(5));
    }

    #[test]
    fn scan_does_not_preempt_get() {
        let (mut s, map) = setup(2);
        map.update_u64(1, class::GET).unwrap();
        map.update_u64(2, class::SCAN).unwrap();
        s.thread_ready(ThreadId(1), Time::ZERO);
        let b = s.thread_ready(ThreadId(2), Time::from_micros(10));
        assert!(b.is_empty(), "SCAN must wait");
        assert_eq!(s.preemptions, 0);
    }

    #[test]
    fn gets_win_idle_cores_over_scans() {
        let (mut s, map) = setup(3); // two app cores
        map.update_u64(1, class::SCAN).unwrap();
        map.update_u64(2, class::SCAN).unwrap();
        map.update_u64(3, class::GET).unwrap();
        // Occupy both cores with SCANs… but deliver all wakeups in one
        // burst so the agent decides with full information.
        s.thread_ready(ThreadId(1), Time::ZERO);
        s.thread_ready(ThreadId(2), Time::ZERO);
        let c = s.thread_ready(ThreadId(3), Time::ZERO);
        // The GET preempts one of the SCANs.
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].thread, ThreadId(3));
        assert!(c[0].preempted.is_some());
    }

    #[test]
    fn stopped_thread_frees_core_for_waiters() {
        let (mut s, map) = setup(2);
        map.update_u64(1, class::GET).unwrap();
        map.update_u64(2, class::GET).unwrap();
        s.thread_ready(ThreadId(1), Time::ZERO);
        assert!(s.thread_ready(ThreadId(2), Time::ZERO).is_empty());
        let a = s.thread_stopped(ThreadId(1), CoreId(0), Time::from_micros(15));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].thread, ThreadId(2));
    }

    #[test]
    fn profiler_tracks_time_in_state_and_starvation() {
        let profiler = syrup_observe::profile::Profiler::new();
        let (mut s, map) = setup(2); // one app core + agent
        s.attach_profiler(&profiler);
        map.update_u64(1, class::SCAN).unwrap();
        map.update_u64(2, class::GET).unwrap();

        // SCAN occupies the core; the GET preempts it and holds the core
        // past the starvation threshold; the GET finishes.
        let stop = Time::from_nanos(2 * syrup_observe::profile::STARVATION_NS);
        s.thread_ready(ThreadId(1), Time::ZERO);
        s.thread_ready(ThreadId(2), Time::from_micros(100));
        s.thread_stopped(ThreadId(2), CoreId(0), stop);

        let p = profiler.pressure();
        // Both threads went through runnable → running; the GET also
        // blocked at the end.
        assert_eq!(p.threads.len(), 2);
        let t2 = p.threads.iter().find(|t| t.tid == 2).unwrap();
        assert!(t2.runnable_ns > 0, "wakeup → dispatch counts as runnable");
        assert!(t2.running_ns > 0, "dispatch → stop counts as running");
        // The preempted SCAN waited runnable until the GET stopped: only
        // its resumption flags starvation.
        assert_eq!(p.starvation.len(), 1);
        assert_eq!(p.starvation[0].tid, 1);
        assert!(p.threads.iter().any(|t| t.starved));
        // One scheduling-latency sample per wakeup message.
        assert_eq!(p.sched_latency.samples, 2);
        assert!(p.sched_latency.mean_ns >= 1_600.0);
    }

    #[test]
    fn blackbox_records_thread_state_changes() {
        use syrup_observe::blackbox::{EventKind, Layer, Recorder};
        let rec = Recorder::new();
        let (mut s, map) = setup(2); // one app core + agent
        s.attach_blackbox(&rec);
        map.update_u64(1, class::SCAN).unwrap();
        map.update_u64(2, class::GET).unwrap();

        // SCAN occupies the core; the GET preempts it; the GET finishes.
        s.thread_ready(ThreadId(1), Time::ZERO);
        s.thread_ready(ThreadId(2), Time::from_micros(100));
        s.thread_stopped(ThreadId(2), CoreId(0), Time::from_micros(200));

        let events = rec.events(Layer::Ghost);
        assert!(events.iter().all(|e| e.kind == EventKind::ThreadState));
        // Thread 1: runnable, running, runnable (preempted by the GET),
        // running again once the GET stops and the core frees.
        let t1: Vec<u32> = events.iter().filter(|e| e.w0 == 1).map(|e| e.aux).collect();
        assert_eq!(t1, vec![0, 1, 0, 1]);
        // Thread 2: runnable, running (preempting), blocked.
        let t2: Vec<u32> = events.iter().filter(|e| e.w0 == 2).map(|e| e.aux).collect();
        assert_eq!(t2, vec![0, 1, 2]);
        assert!(events.iter().any(|e| e.at_ns >= 200_000));
    }

    /// Thread ids need not fit a 64-bit word, nor the class Map: a thread
    /// the Map holds no class for ranks as unknown.
    #[test]
    fn thread_ids_past_one_word_and_past_the_map_are_scheduled() {
        let (mut s, map) = setup(2); // one app core + agent
        let a = s.thread_ready(ThreadId(100), Time::ZERO).to_vec();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].thread, ThreadId(100));
        map.update_u64(63, class::SCAN).unwrap();
        for t in [200, 63, 70] {
            assert!(s.thread_ready(ThreadId(t), Time::ZERO).is_empty());
        }
        assert_eq!(s.runnable_count(), 3);
        // Unknowns before SCANs, each by thread id.
        let mut order = Vec::new();
        let mut running = ThreadId(100);
        for _ in 0..3 {
            let next = s.thread_stopped(running, CoreId(0), Time::from_micros(10));
            running = next[0].thread;
            order.push(running.0);
        }
        assert_eq!(order, vec![70, 200, 63]);
        assert_eq!(s.runnable_count(), 0);
    }

    #[test]
    fn preempted_scan_resumes_when_core_frees() {
        let (mut s, map) = setup(2);
        map.update_u64(1, class::SCAN).unwrap();
        map.update_u64(2, class::GET).unwrap();
        s.thread_ready(ThreadId(1), Time::ZERO);
        s.thread_ready(ThreadId(2), Time::from_micros(50)); // preempts
        let a = s.thread_stopped(ThreadId(2), CoreId(0), Time::from_micros(70));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].thread, ThreadId(1), "SCAN resumes");
    }
}
