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

/// The centralized scheduler state.
#[derive(Debug)]
pub struct GhostSched {
    params: GhostParams,
    app_cores: Vec<CoreId>,
    /// The core burned by the spinning agent.
    pub agent_core: CoreId,
    /// Thread → class, written by the application layer (§3.4 Map).
    class_map: MapRef,
    /// Keyed by a `BTreeMap` so victim selection in `policy` walks cores
    /// in a fixed order — `HashMap` iteration order made seeded runs
    /// nondeterministic.
    running: BTreeMap<CoreId, ThreadId>,
    runnable: Vec<ThreadId>,
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
        GhostSched {
            params,
            app_cores,
            agent_core,
            class_map,
            running: BTreeMap::new(),
            runnable: Vec::new(),
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

    fn class_of(&self, t: ThreadId) -> u64 {
        self.class_map
            .lookup_u64(t.0)
            .ok()
            .flatten()
            .unwrap_or(class::UNKNOWN)
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
    fn policy(&mut self, decision_at: Time) -> Vec<Assignment> {
        let out = self.policy_classes(decision_at);
        for a in &out {
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
        out
    }

    /// The paper's §5.3 policy: match runnable threads to cores, GETs
    /// first, preempting SCANs when a GET would otherwise wait.
    fn policy_classes(&mut self, decision_at: Time) -> Vec<Assignment> {
        let mut out = Vec::new();
        // Highest priority first: GETs, then unknown, then SCANs.
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
        // Fill idle cores, highest priority first.
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
        // Preempt SCANs for waiting GETs.
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
            self.tracer.instant(
                self.trace_of(victim),
                syrup_observe::trace::Stage::GhostPreempt,
                decision_at.as_nanos(),
                u64::from(core.0),
            );
            out.push(Assignment {
                core,
                thread: get_thread,
                start_at: decision_at + self.params.ipi,
                preempted: Some(victim),
            });
        }
        out
    }
}

impl ThreadScheduler for GhostSched {
    fn app_cores(&self) -> Vec<CoreId> {
        self.app_cores.clone()
    }

    fn thread_ready(&mut self, t: ThreadId, now: Time) -> Vec<Assignment> {
        if self.runnable.contains(&t) || self.running.values().any(|&r| r == t) {
            return Vec::new();
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
        self.runnable.push(t);
        self.policy(decision_at)
    }

    fn thread_stopped(&mut self, t: ThreadId, core: CoreId, now: Time) -> Vec<Assignment> {
        let decision_at = self.agent_process_time(now);
        self.profiler.thread_state(
            u64::from(t.0),
            syrup_observe::profile::ThreadState::Blocked,
            now.as_nanos(),
        );
        self.recorder
            .thread_state(now.as_nanos(), u64::from(t.0), 2);
        if self.running.get(&core) == Some(&t) {
            self.running.remove(&core);
        }
        self.runnable.retain(|&x| x != t);
        self.policy(decision_at)
    }

    fn preempt_check(&mut self, _core: CoreId, _now: Time) -> Vec<Assignment> {
        // Purely event-driven: preemption decisions happen in `policy`.
        Vec::new()
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
        let a1 = s.thread_ready(ThreadId(1), Time::ZERO);
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
        let b = s.thread_ready(ThreadId(2), Time::from_micros(100));
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
