//! A simplified Completely Fair Scheduler.
//!
//! The model keeps CFS's essential behaviours for the Figure 8 workload —
//! per-core runqueues ordered by virtual runtime, wake placement onto idle
//! cores (else the least-loaded runqueue), and time-slice preemption at
//! millisecond granularity — while omitting what the experiment does not
//! exercise (nice levels, cgroups, load-balancer heuristics). The one
//! property that drives the paper's result is faithfully preserved: CFS
//! knows nothing about *what* a thread is doing, so a 700µs SCAN keeps its
//! core until its slice expires even while 10µs GETs queue behind it.

use std::collections::HashMap;

use syrup_sim::{Duration, Time};

use crate::{Assignment, CoreId, ThreadId, ThreadScheduler};

/// Tunables for the CFS model.
#[derive(Debug, Clone, Copy)]
pub struct CfsParams {
    /// Preemption granularity (Linux `sched_min_granularity` scale).
    pub slice: Duration,
    /// Context-switch cost applied to every dispatch.
    pub ctx_switch: Duration,
}

impl Default for CfsParams {
    fn default() -> Self {
        CfsParams {
            slice: Duration::from_millis(1),
            ctx_switch: Duration::from_micros(2),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Sleeping,
    Queued(CoreId),
    Running(CoreId),
}

/// The scheduler state.
#[derive(Debug)]
pub struct CfsSched {
    params: CfsParams,
    cores: Vec<CoreId>,
    /// Per-core: currently running thread and when it started.
    running: HashMap<CoreId, (ThreadId, Time)>,
    /// Per-core runqueues (kept sorted by vruntime on demand).
    queues: HashMap<CoreId, Vec<ThreadId>>,
    vruntime: HashMap<ThreadId, u64>,
    state: HashMap<ThreadId, TState>,
    /// The last decision's assignment, lent out by the
    /// [`ThreadScheduler`] calls.
    out: Option<Assignment>,
}

impl CfsSched {
    /// Creates a CFS over `cores`.
    pub fn new(cores: Vec<CoreId>, params: CfsParams) -> Self {
        let queues = cores.iter().map(|&c| (c, Vec::new())).collect();
        CfsSched {
            params,
            cores,
            running: HashMap::new(),
            queues,
            vruntime: HashMap::new(),
            state: HashMap::new(),
            out: None,
        }
    }

    fn min_vruntime(&self, core: CoreId) -> Option<ThreadId> {
        self.queues[&core]
            .iter()
            .copied()
            .min_by_key(|t| self.vruntime.get(t).copied().unwrap_or(0))
    }

    fn account(&mut self, t: ThreadId, started: Time, now: Time) {
        let ran = now.since(started).as_nanos();
        *self.vruntime.entry(t).or_insert(0) += ran;
    }

    /// Runs `t` on `core` and lends out that one assignment.
    fn dispatch(
        &mut self,
        core: CoreId,
        t: ThreadId,
        now: Time,
        preempted: Option<ThreadId>,
    ) -> &[Assignment] {
        let start_at = now + self.params.ctx_switch;
        self.running.insert(core, (t, start_at));
        self.state.insert(t, TState::Running(core));
        self.out = Some(Assignment {
            core,
            thread: t,
            start_at,
            preempted,
        });
        self.out.as_slice()
    }
}

impl ThreadScheduler for CfsSched {
    fn app_cores(&self) -> Vec<CoreId> {
        self.cores.clone()
    }

    fn thread_ready(&mut self, t: ThreadId, now: Time) -> &[Assignment] {
        match self.state.get(&t) {
            Some(TState::Queued(_)) | Some(TState::Running(_)) => return &[],
            _ => {}
        }
        // Wake placement: an idle core if one exists…
        if let Some(&idle) = self.cores.iter().find(|c| !self.running.contains_key(c)) {
            // A newly woken thread inherits the smallest vruntime in the
            // system so it is not starved (CFS clamps to min_vruntime).
            let min_v = self.vruntime.values().copied().min().unwrap_or(0);
            let v = self.vruntime.entry(t).or_insert(0);
            *v = (*v).max(min_v);
            return self.dispatch(idle, t, now, None);
        }
        // …else the shortest runqueue. No wake preemption: CFS is request-
        // type-oblivious, and at equal weights a running thread keeps its
        // slice.
        let core = *self
            .cores
            .iter()
            .min_by_key(|c| self.queues[c].len())
            .expect("at least one core");
        self.queues.get_mut(&core).expect("known core").push(t);
        self.state.insert(t, TState::Queued(core));
        &[]
    }

    fn thread_stopped(&mut self, t: ThreadId, core: CoreId, now: Time) -> &[Assignment] {
        if let Some((running, started)) = self.running.remove(&core) {
            debug_assert_eq!(running, t, "stopped thread was not running there");
            self.account(t, started, now);
        }
        self.state.insert(t, TState::Sleeping);
        match self.min_vruntime(core) {
            Some(next) => {
                self.queues
                    .get_mut(&core)
                    .expect("known core")
                    .retain(|&x| x != next);
                self.dispatch(core, next, now, None)
            }
            None => &[],
        }
    }

    fn preempt_check(&mut self, core: CoreId, now: Time) -> &[Assignment] {
        let Some(&(current, started)) = self.running.get(&core) else {
            return &[];
        };
        // Only preempt when the slice is actually used up.
        if now.since(started) < self.params.slice {
            return &[];
        }
        let Some(next) = self.min_vruntime(core) else {
            return &[];
        };
        self.account(current, started, now);
        let cur_v = self.vruntime.get(&current).copied().unwrap_or(0);
        let next_v = self.vruntime.get(&next).copied().unwrap_or(0);
        if next_v >= cur_v {
            // The current thread is still the fairest choice; restart its
            // slice accounting.
            self.running.insert(core, (current, now));
            return &[];
        }
        // Switch: current goes back to this core's queue.
        self.queues
            .get_mut(&core)
            .expect("known core")
            .retain(|&x| x != next);
        self.queues
            .get_mut(&core)
            .expect("known core")
            .push(current);
        self.state.insert(current, TState::Queued(core));
        self.dispatch(core, next, now, Some(current))
    }

    fn timeslice(&self) -> Option<Duration> {
        Some(self.params.slice)
    }

    fn runnable_count(&self) -> usize {
        self.queues.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cores(n: u32) -> Vec<CoreId> {
        (0..n).map(CoreId).collect()
    }

    #[test]
    fn wakes_go_to_idle_cores_first() {
        let mut s = CfsSched::new(cores(2), CfsParams::default());
        let a = s.thread_ready(ThreadId(1), Time::ZERO);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].core, CoreId(0));
        let b = s.thread_ready(ThreadId(2), Time::ZERO);
        assert_eq!(b[0].core, CoreId(1));
        // Third thread has no idle core: queued, no assignment.
        assert!(s.thread_ready(ThreadId(3), Time::ZERO).is_empty());
        assert_eq!(s.runnable_count(), 1);
    }

    #[test]
    fn stopped_thread_hands_core_to_queued_one() {
        let mut s = CfsSched::new(cores(1), CfsParams::default());
        s.thread_ready(ThreadId(1), Time::ZERO);
        s.thread_ready(ThreadId(2), Time::ZERO);
        let next = s.thread_stopped(ThreadId(1), CoreId(0), Time::from_micros(50));
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].thread, ThreadId(2));
        assert!(next[0].start_at > Time::from_micros(50)); // ctx switch
        assert_eq!(s.runnable_count(), 0);
    }

    #[test]
    fn no_preemption_before_slice_expires() {
        let mut s = CfsSched::new(cores(1), CfsParams::default());
        s.thread_ready(ThreadId(1), Time::ZERO);
        s.thread_ready(ThreadId(2), Time::ZERO);
        // 100µs into a 1ms slice: no switch, even with a queued thread.
        assert!(s
            .preempt_check(CoreId(0), Time::from_micros(100))
            .is_empty());
    }

    #[test]
    fn slice_expiry_switches_to_lower_vruntime() {
        let mut s = CfsSched::new(cores(1), CfsParams::default());
        s.thread_ready(ThreadId(1), Time::ZERO);
        s.thread_ready(ThreadId(2), Time::ZERO);
        let a = s.preempt_check(CoreId(0), Time::from_millis(2));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].thread, ThreadId(2));
        assert_eq!(a[0].preempted, Some(ThreadId(1)));
        // The preempted thread is runnable again.
        assert_eq!(s.runnable_count(), 1);
    }

    #[test]
    fn vruntime_fairness_across_switches() {
        // Thread 1 runs 5ms, then thread 2 should win and keep the core
        // until it catches up.
        let mut s = CfsSched::new(cores(1), CfsParams::default());
        s.thread_ready(ThreadId(1), Time::ZERO);
        s.thread_ready(ThreadId(2), Time::ZERO);
        let a = s.preempt_check(CoreId(0), Time::from_millis(5));
        assert_eq!(a[0].thread, ThreadId(2));
        // 1ms later, thread 2 (1ms) still trails thread 1 (5ms): no switch.
        assert!(s.preempt_check(CoreId(0), Time::from_millis(6)).is_empty());
    }

    #[test]
    fn sleeping_wake_requeue_cycle() {
        let mut s = CfsSched::new(cores(1), CfsParams::default());
        s.thread_ready(ThreadId(1), Time::ZERO);
        s.thread_stopped(ThreadId(1), CoreId(0), Time::from_micros(10));
        // Re-wake gets the idle core again.
        let a = s.thread_ready(ThreadId(1), Time::from_micros(20));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].thread, ThreadId(1));
    }

    #[test]
    fn duplicate_ready_is_ignored() {
        let mut s = CfsSched::new(cores(1), CfsParams::default());
        assert_eq!(s.thread_ready(ThreadId(1), Time::ZERO).len(), 1);
        assert!(s.thread_ready(ThreadId(1), Time::ZERO).is_empty());
        assert_eq!(s.runnable_count(), 0);
    }
}
