//! Thread scheduling substrate: a CFS-like default and a ghOSt-like agent.
//!
//! The paper's thread-scheduler hook is backed by ghOSt \[25\]: a lightweight
//! kernel scheduling class forwards thread state changes as messages to a
//! spinning userspace agent, which runs the user-defined policy and
//! instructs the kernel via syscalls; the kernel enforces decisions with
//! IPIs (§4.1). This crate models both that agent and the baseline it is
//! compared against:
//!
//! * [`cfs`] — a simplified Completely Fair Scheduler: per-core runqueues
//!   ordered by vruntime, idle-core wake placement, and millisecond-scale
//!   time slices. Crucially it is *oblivious to request types*, which is
//!   exactly why single-layer scheduling fails in Figure 8 ("The default
//!   Linux CFS scheduler, being oblivious to the request handled by each
//!   thread, does not preempt them when a thread serving a GET becomes
//!   runnable").
//! * [`ghost`] — the ghOSt-style centralized scheduler: one core is
//!   dedicated to the spinning agent (the Figure 8 experiments run the
//!   application on five cores for this reason), messages incur queueing
//!   at the agent, and the deployed Syrup policy (GET-priority with
//!   preemption, as in Shinjuku) matches runnable threads to cores. The
//!   policy reads the request class per thread from an
//!   application-populated Map — the §3.4 cross-layer communication path.
//!
//! Both schedulers expose the same [`ThreadScheduler`] interface to the
//! simulation worlds: notify on thread wake/stop, receive assignments
//! (which may preempt), and drive time-slice checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfs;
pub mod ghost;

pub use cfs::CfsSched;
pub use ghost::{GhostParams, GhostSched};

use syrup_sim::Time;

/// A kernel thread identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

/// A logical core identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub u32);

/// One scheduling decision: run `thread` on `core` starting at `start_at`.
///
/// When `preempted` names a thread, the world must stop it at `start_at`
/// (its remaining service is resumed on a later assignment); the scheduler
/// has already returned it to the runnable pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Target core.
    pub core: CoreId,
    /// Thread to run.
    pub thread: ThreadId,
    /// When the thread begins executing (includes context-switch and, for
    /// preemptions, IPI delivery).
    pub start_at: Time,
    /// The thread displaced by this assignment, if any.
    pub preempted: Option<ThreadId>,
}

/// The interface both schedulers present to a simulation world.
///
/// A decision's assignments are borrowed from a buffer the scheduler
/// owns and refills on its next decision, so deciding allocates nothing
/// once the buffer has grown to the largest decision seen.
pub trait ThreadScheduler {
    /// Cores available to application threads (excludes a ghOSt agent's
    /// core).
    fn app_cores(&self) -> Vec<CoreId>;

    /// A thread became runnable (request arrived at its socket).
    fn thread_ready(&mut self, t: ThreadId, now: Time) -> &[Assignment];

    /// The running thread on `core` blocked (no more requests) or
    /// finished its work.
    fn thread_stopped(&mut self, t: ThreadId, core: CoreId, now: Time) -> &[Assignment];

    /// Time-slice check on `core` (only meaningful when [`Self::timeslice`]
    /// returns `Some`): may switch to another runnable thread.
    fn preempt_check(&mut self, core: CoreId, now: Time) -> &[Assignment];

    /// The preemption granularity, if the scheduler is tick-driven.
    fn timeslice(&self) -> Option<syrup_sim::Duration>;

    /// Number of threads currently waiting to run (diagnostics).
    fn runnable_count(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(ThreadId(1) < ThreadId(2));
        assert!(CoreId(0) < CoreId(5));
        let mut set = std::collections::HashSet::new();
        set.insert(ThreadId(1));
        assert!(set.contains(&ThreadId(1)));
    }
}
