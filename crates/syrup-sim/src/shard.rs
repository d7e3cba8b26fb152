//! Sharded event queues and the horizon-windowed parallel engine.
//!
//! Two layers, both built on [`EventQueue`]s:
//!
//! * [`ShardedQueue`] — a *lock-step merge facade*: N per-shard wheels
//!   behind one queue interface. Events are hash-partitioned by a caller
//!   key, a single global push-sequence counter spans all shards, and
//!   `pop` takes the global `(time, seq)` minimum across shard heads.
//!   Because the ordering key is independent of the routing, the pop
//!   sequence is **bit-for-bit identical for any shard count** — this is
//!   the seed-stable deterministic merge the full-stack worlds
//!   (`mt_world`, the sharded quickstart) pin their
//!   `deterministic_under_seed` suites on.
//! * [`run_windows`] — the *parallel* engine: each shard owns a queue
//!   and a [`WindowWorld`] state machine and advances independently
//!   inside a bounded time horizon (a window of width `W`). Cross-shard
//!   events ride mailboxes that are exchanged at a barrier between
//!   windows; senders must aim at least one window ahead (lookahead
//!   `>= W`, the classic conservative-PDES contract), so no shard ever
//!   receives an event for a time it has already simulated. Incoming
//!   messages are sorted by the deterministic `(time, order)` key before
//!   being pushed, so per-shard push sequences — and therefore the whole
//!   run — are independent of thread scheduling.
//!
//! Determinism *across shard counts* for the parallel engine is a
//! property of the world: outcomes must not depend on which shard a
//! same-instant event dispatches from first. `crate::scale`'s world is
//! built that way (commutative same-timestamp handlers, uniform
//! cross-shard latency, per-flow RNG streams); the shard-count sweep in
//! the test suite enforces it.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Barrier, Mutex};

use syrup_telemetry::{CounterHandle, GaugeHandle, Registry};

use crate::queue::SimQueue;
use crate::time::{Duration, Time};
use crate::wheel::EventQueue;

/// Hash-partitioned wheel array with a deterministic global merge.
///
/// See the module docs; the short version of the determinism argument:
/// pops come out in ascending global `(time, push_seq)` order. Neither
/// component of that key depends on the shard map, so changing the shard
/// count permutes *where* entries wait but never *when or in what order*
/// they pop.
#[derive(Debug)]
pub struct ShardedQueue<E> {
    shards: Vec<EventQueue<(u64, E)>>,
    next_seq: u64,
    now: Time,
    clamped: u64,
    drift_total_ns: u64,
    drift_max_ns: u64,
    /// Facade clamp accounting attributed to the shard the late push
    /// routed to: `(clamped, drift_total_ns, drift_max_ns)` per shard.
    /// The wheels' own clocks lag the facade clock, so only the facade
    /// sees these — surfaced by [`ShardedQueue::per_shard_stats`].
    per_shard_clamp: Vec<(u64, u64, u64)>,
    tel_clamped: CounterHandle,
    tel_drift: GaugeHandle,
}

impl<E> ShardedQueue<E> {
    /// Creates an empty sharded queue with `shards` wheels (at least 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1);
        ShardedQueue {
            shards: (0..n).map(|_| EventQueue::new()).collect(),
            next_seq: 0,
            now: Time::ZERO,
            clamped: 0,
            drift_total_ns: 0,
            drift_max_ns: 0,
            per_shard_clamp: vec![(0, 0, 0); n],
            tel_clamped: CounterHandle::disabled(),
            tel_drift: GaugeHandle::disabled(),
        }
    }

    /// Number of shards (wheels).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Routes `key` to a shard index: an avalanching multiply-shift so
    /// adjacent keys spread, then a modulo. Deterministic by
    /// construction.
    fn route(&self, key: u64) -> usize {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
        (mixed % self.shards.len() as u64) as usize
    }

    /// Schedules `event` at `at` on the shard selected by `key`
    /// (typically a flow or connection id). The saturating past-push
    /// policy and its accounting live here, at the facade, so the global
    /// clock — not the (lagging) per-shard clocks — is what `at` is
    /// measured against.
    pub fn push_keyed(&mut self, at: Time, key: u64, event: E) {
        let shard = self.route(key);
        let at = if at < self.now {
            let drift = self.now.as_nanos() - at.as_nanos();
            self.clamped += 1;
            self.drift_total_ns = self.drift_total_ns.saturating_add(drift);
            self.drift_max_ns = self.drift_max_ns.max(drift);
            let per = &mut self.per_shard_clamp[shard];
            per.0 += 1;
            per.1 = per.1.saturating_add(drift);
            per.2 = per.2.max(drift);
            self.tel_clamped.inc();
            self.tel_drift.add(drift as i64);
            self.now
        } else {
            at
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shards[shard].push(at, (seq, event));
    }

    /// Schedules an event with no affinity key (routes like key 0).
    pub fn push(&mut self, at: Time, event: E) {
        self.push_keyed(at, 0, event);
    }

    /// Pops the globally earliest event by `(time, seq)`, advancing the
    /// facade clock. A linear scan of shard heads: shard counts are
    /// small (the scale engine uses [`run_windows`], not this facade).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let mut best: Option<(Time, u64, usize)> = None;
        for (i, wheel) in self.shards.iter_mut().enumerate() {
            if let Some((t, &(seq, _))) = wheel.peek_entry() {
                if best.is_none_or(|(bt, bs, _)| (t, seq) < (bt, bs)) {
                    best = Some((t, seq, i));
                }
            }
        }
        let (_, _, shard) = best?;
        let (t, (_, event)) = self.shards[shard].pop().expect("peeked shard has an event");
        debug_assert!(t >= self.now, "sharded queue went backwards");
        self.now = t;
        Some((t, event))
    }

    /// The timestamp of the next event, if any, without popping it.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.shards
            .iter_mut()
            .filter_map(|w| w.peek_entry().map(|(t, &(seq, _))| (t, seq)))
            .min()
            .map(|(t, _)| t)
    }

    /// The current simulation time: the timestamp of the last popped
    /// event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total pending events across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(EventQueue::len).sum()
    }

    /// Whether no events are pending on any shard.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(EventQueue::is_empty)
    }

    /// Past-push clamp accounting: `(clamped_count, total_drift_ns,
    /// max_drift_ns)`.
    pub fn clamp_stats(&self) -> (u64, u64, u64) {
        (self.clamped, self.drift_total_ns, self.drift_max_ns)
    }

    /// Publishes wheel instrumentation for every shard (shared handles
    /// aggregate under one `{prefix}/wheel_*` family) plus the facade's
    /// clamp/drift accounting.
    pub fn attach_telemetry(&mut self, registry: &Registry, prefix: &str) {
        for wheel in &mut self.shards {
            wheel.attach_telemetry(registry, prefix);
        }
        self.tel_clamped = registry.counter(&format!("{prefix}/wheel_clamped"));
        self.tel_drift = registry.gauge(&format!("{prefix}/wheel_drift_ns"));
        self.tel_clamped.add(self.clamped);
        self.tel_drift.add(self.drift_total_ns as i64);
    }

    /// Per-shard wheel statistics plus the facade's clamp attribution —
    /// what the shared registry deliberately does *not* break out (its
    /// `{prefix}/wheel_*` family aggregates all shards so telemetry is
    /// shard-count-invariant). `syrupctl metrics --shards N` renders
    /// this breakdown, one row per shard.
    pub fn per_shard_stats(&self) -> Vec<ShardQueueStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, wheel)| {
                let w = wheel.stats();
                let (clamped, drift_total_ns, drift_max_ns) = self.per_shard_clamp[i];
                ShardQueueStats {
                    shard: i,
                    len: wheel.len(),
                    pushes: w.pushes,
                    pops: w.pops,
                    cascaded: w.cascaded,
                    overflowed: w.overflowed,
                    clamped,
                    drift_total_ns,
                    drift_max_ns,
                }
            })
            .collect()
    }
}

impl<E> SimQueue<E> for ShardedQueue<E> {
    fn new_empty() -> Self {
        Self::new(1)
    }
    fn push(&mut self, at: Time, event: E) {
        ShardedQueue::push(self, at, event);
    }
    fn pop(&mut self) -> Option<(Time, E)> {
        ShardedQueue::pop(self)
    }
    fn peek_time(&mut self) -> Option<Time> {
        ShardedQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        ShardedQueue::len(self)
    }
    fn now(&self) -> Time {
        ShardedQueue::now(self)
    }
    fn clamped(&self) -> u64 {
        self.clamped
    }
}

/// One shard's view of a [`ShardedQueue`]: the underlying wheel's
/// counters plus the facade clamp accounting attributed to this shard.
/// Clamp/drift figures come from the facade (measured against the
/// *global* clock), not the wheel — the per-shard wheel clocks lag and
/// never see the drift.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardQueueStats {
    /// Shard index.
    pub shard: usize,
    /// Events currently pending on this shard.
    pub len: usize,
    /// Events accepted by this shard's wheel.
    pub pushes: u64,
    /// Events handed out of this shard's wheel.
    pub pops: u64,
    /// Entries moved during this shard's cascades.
    pub cascaded: u64,
    /// Pushes that landed in this shard's overflow heap.
    pub overflowed: u64,
    /// Facade past-pushes that routed to this shard and were clamped.
    pub clamped: u64,
    /// Total backwards drift absorbed for this shard, nanoseconds.
    pub drift_total_ns: u64,
    /// Largest single backwards drift absorbed for this shard.
    pub drift_max_ns: u64,
}

/// A cross-shard message produced during a window, delivered (sorted)
/// at the next window boundary.
#[derive(Debug)]
struct OutMsg<E> {
    dest: usize,
    at: Time,
    order: u64,
    ev: E,
}

/// Per-event context handed to [`WindowWorld`] handlers.
///
/// Local schedules go **straight into the shard's queue** — at millions
/// of events per second, staging them in a scratch `Vec` and draining it
/// after every handler is measurable overhead. Only cross-shard sends
/// are deferred (`out`), because they must ride the barrier exchange.
/// The context is rebuilt per event; it is a handful of registers.
#[derive(Debug)]
pub struct WindowCtx<'a, Q, E> {
    q: &'a mut Q,
    out: &'a mut Vec<OutMsg<E>>,
    /// This shard's index.
    pub shard: usize,
    /// Total shard count for this run.
    pub shards: usize,
    /// Exclusive upper bound of the current window; cross-shard sends
    /// must aim at or beyond it.
    pub window_end: Time,
}

impl<Q: SimQueue<E>, E> WindowCtx<'_, Q, E> {
    /// Schedules an event on this shard's own queue (any future time).
    #[inline]
    pub fn schedule(&mut self, at: Time, ev: E) {
        self.q.push(at, ev);
    }

    /// Sends an event to shard `dest` (which may be this shard — the
    /// message still takes the mailbox path only when `dest` differs).
    ///
    /// `at` must respect the lookahead contract (`at >= window_end`);
    /// the engine clamps violations up to the boundary and debug-asserts.
    /// `order` is the deterministic merge key: `(at, order)` must be
    /// unique per receiving shard per window (e.g. flow id × per-flow
    /// counter), so the sorted inbox — and thus the receiver's push
    /// sequence — is independent of sender thread timing.
    #[inline]
    pub fn send(&mut self, dest: usize, at: Time, order: u64, ev: E) {
        debug_assert!(
            at >= self.window_end,
            "cross-shard send violates lookahead: at {at:?} < window end {:?}",
            self.window_end
        );
        let at = at.max(self.window_end);
        if dest == self.shard {
            self.q.push(at, ev);
        } else {
            self.out.push(OutMsg {
                dest,
                at,
                order,
                ev,
            });
        }
    }
}

/// A per-shard state machine driven by [`run_windows`].
///
/// `init` and `handle` are generic over the queue type so the context
/// can push into it directly; worlds stay queue-agnostic (the scale
/// harness runs the identical world over the wheel and the reference
/// heap by instantiating these methods twice).
pub trait WindowWorld: Send {
    /// Event payload carried by the queues and mailboxes.
    type Ev: Send;

    /// Seeds the shard's initial events. Cross-shard sends are not
    /// allowed here (there is no window boundary yet to aim beyond);
    /// schedule locally.
    fn init<Q: SimQueue<Self::Ev>>(&mut self, ctx: &mut WindowCtx<Q, Self::Ev>);

    /// Handles one event at simulated time `now`.
    fn handle<Q: SimQueue<Self::Ev>>(
        &mut self,
        now: Time,
        ev: Self::Ev,
        ctx: &mut WindowCtx<Q, Self::Ev>,
    );

    /// Perf hook: called with a borrow of the *next* pending event (when
    /// the queue can cheaply peek it) before [`Self::handle`] runs for
    /// the current one. Worlds with large, randomly-indexed state can
    /// touch the lines the next handler will need so the DRAM fetch
    /// overlaps the current dispatch. Must be side-effect-free — the
    /// engine gives no ordering or delivery guarantee for this call, and
    /// simulation results must be identical with the hook removed. The
    /// default does nothing.
    fn prefetch(&self, _next: &Self::Ev) {}
}

/// Configuration for [`run_windows`].
#[derive(Debug, Clone, Copy)]
pub struct WindowCfg {
    /// Horizon width `W`: shards advance `[k·W, (k+1)·W)` in lock-step.
    /// Every cross-shard latency in the world must be `>= W`.
    pub window: Duration,
    /// Sample the wall-clock cost of every Nth pop+handle into
    /// [`ShardRun::dispatch_ns`] (0 disables sampling).
    pub sample_every: u64,
    /// Record one [`WindowSample`] per simulated window into
    /// [`ShardRun::windows`]: events, barrier-wait wall time, mailbox
    /// traffic, occupancy. Off by default — the samples cost two
    /// `Instant` reads per barrier per window, and the fig7/table2
    /// artifact runs must stay byte-identical with observability off.
    pub record_windows: bool,
}

/// One shard's account of one simulated window, recorded by
/// [`run_windows`] when [`WindowCfg::record_windows`] is set. This is
/// the raw feed for `syrup-scope`'s per-shard series (barrier-stall %,
/// mailbox pressure, imbalance): windows are lock-step across shards, so
/// sample `k` of every shard describes the *same* window and cross-shard
/// skew can be computed index-by-index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Window start, virtual nanoseconds (same across shards).
    pub window_start_ns: u64,
    /// Events this shard dispatched inside the window.
    pub events: u64,
    /// Wall-clock nanoseconds this shard spent blocked on the two
    /// inter-window barriers (0 for single-shard runs).
    pub barrier_wait_ns: u64,
    /// Total wall-clock nanoseconds the window took on this shard,
    /// compute and exchange included.
    pub wall_ns: u64,
    /// Cross-shard messages this shard deposited at the boundary.
    pub mailbox_out: u64,
    /// Cross-shard messages this shard received at the boundary.
    pub mailbox_in: u64,
    /// Events still pending on this shard's queue at the end of the
    /// compute phase.
    pub occupancy: u64,
}

/// What [`run_windows`] returns for each shard.
#[derive(Debug)]
pub struct ShardRun<W> {
    /// The world in its final state.
    pub world: W,
    /// Events dispatched by this shard.
    pub events: u64,
    /// Sampled per-event dispatch wall latencies, in nanoseconds.
    pub dispatch_ns: Vec<u64>,
    /// Per-window accounts (empty unless [`WindowCfg::record_windows`]).
    pub windows: Vec<WindowSample>,
}

/// Drives `worlds` (one per shard) to completion over queues of type
/// `Q`, exchanging cross-shard events at window boundaries.
///
/// The run ends when every queue and mailbox is empty. With one shard
/// the engine runs inline on the calling thread; with more it spawns one
/// OS thread per shard inside a scope. Results are returned in shard
/// order and — thanks to the sorted-inbox merge — do not depend on
/// thread scheduling.
pub fn run_windows<Q, W>(worlds: Vec<W>, cfg: WindowCfg) -> Vec<ShardRun<W>>
where
    W: WindowWorld,
    Q: SimQueue<W::Ev> + Send,
{
    let n = worlds.len();
    assert!(n > 0, "run_windows needs at least one shard");
    let window_ns = cfg.window.as_nanos().max(1);

    if n == 1 {
        let mut runs = run_windows_inner::<Q, W>(worlds, cfg, window_ns, None);
        return vec![runs.pop().expect("one shard in, one run out")];
    }

    // src-major mailboxes: slot [src * n + dest] is written only by
    // `src` between barriers and drained only by `dest` after the
    // deposit barrier, so every lock is uncontended.
    let mailboxes: Vec<Mutex<Vec<OutMsg<W::Ev>>>> =
        (0..n * n).map(|_| Mutex::new(Vec::new())).collect();
    let barrier = Barrier::new(n);
    // Double-buffered window aggregates (parity-indexed): pending event
    // counts and the global minimum next-event tick, used to terminate
    // and to skip idle windows deterministically.
    let pending = [AtomicU64::new(0), AtomicU64::new(0)];
    let min_next = [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)];

    let shared = WindowShared {
        mailboxes: &mailboxes,
        barrier: &barrier,
        pending: &pending,
        min_next: &min_next,
    };

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (shard, world) in worlds.into_iter().enumerate() {
            let shared = &shared;
            handles.push(
                scope.spawn(move || {
                    drive_shard::<Q, W>(shard, n, world, cfg, window_ns, Some(shared))
                }),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread completes"))
            .collect()
    })
}

/// Shared coordination state for the multi-shard path.
struct WindowShared<'a, E> {
    mailboxes: &'a [Mutex<Vec<OutMsg<E>>>],
    barrier: &'a Barrier,
    pending: &'a [AtomicU64; 2],
    min_next: &'a [AtomicU64; 2],
}

fn run_windows_inner<Q, W>(
    worlds: Vec<W>,
    cfg: WindowCfg,
    window_ns: u64,
    shared: Option<&WindowShared<'_, W::Ev>>,
) -> Vec<ShardRun<W>>
where
    W: WindowWorld,
    Q: SimQueue<W::Ev> + Send,
{
    worlds
        .into_iter()
        .enumerate()
        .map(|(shard, world)| drive_shard::<Q, W>(shard, 1, world, cfg, window_ns, shared))
        .collect()
}

fn drive_shard<Q, W>(
    shard: usize,
    n: usize,
    mut world: W,
    cfg: WindowCfg,
    window_ns: u64,
    shared: Option<&WindowShared<'_, W::Ev>>,
) -> ShardRun<W>
where
    W: WindowWorld,
    Q: SimQueue<W::Ev> + Send,
{
    let mut q = Q::new_empty();
    let mut out: Vec<OutMsg<W::Ev>> = Vec::new();
    world.init(&mut WindowCtx {
        q: &mut q,
        out: &mut out,
        shard,
        shards: n,
        window_end: Time::from_nanos(window_ns),
    });
    debug_assert!(out.is_empty(), "init may not send cross-shard");

    let mut events = 0u64;
    let mut dispatch_ns = Vec::new();
    let mut windows: Vec<WindowSample> = Vec::new();
    let mut window_start_ns = 0u64;
    let mut parity = 0usize;
    // Countdown instead of `events % sample_every` — the division is
    // measurable per-event overhead at millions of events per second.
    // `sample_every == 0` (sampling off) maps to a countdown that never
    // reaches zero.
    let mut until_sample = if cfg.sample_every == 0 {
        u64::MAX
    } else {
        cfg.sample_every
    };

    loop {
        let window_end = Time::from_nanos(window_start_ns.saturating_add(window_ns));
        // Window accounting is opt-in and kept entirely off the
        // per-event path: two Instant reads per window plus one per
        // barrier, nothing inside the compute loop.
        let win_started = cfg.record_windows.then(std::time::Instant::now);
        let events_before = events;

        // Compute phase: drain local events strictly inside the window.
        loop {
            until_sample -= 1;
            let started = (until_sample == 0).then(std::time::Instant::now);
            let Some((t, ev)) = q.pop_if_before(window_end) else {
                if started.is_some() {
                    until_sample = 1; // retry the sample on the next event
                }
                break;
            };
            if let Some(next) = q.peek_next() {
                world.prefetch(next);
            }
            world.handle(
                t,
                ev,
                &mut WindowCtx {
                    q: &mut q,
                    out: &mut out,
                    shard,
                    shards: n,
                    window_end,
                },
            );
            if let Some(started) = started {
                dispatch_ns.push(started.elapsed().as_nanos() as u64);
                until_sample = cfg.sample_every;
            }
            events += 1;
        }

        match shared {
            None => {
                // Single shard: any `send` was rerouted into the queue,
                // so `out` stays empty and the run ends with the queue.
                debug_assert!(out.is_empty());
                if let Some(started) = win_started {
                    windows.push(WindowSample {
                        window_start_ns,
                        events: events - events_before,
                        barrier_wait_ns: 0,
                        wall_ns: started.elapsed().as_nanos() as u64,
                        mailbox_out: 0,
                        mailbox_in: 0,
                        occupancy: q.len() as u64,
                    });
                }
                if q.is_empty() {
                    break;
                }
                let next = q.peek_time().expect("non-empty queue peeks").as_nanos();
                window_start_ns = next - (next % window_ns);
            }
            Some(shared) => {
                let mailbox_out = out.len() as u64;
                // Deposit phase: hand outgoing messages to the mailboxes.
                if !out.is_empty() {
                    for msg in out.drain(..) {
                        let slot = shard * n + msg.dest;
                        shared.mailboxes[slot]
                            .lock()
                            .expect("mailbox lock")
                            .push(msg);
                    }
                }
                let barrier_started = win_started.map(|_| std::time::Instant::now());
                shared.barrier.wait();
                let mut barrier_wait_ns =
                    barrier_started.map_or(0, |s| s.elapsed().as_nanos() as u64);

                // Exchange phase: take this shard's column, sort by the
                // deterministic key, and enqueue. Reset the *next*
                // window's aggregates while the current ones accumulate.
                shared.min_next[1 - parity].store(u64::MAX, AtomicOrdering::Relaxed);
                shared.pending[1 - parity].store(0, AtomicOrdering::Relaxed);
                let mut inbox: Vec<OutMsg<W::Ev>> = Vec::new();
                for src in 0..n {
                    let slot = src * n + shard;
                    inbox.append(&mut shared.mailboxes[slot].lock().expect("mailbox lock"));
                }
                inbox.sort_by_key(|m| (m.at, m.order));
                let mailbox_in = inbox.len() as u64;
                for msg in inbox {
                    debug_assert!(
                        msg.at >= window_end,
                        "message arrived inside its own window"
                    );
                    q.push(msg.at, msg.ev);
                }
                let occupancy = q.len() as u64;
                shared.pending[parity].fetch_add(occupancy, AtomicOrdering::Relaxed);
                if let Some(t) = q.peek_time() {
                    shared.min_next[parity].fetch_min(t.as_nanos(), AtomicOrdering::Relaxed);
                }
                let barrier_started = win_started.map(|_| std::time::Instant::now());
                shared.barrier.wait();
                barrier_wait_ns += barrier_started.map_or(0, |s| s.elapsed().as_nanos() as u64);

                if let Some(started) = win_started {
                    windows.push(WindowSample {
                        window_start_ns,
                        events: events - events_before,
                        barrier_wait_ns,
                        wall_ns: started.elapsed().as_nanos() as u64,
                        mailbox_out,
                        mailbox_in,
                        occupancy,
                    });
                }

                let total = shared.pending[parity].load(AtomicOrdering::Relaxed);
                if total == 0 {
                    break;
                }
                let global_next = shared.min_next[parity].load(AtomicOrdering::Relaxed);
                parity = 1 - parity;
                // Skip idle windows: jump every shard to the window that
                // holds the globally earliest event. Deterministic — a
                // pure function of simulation state.
                let next_start = global_next - (global_next % window_ns);
                window_start_ns = next_start.max(window_start_ns.saturating_add(window_ns));
                continue;
            }
        }
    }

    ShardRun {
        world,
        events,
        dispatch_ns,
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains a sharded queue into (time, payload) pairs.
    fn drain<E>(q: &mut ShardedQueue<E>) -> Vec<(Time, E)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pop_order_is_invariant_across_shard_counts() {
        // A mixed schedule: colliding timestamps, distinct keys, late
        // pushes. The pop sequence must be byte-identical for any shard
        // count because the (time, global seq) key ignores routing.
        let build = |shards: usize| {
            let mut q = ShardedQueue::new(shards);
            for i in 0..200u64 {
                let t = Time::from_nanos((i % 17) * 1_000 + (i % 3) * 64);
                q.push_keyed(t, i % 23, i);
            }
            // Interleave pops with more pushes.
            let mut popped = Vec::new();
            for i in 200..260u64 {
                popped.push(q.pop().unwrap());
                q.push_keyed(q.now() + Duration::from_nanos(i % 7), i % 11, i);
            }
            popped.extend(drain(&mut q));
            popped
        };
        let one = build(1);
        assert_eq!(one.len(), 260);
        for shards in [2, 3, 8] {
            assert_eq!(build(shards), one, "shard count {shards} diverged");
        }
    }

    #[test]
    fn fifo_holds_across_shards_within_a_timestamp() {
        let mut q = ShardedQueue::new(4);
        let t = Time::from_micros(9);
        for i in 0..64u64 {
            q.push_keyed(t, i, i); // 64 different shards-by-key
        }
        let order: Vec<_> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn facade_accounts_clamps_globally() {
        let mut q = ShardedQueue::new(2);
        q.push_keyed(Time::from_micros(10), 1, "a");
        q.pop();
        // Aimed before the facade clock; the owning shard's wheel clock
        // is still behind, so only the facade can see the drift.
        q.push_keyed(Time::from_micros(4), 2, "late");
        let (clamped, total, max) = q.clamp_stats();
        assert_eq!((clamped, total, max), (1, 6_000, 6_000));
        assert_eq!(q.pop().unwrap().0, Time::from_micros(10));
    }

    #[test]
    fn per_shard_stats_attribute_clamps_to_the_routed_shard() {
        let mut q = ShardedQueue::new(4);
        for key in 0..32u64 {
            q.push_keyed(Time::from_micros(10), key, key);
        }
        q.pop();
        q.push_keyed(Time::from_micros(4), 7, 999); // late, routes by key 7
        let stats = q.per_shard_stats();
        assert_eq!(stats.len(), 4);
        // Global invariants: per-shard figures sum to the facade/wheel
        // totals, and exactly one shard owns the clamp with its drift.
        let (g_clamped, g_total, g_max) = q.clamp_stats();
        assert_eq!(stats.iter().map(|s| s.clamped).sum::<u64>(), g_clamped);
        assert_eq!(stats.iter().map(|s| s.drift_total_ns).sum::<u64>(), g_total);
        assert_eq!(stats.iter().map(|s| s.drift_max_ns).max().unwrap(), g_max);
        assert_eq!(stats.iter().map(|s| s.pushes).sum::<u64>(), 33);
        assert_eq!(stats.iter().map(|s| s.pops).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.len).sum::<usize>(), q.len());
        let clamping: Vec<_> = stats.iter().filter(|s| s.clamped > 0).collect();
        assert_eq!(clamping.len(), 1);
        assert_eq!(clamping[0].drift_total_ns, 6_000);
        assert_eq!(clamping[0].drift_max_ns, 6_000);
    }

    #[test]
    fn windowed_engine_records_per_window_samples() {
        let latency = Duration::from_micros(25);
        let cfg = WindowCfg {
            window: Duration::from_micros(20),
            sample_every: 0,
            record_windows: true,
        };
        for shards in [1usize, 2] {
            let worlds: Vec<_> = (0..shards)
                .map(|shard| PingWorld {
                    shard,
                    hops: 40,
                    latency,
                    log: Vec::new(),
                })
                .collect();
            let runs = run_windows::<crate::EventQueue<u64>, _>(worlds, cfg);
            for run in &runs {
                assert!(!run.windows.is_empty(), "shards={shards}");
                // Per-window event counts reconcile with the shard total.
                let window_events: u64 = run.windows.iter().map(|w| w.events).sum();
                assert_eq!(window_events, run.events, "shards={shards}");
                // Window starts are strictly increasing and aligned.
                for pair in run.windows.windows(2) {
                    assert!(pair[0].window_start_ns < pair[1].window_start_ns);
                }
                for w in &run.windows {
                    assert_eq!(w.window_start_ns % 20_000, 0);
                }
            }
            if shards == 1 {
                let r = &runs[0];
                assert!(r.windows.iter().all(|w| w.barrier_wait_ns == 0));
                assert!(r.windows.iter().all(|w| w.mailbox_in == 0));
            } else {
                // The ping-pong crosses shards every hop: mailbox traffic
                // must balance globally, and hops sent = hops received.
                let sent: u64 = runs
                    .iter()
                    .flat_map(|r| &r.windows)
                    .map(|w| w.mailbox_out)
                    .sum();
                let recv: u64 = runs
                    .iter()
                    .flat_map(|r| &r.windows)
                    .map(|w| w.mailbox_in)
                    .sum();
                assert_eq!(sent, recv);
                assert_eq!(sent, 40);
                // Windows are lock-step: both shards saw the same count
                // and the same start times.
                assert_eq!(runs[0].windows.len(), runs[1].windows.len());
                for (a, b) in runs[0].windows.iter().zip(&runs[1].windows) {
                    assert_eq!(a.window_start_ns, b.window_start_ns);
                }
            }
        }
    }

    #[test]
    fn record_windows_off_keeps_runs_sample_free() {
        let cfg = WindowCfg {
            window: Duration::from_micros(20),
            sample_every: 0,
            record_windows: false,
        };
        let worlds = vec![
            PingWorld {
                shard: 0,
                hops: 10,
                latency: Duration::from_micros(25),
                log: Vec::new(),
            },
            PingWorld {
                shard: 1,
                hops: 10,
                latency: Duration::from_micros(25),
                log: Vec::new(),
            },
        ];
        let runs = run_windows::<crate::EventQueue<u64>, _>(worlds, cfg);
        assert!(runs.iter().all(|r| r.windows.is_empty()));
    }

    /// A ping-pong world: each shard bounces a counter to the next shard
    /// with a fixed latency, recording `(time, value)` on receipt.
    struct PingWorld {
        shard: usize,
        hops: u64,
        latency: Duration,
        log: Vec<(u64, u64)>,
    }

    impl WindowWorld for PingWorld {
        type Ev = u64;

        fn init<Q: SimQueue<u64>>(&mut self, ctx: &mut WindowCtx<Q, u64>) {
            if self.shard == 0 {
                ctx.schedule(Time::from_nanos(5), 0);
            }
        }

        fn handle<Q: SimQueue<u64>>(&mut self, now: Time, v: u64, ctx: &mut WindowCtx<Q, u64>) {
            self.log.push((now.as_nanos(), v));
            if v < self.hops {
                let dest = (self.shard + 1) % ctx.shards;
                ctx.send(dest, now + self.latency, v, v + 1);
            }
        }
    }

    #[test]
    fn windowed_engine_delivers_cross_shard_in_order() {
        let latency = Duration::from_micros(25);
        let cfg = WindowCfg {
            window: Duration::from_micros(20),
            sample_every: 0,
            record_windows: false,
        };
        for shards in [1usize, 2, 4] {
            let worlds: Vec<_> = (0..shards)
                .map(|shard| PingWorld {
                    shard,
                    hops: 40,
                    latency,
                    log: Vec::new(),
                })
                .collect();
            let runs = run_windows::<crate::EventQueue<u64>, _>(worlds, cfg);
            let mut all: Vec<_> = runs.iter().flat_map(|r| r.world.log.clone()).collect();
            all.sort_unstable();
            let expect: Vec<_> = (0..=40u64)
                .map(|v| (5 + v * latency.as_nanos(), v))
                .collect();
            assert_eq!(all, expect, "shard count {shards}");
            let total: u64 = runs.iter().map(|r| r.events).sum();
            assert_eq!(total, 41);
        }
    }

    #[test]
    fn windowed_engine_matches_reference_heap() {
        let cfg = WindowCfg {
            window: Duration::from_micros(20),
            sample_every: 0,
            record_windows: false,
        };
        let mk = |shard| PingWorld {
            shard,
            hops: 25,
            latency: Duration::from_micros(30),
            log: Vec::new(),
        };
        let wheel = run_windows::<crate::EventQueue<u64>, _>(vec![mk(0), mk(1)], cfg);
        let heap = run_windows::<crate::HeapQueue<u64>, _>(vec![mk(0), mk(1)], cfg);
        for (w, h) in wheel.iter().zip(&heap) {
            assert_eq!(w.world.log, h.world.log);
            assert_eq!(w.events, h.events);
        }
    }
}
