//! Million-flow scale world: the load generator behind `bench --bin
//! scale` and `results/BENCH_scale.json`.
//!
//! A closed-loop population of `flows` clients talks to `cells` serving
//! queues (single-server FIFO-by-arrival each). Every flow keeps exactly
//! one request in flight — so "10⁶ flows" means 10⁶ concurrently pending
//! events, the regime where the heap's O(log n) falls behind the wheel's
//! O(1) — and cycles forever: think, send to a cell (usually its home
//! cell, sometimes a uniformly chosen remote one), wait for service,
//! receive the completion, think again.
//!
//! # Shard-count invariance
//!
//! The world runs on [`crate::shard::run_windows`] at any shard count
//! and produces **identical** results (offered/completed counts, the
//! full latency sample multiset) for a given seed. The ingredients, each
//! of which the determinism suite exercises:
//!
//! * **Per-flow RNG streams.** Every flow owns a splitmix64 stream
//!   seeded from `(seed, flow)`; all of a flow's draws happen in its own
//!   serial lifecycle, so draw order cannot depend on the shard map.
//! * **Fixed topology.** `cells` is a constant independent of the shard
//!   count; flows and cells are assigned to shards by `id % shards`, and
//!   *every* request and completion pays the same `net_delay` whether it
//!   crosses shards or not.
//! * **Commutative same-instant handlers.** Event timestamps are forced
//!   even; service decisions happen only in `Kick` events at odd
//!   timestamps, one nanosecond after the trigger. Any two events that
//!   share a timestamp therefore either touch different state or
//!   commute (queue inserts; idempotent kicks), so the intra-timestamp
//!   dispatch order — the one thing that *does* vary with sharding —
//!   cannot affect outcomes.
//! * **Deterministic merge keys.** Cross-shard sends carry
//!   `(flow, request-seq)` as the [`WindowCtx::send`] order key, and
//!   cell queues order by `(arrival, flow, seq)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use syrup_observe::telemetry::nearest_rank;

use crate::queue::SimQueue;
use crate::shard::{run_windows, ShardRun, WindowCfg, WindowCtx, WindowWorld};
use crate::stats::{LatencyRecorder, LatencySummary, RunStats};
use crate::time::{Duration, Time};

/// Configuration of one scale-world run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleCfg {
    /// Concurrent closed-loop flows (each keeps one event in flight).
    pub flows: u64,
    /// Serving cells (single-server FIFO queues); fixed regardless of
    /// shard count so results stay comparable across engines.
    pub cells: u32,
    /// Shards (OS threads at >1) the event loop is partitioned over.
    pub shards: usize,
    /// Seed for the per-flow RNG streams.
    pub seed: u64,
    /// Latency samples before this instant are discarded as warm-up.
    pub warmup: Duration,
    /// Measurement interval; flows stop sending at `warmup + measure`
    /// and the run drains.
    pub measure: Duration,
    /// Mean think time between a completion and the next request
    /// (exponential).
    pub think_mean: Duration,
    /// Service-time bounds (uniform).
    pub service_lo: Duration,
    /// Upper service-time bound.
    pub service_hi: Duration,
    /// Probability a request targets a uniformly random remote cell
    /// instead of the flow's home cell, in percent.
    pub forward_pct: u64,
    /// One-way network latency for every request and completion. Must be
    /// `>= window` (the conservative-sync lookahead).
    pub net_delay: Duration,
    /// Horizon width for [`run_windows`].
    pub window: Duration,
    /// Sample every Nth event dispatch for wall-latency percentiles
    /// (0 = off).
    pub sample_every: u64,
    /// Record per-window [`crate::shard::WindowSample`]s into
    /// [`ScaleResult::per_shard_windows`] (barrier-wait, mailbox
    /// traffic, occupancy) — the `syrup::scope` feed. Off by default;
    /// simulation results are identical either way.
    pub record_windows: bool,
}

impl ScaleCfg {
    /// Defaults sized so one run finishes in seconds of wall time while
    /// holding `flows` concurrent pending events.
    pub fn new(flows: u64, shards: usize, seed: u64) -> Self {
        ScaleCfg {
            flows,
            cells: 4096,
            shards: shards.max(1),
            seed,
            warmup: Duration::from_millis(10),
            measure: Duration::from_millis(40),
            think_mean: Duration::from_millis(10),
            service_lo: Duration::from_micros(4),
            service_hi: Duration::from_micros(12),
            forward_pct: 5,
            net_delay: Duration::from_micros(25),
            window: Duration::from_micros(20),
            sample_every: 64,
            record_windows: false,
        }
    }

    fn send_end(&self) -> Time {
        Time::ZERO + self.warmup + self.measure
    }
}

/// Which queue implementation drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleEngine {
    /// The reference `BinaryHeap` queue ([`crate::HeapQueue`]).
    Heap,
    /// The hierarchical timer wheel ([`crate::EventQueue`]).
    Wheel,
}

impl ScaleEngine {
    /// Short name for tables and `BENCH_scale.json` records.
    pub fn name(self) -> &'static str {
        match self {
            ScaleEngine::Heap => "heap",
            ScaleEngine::Wheel => "wheel",
        }
    }
}

/// Outcome of a scale run: simulation-semantic results (deterministic
/// for a seed, identical across shard counts and engines) plus harness
/// measurements (wall time, dispatch-latency samples — machine-
/// dependent, excluded from determinism checks).
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// Merged simulation results (offered, completed, latency pool).
    pub stats: RunStats,
    /// Total events dispatched across all shards.
    pub events: u64,
    /// Events dispatched per shard (load-balance visibility).
    pub per_shard_events: Vec<u64>,
    /// Wall-clock time of the event loop (setup excluded).
    pub wall: std::time::Duration,
    /// Sorted sampled wall costs of single event dispatches, ns.
    pub dispatch_ns: Vec<u64>,
    /// Per-shard per-window accounts (one entry per shard, each empty
    /// unless [`ScaleCfg::record_windows`]); windows are lock-step, so
    /// index `k` of every shard describes the same window.
    pub per_shard_windows: Vec<Vec<crate::shard::WindowSample>>,
}

impl ScaleResult {
    /// Dispatched events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.events as f64 / secs
    }

    /// p99 of the sampled per-event dispatch wall cost, ns (0 when
    /// sampling was off).
    pub fn dispatch_p99_ns(&self) -> u64 {
        nearest_rank(&self.dispatch_ns, 0.99)
    }

    /// p50 of the sampled per-event dispatch wall cost, ns.
    pub fn dispatch_p50_ns(&self) -> u64 {
        nearest_rank(&self.dispatch_ns, 0.50)
    }

    /// A compact fingerprint of the simulation-semantic outcome, for
    /// determinism diffs: offered, completed, and an order-insensitive
    /// FNV over the latency sample pool.
    pub fn fingerprint(&self) -> (u64, u64, u64) {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for &s in self.stats.latency.samples() {
            // Samples arrive sorted; a positional mix keeps the
            // fingerprint sensitive to order and multiplicity.
            acc = (acc ^ s).wrapping_mul(0x0000_0100_0000_01B3);
        }
        (self.stats.offered, self.stats.completed, acc)
    }
}

/// Rounds a nanosecond timestamp up to the next even value. All payload
/// events live on even timestamps; kicks live on odd ones (see the
/// module docs' commutativity argument).
#[inline]
fn even(ns: u64) -> u64 {
    (ns + 1) & !1
}

/// splitmix64 step: the per-flow RNG. 8 bytes of state per flow keeps
/// 10⁶ flows affordable.
#[inline]
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z
}

/// Uniform draw in `[0, n)`.
#[inline]
fn draw_below(state: &mut u64, n: u64) -> u64 {
    mix(state) % n.max(1)
}

/// Resolution of the exponential inverse-CDF lookup table.
const EXP_TABLE: usize = 4096;

/// Precomputed quantized exponential: `table[i] = -ln((i + 0.5) / N) *
/// mean`, indexed by a uniform draw. Statistically exponential to table
/// resolution (the tail truncates at ~9 × mean), but the hot path is
/// one L1/L2 load instead of an `ln()` call — the think-time draw runs
/// once per request cycle at millions of cycles per second, and the
/// transcendental was a measurable slice of the per-event budget on
/// *both* engines.
fn exp_table(mean_ns: u64) -> Vec<u64> {
    (0..EXP_TABLE)
        .map(|i| {
            let u = (i as f64 + 0.5) / EXP_TABLE as f64;
            (-u.ln() * mean_ns as f64) as u64
        })
        .collect()
}

/// Quantized exponential draw from a prebuilt [`exp_table`].
#[inline]
fn draw_exp(state: &mut u64, table: &[u64]) -> u64 {
    table[(mix(state) >> (64 - 12)) as usize]
}

/// Events of the scale world.
#[derive(Debug)]
enum SEv {
    /// A flow finishes thinking and issues its next request.
    Wake { flow: u32 },
    /// A request reaches its target cell.
    Arrive {
        cell: u32,
        flow: u32,
        seq: u32,
        sent_ns: u64,
        service_ns: u64,
    },
    /// Poke a cell to start service if it is idle (odd timestamps only).
    Kick { cell: u32 },
    /// A completion reaches the issuing flow.
    Notify { flow: u32, sent_ns: u64 },
}

#[derive(Debug, Clone, Copy)]
struct FlowState {
    rng: u64,
    seq: u32,
}

/// A queued request: `(arrival_ns, flow, seq, service_ns, sent_ns)`,
/// min-ordered by the unique, shard-map-independent `(arrival, flow,
/// seq)` prefix.
type PendingReq = Reverse<(u64, u32, u32, u64, u64)>;

#[derive(Debug, Default)]
struct Cell {
    busy_until_ns: u64,
    /// Pending requests ordered by `(arrival, flow, seq)` — a key that
    /// is unique and independent of the shard map.
    q: BinaryHeap<PendingReq>,
}

/// One shard of the scale world.
struct ScaleShard {
    cfg: ScaleCfg,
    shard: u32,
    shards: u32,
    /// Flow `f` lives here iff `f % shards == shard`; local index `f / shards`.
    flows: Vec<FlowState>,
    /// Cell `c` lives here iff `c % shards == shard`; local index `c / shards`.
    cells: Vec<Cell>,
    rec: LatencyRecorder,
    offered: u64,
    send_end_ns: u64,
    /// Inverse-CDF table for think-time draws (see [`exp_table`]).
    think_table: Vec<u64>,
}

impl ScaleShard {
    fn new(cfg: ScaleCfg, shard: u32) -> Self {
        let shards = cfg.shards as u32;
        let nflows = (cfg.flows / u64::from(shards))
            + u64::from(cfg.flows % u64::from(shards) > u64::from(shard));
        let ncells = (u64::from(cfg.cells) / u64::from(shards))
            + u64::from(u64::from(cfg.cells) % u64::from(shards) > u64::from(shard));
        let flows = (0..nflows)
            .map(|local| {
                let flow = local * u64::from(shards) + u64::from(shard);
                let mut state = cfg.seed ^ flow.wrapping_mul(0xA24B_AED4_963E_E407);
                mix(&mut state);
                FlowState { rng: state, seq: 0 }
            })
            .collect();
        ScaleShard {
            shard,
            shards,
            flows,
            cells: (0..ncells).map(|_| Cell::default()).collect(),
            rec: LatencyRecorder::new(Time::ZERO + cfg.warmup),
            offered: 0,
            send_end_ns: cfg.send_end().as_nanos(),
            think_table: exp_table(cfg.think_mean.as_nanos()),
            cfg,
        }
    }

    #[inline]
    fn flow_shard(&self, flow: u32) -> usize {
        (flow % self.shards) as usize
    }

    #[inline]
    fn cell_shard(&self, cell: u32) -> usize {
        (cell % self.shards) as usize
    }

    /// The deterministic cross-shard merge key: unique per (flow,
    /// request) pair.
    #[inline]
    fn order(flow: u32, seq: u32) -> u64 {
        (u64::from(flow) << 32) | u64::from(seq)
    }
}

impl WindowWorld for ScaleShard {
    type Ev = SEv;

    fn init<Q: SimQueue<SEv>>(&mut self, ctx: &mut WindowCtx<Q, SEv>) {
        // Stagger first wakes uniformly over one think interval so the
        // run starts near steady state.
        let spread = self.cfg.think_mean.as_nanos().max(2);
        for local in 0..self.flows.len() {
            let flow = (local as u32) * self.shards + self.shard;
            let w0 = even(draw_below(&mut self.flows[local].rng, spread));
            ctx.schedule(Time::from_nanos(w0), SEv::Wake { flow });
        }
    }

    fn handle<Q: SimQueue<SEv>>(&mut self, now: Time, ev: SEv, ctx: &mut WindowCtx<Q, SEv>) {
        let now_ns = now.as_nanos();
        match ev {
            SEv::Wake { flow } => {
                if now_ns >= self.send_end_ns {
                    return; // the run is draining; the flow goes dormant
                }
                self.offered += 1;
                let local = (flow / self.shards) as usize;
                let f = &mut self.flows[local];
                f.seq += 1;
                let seq = f.seq;
                let lo = self.cfg.service_lo.as_nanos();
                let hi = self.cfg.service_hi.as_nanos().max(lo + 1);
                let service_ns = lo + draw_below(&mut f.rng, hi - lo);
                let home = flow % self.cfg.cells;
                let cell = if draw_below(&mut f.rng, 100) < self.cfg.forward_pct {
                    (home + 1 + draw_below(&mut f.rng, u64::from(self.cfg.cells) - 1) as u32)
                        % self.cfg.cells
                } else {
                    home
                };
                let at = even(now_ns + self.cfg.net_delay.as_nanos());
                ctx.send(
                    self.cell_shard(cell),
                    Time::from_nanos(at),
                    Self::order(flow, seq),
                    SEv::Arrive {
                        cell,
                        flow,
                        seq,
                        sent_ns: now_ns,
                        service_ns,
                    },
                );
            }
            SEv::Arrive {
                cell,
                flow,
                seq,
                sent_ns,
                service_ns,
            } => {
                let local = (cell / self.shards) as usize;
                self.cells[local]
                    .q
                    .push(Reverse((now_ns, flow, seq, service_ns, sent_ns)));
                // Service decisions are deferred to an odd-timestamp
                // kick so same-instant arrivals commute.
                ctx.schedule(Time::from_nanos(now_ns + 1), SEv::Kick { cell });
            }
            SEv::Kick { cell } => {
                let local = (cell / self.shards) as usize;
                let c = &mut self.cells[local];
                if c.busy_until_ns > now_ns {
                    return;
                }
                let Some(Reverse((_arrival, flow, seq, service_ns, sent_ns))) = c.q.pop() else {
                    return;
                };
                let done = even(now_ns + service_ns);
                c.busy_until_ns = done;
                let at = even(done + self.cfg.net_delay.as_nanos());
                ctx.send(
                    self.flow_shard(flow),
                    Time::from_nanos(at),
                    Self::order(flow, seq),
                    SEv::Notify { flow, sent_ns },
                );
                // The server frees at `done`; the next queued request
                // starts via this follow-up kick.
                ctx.schedule(Time::from_nanos(done + 1), SEv::Kick { cell });
            }
            SEv::Notify { flow, sent_ns } => {
                self.rec.record(Time::from_nanos(sent_ns), now);
                let local = (flow / self.shards) as usize;
                let think = draw_exp(&mut self.flows[local].rng, &self.think_table).max(2);
                let wake = even(now_ns + think);
                ctx.schedule(Time::from_nanos(wake), SEv::Wake { flow });
            }
        }
    }

    fn prefetch(&self, next: &SEv) {
        // Touch the state the next handler will index: at 10⁶ flows the
        // per-flow array spans tens of megabytes, so each handler's first
        // access is a DRAM miss unless it is issued while the *current*
        // event dispatches. Reads only — results are identical with this
        // hook removed.
        match *next {
            SEv::Wake { flow } | SEv::Notify { flow, .. } => {
                if let Some(f) = self.flows.get((flow / self.shards) as usize) {
                    core::hint::black_box(f.rng);
                }
            }
            SEv::Arrive { cell, .. } | SEv::Kick { cell } => {
                if let Some(c) = self.cells.get((cell / self.shards) as usize) {
                    core::hint::black_box(c.busy_until_ns);
                }
            }
        }
    }
}

/// Runs the scale world to completion on the chosen engine and merges
/// per-shard results. [`ScaleEngine::Heap`] is restricted to one shard —
/// it exists as the single-threaded O(log n) baseline.
pub fn run(cfg: &ScaleCfg, engine: ScaleEngine) -> ScaleResult {
    assert!(cfg.flows > 0 && cfg.cells > 0);
    assert!(cfg.flows <= u64::from(u32::MAX), "flow ids are u32");
    assert!(
        cfg.net_delay.as_nanos() >= cfg.window.as_nanos(),
        "net_delay is the lookahead and must cover the window"
    );
    assert!(
        engine == ScaleEngine::Wheel || cfg.shards == 1,
        "the heap baseline is single-shard by definition"
    );
    let worlds: Vec<ScaleShard> = (0..cfg.shards as u32)
        .map(|shard| ScaleShard::new(*cfg, shard))
        .collect();
    let wcfg = WindowCfg {
        window: cfg.window,
        sample_every: cfg.sample_every,
        record_windows: cfg.record_windows,
    };
    let started = std::time::Instant::now();
    let runs: Vec<ShardRun<ScaleShard>> = match engine {
        ScaleEngine::Wheel => run_windows::<crate::EventQueue<SEv>, _>(worlds, wcfg),
        ScaleEngine::Heap => run_windows::<crate::HeapQueue<SEv>, _>(worlds, wcfg),
    };
    let wall = started.elapsed();

    let mut offered = 0u64;
    let mut events = 0u64;
    let mut per_shard_events = Vec::with_capacity(runs.len());
    let mut samples: Vec<u64> = Vec::new();
    let mut completed = 0u64;
    let mut dispatch_ns: Vec<u64> = Vec::new();
    let mut per_shard_windows = Vec::with_capacity(runs.len());
    for run in &runs {
        offered += run.world.offered;
        completed += run.world.rec.len() as u64;
        events += run.events;
        per_shard_events.push(run.events);
        samples.extend_from_slice(run.world.rec.summary().samples());
        dispatch_ns.extend_from_slice(&run.dispatch_ns);
        per_shard_windows.push(run.windows.clone());
    }
    dispatch_ns.sort_unstable();
    let stats = RunStats {
        offered,
        completed,
        dropped: 0,
        latency: LatencySummary::from_nanos(samples),
        measured: cfg.measure,
    };
    ScaleResult {
        stats,
        events,
        per_shard_events,
        wall,
        dispatch_ns,
        per_shard_windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(flows: u64, shards: usize, seed: u64) -> ScaleCfg {
        let mut cfg = ScaleCfg::new(flows, shards, seed);
        cfg.cells = 64;
        cfg.warmup = Duration::from_millis(2);
        cfg.measure = Duration::from_millis(8);
        cfg.think_mean = Duration::from_millis(1);
        cfg.sample_every = 0;
        cfg
    }

    #[test]
    fn same_seed_same_result() {
        let a = run(&small(500, 2, 7), ScaleEngine::Wheel);
        let b = run(&small(500, 2, 7), ScaleEngine::Wheel);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.events, b.events);
        assert!(a.stats.completed > 0, "the world must make progress");
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&small(500, 1, 1), ScaleEngine::Wheel);
        let b = run(&small(500, 1, 2), ScaleEngine::Wheel);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let base = run(&small(600, 1, 42), ScaleEngine::Wheel);
        for shards in [2usize, 8] {
            let sharded = run(&small(600, shards, 42), ScaleEngine::Wheel);
            assert_eq!(
                base.fingerprint(),
                sharded.fingerprint(),
                "{shards} shards diverged from 1"
            );
            assert_eq!(
                base.stats.latency.samples(),
                sharded.stats.latency.samples()
            );
        }
    }

    #[test]
    fn window_recording_does_not_perturb_results() {
        let plain = run(&small(500, 2, 11), ScaleEngine::Wheel);
        let mut cfg = small(500, 2, 11);
        cfg.record_windows = true;
        let observed = run(&cfg, ScaleEngine::Wheel);
        assert_eq!(plain.fingerprint(), observed.fingerprint());
        assert_eq!(plain.events, observed.events);
        assert!(plain.per_shard_windows.iter().all(Vec::is_empty));
        assert_eq!(observed.per_shard_windows.len(), 2);
        for (shard, windows) in observed.per_shard_windows.iter().enumerate() {
            assert!(!windows.is_empty(), "shard {shard} recorded no windows");
        }
        // Window event counts reconcile with the per-shard totals.
        for (shard, windows) in observed.per_shard_windows.iter().enumerate() {
            let sum: u64 = windows.iter().map(|w| w.events).sum();
            assert_eq!(sum, observed.per_shard_events[shard]);
        }
        // Closed-loop flows talk across shards: mailbox traffic exists
        // and balances.
        let sent: u64 = observed
            .per_shard_windows
            .iter()
            .flatten()
            .map(|w| w.mailbox_out)
            .sum();
        let recv: u64 = observed
            .per_shard_windows
            .iter()
            .flatten()
            .map(|w| w.mailbox_in)
            .sum();
        assert_eq!(sent, recv);
        assert!(sent > 0);
    }

    #[test]
    fn heap_and_wheel_engines_agree() {
        let heap = run(&small(400, 1, 9), ScaleEngine::Heap);
        let wheel = run(&small(400, 1, 9), ScaleEngine::Wheel);
        assert_eq!(heap.fingerprint(), wheel.fingerprint());
        assert_eq!(heap.events, wheel.events);
    }

    #[test]
    fn closed_loop_holds_one_event_per_flow() {
        // Offered counts stay near flows × measure / (think + rtt).
        let cfg = small(300, 1, 3);
        let r = run(&cfg, ScaleEngine::Wheel);
        assert!(r.stats.offered >= 300, "each flow sends at least once");
        assert!(r.stats.completed <= r.stats.offered);
        // Latency must include the two network hops.
        assert!(r.stats.latency.percentile(1.0) >= Duration::from_micros(50));
    }
}
