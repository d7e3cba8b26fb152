//! Event-queue engine guard: hierarchical timer wheel vs binary heap.
//!
//! Measures the steady-state hold-and-churn cost of both [`EventQueue`]
//! (timer wheel) and [`HeapQueue`] (the reference binary heap): pre-fill
//! N pending events, then repeatedly pop the earliest and push a
//! replacement a workload-shaped delay ahead — the access pattern of the
//! closed-loop scale world, where the pending population is constant.
//!
//! Gated (see [`bench::gate()`]: release builds only, skipped under
//! `cargo test` smoke mode):
//!
//! * at the figure worlds' size — [`WORLD_PENDING`] pending payloads as
//!   wide as `server_world`'s event, replaced tens of µs ahead — the
//!   queue, which keeps a queue that small in one heap, must not be
//!   slower than the heap by more than [`SMALL_N_TOLERANCE`]: the two
//!   are then the same structure and read 0.79–1.15× each other on a
//!   shared 2-vCPU host, while a wheel walk per pop reads 1.24–1.97×;
//! * at N = 10⁴ the wheel must not be slower than the heap by more than
//!   [`SMALL_N_TOLERANCE`] — the wheel may not regress small runs;
//! * at N = 10⁶ the heap must cost at least [`BIG_N_FACTOR`]× the wheel —
//!   the O(1) claim that justifies the engine swap must stay true.
//!
//! Violations exit nonzero so CI catches a perf regression in either
//! direction.

use std::hint::black_box;
use std::process::ExitCode;

use bench::{Limit, Site};
use syrup::sim::{Duration, EventQueue, HeapQueue, SimQueue};

/// At 16 and at 10⁴ pending the queue may cost at most this multiple of
/// the heap.
const SMALL_N_TOLERANCE: f64 = 1.25;

/// At 10⁶ pending the heap must cost at least this multiple of the wheel.
const BIG_N_FACTOR: f64 = 2.0;

/// Pending events in the figure worlds' queues (`server_world` and
/// `mt_world` hold 13–19).
const WORLD_PENDING: u64 = 16;

/// A payload as wide as `server_world`'s event (40 bytes).
type WorldEv = [u64; 5];

/// Deterministic xorshift for delay shaping — no RNG dependency needed.
struct Xs(u64);

impl Xs {
    #[inline]
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The scale-world delay mix: mostly short network hops, a tail of long
/// think times, occasional same-tick follow-ups.
#[inline]
fn delay_ns(rng: &mut Xs) -> u64 {
    match rng.next() % 8 {
        0..=3 => 25_000 + rng.next() % 10_000,
        4 | 5 => 1 + rng.next() % 64,
        _ => 1_000_000 + rng.next() % 20_000_000,
    }
}

fn prefill<Q: SimQueue<u64>>(n: u64) -> Q {
    let mut q = Q::new_empty();
    let mut rng = Xs(0x5EED_0BAD_F00D_u64 | 1);
    for id in 0..n {
        let at = q.now() + Duration::from_nanos(rng.next() % 40_000_000);
        q.push(at, id);
    }
    q
}

/// One hold-and-churn step: pop the earliest event, push a replacement.
#[inline]
fn churn<Q: SimQueue<u64>>(q: &mut Q, rng: &mut Xs) {
    let (t, id) = q.pop().expect("queue never drains during churn");
    let at = t + Duration::from_nanos(delay_ns(rng));
    q.push(at, black_box(id));
}

/// Times hold-and-churn on queue `Q` at `n` pending events.
fn churn_site<Q: SimQueue<u64> + 'static>(name: &str, n: u64, limit: Limit) -> Site<'static> {
    let mut q: Q = prefill(n);
    let mut rng = Xs(7);
    Site::new(name, limit, move || churn(&mut q, &mut rng))
}

/// Times hold-and-churn at the figure worlds' size on queue `Q`: each
/// popped event is pushed back 10–60 µs after its time.
fn world_site<Q: SimQueue<WorldEv> + 'static>(name: &str, limit: Limit) -> Site<'static> {
    let mut q = Q::new_empty();
    let mut rng = Xs(0x5EED_0BAD_F00D_u64 | 1);
    for id in 0..WORLD_PENDING {
        let at = q.now() + Duration::from_nanos(rng.next() % 50_000);
        q.push(at, [id; 5]);
    }
    Site::new(name, limit, move || {
        let (t, ev) = q.pop().expect("queue never drains during churn");
        let at = t + Duration::from_nanos(10_000 + rng.next() % 50_000);
        q.push(at, black_box(ev));
    })
}

fn main() -> ExitCode {
    let small = Limit::Ratio {
        of: "heap_churn_10000",
        factor: SMALL_N_TOLERANCE,
    };
    let big = Limit::Ratio {
        of: "heap_churn_1000000",
        factor: 1.0 / BIG_N_FACTOR,
    };
    let world = Limit::Ratio {
        of: "heap_churn_16_world",
        factor: SMALL_N_TOLERANCE,
    };
    let mut sites = [
        world_site::<HeapQueue<WorldEv>>("heap_churn_16_world", Limit::Report),
        world_site::<EventQueue<WorldEv>>("wheel_churn_16_world", world),
        churn_site::<HeapQueue<u64>>("heap_churn_10000", 10_000, Limit::Report),
        churn_site::<EventQueue<u64>>("wheel_churn_10000", 10_000, small),
        churn_site::<HeapQueue<u64>>("heap_churn_1000000", 1_000_000, Limit::Report),
        churn_site::<EventQueue<u64>>("wheel_churn_1000000", 1_000_000, big),
    ];
    bench::gate("wheel", &mut sites)
}
