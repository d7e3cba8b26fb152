//! Event-queue engine guard: hierarchical timer wheel vs binary heap.
//!
//! Measures the steady-state hold-and-churn cost of both [`EventQueue`]
//! (timer wheel) and [`HeapQueue`] (the reference binary heap): pre-fill
//! N pending events, then repeatedly pop the earliest and push a
//! replacement a workload-shaped delay ahead — the access pattern of the
//! closed-loop scale world, where the pending population is constant.
//!
//! After the criterion-style report the target *gates* (release builds
//! only, skipped under `cargo test` smoke mode):
//!
//! * at N = 10⁴ the wheel must not be slower than the heap by more than
//!   [`SMALL_N_TOLERANCE`] — the wheel may not regress small runs;
//! * at N = 10⁶ the heap must cost at least [`BIG_N_FACTOR`]× the wheel —
//!   the O(1) claim that justifies the engine swap must stay true.
//!
//! Violations exit nonzero so CI catches a perf regression in either
//! direction.

use criterion::{black_box, Criterion};
use syrup::sim::{Duration, EventQueue, HeapQueue, SimQueue};

/// At 10⁴ pending the wheel may cost at most this multiple of the heap.
const SMALL_N_TOLERANCE: f64 = 1.25;

/// At 10⁶ pending the heap must cost at least this multiple of the wheel.
const BIG_N_FACTOR: f64 = 2.0;

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

fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("wheel");
    for &n in &[10_000u64, 1_000_000] {
        let mut wheel: EventQueue<u64> = prefill(n);
        let mut rng = Xs(7);
        g.bench_function(&format!("wheel_churn_{n}"), |b| {
            b.iter(|| churn(&mut wheel, &mut rng))
        });
        let mut heap: HeapQueue<u64> = prefill(n);
        let mut rng = Xs(7);
        g.bench_function(&format!("heap_churn_{n}"), |b| {
            b.iter(|| churn(&mut heap, &mut rng))
        });
    }
    g.finish();
}

/// Best-of churn cost per op for queue `Q` at `n` pending events.
fn churn_cost<Q: SimQueue<u64>>(n: u64, rounds: u32, batch: u32) -> f64 {
    let mut q: Q = prefill(n);
    let mut rng = Xs(7);
    bench::best_of(rounds, batch, || churn(&mut q, &mut rng))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let mut criterion = Criterion::default();
    bench_churn(&mut criterion);
    if smoke {
        println!("smoke mode — skipping the engine gate");
        return;
    }

    let small_wheel = churn_cost::<EventQueue<u64>>(10_000, 8, 2_000_000);
    let small_heap = churn_cost::<HeapQueue<u64>>(10_000, 8, 2_000_000);
    let big_wheel = churn_cost::<EventQueue<u64>>(1_000_000, 6, 2_000_000);
    let big_heap = churn_cost::<HeapQueue<u64>>(1_000_000, 6, 2_000_000);

    println!("\nengine gate (hold-and-churn, ns per pop+push):");
    println!("  n=10^4  wheel {small_wheel:>7.1}   heap {small_heap:>7.1}");
    println!("  n=10^6  wheel {big_wheel:>7.1}   heap {big_heap:>7.1}");
    if cfg!(debug_assertions) {
        println!("debug build — reporting only, not gating");
        return;
    }
    let mut failed = false;
    if small_wheel > small_heap * SMALL_N_TOLERANCE {
        eprintln!(
            "wheel: {small_wheel:.1} ns at 10^4 pending exceeds heap ({small_heap:.1} ns) \
             by more than {SMALL_N_TOLERANCE}x"
        );
        failed = true;
    }
    if big_heap < big_wheel * BIG_N_FACTOR {
        eprintln!(
            "wheel: heap at 10^6 pending ({big_heap:.1} ns) is not {BIG_N_FACTOR}x the wheel \
             ({big_wheel:.1} ns) — the engine swap lost its justification"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "engine gate OK: 10^4 ratio {:.2}, 10^6 ratio {:.2}",
        small_wheel / small_heap,
        big_heap / big_wheel
    );
}
