//! Queue-discipline hot-path costs and the FIFO no-regression guard.
//!
//! Two contracts from the `syrup-sched` design:
//!
//! * A FIFO-backed `ExecQueue`/`SocketBuf` must cost what the plain
//!   `VecDeque` it replaced cost — the rank machinery is one enum match
//!   on the non-ranked path. `fifo_execqueue` is gated at
//!   [`FIFO_TOLERANCE`]× `fifo_vecdeque_baseline` (see [`bench::gate()`]:
//!   release builds only, exit nonzero over the limit).
//! * Ranked disciplines pay for their ordering: exact PIFO is
//!   `O(log n)` per op, the Eiffel bucket queue `O(1)` push with an FFS
//!   scan pop. The gap between them is the price of exactness.

use std::collections::VecDeque;
use std::hint::black_box;
use std::process::ExitCode;

use bench::{Limit, Site};
use syrup::sched::{BucketQueue, ExecQueue, Pifo, QueueKind};

/// Steady-state push+pop at a fixed occupancy, the socket-buffer pattern.
const WARM_DEPTH: usize = 64;

/// How many times the `VecDeque` push+pop a FIFO `ExecQueue` may cost.
/// Ten release runs on the shared 2-vCPU guest this was set on read
/// 1.15–1.51× (2.7–3.0 ns against 3.3–4.3 ns: at three nanoseconds a
/// neighbour's cache miss is a tenth of the reading), so the limit sits
/// above that spread; real work on the FIFO path — one enabled counter
/// increment alone is +8 ns — reads 3× and more.
const FIFO_TOLERANCE: f64 = 2.0;

/// A pseudo-random stream of ranks.
fn ranks() -> impl FnMut() -> u32 {
    let mut rank = 0u64;
    move || {
        rank = rank.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((rank >> 33) % 4096) as u32
    }
}

fn main() -> ExitCode {
    let mut vd: VecDeque<u64> = (0..WARM_DEPTH as u64).collect();
    let mut fifo: ExecQueue<u64> = ExecQueue::new(QueueKind::Fifo);
    for i in 0..WARM_DEPTH as u64 {
        fifo.push(i, 0);
    }

    let mut next_rank = ranks();
    let mut pifo: Pifo<u64> = Pifo::new();
    let mut bucket: BucketQueue<u64> = BucketQueue::new(64, 64);
    let mut ranked: ExecQueue<u64> = ExecQueue::new(QueueKind::Pifo);
    for i in 0..WARM_DEPTH as u64 {
        pifo.push(i, next_rank());
        bucket.push(i, next_rank());
        ranked.push(i, next_rank());
    }

    let guard = Limit::Ratio {
        of: "fifo_vecdeque_baseline",
        factor: FIFO_TOLERANCE,
    };
    let mut sites = [
        Site::new("fifo_vecdeque_baseline", Limit::Report, || {
            vd.push_back(black_box(1));
            vd.pop_front()
        }),
        Site::new("fifo_execqueue", guard, || {
            fifo.push(black_box(1), black_box(0));
            fifo.pop()
        }),
        Site::new("pifo_push_pop", Limit::Report, || {
            pifo.push(black_box(1), next_rank());
            pifo.pop()
        }),
        Site::new("bucket_push_pop", Limit::Report, {
            let mut next_rank = ranks();
            move || {
                bucket.push(black_box(1), next_rank());
                bucket.pop()
            }
        }),
        Site::new("pifo_execqueue", Limit::Report, {
            let mut next_rank = ranks();
            move || {
                ranked.push(black_box(1), next_rank());
                ranked.pop()
            }
        }),
    ];
    bench::gate("sched", &mut sites)
}
