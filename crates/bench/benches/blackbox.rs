//! Flight-recorder hot-path cost: record sites enabled vs disabled.
//!
//! The contract every instrumented substrate relies on: a disabled
//! [`Recorder`] handle makes each record site a single `Option` branch,
//! cheap enough to leave compiled into `syrupd::schedule`, `Vm::run`,
//! and the queue paths unconditionally. Every disabled site is gated at
//! [`GATE_NS`] per call (see [`bench::gate()`]: release builds only, exit
//! nonzero over budget, skipped in `cargo test` smoke mode) so CI catches
//! a disabled path that silently grew work; the enabled sites are
//! reported beside them.

use std::hint::black_box;
use std::process::ExitCode;

use bench::{Limit, Site};
use syrup::blackbox::{Layer, Recorder};

/// The disabled-site budget, in nanoseconds per call.
const GATE_NS: f64 = 5.0;

fn main() -> ExitCode {
    let sides = [
        ("disabled", Recorder::disabled(), Limit::MaxNs(GATE_NS)),
        ("enabled", Recorder::new(), Limit::Report),
    ];
    let mut sites = Vec::new();
    for (side, recorder, limit) in &sides {
        let mut t = 0u64;
        sites.push(Site::new(format!("dispatch_{side}"), *limit, move || {
            t = t.wrapping_add(1);
            black_box(recorder).dispatch(t, 1, 4, (9 << 32) | 1, 325);
        }));
        sites.push(Site::new(
            format!("enqueue_drop_{side}"),
            *limit,
            move || black_box(recorder).enqueue_drop(Layer::Nic, 1, 9, 64),
        ));
        sites.push(Site::new(
            format!("depth_cross_{side}"),
            *limit,
            move || black_box(recorder).depth_cross(Layer::Sock, 1, true, 3, 3),
        ));
    }
    bench::gate("blackbox", &mut sites)
}
