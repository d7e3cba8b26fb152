//! Property tests for the tracer's structural invariants.
//!
//! A well-behaved driver — one that stamps each request's stages with
//! non-decreasing timestamps and always finishes or drops what it
//! ingresses — must produce timelines that pass [`Timeline::validate`]
//! under *any* interleaving of concurrent requests: per-stage complete
//! spans never overlap, timestamps are monotonic, and every ingress is
//! closed by an end or dropped record. The tracer is also required to
//! clamp hostile intervals (end before start) and to detect traces the
//! driver abandoned.

use proptest::prelude::*;
use syrup_observe::trace::{reconstruct, Stage, TimelineError, TraceCtx, Tracer};

/// The stage sequence a simulated request walks, in stack order.
const PIPELINE: [Stage; 7] = [
    Stage::NicQueue,
    Stage::XdpDrv,
    Stage::CpuRedirect,
    Stage::StackRx,
    Stage::SocketSelect,
    Stage::SockQueue,
    Stage::Run,
];

#[derive(Debug, Clone)]
struct ReqPlan {
    arrival: u64,
    /// Residency at each pipeline stage.
    durs: Vec<u64>,
    /// `Some(k)`: the input is dropped at stage `k` after completing the
    /// first `k` spans. `None`: it runs the full pipeline and finishes.
    drop_after: Option<usize>,
}

fn req_plan() -> impl Strategy<Value = ReqPlan> {
    (
        0u64..1_000_000,
        proptest::collection::vec(1u64..10_000, PIPELINE.len()),
        any::<bool>(),
        0usize..PIPELINE.len(),
    )
        .prop_map(|(arrival, durs, dropped, drop_stage)| ReqPlan {
            arrival,
            durs,
            drop_after: dropped.then_some(drop_stage),
        })
}

struct ReqState {
    ctx: TraceCtx,
    t: u64,
    next_op: usize,
}

/// Drives all plans against one shared tracer, interleaving their span
/// emissions according to `picks` (each pick chooses which still-active
/// request performs its next operation).
fn run_interleaved(plans: &[ReqPlan], picks: &[usize], tracer: &Tracer) {
    let mut st: Vec<ReqState> = plans
        .iter()
        .map(|p| ReqState {
            ctx: TraceCtx::none(),
            t: p.arrival,
            next_op: 0,
        })
        .collect();
    let mut active: Vec<usize> = (0..plans.len()).collect();
    let mut cursor = 0usize;
    while !active.is_empty() {
        let slot = picks[cursor % picks.len()] % active.len();
        cursor += 1;
        let ri = active[slot];
        let plan = &plans[ri];
        let s = &mut st[ri];
        let n_spans = plan.drop_after.unwrap_or(plan.durs.len());
        let done = if s.next_op == 0 {
            s.ctx = tracer.ingress(s.t);
            false
        } else if s.next_op <= n_spans {
            let i = s.next_op - 1;
            tracer.span(s.ctx, PIPELINE[i], s.t, s.t + plan.durs[i]);
            s.t += plan.durs[i];
            false
        } else {
            match plan.drop_after {
                Some(k) => tracer.drop_input(s.ctx, PIPELINE[k], s.t),
                None => tracer.finish(s.ctx, s.t),
            }
            true
        };
        s.next_op += 1;
        if done {
            active.swap_remove(slot);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of well-behaved requests reconstructs into one
    /// valid, closed timeline per request, with monotonic record order
    /// and non-overlapping per-stage spans (checked by `validate`).
    #[test]
    fn interleaved_requests_yield_valid_closed_timelines(
        plans in proptest::collection::vec(req_plan(), 1..16),
        picks in proptest::collection::vec(any::<usize>(), 64),
    ) {
        let tracer = Tracer::new();
        run_interleaved(&plans, &picks, &tracer);
        let records = tracer.drain();
        let expected_records: usize = plans
            .iter()
            .map(|p| 2 + p.drop_after.unwrap_or(p.durs.len()))
            .sum();
        prop_assert_eq!(records.len(), expected_records);

        let timelines = reconstruct(&records);
        prop_assert_eq!(timelines.len(), plans.len());
        let mut dropped = 0usize;
        for tl in &timelines {
            prop_assert!(tl.validate().is_ok(), "{:?}", tl.validate());
            prop_assert!(tl.close_ns().is_some());
            // Records are ordered by start time within the timeline.
            for pair in tl.records.windows(2) {
                prop_assert!(pair[0].start_ns <= pair[1].start_ns);
            }
            if tl.is_dropped() {
                dropped += 1;
            }
        }
        let expected_dropped = plans.iter().filter(|p| p.drop_after.is_some()).count();
        prop_assert_eq!(dropped, expected_dropped);
    }

    /// Sampling traces exactly `ceil(n / sample_every)` of `n` ingresses,
    /// and every sampled trace is still valid and closed.
    #[test]
    fn sampling_traces_exactly_one_in_n(n in 1u64..500, s in 1u64..16) {
        let tracer = Tracer::sampled(s);
        let mut traced = 0u64;
        for i in 0..n {
            let ctx = tracer.ingress(i * 10);
            if ctx.is_traced() {
                tracer.span(ctx, Stage::Run, i * 10, i * 10 + 5);
                tracer.finish(ctx, i * 10 + 5);
                traced += 1;
            }
        }
        let expected = n.div_ceil(s);
        prop_assert_eq!(traced, expected);
        prop_assert_eq!(tracer.traces_started(), expected);
        let timelines = reconstruct(&tracer.drain());
        prop_assert_eq!(timelines.len() as u64, expected);
        for tl in &timelines {
            prop_assert!(tl.validate().is_ok());
        }
    }

    /// Span sites clamp reversed intervals: no record ever ends before it
    /// starts, whatever the caller passes.
    #[test]
    fn span_sites_clamp_reversed_intervals(
        pairs in proptest::collection::vec((0u64..1_000, 0u64..1_000), 1..32),
    ) {
        let tracer = Tracer::new();
        let ctx = tracer.ingress(0);
        for (a, b) in &pairs {
            tracer.span(ctx, Stage::Run, *a, *b);
        }
        tracer.finish(ctx, 2_000);
        for r in tracer.peek() {
            prop_assert!(r.end_ns >= r.start_ns);
        }
    }

    /// A trace the driver abandons (ingress, never finished or dropped)
    /// is flagged `Unclosed` — and only those traces are.
    #[test]
    fn unclosed_ingress_is_detected(n_closed in 0usize..8, n_open in 1usize..8) {
        let tracer = Tracer::new();
        for i in 0..n_closed {
            let ctx = tracer.ingress(i as u64);
            tracer.finish(ctx, i as u64 + 1);
        }
        for i in 0..n_open {
            let _leaked = tracer.ingress(1_000 + i as u64);
        }
        let timelines = reconstruct(&tracer.drain());
        prop_assert_eq!(timelines.len(), n_closed + n_open);
        let unclosed = timelines
            .iter()
            .filter(|tl| tl.validate() == Err(TimelineError::Unclosed))
            .count();
        prop_assert_eq!(unclosed, n_open);
        let valid = timelines.iter().filter(|tl| tl.validate().is_ok()).count();
        prop_assert_eq!(valid, n_closed);
    }
}
