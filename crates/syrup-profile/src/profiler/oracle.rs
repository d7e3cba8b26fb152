//! The eager accumulation the profiler used before the chain trie, kept
//! as the reference model: three string-keyed maps updated at every
//! flush, fed one sample per step (a recorded block is its steps). Random
//! and hand-picked span interleavings must render the same report JSON
//! and the same folded flamegraph from both.

use std::collections::BTreeMap;
use std::sync::{Barrier, LazyLock};

use proptest::prelude::*;

use super::*;

const PROGS: [&str; 4] = ["dispatch", "rr", "sita", "d"];
const HELPERS: [&str; 3] = ["map_lookup_elem", "tail_call", "get_prandom_u32"];
/// Both sides of every boundary: the flamegraph's 16-pc ranges, the
/// dense table's end, and pcs no dense table could hold.
const PCS: [usize; 12] = [
    0,
    1,
    2,
    15,
    16,
    17,
    40,
    (DENSE_PCS - 1) as usize,
    DENSE_PCS as usize,
    5_000,
    1_000_000,
    u32::MAX as usize,
];
const CYCLES: [u64; 6] = [0, 0, 1, 2, 45, 1_000];

/// Two step tables, zero-cost steps, helper tags and pcs past the dense
/// table included.
static LAYOUTS: LazyLock<[Steps; 2]> = LazyLock::new(|| {
    let step = |pc, cycles, helper| Step { pc, cycles, helper };
    [
        Steps::from([
            step(0, 0, None),
            step(0, 1, None),
            step(1, 45, Some(HELPERS[0])),
            step(2, 1, None),
            step(16, 2, None),
            step(17, 0, None),
            step(40, 1, Some(HELPERS[1])),
        ]),
        Steps::from([
            step(5, 3, None),
            step(DENSE_PCS, 1, None),
            step(5_000, 45, Some(HELPERS[2])),
            step(1, 2, None),
        ]),
    ]
});

/// The step table `layout` names, if any.
fn layout(layout: Option<usize>) -> Option<&'static Steps> {
    layout.map(|i| &LAYOUTS[i])
}

type Frame = (String, Vec<(u32, u64, Option<&'static str>)>);

#[derive(Default)]
struct Eager {
    runs: u64,
    pc_cycles: BTreeMap<(String, u32), u64>,
    helpers: BTreeMap<&'static str, (u64, u64)>,
    folded: BTreeMap<String, u64>,
    disasm: BTreeMap<String, Vec<String>>,
}

impl Eager {
    fn flush(&mut self, frames: &[Frame]) {
        self.runs += 1;
        let mut chain = String::from("vm");
        for (prog, samples) in frames {
            chain.push(';');
            chain.push_str(prog);
            let mut per_pc: BTreeMap<(u32, Option<&'static str>), (u64, u64)> = BTreeMap::new();
            for &(pc, cycles, helper) in samples {
                let e = per_pc.entry((pc, helper)).or_default();
                e.0 += cycles;
                e.1 += 1;
            }
            for ((pc, helper), (cycles, hits)) in per_pc {
                *self.pc_cycles.entry((prog.clone(), pc)).or_default() += cycles;
                let lo = pc - pc % PC_RANGE;
                let hi = lo + (PC_RANGE - 1);
                let key = match helper {
                    Some(h) => {
                        let e = self.helpers.entry(h).or_default();
                        e.0 += hits;
                        e.1 += cycles;
                        format!("{chain};pc{lo}-{hi};{h}")
                    }
                    None => format!("{chain};pc{lo}-{hi}"),
                };
                *self.folded.entry(key).or_default() += cycles;
            }
        }
    }

    fn report(&self, total_cycles: Option<u64>, top_n: usize) -> ProfileReport {
        let attributed: u64 = self.pc_cycles.values().sum();
        let total = total_cycles.unwrap_or(attributed);
        let share_of = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let mut per_prog: BTreeMap<&str, u64> = BTreeMap::new();
        for ((prog, _), cycles) in &self.pc_cycles {
            *per_prog.entry(prog.as_str()).or_default() += cycles;
        }
        let mut progs: Vec<ProgCycles> = per_prog
            .into_iter()
            .map(|(prog, cycles)| ProgCycles {
                prog: prog.to_string(),
                cycles,
                share: share_of(cycles, attributed),
            })
            .collect();
        progs.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.prog.cmp(&b.prog)));
        let mut hotspots: Vec<Hotspot> = self
            .pc_cycles
            .iter()
            .map(|((prog, pc), cycles)| Hotspot {
                prog: prog.clone(),
                pc: *pc,
                cycles: *cycles,
                insn: self
                    .disasm
                    .get(prog)
                    .and_then(|lines| lines.get(*pc as usize))
                    .cloned(),
            })
            .collect();
        hotspots.sort_by(|a, b| {
            b.cycles
                .cmp(&a.cycles)
                .then(a.prog.cmp(&b.prog))
                .then(a.pc.cmp(&b.pc))
        });
        hotspots.truncate(top_n);
        let mut helpers: Vec<HelperCost> = self
            .helpers
            .iter()
            .map(|(name, (calls, cycles))| HelperCost {
                helper: name.to_string(),
                calls: *calls,
                cycles: *cycles,
            })
            .collect();
        helpers.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.helper.cmp(&b.helper)));
        ProfileReport {
            runs: self.runs,
            total_cycles: total,
            attributed_cycles: attributed,
            coverage: share_of(attributed, total),
            progs,
            hotspots,
            helpers,
        }
    }

    fn flame(&self) -> String {
        let mut out = String::new();
        for (frame, cycles) in &self.folded {
            out.push_str(&format!("{frame} {cycles}\n"));
        }
        out
    }
}

/// One step against one of two concurrently open span slots.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Opens a span (flushing the slot's previous one first), on a step
    /// table or none.
    Enter(&'static str, u64, Option<usize>),
    Insn(usize, u64),
    Helper(&'static str),
    TailCall(&'static str, Option<usize>),
    /// Steps `start..start + len` of the frame's table, if it has one.
    Block(usize, usize),
    Cut(usize),
    Drop,
}

/// Drives the profiler and the model through the same steps; steps
/// against an empty slot are skipped on both sides.
#[derive(Default)]
struct Pair {
    model: Eager,
    spans: [Option<VmSpan>; 2],
    frames: [Option<Vec<Frame>>; 2],
    /// The current frame's step table.
    layouts: [Option<&'static Steps>; 2],
    /// When the last sample pushed was a block: its frame and its steps.
    blocks: [Option<(usize, usize)>; 2],
}

impl Pair {
    fn apply(&mut self, p: &Profiler, slot: usize, op: Op) {
        if matches!(op, Op::Enter(..) | Op::Drop) {
            self.spans[slot] = None;
            self.blocks[slot] = None;
            if let Some(frames) = self.frames[slot].take() {
                self.model.flush(&frames);
            }
        }
        if let Op::Enter(prog, invoke, steps) = op {
            self.spans[slot] = Some(p.vm_enter(prog, layout(steps), invoke));
            self.frames[slot] = Some(vec![(prog.to_string(), vec![(0, invoke, None)])]);
            self.layouts[slot] = layout(steps);
        }
        let (Some(span), Some(frames)) = (&mut self.spans[slot], &mut self.frames[slot]) else {
            return;
        };
        let block = &mut self.blocks[slot];
        let depth = frames.len() - 1;
        let frame = frames.last_mut().expect("a span has a root frame");
        match op {
            Op::Insn(pc, cycles) => {
                span.insn(pc, cycles);
                frame.1.push((pc as u32, cycles, None));
                *block = None;
            }
            Op::Helper(h) => {
                span.helper(h);
                if let (Some(last), None) = (frame.1.last_mut(), *block) {
                    last.2 = Some(h);
                }
            }
            Op::TailCall(prog, steps) => {
                span.tail_call(prog, layout(steps));
                frames.push((prog.to_string(), Vec::new()));
                self.layouts[slot] = layout(steps);
            }
            Op::Block(start, len) => {
                let Some(steps) = self.layouts[slot] else {
                    return;
                };
                let start = start % steps.len();
                let len = len % (steps.len() - start + 1);
                span.block(start, len as u32);
                let run = &steps[start..start + len];
                frame
                    .1
                    .extend(run.iter().map(|s| (s.pc, u64::from(s.cycles), s.helper)));
                *block = Some((depth, len));
            }
            Op::Cut(len) => {
                span.cut(len as u32);
                if let Some((at, recorded)) = block {
                    let kept = len.min(*recorded);
                    let samples = &mut frames[*at].1;
                    samples.truncate(samples.len() - (*recorded - kept));
                    *recorded = kept;
                }
            }
            Op::Enter(..) | Op::Drop => {}
        }
    }

    fn finish(mut self, p: &Profiler) -> Eager {
        for slot in 0..2 {
            self.apply(p, slot, Op::Drop);
        }
        self.model
    }
}

fn assert_same(p: &Profiler, model: &Eager) {
    let attributed = model.pc_cycles.values().sum::<u64>();
    for total in [None, Some(attributed * 2 + 7), Some(0)] {
        for top_n in [0, 3, usize::MAX] {
            assert_eq!(
                serde::json::to_string(&p.report(total, top_n)).unwrap(),
                serde::json::to_string(&model.report(total, top_n)).unwrap(),
                "report({total:?}, {top_n})"
            );
        }
    }
    assert_eq!(p.flame(), model.flame());
}

/// A profiler and a model that both know `dispatch`'s disassembly.
fn fresh() -> (Profiler, Pair) {
    let p = Profiler::new();
    let lines: Vec<String> = (0..20).map(|pc| format!("insn {pc}")).collect();
    p.register_program("dispatch", lines.clone());
    let mut pair = Pair::default();
    pair.model.disasm.insert("dispatch".to_string(), lines);
    (p, pair)
}

fn check(ops: &[(usize, Op)]) {
    let (p, mut pair) = fresh();
    for &(slot, op) in ops {
        pair.apply(&p, slot, op);
    }
    assert_same(&p, &pair.finish(&p));
}

fn op_strategy() -> impl Strategy<Value = (usize, Op)> {
    let pick = (0usize..2, 0u8..16, 0usize..64, 0usize..64, 0usize..3);
    pick.prop_map(|(slot, kind, a, b, c)| {
        let steps = c.checked_sub(1);
        let op = match kind {
            0 => Op::Enter(PROGS[a % PROGS.len()], CYCLES[b % CYCLES.len()], steps),
            1 => Op::Drop,
            2 | 3 => Op::Helper(HELPERS[a % HELPERS.len()]),
            4 => Op::TailCall(PROGS[a % PROGS.len()], steps),
            5..=7 => Op::Block(a, b),
            8 => Op::Cut(b % 8),
            _ => Op::Insn(PCS[a % PCS.len()], CYCLES[b % CYCLES.len()]),
        };
        (slot, op)
    })
}

proptest! {
    #[test]
    fn random_interleavings_match_the_eager_model(
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        check(&ops);
    }
}

#[test]
fn zero_cycle_samples_and_a_free_invoke_still_appear() {
    check(&[
        (0, Op::Enter("rr", 0, None)),
        (0, Op::Insn(7, 0)),
        (0, Op::Insn(20, 0)),
        (0, Op::Helper("map_lookup_elem")),
    ]);
    // Nothing but the invoke sample, worth nothing.
    check(&[(0, Op::Enter("rr", 0, None))]);
}

#[test]
fn one_pc_tagged_in_one_run_and_untagged_in_another() {
    check(&[
        (0, Op::Enter("rr", 25, None)),
        (0, Op::Insn(3, 45)),
        (0, Op::Helper("map_lookup_elem")),
        (0, Op::Enter("rr", 25, None)),
        (0, Op::Insn(3, 1)),
        (0, Op::Enter("rr", 25, None)),
        (0, Op::Insn(3, 45)),
        (0, Op::Helper("get_prandom_u32")),
    ]);
}

#[test]
fn one_program_reached_through_two_chains() {
    check(&[
        (0, Op::Enter("dispatch", 25, None)),
        (0, Op::TailCall("rr", None)),
        (0, Op::Insn(1, 2)),
        (1, Op::Enter("sita", 25, None)),
        (1, Op::TailCall("rr", None)),
        (1, Op::Insn(1, 2)),
        (1, Op::TailCall("rr", None)),
        (1, Op::Insn(1, 2)),
        (0, Op::Enter("rr", 25, None)),
        (0, Op::Insn(1, 2)),
    ]);
}

#[test]
fn wide_and_sparse_pcs() {
    let ops: Vec<(usize, Op)> = std::iter::once((0, Op::Enter("dispatch", 25, None)))
        .chain(PCS.iter().map(|&pc| (0, Op::Insn(pc, 3))))
        .chain([(0, Op::Helper("tail_call")), (0, Op::Insn(16, 1))])
        .collect();
    check(&ops);
}

#[test]
fn helper_right_after_tail_call_tags_nothing() {
    check(&[
        (0, Op::Enter("dispatch", 25, None)),
        (0, Op::Insn(1, 45)),
        (0, Op::TailCall("rr", None)),
        (0, Op::Helper("tail_call")),
        (0, Op::Insn(0, 1)),
    ]);
    // …and right after `vm_enter` it tags the invoke sample.
    check(&[(0, Op::Enter("rr", 25, None)), (0, Op::Helper("tail_call"))]);
}

/// Blocks expand into their steps' buckets; a cut keeps a prefix of the
/// block just recorded, even across the tail call it ended in; a helper
/// tag never lands on a block; one program on two step tables merges.
#[test]
fn blocks_expand_cut_and_merge() {
    check(&[
        (0, Op::Enter("dispatch", 25, Some(0))),
        (0, Op::Block(1, 3)),
        (0, Op::Helper("tail_call")),
        (0, Op::Block(4, 3)),
        (0, Op::Cut(2)),
        (0, Op::Cut(5)),
        (0, Op::Block(0, 7)),
        (0, Op::TailCall("rr", Some(1))),
        (0, Op::Cut(1)),
        (0, Op::Block(0, 4)),
        (0, Op::Insn(3, 2)),
        (0, Op::Cut(0)),
        (1, Op::Enter("rr", 25, Some(0))),
        (1, Op::Block(0, 7)),
        (1, Op::TailCall("rr", None)),
        (1, Op::Block(0, 2)),
        (1, Op::Insn(1, 45)),
        (1, Op::Helper("map_lookup_elem")),
    ]);
}

/// A block recorded as the buffer fills folds like any other sample, and
/// a cut right after still finds it.
#[test]
fn folding_mid_run_loses_no_block() {
    let mut ops = vec![(0, Op::Enter("dispatch", 25, Some(0)))];
    for i in 0..3 * FOLD_SAMPLES {
        ops.push((0, Op::Block(i % 7, 7)));
        if i % FOLD_SAMPLES < 2 || i % FOLD_SAMPLES > FOLD_SAMPLES - 2 {
            ops.push((0, Op::Cut(i % 3)));
        }
    }
    check(&ops);
}

/// A helper tag that lands right after the span folded its buffer must
/// still find its sample, on either side of a tail call.
#[test]
fn folding_mid_run_loses_no_tag() {
    let mut ops = vec![(0, Op::Enter("dispatch", 25, None))];
    for i in 0..3 * FOLD_SAMPLES {
        ops.push((0, Op::Insn(i % 40, 1)));
        if i % FOLD_SAMPLES < 3 || i % FOLD_SAMPLES > FOLD_SAMPLES - 3 {
            ops.push((0, Op::Helper(HELPERS[i % 3])));
        }
        if i == FOLD_SAMPLES + 1 {
            ops.push((0, Op::TailCall("rr", None)));
            ops.push((0, Op::Helper("tail_call")));
        }
    }
    check(&ops);
}

/// A runaway loop buffers O(1) samples: every cycle of a million-iteration
/// loop is attributed, and the buffer the span hands back for reuse never
/// grew past the fold threshold.
#[test]
fn long_loops_fold_as_they_go() {
    let p = Profiler::new();
    let mut span = p.vm_enter("looper", None, 25);
    for _ in 0..1_000_000 {
        span.insn(2, 1);
        span.insn(3, 45);
        span.helper("map_lookup_elem");
        span.insn(4, 2);
    }
    drop(span);
    let report = p.report(None, 3);
    assert_eq!(report.runs, 1);
    assert_eq!(report.attributed_cycles, 25 + 1_000_000 * 48);
    assert_eq!(report.hotspots[0].cycles, 45_000_000);
    assert_eq!(report.helpers[0].calls, 1_000_000);
    let inner = p.inner.as_ref().expect("enabled");
    {
        let st = inner.state.lock();
        assert_eq!(st.spare.len(), 1);
        assert!(st.spare[0].is_empty());
        let retained = st.spare[0].capacity();
        assert!(retained <= FOLD_SAMPLES, "{retained}");
    }
    // The next run picks that buffer up instead of allocating.
    drop(p.vm_enter("looper", None, 25));
    assert_eq!(inner.state.lock().spare.len(), 1);
}

/// Two threads flush spans into one profiler at once: no run and no
/// cycle is lost, and the result is what one thread would have built.
#[test]
fn concurrent_flushes_are_exact() {
    const RUNS: usize = 2_000;
    let run = |thread: usize, i: usize| -> Vec<(usize, Op)> {
        vec![
            (0, Op::Enter(PROGS[thread], 25, None)),
            (0, Op::Insn(i % 20, 1)),
            (0, Op::Insn(1, 45)),
            (0, Op::Helper(HELPERS[i % 3])),
            (0, Op::TailCall("rr", None)),
            (0, Op::Insn(i % 7, (i % 5) as u64)),
            (0, Op::Drop),
        ]
    };
    let (p, mut pair) = fresh();
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for thread in 0..2 {
            let (p, start, run) = (p.clone(), &start, &run);
            scope.spawn(move || {
                // The model is fed below; this side only drives spans.
                let mut spans = Pair::default();
                start.wait();
                for i in 0..RUNS {
                    for (slot, op) in run(thread, i) {
                        spans.apply(&p, slot, op);
                    }
                }
            });
        }
    });
    let silent = Profiler::disabled();
    for thread in 0..2 {
        for i in 0..RUNS {
            for (slot, op) in run(thread, i) {
                pair.apply(&silent, slot, op);
            }
        }
    }
    assert_eq!(p.report(None, 0).runs, 2 * RUNS as u64);
    assert_same(&p, &pair.finish(&silent));
}
