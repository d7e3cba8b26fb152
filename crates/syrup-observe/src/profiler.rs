//! The profiler sink and the cycle-attribution report.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Serialize, SerializeStruct, Serializer};

use crate::pressure::{self, QueueSeries, ThreadAgg};
use crate::profile::PressureReport;

/// PCs are folded into ranges of this many instructions in flamegraph
/// frames, so long unrolled bodies (SCAN Avoid) stay readable.
pub(crate) const PC_RANGE: u32 = 16;

/// Untagged samples at pcs below this land in a chain node's dense
/// table; helper-tagged samples and the rare larger pc go to its sorted
/// `tagged` list, so one stray pc cannot size an allocation.
const DENSE_PCS: u32 = 4096;

/// A span folds its sample buffer into the tables when it holds this
/// many samples, so a runaway loop buffers O(1) memory until it traps.
const FOLD_SAMPLES: usize = 2048;

/// One step of a program the VM profiles a basic block at a time: the pc
/// its cycles land on, its modelled cost, and the helper it calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Instruction index in the source program.
    pub pc: u32,
    /// Modelled cycles one execution costs.
    pub cycles: u32,
    /// The helper the step calls, which tags its bucket.
    pub helper: Option<&'static str>,
}

/// A program's static step table: [`VmSpan::block`] names a run of it, and
/// the report expands each recorded run into per-pc buckets.
pub type Steps = Arc<[Step]>;

/// Starvation threshold: an executor runnable-but-unserved for longer
/// than this (virtual ns) is flagged in the pressure report.
pub const STARVATION_NS: u64 = 1_000_000;

/// Scheduler state of a profiled thread, for time-in-state accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Ready to run, waiting for a core.
    Runnable,
    /// On a core.
    Running,
    /// Off the runqueue (sleeping / waiting for work).
    Blocked,
}

impl ThreadState {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            ThreadState::Runnable => "runnable",
            ThreadState::Running => "running",
            ThreadState::Blocked => "blocked",
        }
    }
}

/// One node of the tail-call chain trie: a program as reached through
/// one particular chain of callers, run on one step table. Names are only
/// read when a frame is resolved and when a report is rendered; samples
/// add by index.
#[derive(Debug)]
struct ChainNode {
    /// The calling frame's node; `None` for an entry program. Always a
    /// smaller index than the node's own.
    parent: Option<u32>,
    prog: String,
    /// The step table block hits index; `None` for a program profiled a
    /// step at a time.
    steps: Option<Steps>,
    /// `(cycles, hits)` per pc for untagged samples; `hits > 0` marks a
    /// touched bucket, so zero-cycle buckets still reach the reports.
    dense: Vec<(u64, u64)>,
    /// Everything else, sorted by key.
    tagged: Vec<Bucket>,
    /// `(steps, hits)` per first step below [`DENSE_PCS`]: the block
    /// that starts there, as its first hit gave its length.
    blocks: Vec<(u32, u64)>,
    /// Hits per other run of `steps` as `(first step, steps)`, sorted: the
    /// part of a block a trapped run executed, or a block starting past
    /// the dense table.
    parts: Vec<((u32, u32), u64)>,
}

/// `(pc, helper) → (cycles, hits)`.
type Bucket = ((u32, Option<&'static str>), (u64, u64));

impl ChainNode {
    /// Every touched bucket as `((pc, helper), (cycles, hits))`; a pc may
    /// come more than once, and its entries add up.
    fn buckets(&self) -> impl Iterator<Item = Bucket> + '_ {
        let dense = self.dense.iter().enumerate();
        let dense = dense.filter(|(_, e)| e.1 > 0);
        let dense = dense.map(|(pc, &e)| ((pc as u32, None), e));
        let steps = self.steps.as_deref().unwrap_or_default();
        let blocks = self.blocks.iter().enumerate();
        let blocks = blocks.map(|(start, &(len, hits))| ((start as u32, len), hits));
        let runs = blocks.chain(self.parts.iter().copied());
        let runs = runs
            .filter(|run| run.1 > 0)
            .flat_map(move |((start, len), hits)| {
                let (start, len) = (start as usize, len as usize);
                let run = steps.get(start..start + len).unwrap_or_default();
                run.iter()
                    .map(move |s| ((s.pc, s.helper), (u64::from(s.cycles) * hits, hits)))
            });
        dense.chain(self.tagged.iter().copied()).chain(runs)
    }
}

#[derive(Debug, Default)]
pub(crate) struct ProfState {
    /// Completed VM invocations flushed into the sink.
    pub(crate) runs: u64,
    /// The chain trie, parents before children.
    nodes: Vec<ChainNode>,
    /// Sample buffers handed back by flushed spans, for the next run.
    spare: Vec<Vec<Sample>>,
    /// Rendered instruction text per program, indexed by pc.
    pub(crate) disasm: BTreeMap<String, Vec<String>>,
    /// Per-component queue-depth series.
    pub(crate) queues: BTreeMap<String, QueueSeries>,
    /// Per-component rank-band occupancy series (ranked executors only;
    /// one slot per band of `syrup-sched`'s fixed band partition).
    pub(crate) rank_bands: BTreeMap<String, QueueSeries>,
    /// Per-thread time-in-state accounting.
    pub(crate) threads: BTreeMap<u64, ThreadAgg>,
    /// Scheduling-latency samples: `(count, sum, max)`.
    pub(crate) sched_latency: (u64, u64, u64),
    /// Starvation events (runnable beyond [`STARVATION_NS`]).
    pub(crate) starvation: Vec<crate::profile::StarvationEvent>,
    /// Flight recorder mirror for starvation flags (disabled by default).
    pub(crate) recorder: crate::blackbox::Recorder,
}

impl ProfState {
    /// Resolves (creating on first sight) the trie node for `prog` run
    /// on `steps`, reached from `parent`. Step tables match by content,
    /// so a table rebuilt on every publish finds the node its first copy
    /// made.
    fn node(&mut self, parent: Option<u32>, prog: &str, steps: Option<&Steps>) -> u32 {
        let same = |a: Option<&Steps>| match (a, steps) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a[..] == b[..],
            (a, b) => a.is_none() && b.is_none(),
        };
        let found = self
            .nodes
            .iter()
            .position(|n| n.parent == parent && n.prog == prog && same(n.steps.as_ref()));
        found.unwrap_or_else(|| {
            self.nodes.push(ChainNode {
                parent,
                prog: prog.to_string(),
                steps: steps.cloned(),
                dense: Vec::new(),
                tagged: Vec::new(),
                blocks: Vec::new(),
                parts: Vec::new(),
            });
            self.nodes.len() - 1
        }) as u32
    }

    /// Drains a span's samples into the tables: one pass of indexed adds.
    fn fold(&mut self, samples: &mut Vec<Sample>) {
        for s in samples.drain(..) {
            let (node, key, cycles) = match s {
                Sample::Block { node, start, len } => {
                    let node = &mut self.nodes[node as usize];
                    if start < DENSE_PCS {
                        let at = start as usize;
                        if node.blocks.len() <= at {
                            node.blocks.resize(at + 1, (0, 0));
                        }
                        let block = &mut node.blocks[at];
                        if block.1 == 0 || block.0 == len {
                            *block = (len, block.1 + 1);
                            continue;
                        }
                    }
                    let key = (start, len);
                    match node.parts.binary_search_by(|e| e.0.cmp(&key)) {
                        Ok(at) => node.parts[at].1 += 1,
                        Err(at) => node.parts.insert(at, (key, 1)),
                    }
                    continue;
                }
                Sample::Insn {
                    node,
                    pc,
                    cycles,
                    helper,
                } => (&mut self.nodes[node as usize], (pc, helper), cycles),
            };
            let bucket = if key.1.is_none() && key.0 < DENSE_PCS {
                let pc = key.0 as usize;
                if node.dense.len() <= pc {
                    node.dense.resize(pc + 1, (0, 0));
                }
                &mut node.dense[pc]
            } else {
                let at = node.tagged.binary_search_by(|e| e.0.cmp(&key));
                let at = at.unwrap_or_else(|at| {
                    node.tagged.insert(at, (key, (0, 0)));
                    at
                });
                &mut node.tagged[at].1
            };
            bucket.0 += cycles;
            bucket.1 += 1;
        }
    }
}

#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) state: Mutex<ProfState>,
}

/// The cross-stack profiler sink. Cloning is cheap and shares state
/// (handle semantics, like `Registry` and `Tracer`); a
/// [`Profiler::disabled`] handle makes every sample site a single
/// branch.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<Inner>>,
}

impl Profiler {
    /// An enabled profiler.
    pub fn new() -> Self {
        Profiler {
            inner: Some(Arc::new(Inner {
                state: Mutex::new(ProfState::default()),
            })),
        }
    }

    /// A disabled profiler: every operation is a no-op branch.
    pub fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// Whether samples are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers a program's rendered instructions so hotspots can be
    /// annotated with their disassembly. Idempotent per name.
    pub fn register_program(&self, name: &str, insns: Vec<String>) {
        let Some(inner) = &self.inner else { return };
        inner.state.lock().disasm.insert(name.to_string(), insns);
    }

    /// Opens a per-invocation recording scope rooted at `prog`, run on
    /// `steps` when the VM records it a block at a time. The fixed
    /// invocation cost is attributed to the entry `(prog, pc 0)` bucket so
    /// the attributed sum matches the VM's cycle account exactly. The
    /// scope flushes into the sink when dropped.
    #[inline]
    pub fn vm_enter(&self, prog: &str, steps: Option<&Steps>, invoke_cycles: u64) -> VmSpan {
        let Some(inner) = &self.inner else {
            return VmSpan::off();
        };
        VmSpan::open(inner, None, prog, steps, invoke_cycles)
    }

    /// Opens the scope of a run that came down a dispatcher path: it
    /// entered `path.0`, executed every step of `path.1` once and
    /// tail-called into `prog`, run on `steps`. The same as
    /// [`Profiler::vm_enter`] on the path, a [`VmSpan::block`] of all its
    /// steps and a [`VmSpan::tail_call`], under one lock instead of two.
    #[inline]
    pub fn vm_enter_path(
        &self,
        path: (&str, &Steps),
        prog: &str,
        steps: Option<&Steps>,
        invoke_cycles: u64,
    ) -> VmSpan {
        let Some(inner) = &self.inner else {
            return VmSpan::off();
        };
        VmSpan::open(inner, Some(path), prog, steps, invoke_cycles)
    }

    /// Records one per-queue depth snapshot for `component` (e.g.
    /// `"nic"`, `"sock"`). Series with differing lengths grow to the
    /// widest snapshot seen.
    #[inline]
    pub fn queue_depths(&self, component: &str, now_ns: u64, depths: &[usize]) {
        let Some(inner) = &self.inner else { return };
        Self::queue_depths_slow(inner, component, now_ns, depths);
    }

    #[cold]
    fn queue_depths_slow(inner: &Inner, component: &str, now_ns: u64, depths: &[usize]) {
        series(&mut inner.state.lock().queues, component).push(now_ns, depths);
    }

    /// Records one rank-band occupancy snapshot for `component`: how many
    /// queued items currently sit in each rank band of a ranked executor
    /// (PIFO / bucket queue). Band semantics come from
    /// `syrup_sched::rank_band`; FIFO executors never call this.
    #[inline]
    pub fn queue_rank_bands(&self, component: &str, now_ns: u64, bands: &[usize]) {
        let Some(inner) = &self.inner else { return };
        Self::queue_rank_bands_slow(inner, component, now_ns, bands);
    }

    #[cold]
    fn queue_rank_bands_slow(inner: &Inner, component: &str, now_ns: u64, bands: &[usize]) {
        series(&mut inner.state.lock().rank_bands, component).push(now_ns, bands);
    }

    /// Records a thread's transition into `state` at `now_ns`,
    /// accumulating the elapsed interval into the previous state's
    /// bucket. A runnable→running transition longer than
    /// [`STARVATION_NS`] emits a [`crate::profile::StarvationEvent`].
    #[inline]
    pub fn thread_state(&self, tid: u64, state: ThreadState, now_ns: u64) {
        let Some(inner) = &self.inner else { return };
        Self::thread_state_slow(inner, tid, state, now_ns);
    }

    #[cold]
    fn thread_state_slow(inner: &Inner, tid: u64, state: ThreadState, now_ns: u64) {
        let mut st = inner.state.lock();
        let agg = st
            .threads
            .entry(tid)
            .or_insert_with(|| ThreadAgg::new(state, now_ns));
        if let Some(runnable_ns) = agg.transition(state, now_ns) {
            st.starvation.push(crate::profile::StarvationEvent {
                tid,
                runnable_ns,
                at_ns: now_ns,
            });
            st.recorder.starvation(now_ns, tid, runnable_ns);
        }
    }

    /// Records one scheduling-latency sample (decision commit → thread
    /// placed), in virtual ns.
    #[inline]
    pub fn sched_latency(&self, ns: u64) {
        let Some(inner) = &self.inner else { return };
        Self::sched_latency_slow(inner, ns);
    }

    #[cold]
    fn sched_latency_slow(inner: &Inner, ns: u64) {
        let mut st = inner.state.lock();
        st.sched_latency.0 += 1;
        st.sched_latency.1 += ns;
        st.sched_latency.2 = st.sched_latency.2.max(ns);
    }

    /// Mirrors starvation flags into the flight recorder, arming its
    /// [`crate::blackbox::TriggerCause::Starvation`] trigger path.
    pub fn attach_blackbox(&self, recorder: &crate::blackbox::Recorder) {
        if let Some(inner) = &self.inner {
            inner.state.lock().recorder = recorder.clone();
        }
    }

    /// Builds the cycle-attribution report. `total_cycles` is the
    /// ground-truth account to compute coverage against (typically the
    /// `vm/run_cycles` histogram sum); `None` uses the attributed sum
    /// itself. `top_n` bounds the hotspot table.
    pub fn report(&self, total_cycles: Option<u64>, top_n: usize) -> ProfileReport {
        let Some(inner) = &self.inner else {
            return ProfileReport::default();
        };
        let st = inner.state.lock();
        // Cycles per `(prog, pc)` over every chain that reaches `prog`,
        // and per-helper `(calls, cycles)`.
        let mut pc_cycles: BTreeMap<(&str, u32), u64> = BTreeMap::new();
        let mut helpers: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for node in &st.nodes {
            for ((pc, helper), (cycles, hits)) in node.buckets() {
                *pc_cycles.entry((&node.prog, pc)).or_default() += cycles;
                if let Some(h) = helper {
                    let e = helpers.entry(h).or_default();
                    e.0 += hits;
                    e.1 += cycles;
                }
            }
        }
        let attributed: u64 = pc_cycles.values().sum();
        let total = total_cycles.unwrap_or(attributed);
        let coverage = if total == 0 {
            0.0
        } else {
            attributed as f64 / total as f64
        };

        let mut per_prog: BTreeMap<&str, u64> = BTreeMap::new();
        for ((prog, _), cycles) in &pc_cycles {
            *per_prog.entry(prog).or_default() += cycles;
        }
        let mut progs: Vec<ProgCycles> = per_prog
            .into_iter()
            .map(|(prog, cycles)| ProgCycles {
                prog: prog.to_string(),
                cycles,
                share: if attributed == 0 {
                    0.0
                } else {
                    cycles as f64 / attributed as f64
                },
            })
            .collect();
        progs.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.prog.cmp(&b.prog)));

        let mut hotspots: Vec<Hotspot> = pc_cycles
            .iter()
            .map(|(&(prog, pc), &cycles)| Hotspot {
                prog: prog.to_string(),
                pc,
                cycles,
                insn: st
                    .disasm
                    .get(prog)
                    .and_then(|lines| lines.get(pc as usize))
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

        let mut helpers: Vec<HelperCost> = helpers
            .iter()
            .map(|(name, (calls, cycles))| HelperCost {
                helper: name.to_string(),
                calls: *calls,
                cycles: *cycles,
            })
            .collect();
        helpers.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.helper.cmp(&b.helper)));

        ProfileReport {
            runs: st.runs,
            total_cycles: total,
            attributed_cycles: attributed,
            coverage,
            progs,
            hotspots,
            helpers,
        }
    }

    /// Renders the collapsed-stack flamegraph: one
    /// `vm;prog[;prog…];pcN-M[;helper] cycles` line per folded frame,
    /// loadable by inferno / speedscope / flamegraph.pl.
    pub fn flame(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let st = inner.state.lock();
        // Folded frames (`vm;prog;…;pcN-M[;helper]`) → cycles; a node's
        // chain prefix extends its parent's, which always precedes it.
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        let mut chains: Vec<String> = Vec::with_capacity(st.nodes.len());
        for node in &st.nodes {
            let caller = node.parent.map_or("vm", |p| &chains[p as usize]);
            let chain = format!("{caller};{}", node.prog);
            for ((pc, helper), (cycles, _)) in node.buckets() {
                let lo = pc - pc % PC_RANGE;
                let hi = lo + (PC_RANGE - 1);
                let key = match helper {
                    Some(h) => format!("{chain};pc{lo}-{hi};{h}"),
                    None => format!("{chain};pc{lo}-{hi}"),
                };
                *folded.entry(key).or_default() += cycles;
            }
            chains.push(chain);
        }
        let mut out = String::new();
        for (frame, cycles) in &folded {
            out.push_str(frame);
            out.push(' ');
            out.push_str(&cycles.to_string());
            out.push('\n');
        }
        out
    }

    /// Builds the executor-pressure report (queue imbalance, thread
    /// time-in-state, scheduling latency, starvation flags).
    pub fn pressure(&self) -> PressureReport {
        let Some(inner) = &self.inner else {
            return PressureReport::default();
        };
        pressure::build_report(&inner.state.lock())
    }
}

/// The series for `component`, looked up by `&str` so an existing
/// component costs no allocation.
fn series<'a>(map: &'a mut BTreeMap<String, QueueSeries>, component: &str) -> &'a mut QueueSeries {
    if !map.contains_key(component) {
        map.insert(component.to_string(), QueueSeries::default());
    }
    map.get_mut(component).expect("present or just inserted")
}

/// One recorded sample of a chain node's program.
#[derive(Debug)]
enum Sample {
    /// `cycles` at `pc`.
    Insn {
        node: u32,
        pc: u32,
        cycles: u64,
        helper: Option<&'static str>,
    },
    /// One execution of the node's steps `start..start + len`.
    Block { node: u32, start: u32, len: u32 },
}

/// A per-invocation recording scope handed out by
/// [`Profiler::vm_enter`]. All methods are a single branch when the
/// profiler is disabled; the scope flushes its samples on drop.
#[derive(Debug)]
pub struct VmSpan {
    /// The sink; `None` when the profiler is disabled.
    inner: Option<Arc<Inner>>,
    /// Chain node of the current frame.
    node: u32,
    /// Where the current frame's samples start in `buf`: `helper` never
    /// tags across a tail call.
    frame_start: usize,
    buf: Vec<Sample>,
}

// The slow paths stay out of line and take the sink and the buffer, not
// the span, so a span's `inner` check can live in a register at the VM's
// sample sites.
impl VmSpan {
    /// The scope of a disabled profiler.
    #[inline]
    fn off() -> VmSpan {
        VmSpan {
            inner: None,
            node: 0,
            frame_start: 0,
            buf: Vec::new(),
        }
    }

    /// A scope on arrival in `prog`, run on `steps`: rooted there, or
    /// reached from the root of `path` by a tail call after every step of
    /// the path's table.
    #[inline(never)]
    fn open(
        inner: &Arc<Inner>,
        path: Option<(&str, &Steps)>,
        prog: &str,
        steps: Option<&Steps>,
        invoke_cycles: u64,
    ) -> VmSpan {
        let mut st = inner.state.lock();
        let root = path.map(|(prog, steps)| st.node(None, prog, Some(steps)));
        let node = st.node(root, prog, steps);
        let mut buf = st.spare.pop().unwrap_or_default();
        drop(st);
        buf.push(Sample::Insn {
            node: root.unwrap_or(node),
            pc: 0,
            cycles: invoke_cycles,
            helper: None,
        });
        // The path's frame ends at its tail call: `helper` tags only
        // what the target's frame records.
        let mut frame_start = 0;
        if let (Some(root), Some((_, steps))) = (root, path) {
            buf.push(Sample::Block {
                node: root,
                start: 0,
                len: steps.len() as u32,
            });
            frame_start = buf.len();
        }
        VmSpan {
            inner: Some(inner.clone()),
            node,
            frame_start,
            buf,
        }
    }

    #[cold]
    fn spill(inner: &Inner, buf: &mut Vec<Sample>) {
        inner.state.lock().fold(buf);
    }

    #[inline(never)]
    fn flush(inner: &Inner, buf: &mut Vec<Sample>) {
        let mut st = inner.state.lock();
        st.runs += 1;
        st.fold(buf);
        st.spare.push(std::mem::take(buf));
    }

    /// Buffers `sample`. Folding before the push keeps the newest sample
    /// buffered for a `helper` tag or a `cut` that may follow it.
    #[inline]
    fn push(&mut self, sample: Sample) {
        let Some(inner) = &self.inner else { return };
        if self.buf.len() >= FOLD_SAMPLES {
            Self::spill(inner, &mut self.buf);
            self.frame_start = 0;
        }
        self.buf.push(sample);
    }

    /// Attributes `cycles` to the instruction at `pc` of the current
    /// chain frame.
    #[inline]
    pub fn insn(&mut self, pc: usize, cycles: u64) {
        self.push(Sample::Insn {
            node: self.node,
            pc: pc as u32,
            cycles,
            helper: None,
        });
    }

    /// Attributes one execution of steps `start..start + len` of the
    /// current frame's step table: each step's cycles to its pc, tagged
    /// with its helper.
    #[inline]
    pub fn block(&mut self, start: usize, len: u32) {
        self.push(Sample::Block {
            node: self.node,
            start: start as u32,
            len,
        });
    }

    /// Shortens the block just recorded to its first `len` steps: the run
    /// left it part way, at a trap.
    #[inline]
    pub fn cut(&mut self, len: u32) {
        if let Some(Sample::Block { len: recorded, .. }) = self.buf.last_mut() {
            *recorded = len.min(*recorded);
        }
    }

    /// Tags the most recent sample as a call to `helper`, so its cycles
    /// additionally land in the per-helper table and the flamegraph
    /// frame gains a helper leaf.
    #[inline]
    pub fn helper(&mut self, helper: &'static str) {
        if let Some(Sample::Insn { helper: tag, .. }) = self.buf[self.frame_start..].last_mut() {
            *tag = Some(helper);
        }
    }

    /// Pushes a new chain frame: a successful tail call into `prog`, run
    /// on `steps` when the VM records it a block at a time.
    #[inline]
    pub fn tail_call(&mut self, prog: &str, steps: Option<&Steps>) {
        let Some(inner) = &self.inner else { return };
        self.node = inner.state.lock().node(Some(self.node), prog, steps);
        self.frame_start = self.buf.len();
    }
}

impl Drop for VmSpan {
    #[inline]
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            Self::flush(inner, &mut self.buf);
        }
    }
}

/// Cycles attributed to one program of the chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgCycles {
    /// Program name.
    pub prog: String,
    /// Cycles attributed to its instructions.
    pub cycles: u64,
    /// Fraction of all attributed cycles.
    pub share: f64,
}

impl Serialize for ProgCycles {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("ProgCycles", 3)?;
        s.serialize_field("prog", &self.prog)?;
        s.serialize_field("cycles", &self.cycles)?;
        s.serialize_field("share", &self.share)?;
        s.end()
    }
}

/// One hotspot row: a `(prog, pc)` bucket with its attributed cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot {
    /// Program name.
    pub prog: String,
    /// Instruction index.
    pub pc: u32,
    /// Cycles attributed to this pc.
    pub cycles: u64,
    /// Rendered instruction, when the program's disassembly was
    /// registered.
    pub insn: Option<String>,
}

impl Serialize for Hotspot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Hotspot", 4)?;
        s.serialize_field("prog", &self.prog)?;
        s.serialize_field("pc", &u64::from(self.pc))?;
        s.serialize_field("cycles", &self.cycles)?;
        s.serialize_field("insn", &self.insn)?;
        s.end()
    }
}

/// Per-helper call counts and cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelperCost {
    /// Helper name (`map_lookup_elem`, …).
    pub helper: String,
    /// Executions attributed to this helper.
    pub calls: u64,
    /// Cycles spent in the helper.
    pub cycles: u64,
}

impl Serialize for HelperCost {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("HelperCost", 3)?;
        s.serialize_field("helper", &self.helper)?;
        s.serialize_field("calls", &self.calls)?;
        s.serialize_field("cycles", &self.cycles)?;
        s.end()
    }
}

/// The cycle-attribution report: where the VM's cycles went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// VM invocations flushed into the sink.
    pub runs: u64,
    /// Ground-truth total cycles (the `vm/run_cycles` sum when known).
    pub total_cycles: u64,
    /// Cycles attributed to concrete `(prog, pc)` buckets.
    pub attributed_cycles: u64,
    /// `attributed / total` — the acceptance bar is ≥ 0.95.
    pub coverage: f64,
    /// Per-program attribution, hottest first.
    pub progs: Vec<ProgCycles>,
    /// Top-N `(prog, pc)` buckets, hottest first.
    pub hotspots: Vec<Hotspot>,
    /// Per-helper attribution, hottest first.
    pub helpers: Vec<HelperCost>,
}

impl Serialize for ProfileReport {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("ProfileReport", 7)?;
        s.serialize_field("runs", &self.runs)?;
        s.serialize_field("total_cycles", &self.total_cycles)?;
        s.serialize_field("attributed_cycles", &self.attributed_cycles)?;
        s.serialize_field("coverage", &self.coverage)?;
        s.serialize_field("progs", &self.progs)?;
        s.serialize_field("hotspots", &self.hotspots)?;
        s.serialize_field("helpers", &self.helpers)?;
        s.end()
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn run_once(p: &Profiler) {
        let mut span = p.vm_enter("dispatch", None, 25);
        span.insn(0, 1);
        span.insn(1, 45);
        span.helper("tail_call");
        span.tail_call("rr", None);
        span.insn(0, 1);
        span.insn(1, 45);
        span.helper("map_lookup_elem");
        span.insn(2, 1);
    }

    #[test]
    fn disabled_profiler_is_empty() {
        let p = Profiler::disabled();
        run_once(&p);
        p.queue_depths("nic", 0, &[1, 2]);
        p.thread_state(1, ThreadState::Runnable, 0);
        p.sched_latency(10);
        assert!(!p.is_enabled());
        assert_eq!(p.report(None, 10), ProfileReport::default());
        assert_eq!(p.flame(), "");
    }

    #[test]
    fn attribution_covers_every_cycle() {
        let p = Profiler::new();
        run_once(&p);
        // 25 (invoke, pc0) + 1 + 45 in dispatch, 1 + 45 + 1 in rr.
        let report = p.report(None, 10);
        assert_eq!(report.runs, 1);
        assert_eq!(report.attributed_cycles, 25 + 1 + 45 + 1 + 45 + 1);
        assert_eq!(report.coverage, 1.0);
        assert_eq!(report.progs.len(), 2);
        assert_eq!(report.progs[0].prog, "dispatch"); // 71 > 47
        let shares: f64 = report.progs.iter().map(|p| p.share).sum();
        assert!((shares - 1.0).abs() < 1e-9);
        // Helper table: one tail_call, one map_lookup_elem.
        assert_eq!(report.helpers.len(), 2);
        assert!(report
            .helpers
            .iter()
            .any(|h| h.helper == "tail_call" && h.calls == 1 && h.cycles == 45));
    }

    #[test]
    fn coverage_uses_supplied_total() {
        let p = Profiler::new();
        run_once(&p);
        let report = p.report(Some(236), 10);
        assert_eq!(report.total_cycles, 236);
        assert!((report.coverage - 118.0 / 236.0).abs() < 1e-9);
    }

    #[test]
    fn tail_calls_fold_into_full_chains() {
        let p = Profiler::new();
        run_once(&p);
        let flame = p.flame();
        // The invoke cost folds into the root frame; the tail-called
        // policy's frames carry the full chain prefix.
        assert!(flame.contains("vm;dispatch;pc0-15 "), "{flame}");
        assert!(flame.contains("vm;dispatch;pc0-15;tail_call 45"), "{flame}");
        assert!(
            flame.contains("vm;dispatch;rr;pc0-15;map_lookup_elem 45"),
            "{flame}"
        );
        // Every line is `frames count` with a numeric suffix.
        for line in flame.lines() {
            let (frames, count) = line.rsplit_once(' ').expect("folded line");
            assert!(frames.contains(';'), "{line}");
            count.parse::<u64>().expect("numeric suffix");
        }
        // Folded cycles account for the whole run.
        let folded_total: u64 = flame
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        assert_eq!(folded_total, p.report(None, 1).attributed_cycles);
    }

    #[test]
    fn hotspots_are_annotated_and_ranked() {
        let p = Profiler::new();
        p.register_program(
            "dispatch",
            vec!["r0 = 0".into(), "call tail_call".into(), "exit".into()],
        );
        run_once(&p);
        let report = p.report(None, 2);
        assert_eq!(report.hotspots.len(), 2);
        // pc1 of each prog carries the helper cost (45); dispatch pc0
        // carries invoke (25) + 1.
        assert_eq!(report.hotspots[0].cycles, 45);
        let annotated = report
            .hotspots
            .iter()
            .find(|h| h.prog == "dispatch" && h.pc == 1)
            .expect("dispatch pc1 in top-2");
        assert_eq!(annotated.insn.as_deref(), Some("call tail_call"));
    }

    #[test]
    fn loops_fold_per_distinct_pc() {
        let p = Profiler::new();
        let mut span = p.vm_enter("looper", None, 0);
        for _ in 0..100 {
            span.insn(3, 2);
        }
        drop(span);
        let report = p.report(None, 10);
        assert_eq!(report.attributed_cycles, 200);
        let hot = report
            .hotspots
            .iter()
            .find(|h| h.prog == "looper" && h.pc == 3)
            .expect("looped pc");
        assert_eq!(hot.cycles, 200);
    }

    /// A daemon rebuilds its dispatcher paths' step tables on every
    /// publish: equal tables share one chain node, however many copies.
    #[test]
    fn equal_step_tables_share_a_chain_node() {
        let table = || -> Steps {
            let step = |pc, helper| Step {
                pc,
                cycles: 1,
                helper,
            };
            Steps::from([step(0, None), step(1, Some("tail_call"))])
        };
        let (p, policy) = (Profiler::new(), table());
        let nodes = || p.inner.as_ref().unwrap().state.lock().nodes.len();
        for _ in 0..8 {
            let path = table();
            let mut span = p.vm_enter("dispatch", Some(&path), 25);
            span.block(0, path.len() as u32);
            span.tail_call("rr", Some(&table()));
            span.block(0, 1);
            drop(span);
            let mut span = p.vm_enter("rr", Some(&policy), 25);
            span.block(0, 2);
        }
        assert_eq!(nodes(), 3);
        assert_eq!(
            p.report(None, 0).attributed_cycles,
            8 * (25 + 2 + 1 + 25 + 2)
        );
    }

    /// Entering after a path is entering the path, running all of its
    /// steps and tail-calling: the same report and folded stacks, a
    /// helper tag included.
    #[test]
    fn entering_after_a_path_is_the_three_steps() {
        let step = |pc, helper| Step {
            pc,
            cycles: 3,
            helper,
        };
        let path = Steps::from([step(0, None), step(1, Some("tail_call"))]);
        let policy = Steps::from([step(0, None), step(1, Some("map_lookup_elem"))]);
        let run = |p: &Profiler, one_lock: bool| {
            let mut span = if one_lock {
                p.vm_enter_path(("dispatch", &path), "rr", Some(&policy), 25)
            } else {
                let mut span = p.vm_enter("dispatch", Some(&path), 25);
                span.block(0, path.len() as u32);
                span.tail_call("rr", Some(&policy));
                span
            };
            span.helper("map_lookup_elem");
            span.block(0, 2);
            span.insn(2, 1);
        };
        let (three, one) = (Profiler::new(), Profiler::new());
        for _ in 0..3 {
            run(&three, false);
            run(&one, true);
        }
        assert_eq!(one.report(None, 0), three.report(None, 0));
        assert_eq!(one.flame(), three.flame());
    }

    #[test]
    fn report_serializes_to_json() {
        let p = Profiler::new();
        run_once(&p);
        let json = serde::json::to_string(&p.report(None, 5)).unwrap();
        let value = serde::json::from_str(&json).expect("report parses");
        assert_eq!(value.get("runs").and_then(|v| v.as_u64()), Some(1));
        assert!(value.get("coverage").and_then(|v| v.as_f64()).unwrap() > 0.99);
        let hotspots = value.get("hotspots").and_then(|v| v.as_array()).unwrap();
        assert!(!hotspots.is_empty());
        assert!(hotspots[0].get("prog").and_then(|v| v.as_str()).is_some());
    }
}
