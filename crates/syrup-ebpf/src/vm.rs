//! The virtual machine: loaded programs, the engines that run them, and
//! the reference interpreter with cycle accounting.
//!
//! [`Vm`] holds loaded programs and the map registry and executes one
//! program per input event, exactly like an attached kernel program. A
//! program is verified once, at load, and lowered into the specialised
//! form the default engine runs (`decode.rs`, `fast.rs`): everything
//! `verify()` accepts has one. The interpreter here is the reference: it
//! mirrors kernel semantics (wrapping arithmetic, 32-bit zero-extension,
//! division-by-zero-yields-zero, tail-call limits) and keeps
//! defense-in-depth runtime checks — out-of-bounds or wild accesses trap
//! instead of corrupting simulation state. A run stays on the engine it
//! starts on: the interpreter takes whole runs under [`Backend::Interp`],
//! and under [`Backend::Fast`] those entering a program with no
//! specialised form, which only `load_unverified` loads: it admits
//! programs the verifier rejects so tests can exercise the runtime checks
//! directly. The checks on guest memory and helper arguments live in
//! `mem.rs`.
//!
//! The interpreter represents values with explicit pointer provenance (a
//! tagged scalar/pointer enum) rather than raw host addresses: this is the
//! safe Rust analogue of the kernel's JITed pointers and is what lets the
//! whole crate be `#![forbid(unsafe_code)]`.

use std::fmt;
use std::sync::Arc;

use crate::cycles::{insn_cost, INVOKE};
use crate::decode::DecodedProg;
use crate::helpers::HelperId;
use crate::insn::{AluOp, CmpOp, Insn, MemSize, Operand, Reg, Width};
use crate::maps::{MapError, MapId, MapRef, MapRegistry, ProgSlot};
use crate::mem::{call_helper, fetch_add, map_fd_token, mem_load, mem_store, Frame, HelperOutcome};
use crate::store::{Loaded, ProgStore};
use crate::verifier::{verify, VerifierError};
use crate::Program;
use syrup_observe::telemetry::{Block, BlockHandle, Field, HistogramSnapshot, Registry};

/// Stack bytes available per invocation, matching the kernel's limit.
pub const STACK_SIZE: i64 = 512;
/// Kernel tail-call chain limit (`MAX_TAIL_CALL_CNT`).
pub const MAX_TAIL_CALLS: u32 = 32;
/// Runtime instruction budget per invocation; verified programs finish in
/// far fewer, unverified test programs get cut off here.
pub const RUNTIME_INSN_LIMIT: u64 = 4 << 20;

/// Offsets of context fields visible to programs.
pub mod ctx_off {
    /// `ctx->data`: pointer to the first packet byte.
    pub const DATA: i64 = 0;
    /// `ctx->data_end`: pointer one past the last packet byte.
    pub const DATA_END: i64 = 8;
    /// First metadata word (hook-specific, e.g. RX queue index).
    pub const META0: i64 = 16;
    /// Second metadata word.
    pub const META1: i64 = 24;
    /// Third metadata word.
    pub const META2: i64 = 32;
    /// Fourth metadata word.
    pub const META3: i64 = 40;
}

/// The per-invocation input: packet bytes plus hook metadata words.
#[derive(Debug)]
pub struct PacketCtx<'p> {
    /// The packet (or datagram payload) the policy inspects.
    pub data: &'p mut [u8],
    /// Hook-specific metadata exposed at [`ctx_off::META0`]…: for example
    /// the RX queue index or the CPU id.
    pub meta: [u64; 4],
}

impl<'p> PacketCtx<'p> {
    /// Wraps a packet with zeroed metadata.
    pub fn new(data: &'p mut [u8]) -> Self {
        PacketCtx { data, meta: [0; 4] }
    }
}

/// Why a program trapped at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Read of a register that was never written.
    UninitRegister(Reg),
    /// Arithmetic on pointers the ISA does not define.
    BadPointerArith,
    /// A load or store outside its region's bounds.
    OutOfBounds {
        /// Which region was accessed.
        region: &'static str,
        /// The faulting offset.
        off: i64,
        /// The access size in bytes.
        size: u64,
    },
    /// A load or store through a non-pointer value.
    NotAPointer,
    /// Store to read-only memory (the context, or `r10`).
    ReadOnly,
    /// A comparison or operation mixing incompatible value kinds.
    TypeMismatch,
    /// Map access failed (stale slot, wrong kind).
    Map(MapError),
    /// Helper called with an invalid argument.
    BadHelperArg(HelperId),
    /// Execution exceeded [`RUNTIME_INSN_LIMIT`].
    Runaway,
    /// Program counter left the instruction stream.
    PcOutOfRange,
    /// Program fell off the end without `exit`.
    NoExit,
    /// The referenced program slot is empty.
    NoSuchProgram,
    /// An `Endian` instruction had an invalid bit width.
    BadEndianWidth,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::UninitRegister(r) => write!(f, "read of uninitialized {r}"),
            VmError::BadPointerArith => write!(f, "undefined pointer arithmetic"),
            VmError::OutOfBounds { region, off, size } => {
                write!(f, "out-of-bounds {size}-byte access at {region}[{off}]")
            }
            VmError::NotAPointer => write!(f, "memory access through a scalar"),
            VmError::ReadOnly => write!(f, "store to read-only memory"),
            VmError::TypeMismatch => write!(f, "operation on incompatible value kinds"),
            VmError::Map(e) => write!(f, "map access fault: {e}"),
            VmError::BadHelperArg(h) => write!(f, "bad argument to helper {h}"),
            VmError::Runaway => write!(f, "instruction budget exhausted"),
            VmError::PcOutOfRange => write!(f, "jump out of program"),
            VmError::NoExit => write!(f, "fell off program end"),
            VmError::NoSuchProgram => write!(f, "empty program slot"),
            VmError::BadEndianWidth => write!(f, "endian width must be 16/32/64"),
        }
    }
}

impl VmError {
    /// Stable numeric trap class for compact event encodings (the
    /// flight recorder's `aux` word). Does not carry the variant payload;
    /// pair with [`std::fmt::Display`] for the rendered detail.
    pub fn code(&self) -> u32 {
        match self {
            VmError::UninitRegister(_) => 1,
            VmError::BadPointerArith => 2,
            VmError::OutOfBounds { .. } => 3,
            VmError::NotAPointer => 4,
            VmError::ReadOnly => 5,
            VmError::TypeMismatch => 6,
            VmError::Map(_) => 7,
            VmError::BadHelperArg(_) => 8,
            VmError::Runaway => 9,
            VmError::PcOutOfRange => 10,
            VmError::NoExit => 11,
            VmError::NoSuchProgram => 12,
            VmError::BadEndianWidth => 13,
        }
    }
}

impl std::error::Error for VmError {}

impl From<MapError> for VmError {
    fn from(e: MapError) -> Self {
        VmError::Map(e)
    }
}

/// Pointer provenance for a value held in a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Region {
    Stack,
    Packet,
    Ctx,
    MapValue { map: MapId, slot: u32 },
}

/// A runtime value: a 64-bit scalar or a pointer with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Val {
    Uninit,
    Scalar(u64),
    Ptr { region: Region, off: i64 },
}

/// `r1` at entry and after a tail call: the context.
pub(crate) const CTX: Val = Val::Ptr {
    region: Region::Ctx,
    off: 0,
};
/// `r10`: the frame pointer, one past the stack's top byte.
pub(crate) const FRAME: Val = Val::Ptr {
    region: Region::Stack,
    off: STACK_SIZE,
};
/// The registers at entry: the context and the frame pointer.
pub(crate) const ENTRY: [Val; 11] = {
    let mut regs = [Val::Uninit; 11];
    regs[1] = CTX;
    regs[10] = FRAME;
    regs
};

/// Which execution engine [`Vm::run`] dispatches to.
///
/// Both engines implement the same observable contract — verdicts, map
/// state, helper effects, tail-call semantics, trap kinds, and modelled
/// cycle totals are identical; only wall-clock execution speed differs.
/// The interpreter is the semantic oracle; the fast engine runs the
/// specialised form [`mod@crate::decode`] lowers a verified program into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The defensive interpreter over the original instruction stream.
    Interp,
    /// Programs with a specialised form (all that [`Vm::load`] accepts)
    /// on untagged registers; a run that enters any other program is
    /// interpreted whole.
    #[default]
    Fast,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Interp => write!(f, "interp"),
            Backend::Fast => write!(f, "fast"),
        }
    }
}

/// The result of a successful program invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmOutcome {
    /// The value of `r0` at `exit`.
    pub ret: u64,
    /// Instructions executed (Table 2's "Instructions" column analogue).
    pub insns: u64,
    /// Modelled policy cycles: invocation entry plus per-instruction costs.
    /// Enforcement cost is charged by the hook, not the program.
    pub cycles: u64,
    /// Set when the program called `redirect_map`: the AF_XDP/queue map and
    /// the chosen index.
    pub redirect: Option<(MapId, u32)>,
    /// How many tail calls the invocation chained through.
    pub tail_calls: u32,
}

/// What a program executed up to and including its first successful
/// `tail_call`, and the slot that call resolved: the account of a
/// dispatcher's path to one of its targets, as [`Vm::trace_tail_call`]
/// observed it.
///
/// [`Vm::run_after`] enters the target with this account already charged —
/// what the kernel does when it patches a constant-index `bpf_tail_call`
/// into a direct jump. It is an account, not a replay of effects: a
/// dispatcher that writes maps, redirects or draws random numbers before
/// its tail call cannot be short-cut this way. The registers and stack
/// bytes the path leaves behind are not reproduced either; the verifier
/// refuses a target that reads any of them before writing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailPath {
    /// The program the path starts in.
    prog: String,
    /// Every step to the tail call, as a profiler replays them.
    steps: syrup_observe::profile::Steps,
    /// The invocation entry cost plus every step's cost.
    cycles: u64,
    target: ProgSlot,
}

impl TailPath {
    /// Instructions on the path, the `tail_call` included.
    pub fn insns(&self) -> u64 {
        self.steps.len() as u64
    }

    /// Modelled cycles on the path, the invocation entry cost included.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The slot the tail call resolved.
    pub fn target(&self) -> ProgSlot {
        self.target
    }
}

/// Where an engine's loop starts.
#[derive(Clone, Copy)]
pub(crate) enum Entry<'a> {
    /// At the top of the program in a slot.
    Prog(ProgSlot),
    /// Where a path's tail call landed, the path already on the account.
    After(&'a TailPath),
}

impl Entry<'_> {
    /// The slot the run starts in.
    pub(crate) fn slot(self) -> ProgSlot {
        match self {
            Entry::Prog(slot) => slot,
            Entry::After(path) => path.target,
        }
    }

    /// The run's `(insns, cycles, tail_calls)` on arrival there.
    pub(crate) fn account(self) -> (u64, u64, u32) {
        match self {
            Entry::Prog(_) => (0, INVOKE, 0),
            Entry::After(path) => (path.insns(), path.cycles, 1),
        }
    }

    /// The attribution scope on arrival in `prog`, the starting program,
    /// run on `steps` when the fast engine records it a block at a time:
    /// for a path, every step attributed and the chain frame pushed, as
    /// the run down it would hold by then.
    pub(crate) fn scope(
        self,
        profiler: &syrup_observe::profile::Profiler,
        prog: &str,
        steps: Option<&syrup_observe::profile::Steps>,
    ) -> syrup_observe::profile::VmSpan {
        match self {
            Entry::Prog(_) => profiler.vm_enter(prog, steps, INVOKE),
            Entry::After(path) => {
                profiler.vm_enter_path((&path.prog, &path.steps), prog, steps, INVOKE)
            }
        }
    }
}

/// A run's account so far, whichever engine holds it.
pub(crate) struct Tally {
    pub(crate) insns: u64,
    pub(crate) cycles: u64,
    pub(crate) tail_calls: u32,
    pub(crate) redirect: Option<(MapId, u32)>,
}

impl Tally {
    /// The account on arrival at `entry`.
    pub(crate) fn at(entry: Entry<'_>) -> Tally {
        let (insns, cycles, tail_calls) = entry.account();
        Tally {
            insns,
            cycles,
            tail_calls,
            redirect: None,
        }
    }

    /// The outcome of exiting with `ret` now.
    pub(crate) fn outcome(&self, ret: u64) -> VmOutcome {
        VmOutcome {
            ret,
            insns: self.insns,
            cycles: self.cycles,
            redirect: self.redirect,
            tail_calls: self.tail_calls,
        }
    }
}

/// What a traced interpreter run hands back besides its outcome.
#[derive(Default)]
pub(crate) struct Traced {
    steps: Vec<syrup_observe::profile::Step>,
    /// The slot the first successful tail call resolved, where the run
    /// stopped.
    target: Option<ProgSlot>,
}

/// Per-invocation environment: virtual time, CPU, and deterministic
/// randomness for `get_prandom_u32`.
#[derive(Debug, Clone)]
pub struct RunEnv {
    /// Virtual nanoseconds returned by `ktime_get_ns`.
    pub now_ns: u64,
    /// CPU id returned by `get_smp_processor_id`.
    pub cpu_id: u32,
    /// xorshift64* state for `get_prandom_u32`; seed it per run for
    /// reproducibility. Zero is auto-fixed to a nonzero constant.
    pub prandom_state: u64,
    /// Trace context of the input this invocation is scheduling; untraced
    /// by default. When traced (and a tracer is attached), each run emits
    /// a `vm-exec` span covering the invocation's cycle account.
    pub trace: syrup_observe::trace::TraceCtx,
}

impl Default for RunEnv {
    fn default() -> Self {
        RunEnv {
            now_ns: 0,
            cpu_id: 0,
            prandom_state: 0x853C_49E6_748F_EA9B,
            trace: syrup_observe::trace::TraceCtx::none(),
        }
    }
}

impl RunEnv {
    /// Advances the xorshift64* stream and returns the next
    /// `get_prandom_u32` value. Public so reference interpreters (the
    /// `syrup-lang` differential oracle) can consume the exact stream the
    /// VM would.
    pub fn next_prandom(&mut self) -> u32 {
        if self.prandom_state == 0 {
            self.prandom_state = 0x9E37_79B9_7F4A_7C15;
        }
        // xorshift64*.
        let mut x = self.prandom_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.prandom_state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
    }
}

/// The VM's telemetry, `vm/*`: a stats block every app's policy runs
/// write, once per run. [`Vm::run`] writes the VM's own copy, under its
/// leaf lock; [`Vm::run_after`] writes the caller's, which a caller that
/// already holds a lock of its own keeps under it (see
/// [`syrup_observe::telemetry::Holds`]). The registry folds every copy
/// under one set of names.
#[derive(Debug, Default)]
pub struct VmStats {
    /// Successful invocations.
    runs: u64,
    /// Invocations that trapped with a [`VmError`].
    traps: u64,
    /// Successful invocations executed by the interpreter.
    runs_interp: u64,
    /// Successful invocations executed by the fast engine.
    runs_fast: u64,
    /// Modelled cycles accumulated by interpreter runs.
    cycles_interp: u64,
    /// Modelled cycles accumulated by fast-engine runs.
    cycles_fast: u64,
    /// Modelled cycles per successful run (the histogram-map analogue).
    run_cycles: HistogramSnapshot,
    /// Instructions executed per successful run.
    run_insns: HistogramSnapshot,
}

impl VmStats {
    fn record(&mut self, backend: Backend, result: &Result<VmOutcome, VmError>) {
        let Ok(out) = result else {
            self.traps += 1;
            return;
        };
        self.runs += 1;
        self.run_cycles.record(out.cycles);
        self.run_insns.record(out.insns);
        let (runs, cycles) = match backend {
            Backend::Interp => (&mut self.runs_interp, &mut self.cycles_interp),
            Backend::Fast => (&mut self.runs_fast, &mut self.cycles_fast),
        };
        *runs += 1;
        *cycles = cycles.wrapping_add(out.cycles);
    }
}

impl Block for VmStats {
    fn names(prefix: &str) -> Vec<String> {
        [
            "runs",
            "traps",
            "runs_interp",
            "runs_fast",
            "cycles_interp",
            "cycles_fast",
            "run_cycles",
            "run_insns",
        ]
        .map(|field| format!("{prefix}/{field}"))
        .into()
    }

    fn fields(&self, visit: &mut dyn FnMut(Field<'_>)) {
        for v in [
            self.runs,
            self.traps,
            self.runs_interp,
            self.runs_fast,
            self.cycles_interp,
            self.cycles_fast,
        ] {
            visit(Field::Counter(v));
        }
        visit(Field::Histogram(&self.run_cycles));
        visit(Field::Histogram(&self.run_insns));
    }
}

/// The virtual machine: loaded programs plus the shared map registry.
///
/// A clone is a second handle on the same programs: it shares the
/// append-only program store, so a slot loaded through either resolves
/// through both, while backend and attached instruments are the clone's
/// own from then on.
#[derive(Debug, Clone)]
pub struct Vm {
    pub(crate) maps: MapRegistry,
    /// Each program beside its specialised form, if it has one (what the
    /// fast engine executes).
    pub(crate) store: Arc<ProgStore>,
    /// Handles of every map that existed at the last load, indexed by
    /// map id, so a run's map accesses skip the registry lock; younger
    /// maps resolve through the registry.
    pub(crate) map_cache: Arc<[MapRef]>,
    backend: Backend,
    /// The `vm/*` block, written once per run.
    telemetry: BlockHandle<VmStats>,
    tracer: syrup_observe::trace::Tracer,
    pub(crate) profiler: syrup_observe::profile::Profiler,
    recorder: syrup_observe::blackbox::Recorder,
}

impl Vm {
    /// Creates a VM over a map registry, with telemetry disabled.
    pub fn new(maps: MapRegistry) -> Self {
        Vm {
            maps,
            store: Arc::new(ProgStore::new()),
            map_cache: Arc::new([]),
            backend: Backend::default(),
            telemetry: BlockHandle::disabled(),
            tracer: syrup_observe::trace::Tracer::disabled(),
            profiler: syrup_observe::profile::Profiler::disabled(),
            recorder: syrup_observe::blackbox::Recorder::disabled(),
        }
    }

    /// Selects which execution engine [`Vm::run`] uses.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The execution engine [`Vm::run`] currently dispatches to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Starts recording per-run statistics into `registry`'s `vm` block:
    /// `vm/runs`, `vm/traps`, `vm/run_cycles`, `vm/run_insns`, and the
    /// per-backend `vm/runs_interp`, `vm/runs_fast`, `vm/cycles_interp`,
    /// `vm/cycles_fast`. Every VM attached to one registry shares them.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = registry.block("vm");
    }

    /// Starts recording a `vm-exec` span per traced invocation into
    /// `tracer`. The span covers `env.now_ns` plus the run's modelled
    /// cycles (1 cycle ≙ 1 ns at the simulator's reference clock).
    pub fn attach_tracer(&mut self, tracer: &syrup_observe::trace::Tracer) {
        self.tracer = tracer.clone();
    }

    /// The tracer this VM records into (disabled unless attached).
    pub fn tracer(&self) -> &syrup_observe::trace::Tracer {
        &self.tracer
    }

    /// Starts attributing every run's cycles per `(prog, pc)` and per
    /// helper into `profiler`, tail-call chains folded into full
    /// stacks. Already-loaded programs (and any loaded later) have
    /// their disassembly registered so hotspots can be annotated.
    pub fn attach_profiler(&mut self, profiler: &syrup_observe::profile::Profiler) {
        self.profiler = profiler.clone();
        for loaded in self.store.iter() {
            self.profiler
                .register_program(&loaded.prog.name, rendered_insns(&loaded.prog));
        }
    }

    /// Streams VM traps and tail-call-cap hits into the flight recorder.
    /// Covers both engines: [`Vm::run`] records after the run, and each
    /// event carries the id of the engine that ran it (0 interp, 1 fast).
    pub fn attach_blackbox(&mut self, recorder: &syrup_observe::blackbox::Recorder) {
        self.recorder = recorder.clone();
    }

    /// The flight recorder this VM streams into (disabled unless
    /// attached).
    pub fn recorder(&self) -> &syrup_observe::blackbox::Recorder {
        &self.recorder
    }

    /// The map registry this VM resolves `LoadMapFd` against.
    pub fn maps(&self) -> &MapRegistry {
        &self.maps
    }

    /// Verifies and loads a program, returning its slot. The verifier's
    /// facts specialise it for the fast engine.
    pub fn load(&mut self, prog: Program) -> Result<ProgSlot, VerifierError> {
        let decoded = self.specialise(&prog)?;
        Ok(self.push(prog, Some(decoded)))
    }

    /// Loads a program whether or not it verifies: one that does is
    /// specialised as [`Vm::load`] would; a run entering one that does not
    /// is interpreted, and a specialised run tail-calling it traps. For
    /// tests exercising the defense-in-depth checks and harnesses that
    /// verified the program themselves; `syrupd` never does this.
    pub fn load_unverified(&mut self, prog: Program) -> ProgSlot {
        let decoded = self.specialise(&prog).ok();
        self.push(prog, decoded)
    }

    fn specialise(&self, prog: &Program) -> Result<DecodedProg, VerifierError> {
        let info = verify(prog, &self.maps)?;
        crate::decode::decode(prog, &info.facts, &self.maps)
    }

    fn push(&mut self, prog: Program, decoded: Option<DecodedProg>) -> ProgSlot {
        if self.profiler.is_enabled() {
            self.profiler
                .register_program(&prog.name, rendered_insns(&prog));
        }
        if self.map_cache.len() != self.maps.len() {
            self.map_cache = self.maps.handles();
        }
        ProgSlot(self.store.push(Loaded { prog, decoded }))
    }

    /// Returns the specialised form of the program in `slot`: every
    /// program [`Vm::load`] accepted has one, and so does each
    /// [`Vm::load_unverified`] program that verifies.
    pub fn decoded(&self, slot: ProgSlot) -> Option<&DecodedProg> {
        self.store.get(slot.0)?.decoded.as_ref()
    }

    /// Returns the loaded program in `slot`, if any.
    pub fn program(&self, slot: ProgSlot) -> Option<&Program> {
        self.store.get(slot.0).map(|l| &l.prog)
    }

    /// Runs the program in `slot` over `ctx`, recording telemetry.
    pub fn run(
        &self,
        slot: ProgSlot,
        ctx: &mut PacketCtx<'_>,
        env: &mut RunEnv,
    ) -> Result<VmOutcome, VmError> {
        self.enter(Entry::Prog(slot), ctx, env, None)
    }

    /// Runs `path`'s target as the run that came down `path` would:
    /// instruction, cycle and tail-call counts (and with them the
    /// [`RUNTIME_INSN_LIMIT`] and [`MAX_TAIL_CALLS`] budgets) start where
    /// the path left them, and an attached profiler sees the path's steps
    /// and chain frame. Outcome, telemetry, spans and flight-recorder
    /// events are those of [`Vm::run`] on the path's own program, except
    /// that the run is counted in `stats` when given and in the VM's own
    /// block otherwise.
    pub fn run_after(
        &self,
        path: &TailPath,
        ctx: &mut PacketCtx<'_>,
        env: &mut RunEnv,
        stats: Option<&mut VmStats>,
    ) -> Result<VmOutcome, VmError> {
        self.enter(Entry::After(path), ctx, env, stats)
    }

    /// Runs the program in `slot` up to its first successful tail call and
    /// returns the path it took there; `None` if the run ended or trapped
    /// without one. This is a loader resolving a dispatcher, not an
    /// invocation: the reference interpreter executes it whatever the
    /// backend, and nothing reaches telemetry, profiler, tracer or flight
    /// recorder.
    pub fn trace_tail_call(
        &self,
        slot: ProgSlot,
        ctx: &mut PacketCtx<'_>,
        env: &mut RunEnv,
    ) -> Option<TailPath> {
        let prog = self.program(slot)?;
        let mut traced = Traced::default();
        let entry = Entry::Prog(slot);
        let mut prof = entry.scope(
            &syrup_observe::profile::Profiler::disabled(),
            &prog.name,
            None,
        );
        let Ok(out) =
            self.interpret::<true>(prog, Tally::at(entry), &mut prof, ctx, env, &mut traced)
        else {
            return None;
        };
        Some(TailPath {
            prog: prog.name.clone(),
            steps: traced.steps.into(),
            cycles: out.cycles,
            target: traced.target?,
        })
    }

    fn enter(
        &self,
        entry: Entry<'_>,
        ctx: &mut PacketCtx<'_>,
        env: &mut RunEnv,
        stats: Option<&mut VmStats>,
    ) -> Result<VmOutcome, VmError> {
        let (backend, result) = self.dispatch(entry, ctx, env);
        match stats {
            Some(stats) => stats.record(backend, &result),
            None => self.telemetry.write(|stats| stats.record(backend, &result)),
        }
        match &result {
            Ok(out) => {
                self.tracer.policy_span(
                    env.trace,
                    syrup_observe::trace::Stage::VmExec,
                    env.now_ns,
                    env.now_ns + out.cycles,
                    out.ret as i64,
                    out.cycles,
                );
                if out.tail_calls >= MAX_TAIL_CALLS {
                    self.recorder
                        .vm_tail_cap(env.now_ns, backend as u16, out.tail_calls, out.ret);
                }
            }
            Err(e) => {
                self.tracer.instant(
                    env.trace,
                    syrup_observe::trace::Stage::VmExec,
                    env.now_ns,
                    0,
                );
                self.recorder
                    .vm_trap(env.now_ns, backend as u16, e.code(), &e.to_string());
            }
        }
        result
    }

    /// Runs `entry` to its end on one engine, and names it: the fast one
    /// under [`Backend::Fast`] when the entry program has a specialised
    /// form, the interpreter otherwise.
    fn dispatch(
        &self,
        entry: Entry<'_>,
        ctx: &mut PacketCtx<'_>,
        env: &mut RunEnv,
    ) -> (Backend, Result<VmOutcome, VmError>) {
        // A tail call into an empty program falls off its end instead.
        let first = self.store.get(entry.slot().0);
        let first = first.filter(|l| !l.prog.is_empty() || matches!(entry, Entry::After(_)));
        let Some(first) = first else {
            return (Backend::Interp, Err(VmError::NoSuchProgram));
        };
        let fast = first.decoded.as_ref();
        let fast = fast.filter(|_| self.backend == Backend::Fast);
        // Attribution scope: the fixed invoke cost lands on the entry (prog,
        // pc 0) bucket, so the attributed sum equals `cycles` at every point
        // of the run. Flushes on drop (any exit path).
        let mut prof = entry.scope(&self.profiler, &first.prog.name, fast.map(|p| &p.steps));
        let tally = Tally::at(entry);
        let Some(prog) = fast else {
            let traced = &mut Traced::default();
            let out = self.interpret::<false>(&first.prog, tally, &mut prof, ctx, env, traced);
            return (Backend::Interp, out);
        };
        (
            Backend::Fast,
            crate::fast::run(self, prog, tally, &mut prof, ctx, env),
        )
    }

    /// The interpreter loop, from the first instruction of `prog` with
    /// `tally` already on the account, through every program it
    /// tail-calls. With `TRACE` it records every step into `traced` and
    /// stops at the first successful tail call.
    pub(crate) fn interpret<'v, const TRACE: bool>(
        &'v self,
        mut prog: &'v Program,
        mut tally: Tally,
        prof: &mut syrup_observe::profile::VmSpan,
        ctx: &mut PacketCtx<'_>,
        env: &mut RunEnv,
        traced: &mut Traced,
    ) -> Result<VmOutcome, VmError> {
        let (mut regs, frame) = (ENTRY, &mut Frame::new());
        let mut pc: usize = 0;
        loop {
            let insn = prog.insns.get(pc).ok_or(VmError::NoExit)?;
            tally.insns += 1;
            let cost = insn_cost(insn);
            tally.cycles += cost;
            prof.insn(pc, cost);
            if TRACE {
                traced.steps.push(syrup_observe::profile::Step {
                    pc: pc as u32,
                    cycles: cost as u32,
                    helper: None,
                });
            }
            if tally.insns > RUNTIME_INSN_LIMIT {
                return Err(VmError::Runaway);
            }
            pc += 1;

            match *insn {
                Insn::Alu { w, op, dst, src } => {
                    let rhs = self.operand(&regs, src)?;
                    let lhs = if op == AluOp::Mov {
                        Val::Scalar(0) // unused
                    } else {
                        read_reg(&regs, dst)?
                    };
                    regs[dst.index()] = alu(w, op, lhs, rhs)?;
                }
                Insn::Neg { w, dst } => {
                    let v = scalar(read_reg(&regs, dst)?)?;
                    let r = match w {
                        Width::W64 => (v as i64).wrapping_neg() as u64,
                        Width::W32 => ((v as i32).wrapping_neg() as u32) as u64,
                    };
                    regs[dst.index()] = Val::Scalar(r);
                }
                Insn::Endian { dst, to_be, bits } => {
                    let v = scalar(read_reg(&regs, dst)?)?;
                    // The simulated machine is little-endian (like x86), so
                    // both `to_be` and `to_le` swap or truncate accordingly.
                    let _ = to_be;
                    let r = match bits {
                        16 => u64::from((v as u16).swap_bytes()),
                        32 => u64::from((v as u32).swap_bytes()),
                        64 => v.swap_bytes(),
                        _ => return Err(VmError::BadEndianWidth),
                    };
                    regs[dst.index()] = Val::Scalar(r);
                }
                Insn::LoadImm64 { dst, imm } => {
                    regs[dst.index()] = Val::Scalar(imm as u64);
                }
                Insn::LoadMapFd { dst, map } => {
                    // A map reference is an opaque handle; represent it as a
                    // scalar tagged by construction (only helpers consume it,
                    // and the verifier pins its provenance statically).
                    regs[dst.index()] = Val::Scalar(map_fd_token(map));
                }
                Insn::LoadMem {
                    size,
                    dst,
                    base,
                    off,
                } => {
                    let ptr = read_reg(&regs, base)?;
                    regs[dst.index()] = mem_load(self, ptr, off as i64, size, ctx, &frame.stack)?;
                }
                Insn::StoreMem {
                    size,
                    base,
                    off,
                    src,
                } => {
                    let ptr = read_reg(&regs, base)?;
                    let v = scalar(read_reg(&regs, src)?)?;
                    mem_store(self, ptr, off as i64, size, v, ctx, &mut frame.stack)?;
                }
                Insn::StoreImm {
                    size,
                    base,
                    off,
                    imm,
                } => {
                    let ptr = read_reg(&regs, base)?;
                    let v = imm as i64 as u64;
                    mem_store(self, ptr, off as i64, size, v, ctx, &mut frame.stack)?;
                }
                Insn::AtomicAdd {
                    size,
                    base,
                    off,
                    src,
                    fetch,
                } => {
                    if size != MemSize::W && size != MemSize::DW {
                        return Err(VmError::OutOfBounds {
                            region: "atomic",
                            off: off as i64,
                            size: size.bytes(),
                        });
                    }
                    let ptr = read_reg(&regs, base)?;
                    let addend = scalar(read_reg(&regs, src)?)?;
                    let old =
                        fetch_add(self, ptr, off as i64, size, addend, ctx, &mut frame.stack)?;
                    if fetch {
                        regs[src.index()] = Val::Scalar(old);
                    }
                }
                Insn::Jump { off } => {
                    pc = jump_target(pc, off, prog.insns.len())?;
                }
                Insn::Branch {
                    op,
                    w,
                    lhs,
                    rhs,
                    off,
                } => {
                    let l = read_reg(&regs, lhs)?;
                    let r = self.operand(&regs, rhs)?;
                    if compare(op, w, l, r)? {
                        pc = jump_target(pc, off, prog.insns.len())?;
                    }
                }
                Insn::Call { helper } => {
                    prof.helper(helper.name());
                    if TRACE {
                        if let Some(step) = traced.steps.last_mut() {
                            step.helper = Some(helper.name());
                        }
                    }
                    let arg = |r| read_reg(&regs, r);
                    match call_helper(self, helper, arg, ctx, env, frame)? {
                        HelperOutcome::Ret(v) => {
                            regs[Reg::R0.index()] = v;
                            for reg in regs.iter_mut().take(6).skip(1) {
                                *reg = Val::Uninit;
                            }
                        }
                        HelperOutcome::Redirect(map, idx, ret) => {
                            tally.redirect = Some((map, idx));
                            regs[Reg::R0.index()] = Val::Scalar(ret);
                            for reg in regs.iter_mut().take(6).skip(1) {
                                *reg = Val::Uninit;
                            }
                        }
                        HelperOutcome::TailCall(slot) => {
                            tally.tail_calls += 1;
                            if tally.tail_calls > MAX_TAIL_CALLS {
                                // The kernel fails the call and continues.
                                regs[Reg::R0.index()] = Val::Scalar((-1i64) as u64);
                                tally.tail_calls -= 1;
                                continue;
                            }
                            prog = self.program(slot).ok_or(VmError::NoSuchProgram)?;
                            if TRACE {
                                traced.target = Some(slot);
                                return Ok(tally.outcome(0));
                            }
                            pc = 0;
                            prof.tail_call(&prog.name, None);
                            // The target was verified assuming only r1/r10;
                            // reestablish them and drop the caller-saved set.
                            regs[Reg::R1.index()] = CTX;
                            for reg in regs.iter_mut().take(6).skip(2) {
                                *reg = Val::Uninit;
                            }
                        }
                    }
                }
                Insn::Exit => {
                    let ret = scalar(read_reg(&regs, Reg::R0)?)?;
                    return Ok(tally.outcome(ret));
                }
            }
        }
    }

    fn operand(&self, regs: &[Val; 11], op: Operand) -> Result<Val, VmError> {
        match op {
            Operand::Reg(r) => read_reg(regs, r),
            Operand::Imm(i) => Ok(Val::Scalar(i as i64 as u64)),
        }
    }
}

/// One rendered instruction per pc, for profiler hotspot annotation.
fn rendered_insns(prog: &Program) -> Vec<String> {
    prog.insns.iter().map(|insn| insn.to_string()).collect()
}

pub(crate) fn read_reg(regs: &[Val; 11], r: Reg) -> Result<Val, VmError> {
    match regs[r.index()] {
        Val::Uninit => Err(VmError::UninitRegister(r)),
        v => Ok(v),
    }
}

pub(crate) fn scalar(v: Val) -> Result<u64, VmError> {
    match v {
        Val::Scalar(s) => Ok(s),
        Val::Ptr { .. } => Err(VmError::TypeMismatch),
        Val::Uninit => Err(VmError::UninitRegister(Reg::R0)),
    }
}

fn jump_target(pc_after: usize, off: i16, len: usize) -> Result<usize, VmError> {
    let target = pc_after as i64 + i64::from(off);
    if target < 0 || target as usize >= len {
        return Err(VmError::PcOutOfRange);
    }
    Ok(target as usize)
}

pub(crate) fn alu(w: Width, op: AluOp, lhs: Val, rhs: Val) -> Result<Val, VmError> {
    if op == AluOp::Mov {
        return match (w, rhs) {
            (Width::W64, v) => Ok(v),
            (Width::W32, Val::Scalar(s)) => Ok(Val::Scalar(s & 0xFFFF_FFFF)),
            (Width::W32, _) => Err(VmError::BadPointerArith),
        };
    }
    // Pointer arithmetic: only 64-bit add/sub with a scalar, or the
    // difference of two pointers into the same region.
    match (lhs, rhs) {
        (Val::Ptr { region, off }, Val::Scalar(s)) => {
            if w != Width::W64 {
                return Err(VmError::BadPointerArith);
            }
            let delta = s as i64;
            return match op {
                AluOp::Add => Ok(Val::Ptr {
                    region,
                    off: off.wrapping_add(delta),
                }),
                AluOp::Sub => Ok(Val::Ptr {
                    region,
                    off: off.wrapping_sub(delta),
                }),
                _ => Err(VmError::BadPointerArith),
            };
        }
        (
            Val::Ptr {
                region: ra,
                off: oa,
            },
            Val::Ptr {
                region: rb,
                off: ob,
            },
        ) => {
            if w == Width::W64 && op == AluOp::Sub && ra == rb {
                return Ok(Val::Scalar(oa.wrapping_sub(ob) as u64));
            }
            return Err(VmError::BadPointerArith);
        }
        (Val::Scalar(_), Val::Ptr { .. }) => return Err(VmError::BadPointerArith),
        _ => {}
    }
    let a = scalar(lhs)?;
    let b = scalar(rhs)?;
    let r = match w {
        Width::W64 => alu64(op, a, b),
        Width::W32 => u64::from(alu32(op, a as u32, b as u32)),
    };
    Ok(Val::Scalar(r))
}

#[allow(clippy::manual_checked_ops)] // Kernel div/mod-by-zero semantics, stated explicitly.
pub(crate) fn alu64(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                a / b
            }
        }
        AluOp::Mod => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Lsh => a.wrapping_shl((b & 63) as u32),
        AluOp::Rsh => a.wrapping_shr((b & 63) as u32),
        AluOp::Arsh => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        AluOp::Mov => b,
    }
}

#[allow(clippy::manual_checked_ops)] // Kernel div/mod-by-zero semantics, stated explicitly.
pub(crate) fn alu32(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                a / b
            }
        }
        AluOp::Mod => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Lsh => a.wrapping_shl(b & 31),
        AluOp::Rsh => a.wrapping_shr(b & 31),
        AluOp::Arsh => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Mov => b,
    }
}

pub(crate) fn compare(op: CmpOp, w: Width, lhs: Val, rhs: Val) -> Result<bool, VmError> {
    // Pointer comparisons: same-region (the packet-bounds idiom), or a
    // null check against the literal 0.
    match (lhs, rhs) {
        (
            Val::Ptr {
                region: ra,
                off: oa,
            },
            Val::Ptr {
                region: rb,
                off: ob,
            },
        ) => {
            if ra != rb {
                return Err(VmError::TypeMismatch);
            }
            return Ok(cmp_u64(op, w, oa as u64, ob as u64));
        }
        (Val::Ptr { .. }, Val::Scalar(0)) => {
            // A live pointer is never NULL.
            return match op {
                CmpOp::Eq => Ok(false),
                CmpOp::Ne => Ok(true),
                _ => Err(VmError::TypeMismatch),
            };
        }
        (Val::Ptr { .. }, _) | (_, Val::Ptr { .. }) => return Err(VmError::TypeMismatch),
        _ => {}
    }
    Ok(cmp_u64(op, w, scalar(lhs)?, scalar(rhs)?))
}

pub(crate) fn cmp_u64(op: CmpOp, w: Width, a: u64, b: u64) -> bool {
    let (a, b) = match w {
        Width::W64 => (a, b),
        Width::W32 => (a & 0xFFFF_FFFF, b & 0xFFFF_FFFF),
    };
    let (sa, sb) = match w {
        Width::W64 => (a as i64, b as i64),
        Width::W32 => (i64::from(a as u32 as i32), i64::from(b as u32 as i32)),
    };
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Sgt => sa > sb,
        CmpOp::Sge => sa >= sb,
        CmpOp::Slt => sa < sb,
        CmpOp::Sle => sa <= sb,
        CmpOp::Set => (a & b) != 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::maps::MapDef;

    fn vm() -> Vm {
        Vm::new(MapRegistry::new())
    }

    fn run_prog(vm: &mut Vm, prog: Program) -> Result<VmOutcome, VmError> {
        let slot = vm.load_unverified(prog);
        let mut data = [0u8; 64];
        let mut ctx = PacketCtx::new(&mut data);
        vm.run(slot, &mut ctx, &mut RunEnv::default())
    }

    #[test]
    fn returns_constant() {
        let prog = Asm::new().mov64_imm(Reg::R0, 42).exit().build("c").unwrap();
        let out = run_prog(&mut vm(), prog).unwrap();
        assert_eq!(out.ret, 42);
        assert_eq!(out.insns, 2);
        assert!(out.cycles > 0);
    }

    #[test]
    fn wrapping_and_div_by_zero_semantics() {
        let prog = Asm::new()
            .load_imm64(Reg::R0, i64::MAX)
            .add64_imm(Reg::R0, 1) // wraps
            .mov64_imm(Reg::R1, 0)
            .alu64(AluOp::Div, Reg::R0, Operand::Reg(Reg::R1)) // /0 => 0
            .exit()
            .build("w")
            .unwrap();
        let out = run_prog(&mut vm(), prog).unwrap();
        assert_eq!(out.ret, 0);
    }

    #[test]
    fn mod_by_zero_leaves_dst() {
        let prog = Asm::new()
            .mov64_imm(Reg::R0, 17)
            .mov64_imm(Reg::R1, 0)
            .mod64_reg(Reg::R0, Reg::R1)
            .exit()
            .build("m")
            .unwrap();
        assert_eq!(run_prog(&mut vm(), prog).unwrap().ret, 17);
    }

    #[test]
    fn alu32_zero_extends() {
        let prog = Asm::new()
            .load_imm64(Reg::R0, -1) // all ones
            .alu32(AluOp::Add, Reg::R0, Operand::Imm(1)) // low 32 wrap to 0
            .exit()
            .build("z")
            .unwrap();
        assert_eq!(run_prog(&mut vm(), prog).unwrap().ret, 0);
    }

    #[test]
    fn stack_store_load_round_trip() {
        let prog = Asm::new()
            .mov64_imm(Reg::R1, 7)
            .stx_dw(Reg::R10, -8, Reg::R1)
            .ldx_dw(Reg::R0, Reg::R10, -8)
            .exit()
            .build("s")
            .unwrap();
        assert_eq!(run_prog(&mut vm(), prog).unwrap().ret, 7);
    }

    #[test]
    fn stack_overflow_traps() {
        let prog = Asm::new()
            .mov64_imm(Reg::R1, 1)
            .stx_dw(Reg::R10, -516, Reg::R1)
            .exit()
            .build("o")
            .unwrap();
        assert!(matches!(
            run_prog(&mut vm(), prog),
            Err(VmError::OutOfBounds {
                region: "stack",
                ..
            })
        ));
    }

    #[test]
    fn packet_bounds_check_and_read() {
        let mut vm = vm();
        let prog = Asm::new()
            .ldx_dw(Reg::R2, Reg::R1, ctx_off::DATA_END as i16)
            .ldx_dw(Reg::R1, Reg::R1, ctx_off::DATA as i16)
            .mov64_reg(Reg::R3, Reg::R1)
            .add64_imm(Reg::R3, 2)
            .jgt_reg(Reg::R3, Reg::R2, "short")
            .ldx_h(Reg::R0, Reg::R1, 0)
            .exit()
            .label("short")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("p")
            .unwrap();
        let slot = vm.load_unverified(prog);

        let mut data = [0xCD, 0xAB, 0, 0];
        let mut ctx = PacketCtx::new(&mut data);
        let out = vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap();
        assert_eq!(out.ret, 0xABCD);

        let mut short = [0xFFu8; 1];
        let mut ctx = PacketCtx::new(&mut short);
        let out = vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap();
        assert_eq!(out.ret, 0);
    }

    #[test]
    fn packet_oob_read_traps() {
        let prog = Asm::new()
            .ldx_dw(Reg::R1, Reg::R1, ctx_off::DATA as i16)
            .ldx_dw(Reg::R0, Reg::R1, 1000)
            .exit()
            .build("oob")
            .unwrap();
        assert!(matches!(
            run_prog(&mut vm(), prog),
            Err(VmError::OutOfBounds {
                region: "packet",
                ..
            })
        ));
    }

    #[test]
    fn ctx_meta_words_are_readable() {
        let mut vm = vm();
        let prog = Asm::new()
            .ldx_dw(Reg::R0, Reg::R1, ctx_off::META1 as i16)
            .exit()
            .build("meta")
            .unwrap();
        let slot = vm.load_unverified(prog);
        let mut data = [0u8; 8];
        let mut ctx = PacketCtx::new(&mut data);
        ctx.meta[1] = 99;
        let out = vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap();
        assert_eq!(out.ret, 99);
    }

    #[test]
    fn ctx_store_is_read_only() {
        let prog = Asm::new()
            .mov64_imm(Reg::R2, 5)
            .stx_dw(Reg::R1, 0, Reg::R2)
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("ro")
            .unwrap();
        assert_eq!(run_prog(&mut vm(), prog), Err(VmError::ReadOnly));
    }

    #[test]
    fn uninit_register_read_traps() {
        let prog = Asm::new()
            .mov64_reg(Reg::R0, Reg::R5)
            .exit()
            .build("u")
            .unwrap();
        assert_eq!(
            run_prog(&mut vm(), prog),
            Err(VmError::UninitRegister(Reg::R5))
        );
    }

    #[test]
    fn infinite_loop_hits_runtime_budget() {
        let prog = Asm::new()
            .label("top")
            .mov64_imm(Reg::R0, 1)
            .jmp("top")
            .build("loop")
            .unwrap();
        assert_eq!(run_prog(&mut vm(), prog), Err(VmError::Runaway));
    }

    #[test]
    fn fall_off_end_traps() {
        let prog = Asm::new().mov64_imm(Reg::R0, 1).build("noexit").unwrap();
        assert_eq!(run_prog(&mut vm(), prog), Err(VmError::NoExit));
    }

    #[test]
    fn map_lookup_update_via_helpers() {
        let maps = MapRegistry::new();
        let map = maps.create(MapDef::u64_array(4));
        let mut vm = Vm::new(maps);
        // schedule(): idx = *lookup(map, 0); *ptr += 1; return idx.
        let prog = Asm::new()
            .st_w(Reg::R10, -4, 0) // key = 0
            .load_map_fd(Reg::R1, map)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
            .jne_imm(Reg::R0, 0, "hit")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .label("hit")
            .ldx_dw(Reg::R6, Reg::R0, 0)
            .mov64_imm(Reg::R1, 1)
            .atomic_add_dw(Reg::R0, 0, Reg::R1)
            .mov64_reg(Reg::R0, Reg::R6)
            .exit()
            .build("counter")
            .unwrap();
        let slot = vm.load_unverified(prog);
        let mut data = [0u8; 16];
        for expected in 0..5 {
            let mut ctx = PacketCtx::new(&mut data);
            let out = vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap();
            assert_eq!(out.ret, expected);
        }
        let map_ref = vm.maps().get(map).unwrap();
        assert_eq!(map_ref.lookup_u64(0).unwrap(), Some(5));
    }

    #[test]
    fn map_lookup_miss_is_null() {
        let maps = MapRegistry::new();
        let map = maps.create(MapDef::u64_hash(4));
        let mut vm = Vm::new(maps);
        let prog = Asm::new()
            .st_w(Reg::R10, -4, 9)
            .load_map_fd(Reg::R1, map)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
            .jeq_imm(Reg::R0, 0, "miss")
            .mov64_imm(Reg::R0, 1)
            .exit()
            .label("miss")
            .mov64_imm(Reg::R0, 2)
            .exit()
            .build("miss")
            .unwrap();
        let slot = vm.load_unverified(prog);
        let mut data = [0u8; 4];
        let mut ctx = PacketCtx::new(&mut data);
        assert_eq!(
            vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap().ret,
            2
        );
    }

    #[test]
    fn prandom_is_deterministic_per_seed() {
        let prog = Asm::new()
            .call(HelperId::GetPrandomU32)
            .exit()
            .build("r")
            .unwrap();
        let mut vm1 = vm();
        let s1 = vm1.load_unverified(prog.clone());
        let mut data = [0u8; 4];
        let mut env = RunEnv {
            prandom_state: 7,
            ..RunEnv::default()
        };
        let mut ctx = PacketCtx::new(&mut data);
        let a = vm1.run(s1, &mut ctx, &mut env).unwrap().ret;
        let mut env2 = RunEnv {
            prandom_state: 7,
            ..RunEnv::default()
        };
        let mut ctx = PacketCtx::new(&mut data);
        let b = vm1.run(s1, &mut ctx, &mut env2).unwrap().ret;
        assert_eq!(a, b);
        // And the state advances within one env across calls.
        let mut ctx = PacketCtx::new(&mut data);
        let c = vm1.run(s1, &mut ctx, &mut env).unwrap().ret;
        assert_ne!(a, c);
    }

    #[test]
    fn ktime_and_cpu_id_come_from_env() {
        let prog = Asm::new()
            .call(HelperId::KtimeGetNs)
            .mov64_reg(Reg::R6, Reg::R0)
            .call(HelperId::GetSmpProcessorId)
            .add64_reg(Reg::R0, Reg::R6)
            .exit()
            .build("env")
            .unwrap();
        let mut vm = vm();
        let slot = vm.load_unverified(prog);
        let mut data = [0u8; 4];
        let mut ctx = PacketCtx::new(&mut data);
        let mut env = RunEnv {
            now_ns: 1000,
            cpu_id: 3,
            ..RunEnv::default()
        };
        assert_eq!(vm.run(slot, &mut ctx, &mut env).unwrap().ret, 1003);
    }

    #[test]
    fn redirect_map_records_target() {
        let maps = MapRegistry::new();
        let xsk = maps.create(MapDef::u64_array(8));
        let mut vm = Vm::new(maps);
        let prog = Asm::new()
            .load_map_fd(Reg::R1, xsk)
            .mov64_imm(Reg::R2, 5)
            .mov64_imm(Reg::R3, 0)
            .call(HelperId::RedirectMap)
            .exit()
            .build("redir")
            .unwrap();
        let slot = vm.load_unverified(prog);
        let mut data = [0u8; 4];
        let mut ctx = PacketCtx::new(&mut data);
        let out = vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap();
        assert_eq!(out.ret, 4); // XDP_REDIRECT
        assert_eq!(out.redirect, Some((xsk, 5)));
    }

    #[test]
    fn tail_call_chains_and_misses() {
        let maps = MapRegistry::new();
        let prog_array = maps.create(MapDef::prog_array(4));
        let mut vm = Vm::new(maps);
        let target = Asm::new().mov64_imm(Reg::R0, 77).exit().build("t").unwrap();
        let target_slot = vm.load_unverified(target);
        vm.maps()
            .get(prog_array)
            .unwrap()
            .set_prog(1, Some(target_slot))
            .unwrap();

        let caller = Asm::new()
            .load_map_fd(Reg::R2, prog_array)
            .mov64_imm(Reg::R3, 1)
            .call(HelperId::TailCall)
            // Unreachable on success.
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("caller")
            .unwrap();
        let caller_slot = vm.load_unverified(caller);
        let mut data = [0u8; 4];
        let mut ctx = PacketCtx::new(&mut data);
        let out = vm
            .run(caller_slot, &mut ctx, &mut RunEnv::default())
            .unwrap();
        assert_eq!(out.ret, 77);
        assert_eq!(out.tail_calls, 1);

        // A missing entry fails the call and continues.
        let miss = Asm::new()
            .load_map_fd(Reg::R2, prog_array)
            .mov64_imm(Reg::R3, 3)
            .call(HelperId::TailCall)
            .mov64_imm(Reg::R0, 55)
            .exit()
            .build("miss")
            .unwrap();
        let miss_slot = vm.load_unverified(miss);
        let mut ctx = PacketCtx::new(&mut data);
        let out = vm.run(miss_slot, &mut ctx, &mut RunEnv::default()).unwrap();
        assert_eq!(out.ret, 55);
        assert_eq!(out.tail_calls, 0);
    }

    #[test]
    fn a_clone_resolves_programs_and_maps_loaded_after_it_was_taken() {
        for backend in [Backend::Interp, Backend::Fast] {
            let maps = MapRegistry::new();
            let prog_array = maps.create(MapDef::prog_array(2));
            let mut vm = Vm::new(maps);
            vm.set_backend(backend);
            let caller = Asm::new()
                .load_map_fd(Reg::R2, prog_array)
                .mov64_imm(Reg::R3, 0)
                .call(HelperId::TailCall)
                .mov64_imm(Reg::R0, 0)
                .exit()
                .build("caller")
                .unwrap();
            let caller_slot = vm.load_unverified(caller);
            let snapshot = vm.clone();

            // Loaded through the original only: a program reading a map
            // that is younger than the snapshot's handle cache.
            let counter = vm.maps().create(MapDef::u64_array(1));
            vm.maps().get(counter).unwrap().update_u64(0, 41).unwrap();
            let target = Asm::new()
                .st_w(Reg::R10, -4, 0)
                .load_map_fd(Reg::R1, counter)
                .mov64_reg(Reg::R2, Reg::R10)
                .add64_imm(Reg::R2, -4)
                .call(HelperId::MapLookupElem)
                .jeq_imm(Reg::R0, 0, "miss")
                .ldx_dw(Reg::R0, Reg::R0, 0)
                .add64_imm(Reg::R0, 1)
                .exit()
                .label("miss")
                .mov64_imm(Reg::R0, 0)
                .exit()
                .build("target")
                .unwrap();
            let target_slot = vm.load(target).unwrap();
            let live = vm.maps().get(prog_array).unwrap();
            live.set_prog(0, Some(target_slot)).unwrap();

            let mut data = [0u8; 4];
            for handle in [&snapshot, &vm] {
                let mut ctx = PacketCtx::new(&mut data);
                let out = handle
                    .run(caller_slot, &mut ctx, &mut RunEnv::default())
                    .unwrap();
                assert_eq!((out.ret, out.tail_calls), (42, 1), "{backend}");
                assert_eq!(handle.program(target_slot).unwrap().name, "target");
            }
            // Configuration stays the clone's own.
            assert_eq!(snapshot.backend(), backend);
            vm.set_backend(Backend::Interp);
            assert_eq!(snapshot.backend(), backend);
        }
    }

    #[test]
    fn tail_call_limit_fails_gracefully() {
        let maps = MapRegistry::new();
        let prog_array = maps.create(MapDef::prog_array(1));
        let mut vm = Vm::new(maps);
        // A self-tail-calling program: after MAX_TAIL_CALLS the call fails
        // and the fallthrough path returns 9.
        let prog = Asm::new()
            .load_map_fd(Reg::R2, prog_array)
            .mov64_imm(Reg::R3, 0)
            .call(HelperId::TailCall)
            .mov64_imm(Reg::R0, 9)
            .exit()
            .build("self")
            .unwrap();
        let slot = vm.load_unverified(prog);
        vm.maps()
            .get(prog_array)
            .unwrap()
            .set_prog(0, Some(slot))
            .unwrap();
        let mut data = [0u8; 4];
        let mut ctx = PacketCtx::new(&mut data);
        let out = vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap();
        assert_eq!(out.ret, 9);
        assert_eq!(out.tail_calls, MAX_TAIL_CALLS);
    }

    #[test]
    fn blackbox_records_traps_and_tail_caps_from_both_backends() {
        use syrup_observe::blackbox::{EventKind, Layer, Recorder, TriggerCause};
        for backend in [Backend::Interp, Backend::Fast] {
            let rec = Recorder::new();
            rec.arm(TriggerCause::VmTrap, false);
            let maps = MapRegistry::new();
            let prog_array = maps.create(MapDef::prog_array(1));
            let values = maps.create(MapDef::u64_array(1));
            let mut vm = Vm::new(maps);
            vm.set_backend(backend);
            vm.attach_blackbox(&rec);
            // Self-tail-calling program: exhausts the cap, then returns 9.
            let capped = Asm::new()
                .load_map_fd(Reg::R2, prog_array)
                .mov64_imm(Reg::R3, 0)
                .call(HelperId::TailCall)
                .mov64_imm(Reg::R0, 9)
                .exit()
                .build("self")
                .unwrap();
            let slot = vm.load_unverified(capped);
            vm.maps()
                .get(prog_array)
                .unwrap()
                .set_prog(0, Some(slot))
                .unwrap();
            let mut data = [0u8; 4];
            let mut ctx = PacketCtx::new(&mut data);
            let env = &mut RunEnv {
                now_ns: 5_000,
                ..RunEnv::default()
            };
            vm.run(slot, &mut ctx, env).unwrap();
            // A verified program trapping at run time: an update flag of 9.
            let bad = Asm::new()
                .st_w(Reg::R10, -4, 0)
                .st_dw(Reg::R10, -16, 7)
                .mov64_imm(Reg::R4, 9)
                .load_map_fd(Reg::R1, values)
                .mov64_reg(Reg::R2, Reg::R10)
                .add64_imm(Reg::R2, -4)
                .mov64_reg(Reg::R3, Reg::R10)
                .add64_imm(Reg::R3, -16)
                .call(HelperId::MapUpdateElem)
                .exit()
                .build("bad")
                .unwrap();
            let bad_slot = vm.load(bad).unwrap();
            let mut ctx = PacketCtx::new(&mut data);
            let err = vm.run(bad_slot, &mut ctx, env).unwrap_err();
            let events = rec.events(Layer::Vm);
            assert_eq!(events.len(), 2, "{backend:?}");
            assert_eq!(events[0].kind, EventKind::VmTailCap);
            assert_eq!(events[0].aux, MAX_TAIL_CALLS);
            assert_eq!(events[0].w0, 9);
            assert_eq!(events[1].kind, EventKind::VmTrap);
            assert_eq!(events[1].aux, err.code());
            assert_eq!(events[1].at_ns, 5_000);
            // Both events carry the backend that executed.
            for e in &events {
                assert_eq!(e.id, backend as u16, "{backend:?}");
            }
        }
    }

    #[test]
    fn vm_trap_trigger_freezes_the_recorder() {
        use syrup_observe::blackbox::{Recorder, TriggerCause};
        let rec = Recorder::new();
        let mut vm = vm();
        vm.attach_blackbox(&rec);
        let bad = Asm::new()
            .mov64_reg(Reg::R0, Reg::R5)
            .exit()
            .build("bad")
            .unwrap();
        let slot = vm.load_unverified(bad);
        let mut data = [0u8; 4];
        let mut ctx = PacketCtx::new(&mut data);
        vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap_err();
        assert!(rec.frozen());
        let trig = rec.trigger().unwrap();
        assert_eq!(trig.cause, TriggerCause::VmTrap);
        assert!(trig.detail.contains("uninitialized"));
    }

    #[test]
    fn telemetry_records_runs_and_traps() {
        let registry = Registry::new();
        let mut vm = vm();
        vm.attach_telemetry(&registry);
        let ok = Asm::new().mov64_imm(Reg::R0, 1).exit().build("ok").unwrap();
        let bad = Asm::new()
            .mov64_reg(Reg::R0, Reg::R5) // uninit read
            .exit()
            .build("bad")
            .unwrap();
        let ok_slot = vm.load_unverified(ok);
        let bad_slot = vm.load_unverified(bad);
        let mut data = [0u8; 4];
        for _ in 0..3 {
            let mut ctx = PacketCtx::new(&mut data);
            vm.run(ok_slot, &mut ctx, &mut RunEnv::default()).unwrap();
        }
        let mut ctx = PacketCtx::new(&mut data);
        vm.run(bad_slot, &mut ctx, &mut RunEnv::default())
            .unwrap_err();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("vm/runs"), 3);
        assert_eq!(snap.counter("vm/traps"), 1);
        let cycles = snap.histogram("vm/run_cycles").unwrap();
        assert_eq!(cycles.count(), 3);
        // Two insns: invoke cost + 2 ALU-class costs, identical per run.
        assert_eq!(cycles.min(), cycles.max());
        assert_eq!(snap.histogram("vm/run_insns").unwrap().min(), 2);
    }

    #[test]
    fn profiler_attributes_every_cycle_across_tail_calls() {
        let registry = Registry::new();
        let profiler = syrup_observe::profile::Profiler::new();
        let maps = MapRegistry::new();
        let prog_array = maps.create(MapDef::prog_array(4));
        let mut vm = Vm::new(maps);
        vm.attach_telemetry(&registry);
        vm.attach_profiler(&profiler);

        let policy = Asm::new()
            .mov64_imm(Reg::R0, 3)
            .exit()
            .build("policy")
            .unwrap();
        let policy_slot = vm.load_unverified(policy);
        vm.maps()
            .get(prog_array)
            .unwrap()
            .set_prog(0, Some(policy_slot))
            .unwrap();
        let dispatch = Asm::new()
            .load_map_fd(Reg::R2, prog_array)
            .mov64_imm(Reg::R3, 0)
            .call(HelperId::TailCall)
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("dispatch")
            .unwrap();
        let dispatch_slot = vm.load_unverified(dispatch);

        let mut data = [0u8; 4];
        for _ in 0..5 {
            let mut ctx = PacketCtx::new(&mut data);
            let out = vm
                .run(dispatch_slot, &mut ctx, &mut RunEnv::default())
                .unwrap();
            assert_eq!(out.ret, 3);
        }

        // Attribution is exact: the per-(prog, pc) sum equals the
        // telemetry cycle account (the ≥95% acceptance bar, met at 100%).
        let total = registry
            .snapshot()
            .histogram("vm/run_cycles")
            .unwrap()
            .sum();
        let report = profiler.report(Some(total), 16);
        assert_eq!(report.runs, 5);
        assert_eq!(report.attributed_cycles, total);
        assert_eq!(report.coverage, 1.0);
        // Both chain programs appear; the tail_call helper is tabled.
        assert!(report.progs.iter().any(|p| p.prog == "dispatch"));
        assert!(report.progs.iter().any(|p| p.prog == "policy"));
        let tc = report
            .helpers
            .iter()
            .find(|h| h.helper == "tail_call")
            .unwrap();
        assert_eq!(tc.calls, 5);
        // Hotspots carry the registered disassembly.
        assert!(report
            .hotspots
            .iter()
            .any(|h| h.insn.as_deref().is_some_and(|i| i.contains("tail_call"))));
        // The flamegraph folds the chain: the policy frame sits under
        // the dispatcher.
        let flame = profiler.flame();
        assert!(flame.contains("vm;dispatch;policy;pc0-15 "), "{flame}");
    }

    #[test]
    fn endian_conversion() {
        let prog = Asm::new()
            .load_imm64(Reg::R0, 0x1234)
            .to_be(Reg::R0, 16)
            .exit()
            .build("be")
            .unwrap();
        assert_eq!(run_prog(&mut vm(), prog).unwrap().ret, 0x3412);
    }

    #[test]
    fn pointer_difference_is_packet_length() {
        let mut vm = vm();
        let prog = Asm::new()
            .ldx_dw(Reg::R2, Reg::R1, ctx_off::DATA_END as i16)
            .ldx_dw(Reg::R1, Reg::R1, ctx_off::DATA as i16)
            .mov64_reg(Reg::R0, Reg::R2)
            .sub64_reg(Reg::R0, Reg::R1)
            .exit()
            .build("len")
            .unwrap();
        let slot = vm.load_unverified(prog);
        let mut data = [0u8; 33];
        let mut ctx = PacketCtx::new(&mut data);
        assert_eq!(
            vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap().ret,
            33
        );
    }

    #[test]
    fn packet_store_is_visible_to_caller() {
        let mut vm = vm();
        let prog = Asm::new()
            .ldx_dw(Reg::R2, Reg::R1, ctx_off::DATA_END as i16)
            .ldx_dw(Reg::R1, Reg::R1, ctx_off::DATA as i16)
            .mov64_reg(Reg::R3, Reg::R1)
            .add64_imm(Reg::R3, 1)
            .jgt_reg(Reg::R3, Reg::R2, "out")
            .mov64_imm(Reg::R4, 0xAB)
            .raw(Insn::StoreMem {
                size: MemSize::B,
                base: Reg::R1,
                off: 0,
                src: Reg::R4,
            })
            .label("out")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("w")
            .unwrap();
        let slot = vm.load_unverified(prog);
        let mut data = [0u8; 2];
        let mut ctx = PacketCtx::new(&mut data);
        vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap();
        assert_eq!(data[0], 0xAB);
    }
}
