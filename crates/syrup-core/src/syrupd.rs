//! `syrupd`: the system-wide Syrup daemon (§3.1, §3.5, §4.3).
//!
//! Applications register with the daemon (carrying the set of ports they
//! own), then deploy policies to hooks. The daemon does the heavy lifting:
//!
//! 1. compiles C-subset policy files with `syrup-lang` (§3.1 step ❸),
//! 2. runs the static verifier and refuses unverifiable programs,
//! 3. loads accepted programs into the shared VM,
//! 4. installs the **isolation dispatch**: a root eBPF program per hook
//!    that matches the input's destination port against a port map and
//!    tail-calls into a `PROG_ARRAY` holding per-application policies —
//!    the §4.3 design, reproduced as actual bytecode running through the
//!    same verifier and interpreter as the policies themselves,
//! 5. creates and pins each policy's executor map and any maps declared in
//!    the policy file under the owning app's namespace.
//!
//! Native Rust policies (the simulation fast path) go through the same
//! registration, port-ownership, and dispatch rules, just without the VM.
//!
//! Control and data plane are split as the kernel splits attaching a
//! program from running it: `register_app`, `deploy`, `undeploy`,
//! `attach_*` and `set_backend` mutate the authoritative state under one
//! lock and publish an immutable `DispatchTable`; `schedule` runs on the
//! copy of the current table its thread keeps, checked against the
//! published generation with a plain load, and runs the policy under a
//! lock only that policy's callers take. That lock also guards the
//! policy's and the VM's stats for the call, so a warm dispatch takes one
//! lock and writes nothing another application's callers write.
//!
//! The root program is the specification of the dispatch, not its hot
//! path: building a table runs it once per owned port up to its tail call
//! and keeps that path ([`TailPath`]), and `schedule` enters the policy
//! directly with the path already on the run's account — as the kernel
//! turns a constant-index `bpf_tail_call` into a direct jump. Running the
//! root program itself survives as the test oracle for exactly that.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use syrup_ebpf::asm::Asm;
use syrup_ebpf::maps::{MapDef, MapError, MapId, MapRef, MapRegistry, ProgSlot, UpdateFlag};
use syrup_ebpf::vm::{Backend, PacketCtx, RunEnv, TailPath, Vm, VmStats};
use syrup_ebpf::{ret, HelperId, Reg, VerifierError, VmError, VmOutcome};
use syrup_lang::LangError;
use syrup_observe::telemetry::{
    Block, BlockHandle, CounterHandle, Field, HistogramSnapshot, Holds, Registry, Snapshot,
};

use crate::decision::{Decision, Verdict};
use crate::hook::{Hook, HookMeta};
use crate::map_api::{AppId, SyrupMaps};
use crate::policy::{PacketPolicy, PolicySource};

/// Why a deployment was rejected.
#[derive(Debug)]
pub enum DeployError {
    /// The app id was never registered.
    UnknownApp(AppId),
    /// The policy file failed to compile.
    Compile(LangError),
    /// The compiled/loaded program failed verification — the §4.3 gate.
    Verify(VerifierError),
    /// Another application already owns one of the requested ports.
    PortOwnedByOther {
        /// The contested port.
        port: u16,
        /// Its current owner.
        owner: AppId,
    },
    /// Internal map failure (registry exhausted etc.).
    Map(MapError),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::UnknownApp(a) => write!(f, "unknown application {a}"),
            DeployError::Compile(e) => write!(f, "policy compilation failed: {e}"),
            DeployError::Verify(e) => write!(f, "policy rejected by verifier: {e}"),
            DeployError::PortOwnedByOther { port, owner } => {
                write!(f, "port {port} is owned by {owner}")
            }
            DeployError::Map(e) => write!(f, "map failure: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<LangError> for DeployError {
    fn from(e: LangError) -> Self {
        DeployError::Compile(e)
    }
}
impl From<VerifierError> for DeployError {
    fn from(e: VerifierError) -> Self {
        DeployError::Verify(e)
    }
}
impl From<MapError> for DeployError {
    fn from(e: MapError) -> Self {
        DeployError::Map(e)
    }
}

/// A deployed policy, returned to the application (§3.1 step ❹).
#[derive(Debug, Clone)]
pub struct PolicyHandle {
    /// Owning application.
    pub app: AppId,
    /// Where the policy runs.
    pub hook: Hook,
    /// The executor map for this (app, hook): the application populates it
    /// with socket/core/queue ids and the policy returns indices into it.
    pub executors: MapRef,
    /// Pin paths of maps declared in the policy file, by declared name.
    pub pinned_maps: HashMap<String, String>,
}

/// How many executors an executor map can hold by default.
const EXECUTOR_MAP_ENTRIES: u32 = 64;

/// The telemetry of one deployed `(app, hook)` policy, reported under
/// `app<id>/<hook>`, so [`Syrupd::app_snapshot`] is a prefix filter — the
/// moral equivalent of one eBPF stats map per loaded program.
#[derive(Debug, Default)]
struct PolicyStats {
    invocations: u64,
    traps: u64,
    verdict_pass: u64,
    verdict_drop: u64,
    verdict_executor: u64,
    insns: HistogramSnapshot,
    cycles: HistogramSnapshot,
}

/// How one invocation ran.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// A native policy.
    Native,
    /// A bytecode policy's run that ended.
    Vm { insns: u64, cycles: u64 },
    /// A bytecode policy's run that trapped.
    Trap,
}

impl Run {
    /// Cycles charged for the verdict.
    fn cycles(self) -> u64 {
        match self {
            Run::Vm { cycles, .. } => cycles,
            Run::Native | Run::Trap => 0,
        }
    }
}

impl PolicyStats {
    /// Counts one invocation: its decision and how it ran.
    fn record(&mut self, decision: Decision, run: Run) {
        self.invocations += 1;
        let verdict = match decision {
            Decision::Pass => &mut self.verdict_pass,
            Decision::Drop => &mut self.verdict_drop,
            Decision::Executor(_) => &mut self.verdict_executor,
        };
        *verdict += 1;
        match run {
            Run::Native => {}
            Run::Vm { insns, cycles } => {
                self.insns.record(insns);
                self.cycles.record(cycles);
            }
            Run::Trap => self.traps += 1,
        }
    }
}

impl Block for PolicyStats {
    /// Every matched dispatch is one invocation, so `invocations` also
    /// reports as `syrupd/dispatches`, beside [`DaemonStats::unmatched`]:
    /// a dispatch is counted in the block it writes anyway.
    fn names(prefix: &str) -> Vec<String> {
        let mut names = vec![format!("{prefix}/invocations"), "syrupd/dispatches".into()];
        names.extend(
            [
                "traps",
                "verdict_pass",
                "verdict_drop",
                "verdict_executor",
                "insns",
                "cycles",
            ]
            .map(|field| format!("{prefix}/{field}")),
        );
        names
    }

    fn fields(&self, visit: &mut dyn FnMut(Field<'_>)) {
        for v in [
            self.invocations,
            self.invocations,
            self.traps,
            self.verdict_pass,
            self.verdict_drop,
            self.verdict_executor,
        ] {
            visit(Field::Counter(v));
        }
        visit(Field::Histogram(&self.insns));
        visit(Field::Histogram(&self.cycles));
    }
}

/// The daemon's own per-dispatch telemetry: the dispatches no policy
/// matched. They report as `syrupd/unmatched` and, beside every policy's
/// invocations, as `syrupd/dispatches`.
#[derive(Debug, Default)]
struct DaemonStats {
    unmatched: u64,
}

impl Block for DaemonStats {
    fn names(prefix: &str) -> Vec<String> {
        vec![
            format!("{prefix}/unmatched"),
            format!("{prefix}/dispatches"),
        ]
    }

    fn fields(&self, visit: &mut dyn FnMut(Field<'_>)) {
        visit(Field::Counter(self.unmatched));
        visit(Field::Counter(self.unmatched));
    }
}

/// What one dispatch to a deployed `(app, hook)` policy counts: the
/// policy's `app<id>/<hook>/*` and, for a bytecode policy, the VM's
/// `vm/*`. Each generation of a slot keeps its own, under its lock; the
/// registry holds every generation and folds them under the same names,
/// so a redeploy keeps accumulating.
#[derive(Debug, Default)]
struct SlotStats {
    policy: PolicyStats,
    vm: VmStats,
}

impl Block for SlotStats {
    fn names(prefix: &str) -> Vec<String> {
        let mut names = PolicyStats::names(prefix);
        names.extend(VmStats::names("vm"));
        names
    }

    fn fields(&self, visit: &mut dyn FnMut(Field<'_>)) {
        self.policy.fields(visit);
        self.vm.fields(visit);
    }
}

/// What one invocation of a deployed policy runs. The environment of
/// an eBPF policy carries its `prandom` stream from call to call.
enum Exec {
    Ebpf(RunEnv),
    Native(Box<dyn PacketPolicy>),
}

/// What a slot's lock guards: the policy, and the stats its invocations
/// write with plain adds — `None` when the daemon's registry is disabled,
/// which costs an invocation one branch.
struct Calls {
    exec: Exec,
    stats: Option<SlotStats>,
}

/// A slot's lock. Locked, it reads as the policy's [`Exec`].
struct SlotLock(Mutex<Calls>);

impl SlotLock {
    fn lock(&self) -> SlotGuard<'_> {
        SlotGuard(self.0.lock())
    }
}

struct SlotGuard<'a>(MutexGuard<'a, Calls>);

impl Deref for SlotGuard<'_> {
    type Target = Exec;

    fn deref(&self) -> &Exec {
        &self.0.exec
    }
}

/// One deployed `(app, hook)` policy, shared by the tables routing to it
/// and held by the registry, which reads its stats. Aligned so that two
/// slots' callers never write one line.
#[repr(align(128))]
struct Slot {
    app: AppId,
    /// The policy's program; `None` for a native policy.
    prog: Option<ProgSlot>,
    /// The control plane's rank opt-in flag for this `(app, hook)`. It
    /// publishes no other data, hence relaxed.
    ranked: Arc<AtomicBool>,
    /// Held for the length of one invocation, by this policy's callers
    /// only: native policies are `&mut`, and an eBPF policy's `prandom`
    /// stream must advance in call order. The invocation's stats ride
    /// along.
    exec: SlotLock,
}

impl Holds<SlotStats> for Slot {
    fn read(&self, read: &mut dyn FnMut(&SlotStats)) {
        if let Some(stats) = &self.exec.lock().0.stats {
            read(stats);
        }
    }
}

/// The VM as one dispatch enters it: a run counts in the slot's `vm/*`
/// stats, or in the VM's own block when the daemon keeps none.
struct Entering<'a> {
    vm: &'a Vm,
    stats: Option<&'a mut VmStats>,
}

impl Entering<'_> {
    fn run_after(
        &mut self,
        path: &TailPath,
        ctx: &mut PacketCtx<'_>,
        env: &mut RunEnv,
    ) -> Result<VmOutcome, VmError> {
        self.vm.run_after(path, ctx, env, self.stats.as_deref_mut())
    }

    /// [`Vm::run`]: the whole program, counted in the VM's own block.
    #[cfg(test)]
    fn run(
        &mut self,
        slot: ProgSlot,
        ctx: &mut PacketCtx<'_>,
        env: &mut RunEnv,
    ) -> Result<VmOutcome, VmError> {
        self.vm.run(slot, ctx, env)
    }
}

/// One owned port of a hook.
struct Route {
    port: u16,
    slot: Arc<Slot>,
    /// The root program's path to `slot`'s program for this port, as it
    /// ran when the table was built; `None` for a native policy.
    entry: Option<TailPath>,
}

/// The data plane's view of one hook.
struct HookTable {
    stage: syrup_observe::trace::Stage,
    /// Sorted by port.
    routes: Vec<Route>,
}

/// Everything one `schedule` call reads, immutable once published.
struct DispatchTable {
    hooks: [Option<HookTable>; Hook::ALL.len()],
    /// The control plane's VM, tracer and recorder included, as of
    /// publish time.
    vm: Vm,
}

struct HookState {
    /// Port → prog-array index, consulted by the root program.
    port_map: MapRef,
    /// Per-app policy programs for tail calls.
    prog_array: MapRef,
    /// The verified root dispatcher: run to resolve a route when a table
    /// is built, never per input.
    root_slot: ProgSlot,
    /// Deployed policy per app.
    policies: HashMap<AppId, Arc<Slot>>,
    /// App → prog-array index; an app keeps its index for good.
    indices: HashMap<AppId, u32>,
}

impl HookState {
    /// Points `ports` at prog-array entry `index` and, for a bytecode
    /// policy, that entry at `prog`. Only an app new to the hook can be
    /// refused — the 257th bytecode policy, or ports past the port map's
    /// 1 024; a redeploy rewrites entries it already holds — and what it
    /// wrote by then is taken back.
    fn wire(&self, index: u32, prog: Option<ProgSlot>, ports: &[u16]) -> Result<(), MapError> {
        // A native policy's inputs never reach the root program, so it
        // leaves the entry alone.
        if prog.is_some() {
            self.prog_array.set_prog(index, prog)?;
        }
        let key = |port: u16| u32::from(port).to_le_bytes();
        let value = u64::from(index).to_le_bytes();
        let wired = ports
            .iter()
            .try_for_each(|&port| self.port_map.update(&key(port), &value, UpdateFlag::Any));
        if wired.is_err() {
            for &port in ports {
                let _ = self.port_map.delete(&key(port));
            }
            if prog.is_some() {
                let _ = self.prog_array.set_prog(index, None);
            }
        }
        wired
    }
}

/// The authoritative state, mutated under the control lock and then
/// published as a fresh [`DispatchTable`].
struct Control {
    vm: Vm,
    /// Each registered app's ports.
    apps: HashMap<AppId, Vec<u16>>,
    hooks: HashMap<Hook, HookState>,
    /// Whether `(app, hook)` opted into rank decoding, shared with the
    /// deployed slot so a toggle needs no new table. Everything else keeps
    /// the classic u32 truncation, so FIFO scenarios are bit-identical
    /// whether or not a policy happens to set high bits.
    rank_optin: HashMap<(AppId, Hook), Arc<AtomicBool>>,
    next_app: u32,
}

impl Control {
    /// The table for the current state: O(hooks + deployed ports).
    fn table(&self) -> DispatchTable {
        let mut hooks: [Option<HookTable>; Hook::ALL.len()] = Default::default();
        for (hook, hs) in &self.hooks {
            let mut routes = Vec::new();
            for (app, slot) in &hs.policies {
                routes.extend(self.apps[app].iter().map(|&port| Route {
                    port,
                    slot: slot.clone(),
                    entry: slot.prog.map(|prog| self.resolve(hs, port, prog)),
                }));
            }
            routes.sort_unstable_by_key(|route| route.port);
            hooks[hook.index()] = Some(HookTable {
                stage: syrup_observe::trace::Stage::for_hook(hook.name()),
                routes,
            });
        }
        let vm = self.vm.clone();
        DispatchTable { hooks, vm }
    }

    /// The path `hs`'s root program takes for an input to `port`, which
    /// `deploy` wired to `prog`.
    fn resolve(&self, hs: &HookState, port: u16, prog: ProgSlot) -> TailPath {
        let mut ctx = PacketCtx::new(&mut []);
        ctx.meta[2] = u64::from(port);
        let path = self
            .vm
            .trace_tail_call(hs.root_slot, &mut ctx, &mut RunEnv::default())
            .expect("the root program tail-calls for every port deploy wired");
        assert_eq!(path.target(), prog, "the root program reaches the policy");
        path
    }

    fn rank_flag(&mut self, app: AppId, hook: Hook) -> &Arc<AtomicBool> {
        self.rank_optin.entry((app, hook)).or_default()
    }
}

/// The data plane: the published table, and its generation for the
/// copies caller threads keep (see [`CACHED`]).
struct Published {
    /// Process-unique, so a cached table names the daemon it came from
    /// even after that daemon is gone.
    daemon: u64,
    /// `table`'s generation, so a caller checks its copy with a plain
    /// load. Advanced only under `table`'s lock.
    generation: AtomicU64,
    /// Locked only to clone or swap the `Arc`.
    table: Mutex<Arc<DispatchTable>>,
}

/// A caller thread's copy of a published table.
struct Cached {
    daemon: u64,
    generation: u64,
    table: Arc<DispatchTable>,
}

std::thread_local! {
    /// The table the calling thread last ran on, moved out for the length
    /// of each call and put back after it. A thread keeps at most one, so
    /// a dropped daemon's table lives until the thread's next call or its
    /// exit.
    static CACHED: Cell<Option<Cached>> = const { Cell::new(None) };
}

/// Hands out the process-unique [`Published::daemon`] ids.
static NEXT_DAEMON: AtomicU64 = AtomicU64::new(0);

impl Published {
    fn new(table: DispatchTable) -> Self {
        Published {
            daemon: NEXT_DAEMON.fetch_add(1, Relaxed),
            generation: AtomicU64::new(0),
            table: Mutex::new(Arc::new(table)),
        }
    }

    /// The current table, for one call: the calling thread's copy if it is
    /// this daemon's current generation, else a fresh one from under the
    /// lock — on a thread's first call, the first after a publish, a call
    /// to another daemon, or a call made while an outer call holds the
    /// copy.
    fn fetch(&self) -> Cached {
        let generation = self.generation.load(Relaxed);
        match CACHED.try_with(Cell::take).ok().flatten() {
            Some(cached) if cached.daemon == self.daemon && cached.generation == generation => {
                cached
            }
            stale => {
                drop(stale);
                let table = self.table.lock();
                Cached {
                    daemon: self.daemon,
                    generation: self.generation.load(Relaxed),
                    table: Arc::clone(&table),
                }
            }
        }
    }

    /// Makes `table` what the next call fetches.
    fn publish(&self, table: DispatchTable) {
        let next = Arc::new(table);
        let mut published = self.table.lock();
        let previous = std::mem::replace(&mut *published, next);
        self.generation.fetch_add(1, Relaxed);
        drop(published);
        // Dropped after the lock is released.
        drop(previous);
    }
}

/// Gives a call's table back to its thread. Dropped instead while the
/// thread's locals are being destroyed.
fn put_back(cached: Cached) {
    // A nested call's copy, if any, is dropped here.
    let _nested = CACHED.try_with(|slot| slot.replace(Some(cached)));
}

/// The daemon. Cloning shares the instance (it is "a long-running daemon"
/// — §4.3 — not a per-app object).
#[derive(Clone)]
pub struct Syrupd {
    registry: MapRegistry,
    telemetry: Registry,
    /// Daemon-wide instruments, cached so the hot path never
    /// re-registers: deploys, and the unmatched dispatches' block.
    deploys: CounterHandle,
    stats: BlockHandle<DaemonStats>,
    /// The control plane: every mutation happens under this lock.
    control: Arc<Mutex<Control>>,
    published: Arc<Published>,
}

impl fmt::Debug for Syrupd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let control = self.control.lock();
        f.debug_struct("Syrupd")
            .field("apps", &control.apps.len())
            .field("hooks", &control.hooks.len())
            .finish()
    }
}

impl Default for Syrupd {
    fn default() -> Self {
        Self::new()
    }
}

impl Syrupd {
    /// Starts a daemon with a fresh map registry and telemetry enabled.
    pub fn new() -> Self {
        Self::with_telemetry(Registry::new())
    }

    /// Starts a daemon publishing into `telemetry`, its VM on
    /// [`Backend::default`] (see [`Syrupd::set_backend`]). Pass
    /// [`Registry::disabled`] to strip instrumentation cost entirely.
    pub fn with_telemetry(telemetry: Registry) -> Self {
        let registry = MapRegistry::new();
        let mut vm = Vm::new(registry.clone());
        vm.attach_telemetry(&telemetry);
        let control = Control {
            vm,
            apps: HashMap::new(),
            hooks: HashMap::new(),
            rank_optin: HashMap::new(),
            next_app: 1,
        };
        Syrupd {
            published: Arc::new(Published::new(control.table())),
            control: Arc::new(Mutex::new(control)),
            registry,
            deploys: telemetry.counter("syrupd/deploys"),
            stats: telemetry.block("syrupd"),
            telemetry,
        }
    }

    /// Makes `control`'s state what every `schedule` call that starts
    /// after this returns sees. Calls already past their table fetch
    /// finish on the table they hold.
    fn publish(&self, control: &Control) {
        self.published.publish(control.table());
    }

    /// Reconfigures the VM; the next `schedule` call runs under it.
    fn configure_vm(&self, configure: impl FnOnce(&mut Vm)) {
        let mut control = self.control.lock();
        configure(&mut control.vm);
        self.publish(&control);
    }

    /// The shared map registry (substrates use it to resolve executor
    /// maps).
    pub fn registry(&self) -> &MapRegistry {
        &self.registry
    }

    /// The telemetry registry the daemon publishes into. Substrates and
    /// applications register their own instruments here so one snapshot
    /// covers the whole stack.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Point-in-time copy of every metric across the daemon, the VM, and
    /// anything else sharing the registry.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.telemetry.snapshot()
    }

    /// One application's slice of the metrics: every name under
    /// `app<id>/`, with the prefix stripped.
    pub fn app_snapshot(&self, app: AppId) -> Snapshot {
        self.telemetry
            .snapshot()
            .filter_prefix(&format!("app{}/", app.0))
    }

    /// Starts recording request spans into `tracer`: one span per policy
    /// invocation at the invoked hook's stage (plus the VM's own
    /// `vm-exec` span), and a `policy-lifecycle` instant per
    /// deploy/undeploy. Affects every clone of this daemon.
    pub fn attach_tracer(&self, tracer: &syrup_observe::trace::Tracer) {
        self.configure_vm(|vm| vm.attach_tracer(tracer));
    }

    /// The tracer the daemon records into ([`syrup_observe::trace::Tracer::disabled`]
    /// unless [`Syrupd::attach_tracer`] was called).
    pub fn tracer(&self) -> syrup_observe::trace::Tracer {
        self.control.lock().vm.tracer().clone()
    }

    /// Streams flight-recorder events from every layer the daemon owns:
    /// one dispatch event per policy verdict (carrying the full
    /// `(rank << 32) | executor` return and the modelled cycle cost), plus
    /// the VM's trap and tail-call-cap events from whichever execution
    /// engine is active. Affects every clone of this daemon.
    pub fn attach_blackbox(&self, recorder: &syrup_observe::blackbox::Recorder) {
        self.configure_vm(|vm| vm.attach_blackbox(recorder));
    }

    /// Starts attributing every eBPF invocation's cycles into
    /// `profiler`, per `(prog, pc)` and per helper, with the root
    /// dispatcher → policy tail-call chain folded into full stacks.
    /// Programs deployed before or after the attach are both annotated.
    /// Affects every clone of this daemon.
    pub fn attach_profiler(&self, profiler: &syrup_observe::profile::Profiler) {
        self.configure_vm(|vm| vm.attach_profiler(profiler));
    }

    /// Selects the eBPF execution engine for every deployed policy.
    /// Takes effect on the next invocation; both engines share maps and
    /// program slots, so switching mid-run is safe.
    pub fn set_backend(&self, backend: Backend) {
        self.configure_vm(|vm| vm.set_backend(backend));
    }

    /// The eBPF execution engine policies currently run under.
    pub fn backend(&self) -> Backend {
        self.control.lock().vm.backend()
    }

    /// Apps with a deployed policy, as `(app, hook, is_native)` rows —
    /// the data behind `syrupctl prog list`.
    pub fn deployed(&self) -> Vec<(AppId, Hook, bool)> {
        let control = self.control.lock();
        let mut rows: Vec<(AppId, Hook, bool)> = control
            .hooks
            .iter()
            .flat_map(|(hook, hs)| {
                hs.policies
                    .iter()
                    .map(|(app, slot)| (*app, *hook, slot.prog.is_none()))
            })
            .collect();
        rows.sort_by_key(|(app, hook, _)| (app.0, *hook));
        rows
    }

    /// Opts `(app, hook)` into rank decoding: [`Syrupd::schedule_verdict`]
    /// starts honouring the high 32 bits of the policy's return value as a
    /// queue rank. Without the opt-in, ranks are forced to 0 and behaviour
    /// is bit-identical to the classic u32 contract. Idempotent; may be
    /// called before or after `deploy`.
    pub fn enable_ranks(&self, app: AppId, hook: Hook) {
        self.control
            .lock()
            .rank_flag(app, hook)
            .store(true, Relaxed);
    }

    /// Whether `(app, hook)` opted into rank decoding.
    pub fn ranks_enabled(&self, app: AppId, hook: Hook) -> bool {
        self.control.lock().rank_flag(app, hook).load(Relaxed)
    }

    /// Registers an application with the ports it owns. Returns the app id
    /// and its namespaced Map API view. The name is the caller's label:
    /// the daemon keys apps by id and keeps only their ports.
    pub fn register_app(
        &self,
        _name: impl Into<String>,
        ports: &[u16],
    ) -> Result<(AppId, SyrupMaps), DeployError> {
        let mut control = self.control.lock();
        // Port ownership is global across apps.
        for (&other_id, owned) in &control.apps {
            for p in ports {
                if owned.contains(p) {
                    return Err(DeployError::PortOwnedByOther {
                        port: *p,
                        owner: other_id,
                    });
                }
            }
        }
        let id = AppId(control.next_app);
        control.next_app += 1;
        control.apps.insert(id, ports.to_vec());
        Ok((id, SyrupMaps::new(id, self.registry.clone())))
    }

    /// `syr_deploy_policy`: deploys `source` for `app` at `hook`.
    ///
    /// Policies can be redeployed at any time while the application runs
    /// (§3.1); a second deployment for the same (app, hook) replaces the
    /// first atomically.
    pub fn deploy(
        &self,
        app: AppId,
        hook: Hook,
        source: PolicySource,
    ) -> Result<PolicyHandle, DeployError> {
        let mut control = self.control.lock();
        if !control.apps.contains_key(&app) {
            return Err(DeployError::UnknownApp(app));
        }
        if !control.hooks.contains_key(&hook) {
            let state = self.new_hook(&mut control.vm)?;
            control.hooks.insert(hook, state);
        }

        // Created first so map ids come out in the order they always have;
        // nobody can see the map until it is pinned, below.
        let exec_id = self
            .registry
            .create(MapDef::u64_array(EXECUTOR_MAP_ENTRIES));
        let executors = self.registry.get(exec_id).expect("map just created");

        // Maps to pin under the app's namespace, by name: the executor map,
        // and file-declared maps so the app's other layers and its
        // userspace agent can open them (§3.4).
        let mut pins: Vec<(String, MapId)> = Vec::new();
        let (exec, program) = match source {
            PolicySource::C { source, options } => {
                let compiled = syrup_lang::compile(&source, &options, &self.registry)?;
                pins.extend(compiled.created_maps);
                pins.extend(compiled.globals_map.map(|id| ("__globals".to_string(), id)));
                (Exec::Ebpf(RunEnv::default()), Some(compiled.program))
            }
            PolicySource::Bytecode(program) => (Exec::Ebpf(RunEnv::default()), Some(program)),
            PolicySource::Native(policy) => (Exec::Native(policy), None),
        };
        let prog = program.map(|p| control.vm.load(p)).transpose()?;

        // Wire the isolation dispatch: every port the app owns routes to
        // this policy, and only to this policy. Last of the steps that can
        // refuse, so a refused deployment is neither counted nor visible.
        let ports = control.apps[&app].clone();
        let ranked = control.rank_flag(app, hook).clone();
        let hook_state = control.hooks.get_mut(&hook).expect("created above");
        let next_index = hook_state.indices.len() as u32;
        let index = hook_state.indices.get(&app).copied().unwrap_or(next_index);
        hook_state.wire(index, prog, &ports)?;
        hook_state.indices.insert(app, index);

        // `pin` only refuses an id the registry never issued.
        let view = SyrupMaps::new(app, self.registry.clone());
        view.pin_existing(exec_id, &format!("{hook}-executors"))?;
        let mut pinned_maps = HashMap::new();
        for (name, id) in pins {
            let path = view.pin_existing(id, &name)?;
            pinned_maps.insert(name, path);
        }

        self.deploys.inc();
        let stats = self.telemetry.is_enabled().then(SlotStats::default);
        let slot = Arc::new(Slot {
            app,
            prog,
            ranked,
            exec: SlotLock(Mutex::new(Calls { exec, stats })),
        });
        let prefix = format!("app{}/{}", app.0, hook.name());
        self.telemetry.hold::<SlotStats>(&prefix, slot.clone());
        hook_state.policies.insert(app, slot);
        self.publish(&control);
        let tracer = control.vm.tracer();
        tracer.global_instant(
            syrup_observe::trace::Stage::PolicyLifecycle,
            0,
            u64::from(app.0),
        );

        Ok(PolicyHandle {
            app,
            hook,
            executors,
            pinned_maps,
        })
    }

    /// Removes the policy for `(app, hook)`; inputs fall back to the
    /// system default.
    pub fn undeploy(&self, app: AppId, hook: Hook) {
        let mut control = self.control.lock();
        let Some(hs) = control.hooks.get_mut(&hook) else {
            return;
        };
        if hs.policies.remove(&app).is_none() {
            return;
        }
        // The root program PASSes a port whose entry is empty.
        let _ = hs.prog_array.set_prog(hs.indices[&app], None);
        self.publish(&control);
        let tracer = control.vm.tracer();
        tracer.global_instant(
            syrup_observe::trace::Stage::PolicyLifecycle,
            0,
            u64::from(app.0),
        );
    }

    /// The hook entry point the substrates call per input: runs the
    /// isolation dispatch and the owning app's policy.
    ///
    /// Returns the owning app (if any policy matched) and the decision.
    pub fn schedule(
        &self,
        hook: Hook,
        pkt: &mut [u8],
        meta: &HookMeta,
    ) -> (Option<AppId>, Decision) {
        let (app, verdict) = self.schedule_verdict(hook, pkt, meta);
        (app, verdict.decision)
    }

    /// [`Syrupd::schedule`] for rank-aware substrates: additionally
    /// returns the policy's queue rank.
    ///
    /// The rank is only honoured for `(app, hook)` pairs that called
    /// [`Syrupd::enable_ranks`]; otherwise it is forced to 0 so legacy
    /// policies whose arithmetic happens to leave high bits set cannot
    /// change queue order by accident.
    pub fn schedule_verdict(
        &self,
        hook: Hook,
        pkt: &mut [u8],
        meta: &HookMeta,
    ) -> (Option<AppId>, Verdict) {
        self.schedule_entering(hook, pkt, meta, |vm, path, ctx, env| {
            vm.run_after(path, ctx, env)
        })
    }

    /// [`Syrupd::schedule_verdict`] with the way into a bytecode policy as
    /// a parameter, so the tests can go the long way round — through the
    /// root program — and compare.
    fn schedule_entering(
        &self,
        hook: Hook,
        pkt: &mut [u8],
        meta: &HookMeta,
        enter: impl FnOnce(
            &mut Entering<'_>,
            &TailPath,
            &mut PacketCtx<'_>,
            &mut RunEnv,
        ) -> Result<VmOutcome, VmError>,
    ) -> (Option<AppId>, Verdict) {
        let cached = self.published.fetch();
        let answer = self.dispatch(&cached.table, hook, pkt, meta, enter);
        put_back(cached);
        answer
    }

    /// One call of [`Syrupd::schedule_entering`] on `table`.
    fn dispatch(
        &self,
        table: &DispatchTable,
        hook: Hook,
        pkt: &mut [u8],
        meta: &HookMeta,
        enter: impl FnOnce(
            &mut Entering<'_>,
            &TailPath,
            &mut PacketCtx<'_>,
            &mut RunEnv,
        ) -> Result<VmOutcome, VmError>,
    ) -> (Option<AppId>, Verdict) {
        let routed = table.hooks[hook.index()].as_ref().and_then(|ht| {
            let found = ht
                .routes
                .binary_search_by_key(&meta.dst_port, |route| route.port);
            Some((ht, &ht.routes[found.ok()?]))
        });
        let Some((ht, route)) = routed else {
            // No policy deployed for this port: default system behaviour.
            self.stats.write(|stats| stats.unmatched += 1);
            return (None, Verdict::unranked(Decision::Pass));
        };
        let slot = &*route.slot;

        let mut calls = slot.exec.lock();
        let Calls { exec, stats } = &mut *calls.0;
        let (mut verdict, run) = match exec {
            Exec::Native(policy) => (policy.schedule_verdict(pkt, meta), Run::Native),
            // eBPF path: straight into the policy, the root program's path
            // to it already on the account.
            Exec::Ebpf(env) => {
                env.now_ns = meta.now_ns;
                env.cpu_id = meta.cpu;
                env.trace = meta.trace;
                let mut ctx = PacketCtx::new(pkt);
                ctx.meta = [
                    u64::from(meta.rx_queue),
                    u64::from(meta.cpu),
                    u64::from(meta.dst_port),
                    0,
                ];
                let path = route.entry.as_ref().expect("resolved with the table");
                let mut vm = Entering {
                    vm: &table.vm,
                    stats: stats.as_mut().map(|stats| &mut stats.vm),
                };
                match enter(&mut vm, path, &mut ctx, env) {
                    Ok(out) => {
                        let verdict = match out.redirect {
                            Some((_, idx)) => Verdict {
                                decision: Decision::Executor(idx),
                                rank: ret::rank_of(out.ret),
                            },
                            None => Verdict::from_ret(out.ret),
                        };
                        let run = Run::Vm {
                            insns: out.insns,
                            cycles: out.cycles,
                        };
                        (verdict, run)
                    }
                    // A trapping policy affects only its own traffic
                    // (§3.2): its input PASSes to the default policy.
                    Err(_) => (Verdict::unranked(Decision::Pass), Run::Trap),
                }
            }
        };
        if let Some(stats) = stats {
            stats.policy.record(verdict.decision, run);
        }
        let cycles = run.cycles();
        table.vm.recorder().dispatch(
            meta.now_ns,
            slot.app.0 as u16,
            hook.index() as u16,
            verdict.to_ret(),
            cycles,
        );
        table.vm.tracer().policy_span(
            meta.trace,
            ht.stage,
            meta.now_ns,
            meta.now_ns + cycles,
            verdict.decision.to_ret() as i64,
            cycles,
        );
        if !slot.ranked.load(Relaxed) {
            verdict.rank = 0;
        }
        (Some(slot.app), verdict)
    }

    /// Mean (instructions, cycles) per invocation for an eBPF policy
    /// (Table 2 instrumentation). `None` for native policies or before
    /// the first invocation.
    ///
    /// Reads the `app<id>/<hook>/{insns,cycles}` telemetry histograms;
    /// means are exact because histograms carry exact sums.
    pub fn policy_stats(&self, app: AppId, hook: Hook) -> Option<(f64, f64)> {
        self.control
            .lock()
            .hooks
            .get(&hook)?
            .policies
            .get(&app)?
            .prog?;
        let snapshot = self.telemetry.snapshot();
        let histogram = |field: &str| snapshot.histogram(&format!("app{}/{hook}/{field}", app.0));
        let insns = histogram("insns").filter(|insns| !insns.is_empty())?;
        Some((insns.mean(), histogram("cycles")?.mean()))
    }

    /// Builds a hook's dispatch state, on its first deployment.
    fn new_hook(&self, vm: &mut Vm) -> Result<HookState, DeployError> {
        let port_map_id = self.registry.create(MapDef::u64_hash(1024));
        let prog_array_id = self.registry.create(MapDef::prog_array(256));
        let port_map = self.registry.get(port_map_id).expect("created");
        let prog_array = self.registry.get(prog_array_id).expect("created");

        // The §4.3 root program: match the input's destination port to the
        // owning application's policy and tail-call it; unknown ports PASS.
        let root = Asm::new()
            .mov64_reg(Reg::R6, Reg::R1) // save ctx
            .ldx_dw(Reg::R2, Reg::R1, 32) // META2 = dst port
            .stx_w(Reg::R10, -4, Reg::R2)
            .load_map_fd(Reg::R1, port_map_id)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -4)
            .call(HelperId::MapLookupElem)
            .jeq_imm(Reg::R0, 0, "pass")
            .ldx_dw(Reg::R3, Reg::R0, 0) // prog-array index
            .mov64_reg(Reg::R1, Reg::R6)
            .load_map_fd(Reg::R2, prog_array_id)
            .call(HelperId::TailCall)
            // Tail-call failure (no policy installed) falls back to PASS.
            .label("pass")
            .mov64_imm(Reg::R0, ret::PASS as i32)
            .exit()
            .build("syrupd_dispatch")
            .expect("root dispatcher assembles");
        Ok(HookState {
            port_map,
            prog_array,
            root_slot: vm.load(root)?,
            policies: HashMap::new(),
            indices: HashMap::new(),
        })
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompileOptions;

    fn rr_source() -> PolicySource {
        PolicySource::C {
            source: "
                uint32_t idx = 0;
                uint32_t schedule(void *pkt_start, void *pkt_end) {
                    idx++;
                    return idx % NUM_THREADS;
                }"
            .to_string(),
            options: CompileOptions::new().define("NUM_THREADS", 4),
        }
    }

    fn meta(port: u16) -> HookMeta {
        HookMeta {
            dst_port: port,
            ..HookMeta::default()
        }
    }

    /// Bytecode that always answers `executor`.
    fn constant(executor: i32) -> PolicySource {
        let prog = syrup_ebpf::Asm::new()
            .mov64_imm(Reg::R0, executor)
            .exit()
            .build("constant")
            .unwrap();
        PolicySource::Bytecode(prog)
    }

    #[test]
    fn full_workflow_compile_verify_deploy_schedule() {
        let d = Syrupd::new();
        let (app, _maps) = d.register_app("rocksdb", &[8080]).unwrap();
        let handle = d.deploy(app, Hook::SocketSelect, rr_source()).unwrap();
        assert_eq!(handle.app, app);

        let mut pkt = [0u8; 16];
        let picks: Vec<_> = (0..5)
            .map(|_| d.schedule(Hook::SocketSelect, &mut pkt, &meta(8080)))
            .collect();
        assert_eq!(picks[0], (Some(app), Decision::Executor(1)));
        assert_eq!(picks[3], (Some(app), Decision::Executor(0)));
        assert_eq!(picks[4], (Some(app), Decision::Executor(1)));
    }

    #[test]
    fn profiler_attributes_dispatch_chains() {
        let d = Syrupd::new();
        let profiler = syrup_observe::profile::Profiler::new();
        d.attach_profiler(&profiler);
        let (app, _maps) = d.register_app("rocksdb", &[8080]).unwrap();
        d.deploy(app, Hook::SocketSelect, rr_source()).unwrap();

        let mut pkt = [0u8; 16];
        for _ in 0..8 {
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(8080));
        }

        // Every cycle the VM charged must land in a concrete (prog, pc)
        // bucket: attribution covers the telemetry total exactly.
        let total = d
            .telemetry_snapshot()
            .histogram("vm/run_cycles")
            .expect("vm publishes run_cycles")
            .sum();
        let report = profiler.report(Some(total), 16);
        assert_eq!(report.attributed_cycles, total);
        assert!((report.coverage - 1.0).abs() < 1e-9);
        assert_eq!(report.runs, 8);

        // The root dispatcher tail-calls into the app policy, so folded
        // stacks carry the full chain.
        let flame = profiler.flame();
        assert!(
            flame.lines().any(|l| l.starts_with("vm;syrupd_dispatch;")),
            "flame should fold dispatch chains: {flame}"
        );
        // Hotspots name the dispatcher and are annotated with disasm.
        assert!(report.hotspots.iter().any(|h| h.prog == "syrupd_dispatch"));
        assert!(report.hotspots.iter().all(|h| h.insn.is_some()));
        // The tail_call helper shows up in the helper cost table.
        assert!(report.helpers.iter().any(|h| h.helper == "tail_call"));
    }

    #[test]
    fn ranks_require_the_per_hook_optin() {
        let d = Syrupd::new();
        let (app, _) = d.register_app("srpt", &[8080]).unwrap();
        // A bytecode policy returning executor 2 at rank 77 via the
        // (rank << 32) | q encoding.
        let prog = syrup_ebpf::Asm::new()
            .load_imm64(Reg::R0, ret::with_rank(2, 77) as i64)
            .exit()
            .build("ranked")
            .unwrap();
        d.deploy(app, Hook::SocketSelect, PolicySource::Bytecode(prog))
            .unwrap();
        let mut pkt = [0u8; 8];

        // Classic entry point and the verdict path without opt-in both
        // see the legacy u32 contract.
        assert_eq!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(8080)),
            (Some(app), Decision::Executor(2))
        );
        assert!(!d.ranks_enabled(app, Hook::SocketSelect));
        let (_, v) = d.schedule_verdict(Hook::SocketSelect, &mut pkt, &meta(8080));
        assert_eq!(v, Verdict::unranked(Decision::Executor(2)));

        // After the opt-in the high word becomes the rank.
        d.enable_ranks(app, Hook::SocketSelect);
        assert!(d.ranks_enabled(app, Hook::SocketSelect));
        let (owner, v) = d.schedule_verdict(Hook::SocketSelect, &mut pkt, &meta(8080));
        assert_eq!(owner, Some(app));
        assert_eq!(v.decision, Decision::Executor(2));
        assert_eq!(v.rank, 77);
    }

    #[test]
    fn native_policies_can_return_ranked_verdicts() {
        struct Ranked;
        impl crate::policy::PacketPolicy for Ranked {
            fn schedule(&mut self, pkt: &mut [u8], meta: &HookMeta) -> Decision {
                self.schedule_verdict(pkt, meta).decision
            }
            fn schedule_verdict(&mut self, _pkt: &mut [u8], m: &HookMeta) -> Verdict {
                Verdict {
                    decision: Decision::Executor(1),
                    rank: m.rx_queue + 10,
                }
            }
        }
        let d = Syrupd::new();
        let (app, _) = d.register_app("native-ranked", &[9000]).unwrap();
        d.deploy(
            app,
            Hook::SocketSelect,
            PolicySource::Native(Box::new(Ranked)),
        )
        .unwrap();
        d.enable_ranks(app, Hook::SocketSelect);
        let mut pkt = [0u8; 4];
        let (_, v) = d.schedule_verdict(Hook::SocketSelect, &mut pkt, &meta(9000));
        assert_eq!(v.rank, 10);
        assert_eq!(v.decision, Decision::Executor(1));
    }

    #[test]
    fn blackbox_records_dispatch_verdicts_from_both_executors() {
        use syrup_observe::blackbox::{EventKind, Layer, Recorder};
        let d = Syrupd::new();
        let rec = Recorder::new();
        d.attach_blackbox(&rec);

        // eBPF policy returning executor 2 at rank 77.
        let (app, _) = d.register_app("ranked", &[8080]).unwrap();
        let prog = syrup_ebpf::Asm::new()
            .load_imm64(Reg::R0, ret::with_rank(2, 77) as i64)
            .exit()
            .build("ranked")
            .unwrap();
        d.deploy(app, Hook::SocketSelect, PolicySource::Bytecode(prog))
            .unwrap();
        d.enable_ranks(app, Hook::SocketSelect);

        // Native policy on another port.
        struct Fixed;
        impl crate::policy::PacketPolicy for Fixed {
            fn schedule(&mut self, _pkt: &mut [u8], _m: &HookMeta) -> Decision {
                Decision::Executor(3)
            }
        }
        let (napp, _) = d.register_app("native", &[9000]).unwrap();
        d.deploy(
            napp,
            Hook::SocketSelect,
            PolicySource::Native(Box::new(Fixed)),
        )
        .unwrap();

        let mut pkt = [0u8; 8];
        let m = HookMeta {
            now_ns: 4_000,
            ..meta(8080)
        };
        d.schedule_verdict(Hook::SocketSelect, &mut pkt, &m);
        d.schedule_verdict(
            Hook::SocketSelect,
            &mut pkt,
            &HookMeta {
                now_ns: 5_000,
                ..meta(9000)
            },
        );
        // Unmatched ports never dispatch, so they record nothing.
        d.schedule(Hook::SocketSelect, &mut pkt, &meta(9999));

        let events = rec.events(Layer::Syrupd);
        assert_eq!(events.len(), 2);
        let e = &events[0];
        assert_eq!(e.kind, EventKind::Dispatch);
        assert_eq!(e.at_ns, 4_000);
        assert_eq!(u32::from(e.id), app.0);
        assert_eq!(e.aux, Hook::SocketSelect.index() as u32);
        // Full (rank << 32) | executor encoding survives into the event.
        assert_eq!(e.w0 >> 32, 77);
        assert_eq!(e.w0 & 0xffff_ffff, 2);
        assert!(e.w1 > 0, "eBPF dispatches carry their cycle cost");
        let n = &events[1];
        assert_eq!(u32::from(n.id), napp.0);
        assert_eq!(n.w0 & 0xffff_ffff, 3);
        assert_eq!(n.w1, 0, "native dispatches are free in the cycle model");
    }

    #[test]
    fn unknown_port_passes_to_default_policy() {
        let d = Syrupd::new();
        let (app, _) = d.register_app("a", &[8080]).unwrap();
        d.deploy(app, Hook::SocketSelect, rr_source()).unwrap();
        let mut pkt = [0u8; 16];
        assert_eq!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(9999)),
            (None, Decision::Pass)
        );
    }

    #[test]
    fn two_apps_are_isolated() {
        // Each app's policy handles only inputs on its own ports (§4.3).
        let d = Syrupd::new();
        let (app1, _) = d.register_app("kv", &[8080]).unwrap();
        let (app2, _) = d.register_app("web", &[9090]).unwrap();
        d.deploy(app1, Hook::SocketSelect, rr_source()).unwrap();
        d.deploy(
            app2,
            Hook::SocketSelect,
            PolicySource::C {
                source: "uint32_t schedule(void *a, void *b) { return 7; }".to_string(),
                options: CompileOptions::new(),
            },
        )
        .unwrap();

        let mut pkt = [0u8; 16];
        // App 2's constant policy answers on port 9090 regardless of how
        // many packets app 1 has scheduled.
        for _ in 0..3 {
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(8080));
        }
        assert_eq!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(9090)),
            (Some(app2), Decision::Executor(7))
        );
        // And app 1's round-robin continues from its own state.
        assert_eq!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(8080)),
            (Some(app1), Decision::Executor(0))
        );
    }

    #[test]
    fn port_conflicts_are_rejected() {
        let d = Syrupd::new();
        let (owner, _) = d.register_app("first", &[8080]).unwrap();
        let err = d.register_app("second", &[8080, 8081]).unwrap_err();
        match err {
            DeployError::PortOwnedByOther { port, owner: o } => {
                assert_eq!(port, 8080);
                assert_eq!(o, owner);
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn unverifiable_policy_is_refused() {
        let d = Syrupd::new();
        let (app, _) = d.register_app("bad", &[1000]).unwrap();
        // Reads the packet without a bounds check.
        let err = d
            .deploy(
                app,
                Hook::SocketSelect,
                PolicySource::C {
                    source: "uint32_t schedule(void *pkt_start, void *pkt_end) {
                                 return *(uint32_t *)(pkt_start + 0);
                             }"
                    .to_string(),
                    options: CompileOptions::new(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, DeployError::Verify(_)));
    }

    #[test]
    fn a_refused_deploy_is_neither_counted_nor_applied() {
        let hook = Hook::SocketSelect;
        let deploys = |d: &Syrupd| d.telemetry_snapshot().counter("syrupd/deploys");
        let mut pkt = [0u8; 4];

        // The prog-array holds 256 programs: the 257th app on a hook.
        let d = Syrupd::new();
        let apps: Vec<AppId> = (0..257u16)
            .map(|i| d.register_app(format!("app-{i}"), &[1000 + i]).unwrap().0)
            .collect();
        for &app in &apps[..256] {
            d.deploy(app, hook, constant(1)).unwrap();
        }
        let err = d.deploy(apps[256], hook, constant(2)).unwrap_err();
        assert!(
            matches!(err, DeployError::Map(MapError::IndexOutOfRange)),
            "{err}"
        );
        assert_eq!(deploys(&d), 256);
        assert_eq!(
            d.schedule(hook, &mut pkt, &meta(1256)),
            (None, Decision::Pass)
        );
        assert!(d.deployed().iter().all(|row| row.0 != apps[256]));
        // The hook still takes redeployments, and the refused app is
        // welcome wherever there is room.
        d.deploy(apps[0], hook, constant(3)).unwrap();
        d.deploy(apps[256], Hook::XdpDrv, constant(4)).unwrap();
        assert_eq!(deploys(&d), 258);
        assert_eq!(
            d.schedule(hook, &mut pkt, &meta(1000)).1,
            Decision::Executor(3)
        );
        assert_eq!(
            d.schedule(Hook::XdpDrv, &mut pkt, &meta(1256)),
            (Some(apps[256]), Decision::Executor(4))
        );

        // The port map holds 1 024 ports.
        let d = Syrupd::new();
        let many: Vec<u16> = (0..1025).collect();
        let (big, _) = d.register_app("big", &many).unwrap();
        let (small, _) = d.register_app("small", &[40_000]).unwrap();
        for source in [constant(1), rr_source()] {
            let err = d.deploy(big, hook, source).unwrap_err();
            assert!(matches!(err, DeployError::Map(MapError::Full)), "{err}");
        }
        assert_eq!(deploys(&d), 0);
        assert!(d.deployed().is_empty());
        assert_eq!(d.schedule(hook, &mut pkt, &meta(5)), (None, Decision::Pass));
        // Nothing of the refused app's is left in the port map or pinned.
        assert!(d.registry().pins().is_empty());
        d.deploy(small, hook, constant(6)).unwrap();
        assert_eq!(deploys(&d), 1);
        assert_eq!(
            d.schedule(hook, &mut pkt, &meta(40_000)),
            (Some(small), Decision::Executor(6))
        );
    }

    #[test]
    fn native_policies_dispatch_through_the_same_port_rules() {
        let d = Syrupd::new();
        let (app, _) = d.register_app("native", &[5000]).unwrap();
        d.deploy(
            app,
            Hook::SocketSelect,
            PolicySource::Native(Box::new(|_pkt: &mut [u8], m: &HookMeta| {
                Decision::Executor(u32::from(m.dst_port % 10))
            })),
        )
        .unwrap();
        let mut pkt = [0u8; 4];
        assert_eq!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(5000)),
            (Some(app), Decision::Executor(0))
        );
        assert_eq!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(1234)),
            (None, Decision::Pass)
        );
    }

    #[test]
    fn redeployment_replaces_the_policy_live() {
        // "Applications can update or deploy new policies at any time
        // while they are running" (§3.1).
        let d = Syrupd::new();
        let (app, _) = d.register_app("live", &[7000]).unwrap();
        d.deploy(
            app,
            Hook::SocketSelect,
            PolicySource::C {
                source: "uint32_t schedule(void *a, void *b) { return 1; }".into(),
                options: CompileOptions::new(),
            },
        )
        .unwrap();
        let mut pkt = [0u8; 4];
        assert_eq!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(7000)).1,
            Decision::Executor(1)
        );
        d.deploy(
            app,
            Hook::SocketSelect,
            PolicySource::C {
                source: "uint32_t schedule(void *a, void *b) { return 2; }".into(),
                options: CompileOptions::new(),
            },
        )
        .unwrap();
        assert_eq!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(7000)).1,
            Decision::Executor(2)
        );
    }

    #[test]
    fn a_call_on_a_held_table_answers_with_the_generation_it_routed_to() {
        let hook = Hook::SocketSelect;
        let d = Syrupd::new();
        let (app, _) = d.register_app("live", &[7000]).unwrap();
        d.deploy(app, hook, constant(1)).unwrap();
        let mut pkt = [0u8; 4];

        // The control plane moves on between a call's table fetch and its
        // run: the call finishes on what it fetched.
        let held = d.schedule_entering(hook, &mut pkt, &meta(7000), |vm, path, ctx, env| {
            d.deploy(app, hook, constant(2)).unwrap();
            vm.run_after(path, ctx, env)
        });
        assert_eq!(held.1.decision, Decision::Executor(1));
        assert_eq!(
            d.schedule(hook, &mut pkt, &meta(7000)).1,
            Decision::Executor(2)
        );
        let held = d.schedule_entering(hook, &mut pkt, &meta(7000), |vm, path, ctx, env| {
            d.undeploy(app, hook);
            vm.run_after(path, ctx, env)
        });
        assert_eq!(held, (Some(app), Verdict::unranked(Decision::Executor(2))));
        assert_eq!(
            d.schedule(hook, &mut pkt, &meta(7000)),
            (None, Decision::Pass)
        );
        assert_eq!(d.telemetry_snapshot().counter("vm/traps"), 0);
    }

    /// A redeploy fetches its `(app, hook)` block by name, so the names
    /// keep accumulating across generations, native ones included.
    #[test]
    fn a_redeploy_keeps_accumulating_the_policy_metrics() {
        let hook = Hook::SocketSelect;
        let d = Syrupd::new();
        let (app, _) = d.register_app("live", &[7000]).unwrap();
        let drop = || PolicySource::Native(Box::new(|_: &mut [u8], _: &HookMeta| Decision::Drop));
        let mut pkt = [0u8; 4];
        for (generation, source) in [constant(1), drop(), constant(2)].into_iter().enumerate() {
            d.deploy(app, hook, source).unwrap();
            for _ in 0..3 {
                d.schedule(hook, &mut pkt, &meta(7000));
            }
            let per_app = d.app_snapshot(app);
            let calls = 3 * (generation as u64 + 1);
            assert_eq!(per_app.counter("socket-select/invocations"), calls);
        }
        let per_app = d.app_snapshot(app);
        assert_eq!(per_app.counter("socket-select/verdict_executor"), 6);
        assert_eq!(per_app.counter("socket-select/verdict_drop"), 3);
        assert_eq!(per_app.histogram("socket-select/insns").unwrap().count(), 6);
        let snap = d.telemetry_snapshot();
        assert_eq!(snap.counter("syrupd/deploys"), 3);
        assert_eq!(snap.counter("syrupd/dispatches"), 9);
        assert_eq!(snap.counter("vm/runs"), 6);
    }

    /// A call that fetched its table before a redeploy runs the old
    /// generation's slot, and counts in the same names as the calls
    /// after it.
    #[test]
    fn a_call_on_a_held_table_after_a_redeploy_counts_in_the_same_names() {
        let hook = Hook::SocketSelect;
        let d = Syrupd::new();
        let (app, _) = d.register_app("live", &[7000]).unwrap();
        d.deploy(app, hook, constant(1)).unwrap();
        let mut pkt = [0u8; 4];
        let held = d.schedule_entering(hook, &mut pkt, &meta(7000), |vm, path, ctx, env| {
            d.deploy(app, hook, constant(2)).unwrap();
            vm.run_after(path, ctx, env)
        });
        assert_eq!(held.1.decision, Decision::Executor(1));
        d.schedule(hook, &mut pkt, &meta(7000));
        let per_app = d.app_snapshot(app);
        assert_eq!(per_app.counter("socket-select/invocations"), 2);
        assert_eq!(per_app.counter("socket-select/verdict_executor"), 2);
        assert_eq!(
            per_app.histogram("socket-select/cycles").unwrap().count(),
            2
        );
        let snap = d.telemetry_snapshot();
        assert_eq!(snap.counter("syrupd/dispatches"), 2);
        assert_eq!(snap.counter("vm/runs"), 2);
    }

    /// Two daemons, so two VMs, attached to one registry write one
    /// `vm/*` and one `syrupd/*`.
    #[test]
    fn two_vms_attached_to_one_registry_share_the_vm_metrics() {
        let registry = Registry::new();
        let daemons = [(); 2].map(|_| Syrupd::with_telemetry(registry.clone()));
        let mut pkt = [0u8; 4];
        for (d, hook) in daemons.iter().zip([Hook::SocketSelect, Hook::XdpDrv]) {
            let (app, _) = d.register_app("shared", &[7000]).unwrap();
            d.deploy(app, hook, constant(1)).unwrap();
            for _ in 0..3 {
                d.schedule(hook, &mut pkt, &meta(7000));
            }
            d.schedule(hook, &mut pkt, &meta(7001));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("vm/runs"), 6);
        assert_eq!(
            snap.counter("vm/runs_fast") + snap.counter("vm/runs_interp"),
            6
        );
        assert_eq!(snap.histogram("vm/run_insns").unwrap().count(), 6);
        assert_eq!(snap.counter("syrupd/dispatches"), 8);
        assert_eq!(snap.counter("syrupd/unmatched"), 2);
    }

    /// A native policy that schedules on its own daemon finds the
    /// caller's copy of the table taken: the nested call fetches its own,
    /// and both answer.
    #[test]
    fn a_policy_can_schedule_on_its_own_daemon() {
        let d = Syrupd::new();
        let (outer, _) = d.register_app("outer", &[7000]).unwrap();
        let (inner, _) = d.register_app("inner", &[7001]).unwrap();
        d.deploy(inner, Hook::SocketSelect, constant(4)).unwrap();
        let daemon = d.clone();
        let nested = move |pkt: &mut [u8], _: &HookMeta| match daemon.schedule(
            Hook::SocketSelect,
            pkt,
            &meta(7001),
        ) {
            (Some(_), Decision::Executor(e)) => Decision::Executor(e + 1),
            _ => Decision::Drop,
        };
        d.deploy(outer, Hook::XdpDrv, PolicySource::Native(Box::new(nested)))
            .unwrap();
        let mut pkt = [0u8; 4];
        for _ in 0..3 {
            assert_eq!(
                d.schedule(Hook::XdpDrv, &mut pkt, &meta(7000)),
                (Some(outer), Decision::Executor(5))
            );
            assert_eq!(
                d.schedule(Hook::SocketSelect, &mut pkt, &meta(7001)),
                (Some(inner), Decision::Executor(4))
            );
        }
        assert_eq!(d.telemetry_snapshot().counter("syrupd/dispatches"), 9);
    }

    /// A thread's copy of the table is one daemon's at one generation: a
    /// thread alternating between daemons that redeploy between its calls
    /// always runs each one's current policy.
    #[test]
    fn a_thread_alternating_daemons_runs_each_ones_current_generation() {
        let hook = Hook::SocketSelect;
        let daemons = [(); 2].map(|_| Syrupd::new());
        let apps = daemons
            .each_ref()
            .map(|d| d.register_app("alternating", &[7000]).unwrap().0);
        let mut pkt = [0u8; 4];
        for generation in 0..6 {
            for (i, (d, &app)) in daemons.iter().zip(&apps).enumerate() {
                let answer = 10 * generation + i as i32;
                d.deploy(app, hook, constant(answer)).unwrap();
                for _ in 0..2 {
                    assert_eq!(
                        d.schedule(hook, &mut pkt, &meta(7000)),
                        (Some(app), Decision::Executor(answer as u32))
                    );
                }
            }
        }
    }

    /// Generations count per daemon, so a cached table must also name its
    /// daemon: a new daemon at the same generation as a dropped one's
    /// cached table runs its own.
    #[test]
    fn a_new_daemon_never_runs_a_dropped_daemons_cached_table() {
        let hook = Hook::SocketSelect;
        let mut pkt = [0u8; 4];
        for answer in 1..4 {
            let d = Syrupd::new();
            let (app, _) = d.register_app("short-lived", &[7000]).unwrap();
            d.deploy(app, hook, constant(answer)).unwrap();
            assert_eq!(
                d.schedule(hook, &mut pkt, &meta(7000)),
                (Some(app), Decision::Executor(answer as u32))
            );
        }
    }

    /// A thread that exits holding the only reference to a table drops it,
    /// and with it the retired policy, as it goes.
    #[test]
    fn an_exiting_thread_drops_its_cached_table() {
        use std::sync::atomic::AtomicUsize;
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        struct Retiring;
        impl crate::policy::PacketPolicy for Retiring {
            fn schedule(&mut self, _: &mut [u8], _: &HookMeta) -> Decision {
                Decision::Executor(1)
            }
        }
        impl Drop for Retiring {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Relaxed);
            }
        }

        let hook = Hook::SocketSelect;
        // Disabled telemetry, so the registry does not keep the slot too.
        let d = Syrupd::with_telemetry(Registry::disabled());
        let (app, _) = d.register_app("retiring", &[7000]).unwrap();
        d.deploy(app, hook, PolicySource::Native(Box::new(Retiring)))
            .unwrap();
        let caller = d.clone();
        std::thread::spawn(move || {
            let mut pkt = [0u8; 4];
            let answer = caller.schedule(hook, &mut pkt, &meta(7000));
            assert_eq!(answer, (Some(app), Decision::Executor(1)));
            // The thread's copy is now all that routes to `Retiring`.
            caller.deploy(app, hook, constant(2)).unwrap();
        })
        .join()
        .expect("the caller thread exits cleanly");
        assert_eq!(DROPPED.load(Relaxed), 1);
        assert_eq!(
            d.schedule(hook, &mut [0u8; 4], &meta(7000)),
            (Some(app), Decision::Executor(2))
        );
    }

    #[test]
    fn undeploy_restores_default() {
        let d = Syrupd::new();
        let (app, _) = d.register_app("x", &[4000]).unwrap();
        d.deploy(app, Hook::SocketSelect, rr_source()).unwrap();
        let mut pkt = [0u8; 4];
        assert!(matches!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(4000)).1,
            Decision::Executor(_)
        ));
        d.undeploy(app, Hook::SocketSelect);
        assert_eq!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(4000)),
            (None, Decision::Pass)
        );
    }

    #[test]
    fn per_hook_policies_are_independent() {
        let d = Syrupd::new();
        let (app, _) = d.register_app("multi", &[6000]).unwrap();
        d.deploy(app, Hook::SocketSelect, rr_source()).unwrap();
        d.deploy(
            app,
            Hook::XdpDrv,
            PolicySource::C {
                source: "uint32_t schedule(void *a, void *b) { return 9; }".into(),
                options: CompileOptions::new(),
            },
        )
        .unwrap();
        let mut pkt = [0u8; 4];
        assert_eq!(
            d.schedule(Hook::XdpDrv, &mut pkt, &meta(6000)).1,
            Decision::Executor(9)
        );
        assert!(matches!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(6000)).1,
            Decision::Executor(_)
        ));
    }

    #[test]
    fn policy_stats_accumulate() {
        let d = Syrupd::new();
        let (app, _) = d.register_app("stats", &[3000]).unwrap();
        d.deploy(app, Hook::SocketSelect, rr_source()).unwrap();
        let mut pkt = [0u8; 4];
        for _ in 0..10 {
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(3000));
        }
        let (insns, cycles) = d.policy_stats(app, Hook::SocketSelect).unwrap();
        assert!(
            insns > 10.0,
            "dispatch + policy should be tens of insns, got {insns}"
        );
        assert!(cycles > insns);
    }

    #[test]
    fn telemetry_counts_verdicts_and_traces_decisions() {
        use syrup_observe::blackbox::{EventKind, Layer, Recorder};
        let d = Syrupd::new();
        let rec = Recorder::new();
        d.attach_blackbox(&rec);
        let (app, _) = d.register_app("traced", &[8080]).unwrap();
        d.deploy(app, Hook::SocketSelect, rr_source()).unwrap();
        let mut pkt = [0u8; 16];
        for _ in 0..4 {
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(8080));
        }
        d.schedule(Hook::SocketSelect, &mut pkt, &meta(9999)); // unmatched

        let snap = d.telemetry_snapshot();
        assert_eq!(snap.counter("syrupd/deploys"), 1);
        assert_eq!(snap.counter("syrupd/dispatches"), 5);
        assert_eq!(snap.counter("syrupd/unmatched"), 1);
        // The round-robin policy always names an executor.
        let per_app = d.app_snapshot(app);
        assert_eq!(per_app.counter("socket-select/invocations"), 4);
        assert_eq!(per_app.counter("socket-select/verdict_executor"), 4);
        assert_eq!(per_app.counter("socket-select/verdict_pass"), 0);
        // The VM shares the registry: root dispatcher runs are visible.
        assert!(snap.counter("vm/runs") >= 4);

        // One decision record per matched call, none for the unmatched.
        let events = rec.events(Layer::Syrupd);
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.kind == EventKind::Dispatch));
        assert!(events
            .iter()
            .all(|e| e.aux == Hook::SocketSelect.index() as u32));
        assert!(events.iter().all(|e| u32::from(e.id) == app.0));
        assert!(events.iter().all(|e| e.w1 > 0), "bytecode costs cycles");
    }

    #[test]
    fn native_policies_trace_with_zero_cycles() {
        use syrup_observe::blackbox::{EventKind, Layer, Recorder};
        let d = Syrupd::new();
        let rec = Recorder::new();
        d.attach_blackbox(&rec);
        let (app, _) = d.register_app("native", &[5000]).unwrap();
        d.deploy(
            app,
            Hook::CpuRedirect,
            PolicySource::Native(Box::new(|_pkt: &mut [u8], _m: &HookMeta| Decision::Drop)),
        )
        .unwrap();
        let mut pkt = [0u8; 4];
        d.schedule(Hook::CpuRedirect, &mut pkt, &meta(5000));
        let per_app = d.app_snapshot(app);
        assert_eq!(per_app.counter("cpu-redirect/verdict_drop"), 1);
        // A native decision is a dispatch record the VM took no part in.
        let events = rec.events(Layer::Syrupd);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Dispatch);
        assert_eq!(u32::from(events[0].id), app.0);
        assert_eq!(events[0].aux, Hook::CpuRedirect.index() as u32);
        assert_eq!(events[0].w1, 0);
        assert!(rec.events(Layer::Vm).is_empty());
        // Native policies have no insns histogram → no stats.
        assert!(d.policy_stats(app, Hook::CpuRedirect).is_none());
    }

    #[test]
    fn disabled_telemetry_still_schedules() {
        use syrup_observe::blackbox::{Layer, Recorder};
        let d = Syrupd::with_telemetry(Registry::disabled());
        let rec = Recorder::new();
        d.attach_blackbox(&rec);
        let (app, _) = d.register_app("quiet", &[8080]).unwrap();
        d.deploy(app, Hook::SocketSelect, rr_source()).unwrap();
        let mut pkt = [0u8; 16];
        let (owner, decision) = d.schedule(Hook::SocketSelect, &mut pkt, &meta(8080));
        assert_eq!(owner, Some(app));
        assert!(matches!(decision, Decision::Executor(_)));
        assert!(d.telemetry_snapshot().counters.is_empty());
        // The decision record is the recorder's, which metrics being off
        // leaves alone.
        assert_eq!(rec.events(Layer::Syrupd).len(), 1);
        // Stats need the histograms, which a disabled registry drops.
        assert!(d.policy_stats(app, Hook::SocketSelect).is_none());
    }

    #[test]
    fn cross_layer_map_communication() {
        // Userspace writes a map the kernel policy reads — the §3.4 flow.
        let d = Syrupd::new();
        let (app, maps) = d.register_app("tokens", &[2000]).unwrap();
        let handle = d
            .deploy(
                app,
                Hook::SocketSelect,
                PolicySource::C {
                    source: "
                        SYRUP_MAP(gate, ARRAY, 1);
                        uint32_t schedule(void *pkt_start, void *pkt_end) {
                            uint32_t zero = 0;
                            uint64_t *open = syr_map_lookup_elem(&gate, &zero);
                            if (!open)
                                return DROP;
                            if (*open == 0)
                                return DROP;
                            return PASS;
                        }"
                    .into(),
                    options: CompileOptions::new(),
                },
            )
            .unwrap();
        let gate_path = &handle.pinned_maps["gate"];
        let gate = maps.open(gate_path).unwrap();
        let mut pkt = [0u8; 4];
        assert_eq!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(2000)).1,
            Decision::Drop
        );
        maps.update(&gate, 0, 1).unwrap();
        assert_eq!(
            d.schedule(Hook::SocketSelect, &mut pkt, &meta(2000)).1,
            Decision::Pass
        );
    }
}
