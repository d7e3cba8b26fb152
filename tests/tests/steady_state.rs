//! A warm dispatch allocates nothing and takes a counted number of
//! locks: once a daemon has served a few calls, every further `schedule`
//! of a bytecode policy, on either engine and under a profiler on the
//! default one, and every native dispatch makes zero heap allocations,
//! and bytecode (profiled or not), native and unmatched dispatches take
//! the locks their rows name. One row per world the ledger runs counts the same per
//! request, end to end: so far the quickstart trip, plain and with every
//! sink on, `server_world` and Figure 8's `mt_world`.
//!
//! A counting allocator wraps the system one for this test binary only;
//! it counts per thread, so the harness's own threads do not interfere.
//! Locks are counted per thread by the vendored `parking_lot`, in debug
//! builds only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use syrup::apps::mt_world::{self, MtConfig, SchedKind};
use syrup::apps::quickstart;
use syrup::apps::server_world::{self, ServerConfig, SocketPolicyKind};
use syrup::blackbox::Recorder;
use syrup::core::{Hook, HookMeta, PolicySource, Syrupd};
use syrup::ebpf::vm::Backend;
use syrup::policies::c_sources;
use syrup::policies::native::RoundRobinPolicy;
use syrup::profile::Profiler;
use syrup::scope::{Sampler, Scope};
use syrup::sim::Duration;
use syrup::trace::{Tracer, TRACE_CAPACITY};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged and only bumps a
// thread-local counter, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PORT: u16 = 7000;
const HOOK: Hook = Hook::SocketSelect;

/// Calls before counting: one, the smallest every row needs. The first
/// call fetches the caller thread's copy of the published table under
/// the table's lock, and under a profiler fills its chain nodes, step
/// tables and block slots; nothing grows after it.
const WARM_UP: u64 = 1;

/// Heap allocations `calls` schedules on `daemon` make after the warm-up,
/// over a 32-byte GET-shaped packet.
fn allocations(daemon: &Syrupd, calls: u64) -> u64 {
    counted(daemon, 0..WARM_UP);
    counted(daemon, WARM_UP..WARM_UP + calls)
}

/// Heap allocations one schedule per clock reading in `clock` makes.
fn counted(daemon: &Syrupd, clock: std::ops::Range<u64>) -> u64 {
    let mut pkt = [0u8; 32];
    pkt[8] = 1;
    let before = ALLOCATIONS.with(Cell::get);
    for now_ns in clock {
        let meta = HookMeta {
            dst_port: PORT,
            now_ns,
            ..HookMeta::default()
        };
        std::hint::black_box(daemon.schedule(HOOK, &mut pkt, &meta));
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_warm_bytecode_schedule_allocates_nothing_on_either_engine() {
    for backend in [Backend::Interp, Backend::Fast] {
        for entry in c_sources::table2(6) {
            let daemon = Syrupd::new();
            daemon.set_backend(backend);
            let (app, _) = daemon.register_app(entry.name, &[PORT]).unwrap();
            let policy = PolicySource::C {
                source: entry.source.to_string(),
                options: entry.opts,
            };
            daemon.deploy(app, HOOK, policy).unwrap();
            let n = allocations(&daemon, 512);
            assert_eq!(n, 0, "{} on {backend}: {n} allocations", entry.name);
        }
    }
}

/// The profiler's chain nodes, step tables and block slots fill during the
/// warm-up; after it a profiled run records into buffers and slots it
/// already has.
#[test]
fn a_warm_profiled_bytecode_schedule_allocates_nothing() {
    for entry in c_sources::table2(6) {
        let daemon = Syrupd::new();
        let profiler = Profiler::new();
        daemon.attach_profiler(&profiler);
        let (app, _) = daemon.register_app(entry.name, &[PORT]).unwrap();
        let policy = PolicySource::C {
            source: entry.source.to_string(),
            options: entry.opts,
        };
        daemon.deploy(app, HOOK, policy).unwrap();
        assert_eq!(daemon.backend(), Backend::default());
        let n = allocations(&daemon, 512);
        assert_eq!(n, 0, "{} profiled: {n} allocations", entry.name);
        assert_eq!(profiler.report(None, 0).runs, WARM_UP + 512);
    }
}

/// Every publish (here, re-attaching the profiler) rebuilds the
/// dispatcher paths' step tables; the first profiled run after it finds
/// the chain nodes the earlier copies made instead of adding new ones.
#[test]
fn a_profiled_schedule_right_after_a_republish_allocates_nothing() {
    for entry in c_sources::table2(6) {
        let daemon = Syrupd::new();
        let profiler = Profiler::new();
        daemon.attach_profiler(&profiler);
        let (app, _) = daemon.register_app(entry.name, &[PORT]).unwrap();
        let policy = PolicySource::C {
            source: entry.source.to_string(),
            options: entry.opts,
        };
        daemon.deploy(app, HOOK, policy).unwrap();
        allocations(&daemon, 0);
        for publish in 0..8 {
            daemon.attach_profiler(&profiler);
            let n = counted(&daemon, WARM_UP + publish..WARM_UP + publish + 1);
            assert_eq!(
                n, 0,
                "{} after publish {publish}: {n} allocations",
                entry.name
            );
        }
    }
}

#[test]
fn a_warm_native_dispatch_allocates_nothing() {
    let daemon = Syrupd::new();
    let (app, _) = daemon.register_app("native", &[PORT]).unwrap();
    let policy = PolicySource::Native(Box::new(RoundRobinPolicy::new(6)));
    daemon.deploy(app, HOOK, policy).unwrap();
    assert_eq!(allocations(&daemon, 512), 0);
}

/// Locks one schedule per clock reading in `clock` takes, counted by
/// the vendored `parking_lot` (debug builds only: `None` in release,
/// where the schedules still run).
fn locked(daemon: &Syrupd, port: u16, clock: std::ops::Range<u64>) -> Option<u64> {
    let mut pkt = [0u8; 32];
    pkt[8] = 1;
    let before = parking_lot::acquisitions();
    for now_ns in clock {
        let meta = HookMeta {
            dst_port: port,
            now_ns,
            ..HookMeta::default()
        };
        std::hint::black_box(daemon.schedule(HOOK, &mut pkt, &meta));
    }
    Some(parking_lot::acquisitions()? - before?)
}

/// Locks per warm bytecode `schedule`: the slot's own, which also
/// guards the policy's and the VM's stats for the call. The caller
/// thread's copy of the published table is checked with a plain load,
/// and the Table-2 policies' maps take none.
const BYTECODE_LOCKS: u64 = 1;

/// Locks per warm native dispatch: the slot's, stats included.
const NATIVE_LOCKS: u64 = 1;

/// Locks per warm unmatched dispatch: the daemon's stats block.
const UNMATCHED_LOCKS: u64 = 1;

/// `per_call` locks a call for `calls` calls, or `None` where locks are
/// not counted.
fn expected_locks(per_call: u64, calls: u64) -> Option<u64> {
    parking_lot::acquisitions().map(|_| per_call * calls)
}

#[test]
fn a_warm_bytecode_or_unmatched_schedule_takes_one_lock() {
    for entry in c_sources::table2(6) {
        let daemon = Syrupd::new();
        let (app, _) = daemon.register_app(entry.name, &[PORT]).unwrap();
        let policy = PolicySource::C {
            source: entry.source.to_string(),
            options: entry.opts,
        };
        daemon.deploy(app, HOOK, policy).unwrap();
        locked(&daemon, PORT, 0..WARM_UP);
        let calls = WARM_UP..WARM_UP + 512;
        let want = expected_locks(BYTECODE_LOCKS, 512);
        assert_eq!(locked(&daemon, PORT, calls.clone()), want, "{}", entry.name);
        let want = expected_locks(UNMATCHED_LOCKS, 512);
        assert_eq!(
            locked(&daemon, PORT + 1, calls),
            want,
            "{} unmatched",
            entry.name
        );
    }
}

/// Locks per warm profiled bytecode `schedule`: the slot's, and the
/// profiler's twice, to open the run's span and to fold the run in. A
/// per-thread cache of resolved openings once saved the open's lock (2
/// in all), but no end-to-end figure paid for it: `trip-observed` moved
/// ×0.993 and the `profile` gate read 1.26–1.59 with it against
/// 1.21–1.46 without, over 20 runs each.
const PROFILED_LOCKS: u64 = 3;

#[test]
fn a_warm_profiled_bytecode_schedule_takes_three_locks() {
    for entry in c_sources::table2(6) {
        let daemon = Syrupd::new();
        let profiler = Profiler::new();
        daemon.attach_profiler(&profiler);
        let (app, _) = daemon.register_app(entry.name, &[PORT]).unwrap();
        let policy = PolicySource::C {
            source: entry.source.to_string(),
            options: entry.opts,
        };
        daemon.deploy(app, HOOK, policy).unwrap();
        locked(&daemon, PORT, 0..WARM_UP);
        let calls = WARM_UP..WARM_UP + 512;
        let want = expected_locks(PROFILED_LOCKS, 512);
        assert_eq!(locked(&daemon, PORT, calls), want, "{}", entry.name);
        assert_eq!(profiler.report(None, 0).runs, WARM_UP + 512);
    }
}

#[test]
fn a_warm_native_dispatch_takes_one_lock() {
    let daemon = Syrupd::new();
    let (app, _) = daemon.register_app("native", &[PORT]).unwrap();
    let policy = PolicySource::Native(Box::new(RoundRobinPolicy::new(6)));
    daemon.deploy(app, HOOK, policy).unwrap();
    locked(&daemon, PORT, 0..WARM_UP);
    let calls = WARM_UP..WARM_UP + 512;
    assert_eq!(
        locked(&daemon, PORT, calls),
        expected_locks(NATIVE_LOCKS, 512)
    );
}

/// Requests in the shorter of the two trips a world row compares: enough
/// that both are past the world's warm-up, so the difference is all
/// steady state.
const TRIP_REQUESTS: usize = 2_000;

/// Locks per plain quickstart request: one slot lock at each of its
/// three hooks (the XDP policy's bytecode, the redirect and
/// socket-select policies' native forms). Ten before slots kept their
/// stats under their own lock and callers their copy of the table: a
/// table stripe, the slot and the policy's block per hook, and the VM's
/// block for the bytecode one.
const TRIP_LOCKS_PER_REQUEST: u64 = 3;

/// Allocations the plain quickstart trip makes in its last
/// [`TRIP_REQUESTS`] requests of `2 × TRIP_REQUESTS`: the world's own
/// growth (its recorder and queues), none of it per dispatch. The same
/// before slots kept their stats and callers their table.
const TRIP_MARGINAL_ALLOCATIONS: u64 = 106;

/// Heap allocations and locks (where counted) of one plain quickstart
/// trip of `requests` requests, daemon setup included.
fn trip(requests: usize) -> (u64, Option<u64>) {
    let (allocations, locks) = (ALLOCATIONS.with(Cell::get), parking_lot::acquisitions());
    let run = quickstart::run(&Tracer::disabled(), requests);
    let counts = (
        ALLOCATIONS.with(Cell::get) - allocations,
        parking_lot::acquisitions()
            .zip(locks)
            .map(|(after, before)| after - before),
    );
    assert_eq!(run.completed, requests as u64);
    counts
}

/// Locks per observed quickstart request: the plain trip's three slot
/// locks, one per span record the tracer keeps (12 a request), and 4
/// for the profiler: a depth sample each from the NIC rings and the
/// reuseport sockets, and the open and the fold of the XDP policy's run.
/// While spans opened from per-thread caches the open took none, 18 in
/// all.
const OBSERVED_LOCKS_PER_REQUEST: u64 = TRIP_LOCKS_PER_REQUEST + 12 + 4;

/// Locks the scope sampler takes over the observed trip's last
/// [`TRIP_REQUESTS`] requests: 45 more ticks (one per 100 µs of simulated
/// time), 27 locks each to read the daemon's registry.
const OBSERVED_SCOPE_LOCKS: u64 = 45 * 27;

/// Allocations the observed quickstart trip makes in its last
/// [`TRIP_REQUESTS`] requests of `2 × TRIP_REQUESTS`: the plain trip's
/// [`TRIP_MARGINAL_ALLOCATIONS`]; the tracer's 2 003, a records `Vec`
/// per request's timeline when the run groups the spans and three growth
/// steps; and the scope sampler's 871 over its 45 more ticks, its
/// snapshots and deltas. The profiler and the flight recorder add none.
const OBSERVED_MARGINAL_ALLOCATIONS: u64 = TRIP_MARGINAL_ALLOCATIONS + 2_003 + 871;

/// Heap allocations and locks (where counted) of one quickstart trip of
/// `requests` requests with every sink on, as the ledger's
/// `trip-observed` runs it: a tracer, a profiler and a flight recorder
/// attached, and a scope sampler ticking after each request. The sinks
/// are made before counting starts.
fn observed_trip(requests: usize) -> (u64, Option<u64>) {
    let (tracer, profiler, recorder) = (Tracer::new(), Profiler::new(), Recorder::new());
    let mut sampler = Sampler::with_default_cadence(Scope::new(), "");
    let (allocations, locks) = (ALLOCATIONS.with(Cell::get), parking_lot::acquisitions());
    let run = quickstart::run_observed(
        &tracer,
        &profiler,
        &recorder,
        requests,
        false,
        &mut |_, now_ns, daemon| {
            sampler.tick(now_ns, daemon.telemetry());
        },
    );
    let counts = (
        ALLOCATIONS.with(Cell::get) - allocations,
        parking_lot::acquisitions()
            .zip(locks)
            .map(|(after, before)| after - before),
    );
    assert_eq!(run.completed, requests as u64);
    // Every span fits the tracer's buffer: no refusal mixes in.
    assert_eq!(tracer.records_dropped(), 0);
    assert!(run.records.len() < TRACE_CAPACITY);
    counts
}

/// One daemon serving a bytecode policy, a native one and unmatched
/// ports takes one lock per call of each from its second call on: no
/// per-daemon buffer takes a lock of its own while it fills.
#[test]
fn a_cold_daemons_dispatch_takes_one_lock() {
    let daemon = Syrupd::new();
    let entry = &c_sources::table2(6)[0];
    let (app, _) = daemon.register_app(entry.name, &[PORT]).unwrap();
    let policy = PolicySource::C {
        source: entry.source.to_string(),
        options: entry.opts.clone(),
    };
    daemon.deploy(app, HOOK, policy).unwrap();
    let (native, _) = daemon.register_app("native", &[PORT + 1]).unwrap();
    let policy = PolicySource::Native(Box::new(RoundRobinPolicy::new(6)));
    daemon.deploy(native, HOOK, policy).unwrap();
    locked(&daemon, PORT, 0..WARM_UP);
    for (port, per_call, what) in [
        (PORT, BYTECODE_LOCKS, "bytecode"),
        (PORT + 1, NATIVE_LOCKS, "native"),
        (PORT + 2, UNMATCHED_LOCKS, "unmatched"),
    ] {
        let calls = WARM_UP..WARM_UP + 64;
        let want = expected_locks(per_call, 64);
        assert_eq!(locked(&daemon, port, calls), want, "{what}");
    }
}

/// The first world row: `N` more requests cost `N` times the locks
/// their dispatches take, and the allocations the world itself makes.
#[test]
fn a_plain_quickstart_request_takes_one_lock_per_hook() {
    // A thread's first trip also pays its one-time setup.
    trip(64);
    let (short, long) = (trip(TRIP_REQUESTS), trip(2 * TRIP_REQUESTS));
    assert_eq!(long.0 - short.0, TRIP_MARGINAL_ALLOCATIONS);
    let locks = long.1.zip(short.1).map(|(long, short)| long - short);
    assert_eq!(
        locks,
        expected_locks(TRIP_LOCKS_PER_REQUEST, TRIP_REQUESTS as u64)
    );
}

/// The observed quickstart row: the same trip with every sink on, as
/// the ledger's `trip-observed` runs it. `N` more requests cost `N`
/// times the locks a request takes, the scope sampler's ticks, and the
/// allocations the world and the sinks make as they grow.
#[test]
fn an_observed_quickstart_request_takes_counted_locks() {
    // A thread's first trip also pays its one-time setup.
    observed_trip(64);
    let (short, long) = (
        observed_trip(TRIP_REQUESTS),
        observed_trip(2 * TRIP_REQUESTS),
    );
    assert_eq!(long.0 - short.0, OBSERVED_MARGINAL_ALLOCATIONS);
    let locks = long.1.zip(short.1).map(|(long, short)| long - short);
    let per_request = expected_locks(OBSERVED_LOCKS_PER_REQUEST, TRIP_REQUESTS as u64);
    assert_eq!(locks, per_request.map(|n| n + OBSERVED_SCOPE_LOCKS));
}

/// The shorter `server_world` measure window: Figure 6's 300 K rps for
/// 10 ms, 3 034 requests at seed 1 (the longer window, 20 ms, 6 129).
const SERVER_WINDOW_MS: u64 = 10;

/// Locks per `server_world` request: the socket-select slot's.
const SERVER_LOCKS_PER_REQUEST: u64 = 1;

/// Allocations the longer `server_world` run makes beyond the shorter
/// one: growth steps only, none per event. The latency recorder's and the
/// GET samples' vectors double once each, the SCAN samples' twice, and
/// two socket buffers grow once as their backlog peaks later. The timer
/// wheel made 26 here, the first touches of its buckets, before a small
/// queue stayed in one heap.
const SERVER_MARGINAL_ALLOCATIONS: u64 = 6;

/// Heap allocations, locks (where counted) and measured requests of one
/// Figure-6 `server_world` run, native round robin at 300 K rps: a 5 ms
/// warm-up, then `measure_ms` measured, daemon setup included.
fn server(measure_ms: u64) -> (u64, Option<u64>, u64) {
    let mut cfg = ServerConfig::fig6(SocketPolicyKind::RoundRobin, 300_000.0, 1);
    cfg.warmup = Duration::from_millis(5);
    cfg.measure = Duration::from_millis(measure_ms);
    let (allocations, locks) = (ALLOCATIONS.with(Cell::get), parking_lot::acquisitions());
    let result = server_world::run(&cfg);
    let counts = (
        ALLOCATIONS.with(Cell::get) - allocations,
        parking_lot::acquisitions()
            .zip(locks)
            .map(|(after, before)| after - before),
        result.overall.offered,
    );
    assert_eq!(result.overall.dropped, 0);
    counts
}

/// The `server_world` row: both runs share the warm-up and the first
/// window's arrivals, so the longer one's extra requests cost one lock
/// each and its extra allocations are growth steps, not events.
#[test]
fn a_server_world_request_takes_one_lock() {
    // A thread's first run also pays its one-time setup.
    server(1);
    let (short, long) = (server(SERVER_WINDOW_MS), server(2 * SERVER_WINDOW_MS));
    assert_eq!((short.2, long.2), (3_034, 6_129));
    assert_eq!(long.0 - short.0, SERVER_MARGINAL_ALLOCATIONS);
    let locks = long.1.zip(short.1).map(|(long, short)| long - short);
    assert_eq!(
        locks,
        expected_locks(SERVER_LOCKS_PER_REQUEST, long.2 - short.2)
    );
}

/// The shorter `mt_world` measure window: Figure 8's SCAN Avoid + ghOSt
/// at 8 K rps for 50 ms, 388 requests at seed 1 (the longer window,
/// 100 ms, 764).
const MT_WINDOW_MS: u64 = 50;

/// Locks per `mt_world` request: the socket-select slot's. The ghOSt
/// agent takes none: the thread-class Map is an array, read and written
/// without its lock.
const MT_LOCKS_PER_REQUEST: u64 = 1;

/// Allocations the longer `mt_world` run makes beyond the shorter one:
/// growth steps only, none per request or per agent decision. The GET
/// and the SCAN latency recorders' vectors double once each (about 190
/// samples each in the shorter window, 380 in the longer). Before the
/// ghOSt agent kept its runnable threads in per-class bitsets and lent
/// out its assignments from a buffer of its own, it made 2 441 here,
/// about six per extra request: a keyed `Vec` collected and sorted, the
/// runnable list re-collected and a fresh `Vec` of assignments per
/// decision, and a copy per `lookup_u64` class read.
const MT_MARGINAL_ALLOCATIONS: u64 = 2;

/// Heap allocations, locks (where counted) and measured requests of one
/// Figure-8 `mt_world` run, SCAN Avoid + ghOSt at 8 K rps: a 10 ms
/// warm-up, then `measure_ms` measured, daemon setup included.
fn mt(measure_ms: u64) -> (u64, Option<u64>, u64) {
    let mut cfg = MtConfig::fig8(SocketPolicyKind::ScanAvoid, SchedKind::Ghost, 8_000.0, 1);
    cfg.warmup = Duration::from_millis(10);
    cfg.measure = Duration::from_millis(measure_ms);
    let (allocations, locks) = (ALLOCATIONS.with(Cell::get), parking_lot::acquisitions());
    let result = mt_world::run(&cfg);
    let counts = (
        ALLOCATIONS.with(Cell::get) - allocations,
        parking_lot::acquisitions()
            .zip(locks)
            .map(|(after, before)| after - before),
        result.completed,
    );
    assert_eq!(result.dropped, 0);
    counts
}

/// The `mt_world` row: both runs share the warm-up and the first
/// window's arrivals, so the longer one's extra requests cost one lock
/// each and its extra allocations are growth steps, not requests.
#[test]
fn an_mt_world_request_takes_one_lock() {
    // A thread's first run also pays its one-time setup.
    mt(1);
    let (short, long) = (mt(MT_WINDOW_MS), mt(2 * MT_WINDOW_MS));
    assert_eq!((short.2, long.2), (388, 764));
    assert_eq!(long.0 - short.0, MT_MARGINAL_ALLOCATIONS);
    let locks = long.1.zip(short.1).map(|(long, short)| long - short);
    assert_eq!(
        locks,
        expected_locks(MT_LOCKS_PER_REQUEST, long.2 - short.2)
    );
}

#[test]
fn the_counter_sees_an_allocation() {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(vec![0u8; 64]);
    assert!(ALLOCATIONS.with(Cell::get) > before);
}
