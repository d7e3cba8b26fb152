//! A warm dispatch allocates nothing: once a daemon has served a few
//! calls, every further `schedule` of a bytecode policy, on either engine,
//! and every native dispatch makes zero heap allocations.
//!
//! A counting allocator wraps the system one for this test binary only;
//! it counts per thread, so the harness's own threads do not interfere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use syrup::core::{Hook, HookMeta, PolicySource, Syrupd};
use syrup::ebpf::vm::Backend;
use syrup::policies::c_sources;
use syrup::policies::native::RoundRobinPolicy;

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

/// Calls before counting: the daemon's decision ring grows, one doubling
/// at a time, until it holds its 4096 records and refuses the rest.
const WARM_UP: u64 = 4096;

/// Heap allocations `calls` schedules on `daemon` make after the warm-up,
/// over a 32-byte GET-shaped packet.
fn allocations(daemon: &Syrupd, calls: u64) -> u64 {
    let mut pkt = [0u8; 32];
    pkt[8] = 1;
    let mut schedule = |i: u64| {
        let meta = HookMeta {
            dst_port: PORT,
            now_ns: i,
            ..HookMeta::default()
        };
        daemon.schedule(HOOK, &mut pkt, &meta)
    };
    for i in 0..WARM_UP {
        schedule(i);
    }
    let before = ALLOCATIONS.with(Cell::get);
    for i in WARM_UP..WARM_UP + calls {
        std::hint::black_box(schedule(i));
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

#[test]
fn a_warm_native_dispatch_allocates_nothing() {
    let daemon = Syrupd::new();
    let (app, _) = daemon.register_app("native", &[PORT]).unwrap();
    let policy = PolicySource::Native(Box::new(RoundRobinPolicy::new(6)));
    daemon.deploy(app, HOOK, policy).unwrap();
    assert_eq!(allocations(&daemon, 512), 0);
}

#[test]
fn the_counter_sees_an_allocation() {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(vec![0u8; 64]);
    assert!(ALLOCATIONS.with(Cell::get) > before);
}
