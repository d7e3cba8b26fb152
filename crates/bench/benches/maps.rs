//! Microbenchmarks for Map operations (Table 3's measured half).

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bench::{Limit, Site};
use syrup::core::{MapDef, MapRegistry};
use syrup::ebpf::maps::MapRef;

/// Gets walking `map`'s keys in turn.
fn get(map: &MapRef) -> impl FnMut() -> Option<u64> + '_ {
    let mut i = 0u32;
    move || {
        i = i.wrapping_add(1);
        map.lookup_u64(i % 1_000_000).unwrap()
    }
}

/// Updates walking `map`'s keys in turn.
fn update(map: &MapRef) -> impl FnMut() + '_ {
    let mut j = 0u32;
    move || {
        j = j.wrapping_add(1);
        map.update_u64(j % 1_000_000, u64::from(j)).unwrap();
    }
}

fn main() -> ExitCode {
    let registry = MapRegistry::new();
    let map = registry
        .get(registry.create(MapDef::u64_array(1_000_000)))
        .unwrap();
    let slot = map.slot_for_key(&0u32.to_le_bytes()).unwrap().unwrap();
    // Hash-map flavour for comparison.
    let hash = registry
        .get(registry.create(MapDef::u64_hash(100_000)))
        .unwrap();
    for k in 0..50_000u32 {
        hash.update_u64(k, u64::from(k)).unwrap();
    }
    let mut i = 0u32;
    let mut quiet = [
        Site::new("map_host/get", Limit::Report, get(&map)),
        Site::new("map_host/update", Limit::Report, update(&map)),
        Site::new("map_host/atomic_fetch_add", Limit::Report, || {
            map.fetch_add_value(slot, 0, 8, 1).unwrap()
        }),
        Site::new("map_hash/get_hit", Limit::Report, || {
            i = i.wrapping_add(1);
            hash.lookup_u64(black_box(i % 50_000)).unwrap()
        }),
    ];
    let quiet = bench::gate("maps", &mut quiet);

    // Contended: a second thread issues a mixed workload throughout.
    let stop = Arc::new(AtomicBool::new(false));
    let contender = {
        let m = map.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut k = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let _ = m.lookup_u64(k % 1_000_000);
                let _ = m.update_u64((k + 13) % 1_000_000, 1);
                k = k.wrapping_add(1);
            }
        })
    };
    let mut contended = [
        Site::new("map_host_contended/get", Limit::Report, get(&map)),
        Site::new("map_host_contended/update", Limit::Report, update(&map)),
    ];
    let contended = bench::gate("maps", &mut contended);
    stop.store(true, Ordering::Relaxed);
    contender.join().unwrap();
    if quiet == ExitCode::SUCCESS {
        contended
    } else {
        quiet
    }
}
