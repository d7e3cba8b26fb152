//! Criterion microbenchmarks: the framework's real (wall-clock) costs.
//!
//! These complement the modelled numbers in Tables 2/3 with measured ones
//! for this implementation: VM interpretation per policy, verification,
//! compilation, Toeplitz hashing, and the full `syrupd` per-packet
//! dispatch (isolation lookup + tail call + policy).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use syrup::core::{CompileOptions, Hook, HookMeta, PolicySource, Syrupd};
use syrup::ebpf::maps::MapRegistry;
use syrup::ebpf::verify;
use syrup::ebpf::vm::{Backend, PacketCtx, RunEnv, Vm};
use syrup::net::{AppHeader, FiveTuple, Frame, RequestClass, Toeplitz};
use syrup::policies::{c_sources, CorpusEntry};

fn datagram(class: RequestClass) -> Vec<u8> {
    let flow = FiveTuple {
        src_ip: 1,
        dst_ip: 2,
        src_port: 40_000,
        dst_port: 8080,
    };
    Frame::build(
        &flow,
        &AppHeader {
            req_type: class.code(),
            user_id: 1,
            key_hash: 7,
            req_id: 0,
        },
    )
    .datagram()
    .to_vec()
}

fn bench_vm_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm_policy_invocation");
    for CorpusEntry { name, source, opts } in c_sources::table2(6) {
        // Each backend gets its own identically-seeded world so the two
        // series are directly comparable (same hot paths, same map state).
        for backend in [Backend::Interp, Backend::Fast] {
            let maps = MapRegistry::new();
            let compiled = syrup::lang::compile(source, &opts, &maps).unwrap();
            verify(&compiled.program, &maps).unwrap();
            // Seed maps so the hot path (not the miss path) is measured.
            for id in compiled.created_maps.values() {
                if let Some(m) = maps.get(*id) {
                    for k in 0..6u32 {
                        let _ = m.update_u64(k, 1_000_000);
                    }
                }
            }
            let mut vm = Vm::new(maps);
            vm.set_backend(backend);
            let slot = vm.load_unverified(compiled.program);
            let pkt = datagram(RequestClass::Get);
            let mut env = RunEnv::default();
            group.bench_function(&format!("{name}_{backend}"), |b| {
                b.iter(|| {
                    let mut p = pkt.clone();
                    let mut ctx = PacketCtx::new(&mut p);
                    black_box(vm.run(slot, &mut ctx, &mut env).unwrap().ret)
                })
            });
        }
    }
    group.finish();
}

fn bench_verifier_and_compile(c: &mut Criterion) {
    c.bench_function("compile_token_policy", |b| {
        b.iter(|| {
            let maps = MapRegistry::new();
            let opts = CompileOptions::new().define("NUM_THREADS", 6);
            black_box(syrup::lang::compile(c_sources::TOKEN_BASED, &opts, &maps).unwrap())
        })
    });
    let maps = MapRegistry::new();
    let opts = CompileOptions::new()
        .define("NUM_THREADS", 6)
        .define("GET", 1);
    let compiled = syrup::lang::compile(c_sources::SCAN_AVOID, &opts, &maps).unwrap();
    c.bench_function("verify_scan_avoid", |b| {
        b.iter(|| black_box(verify(&compiled.program, &maps).unwrap()))
    });
}

fn bench_toeplitz(c: &mut Criterion) {
    let t = Toeplitz::default();
    let flow = FiveTuple {
        src_ip: 0xC0A80001,
        dst_ip: 0xC0A80002,
        src_port: 12345,
        dst_port: 80,
    };
    c.bench_function("toeplitz_5tuple", |b| {
        b.iter(|| black_box(t.hash_v4(&flow)))
    });
}

fn bench_syrupd_dispatch(c: &mut Criterion) {
    // The end-to-end per-packet hook cost: port isolation lookup, tail
    // call, policy execution — the "<2000 cycles" claim, measured.
    let daemon = Syrupd::new();
    let (app, _) = daemon.register_app("bench", &[8080]).unwrap();
    daemon
        .deploy(
            app,
            Hook::SocketSelect,
            PolicySource::C {
                source: c_sources::ROUND_ROBIN.to_string(),
                options: CompileOptions::new().define("NUM_THREADS", 6),
            },
        )
        .unwrap();
    let pkt = datagram(RequestClass::Get);
    let meta = HookMeta {
        dst_port: 8080,
        ..HookMeta::default()
    };
    c.bench_function("syrupd_dispatch_ebpf", |b| {
        b.iter(|| {
            let mut p = pkt.clone();
            black_box(daemon.schedule(Hook::SocketSelect, &mut p, &meta))
        })
    });

    let daemon2 = Syrupd::new();
    let (app2, _) = daemon2.register_app("bench-native", &[8080]).unwrap();
    daemon2
        .deploy(
            app2,
            Hook::SocketSelect,
            PolicySource::Native(Box::new(syrup::policies::RoundRobinPolicy::new(6))),
        )
        .unwrap();
    c.bench_function("syrupd_dispatch_native", |b| {
        b.iter(|| {
            let mut p = pkt.clone();
            black_box(daemon2.schedule(Hook::SocketSelect, &mut p, &meta))
        })
    });
}

criterion_group!(
    benches,
    bench_vm_policies,
    bench_verifier_and_compile,
    bench_toeplitz,
    bench_syrupd_dispatch
);
criterion_main!(benches);
