//! Microbenchmarks: the framework's real (wall-clock) costs.
//!
//! These complement the modelled numbers in Tables 2/3 with measured ones
//! for this implementation: VM interpretation per policy, verification,
//! compilation, Toeplitz hashing, and the full `syrupd` per-packet
//! dispatch (isolation lookup + tail call + policy).

use std::hint::black_box;
use std::process::ExitCode;

use bench::{datagram, Limit, Site};

use syrup::core::{CompileOptions, Hook, HookMeta, PolicySource, Syrupd};
use syrup::ebpf::maps::MapRegistry;
use syrup::ebpf::verify;
use syrup::ebpf::vm::{Backend, PacketCtx, RunEnv};
use syrup::net::{FiveTuple, RequestClass, Toeplitz};
use syrup::policies::{c_sources, CorpusEntry};

fn vm_policies(sites: &mut Vec<Site>) {
    for CorpusEntry { name, source, opts } in c_sources::table2(6) {
        // Each backend gets its own identically-seeded world so the two
        // series are directly comparable (same hot paths, same map state).
        for backend in [Backend::Interp, Backend::Fast] {
            let (vm, slot) = bench::seeded_vm(source, &opts, backend);
            let pkt = datagram(RequestClass::Get);
            let mut env = RunEnv::default();
            let id = format!("vm_policy_invocation/{name}_{backend}");
            sites.push(Site::new(id, Limit::Report, || {
                let mut p = pkt.clone();
                let mut ctx = PacketCtx::new(&mut p);
                vm.run(slot, &mut ctx, &mut env).unwrap().ret
            }));
        }
    }
}

fn verifier_and_compile(sites: &mut Vec<Site>) {
    sites.push(Site::new("compile_token_policy", Limit::Report, || {
        let maps = MapRegistry::new();
        let opts = CompileOptions::new().define("NUM_THREADS", 6);
        syrup::lang::compile(c_sources::TOKEN_BASED, &opts, &maps).unwrap()
    }));
    let maps = MapRegistry::new();
    let opts = CompileOptions::new()
        .define("NUM_THREADS", 6)
        .define("GET", 1);
    let compiled = syrup::lang::compile(c_sources::SCAN_AVOID, &opts, &maps).unwrap();
    sites.push(Site::new("verify_scan_avoid", Limit::Report, || {
        verify(&compiled.program, &maps).unwrap()
    }));
}

fn toeplitz(sites: &mut Vec<Site>) {
    let t = Toeplitz::default();
    let flow = FiveTuple {
        src_ip: 0xC0A80001,
        dst_ip: 0xC0A80002,
        src_port: 12345,
        dst_port: 80,
    };
    sites.push(Site::new("toeplitz_5tuple", Limit::Report, || {
        t.hash_v4(black_box(&flow))
    }));
}

fn syrupd_dispatch(sites: &mut Vec<Site>) {
    // The end-to-end per-packet hook cost: port isolation lookup, tail
    // call, policy execution — the "<2000 cycles" claim, measured.
    let pkt = datagram(RequestClass::Get);
    let meta = HookMeta {
        dst_port: 8080,
        ..HookMeta::default()
    };
    let policies = [
        (
            "ebpf",
            PolicySource::C {
                source: c_sources::ROUND_ROBIN.to_string(),
                options: CompileOptions::new().define("NUM_THREADS", 6),
            },
        ),
        (
            "native",
            PolicySource::Native(Box::new(syrup::policies::RoundRobinPolicy::new(6))),
        ),
    ];
    for (kind, policy) in policies {
        let daemon = Syrupd::new();
        let (app, _) = daemon.register_app("bench", &[8080]).unwrap();
        daemon.deploy(app, Hook::SocketSelect, policy).unwrap();
        let id = format!("syrupd_dispatch_{kind}");
        sites.push(Site::new(id, Limit::Report, || {
            let mut p = pkt.clone();
            daemon.schedule(Hook::SocketSelect, &mut p, &meta)
        }));
    }
}

fn main() -> ExitCode {
    let mut sites = Vec::new();
    vm_policies(&mut sites);
    verifier_and_compile(&mut sites);
    toeplitz(&mut sites);
    syrupd_dispatch(&mut sites);
    bench::gate("micro", &sites)
}
