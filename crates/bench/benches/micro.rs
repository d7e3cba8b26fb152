//! Microbenchmarks: the framework's real (wall-clock) costs.
//!
//! These complement the modelled numbers in Tables 2/3 with measured ones
//! for this implementation: VM interpretation per policy, verification,
//! compilation, Toeplitz hashing and frame writing (both gated), and the
//! full `syrupd` per-packet dispatch (route + slot lock + policy), split
//! into its fixed parts and gated on what entering the VM adds to a
//! native dispatch and on what telemetry adds to a bytecode one.

use std::hint::black_box;
use std::process::ExitCode;

use bench::{datagram, Limit, Site};

use syrup::core::{CompileOptions, Hook, HookMeta, PolicySource, Syrupd};
use syrup::ebpf::maps::MapRegistry;
use syrup::ebpf::verify;
use syrup::ebpf::vm::{Backend, PacketCtx, RunEnv, Vm};
use syrup::net::packet::FRAME_LEN;
use syrup::net::{AppHeader, FiveTuple, Frame, RequestClass, Toeplitz};
use syrup::policies::{c_sources, CorpusEntry};
use syrup::telemetry::Registry;

fn vm_policies(sites: &mut Vec<Site<'static>>) {
    for CorpusEntry { name, source, opts } in c_sources::table2(6) {
        // Each backend gets its own identically-seeded world so the two
        // series are directly comparable (same hot paths, same map state).
        for backend in [Backend::Interp, Backend::Fast] {
            let (vm, slot) = bench::seeded_vm(source, &opts, backend);
            let pkt = datagram(RequestClass::Get);
            let mut env = RunEnv::default();
            let id = format!("vm_policy_invocation/{name}_{backend}");
            sites.push(Site::new(id, Limit::Report, move || {
                let mut p = pkt.clone();
                let mut ctx = PacketCtx::new(&mut p);
                vm.run(slot, &mut ctx, &mut env).unwrap().ret
            }));
        }
    }
}

fn verifier_and_compile(sites: &mut Vec<Site<'static>>) {
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
    sites.push(Site::new("verify_scan_avoid", Limit::Report, move || {
        verify(&compiled.program, &maps).unwrap()
    }));
}

/// Largest allowed `toeplitz_5tuple`: twelve table lookups. Ten release
/// runs on the 2-vCPU guest read 4.4–6.3 ns; the bit-serial loop it
/// replaced (96 window steps) read 53–61 ns here, so that loop fails and
/// a noisy neighbour does not.
const TOEPLITZ_5TUPLE_NS: f64 = 20.0;

/// Largest allowed `frame_write`: one 78-byte frame written into a
/// caller's buffer. Ten release runs read 3.9–11.5 ns; building the frame
/// in a heap buffer and copying it out cost the ledger's
/// `net.frame_build_ns` 147–215 ns, so an allocation on the path fails.
const FRAME_WRITE_NS: f64 = 30.0;

fn packet_path(sites: &mut Vec<Site<'static>>) {
    let t = Toeplitz;
    let flow = FiveTuple {
        src_ip: 0xC0A80001,
        dst_ip: 0xC0A80002,
        src_port: 12345,
        dst_port: 80,
    };
    sites.push(Site::new(
        "toeplitz_5tuple",
        Limit::MaxNs(TOEPLITZ_5TUPLE_NS),
        move || t.hash_v4(black_box(&flow)),
    ));
    let app = AppHeader {
        req_type: RequestClass::Get.code(),
        user_id: 1,
        key_hash: 0xDEAD_BEEF,
        req_id: 42,
    };
    let mut frame = [0; FRAME_LEN];
    sites.push(Site::new(
        "frame_write",
        Limit::MaxNs(FRAME_WRITE_NS),
        move || Frame::write(black_box(&mut frame), black_box(&flow), black_box(&app)),
    ));
}

/// Largest allowed `syrupd_dispatch_ebpf_trivial_quiet` over
/// `syrupd_dispatch_native_quiet`: what entering the VM for a two-
/// instruction policy may cost on top of a native dispatch (table fetch,
/// route, slot lock). Ten runs on the 2-vCPU guest read 1.75–1.90 with
/// direct dispatch and 4.81–5.19 when every dispatch also ran the root
/// program, so a dispatch that goes back to routing twice fails and a
/// noisy neighbour does not.
const TRIVIAL_EBPF_OVER_NATIVE: f64 = 3.0;

/// Largest allowed `syrupd_dispatch_ebpf_trivial` (telemetry on) over
/// `syrupd_dispatch_ebpf_trivial_quiet` (off): what telemetry adds to a
/// bytecode dispatch. Written as one per-CPU stats block per layer it
/// read 1.13–1.45 in ten runs on the 2-vCPU guest; as 23 atomic
/// read-modify-writes it read 1.89–2.41, so that design fails.
const TELEMETRY_ON_OVER_OFF: f64 = 1.7;

fn trivial_program() -> syrup::ebpf::Program {
    syrup::ebpf::Asm::new()
        .mov64_imm(syrup::ebpf::Reg::R0, 1)
        .exit()
        .build("trivial")
        .unwrap()
}

fn syrupd_dispatch(sites: &mut Vec<Site<'static>>) {
    // The end-to-end per-packet hook cost — route, slot lock, policy
    // execution with the root program's path on the account: the "<2000
    // cycles" claim, measured. The sites split it: `vm_run_trivial` is the
    // VM's fixed cost, `*_trivial` a dispatch with next to no policy body,
    // `*_quiet` the same dispatch with telemetry off.
    let pkt = datagram(RequestClass::Get);
    let meta = HookMeta {
        dst_port: 8080,
        ..HookMeta::default()
    };

    let mut vm = Vm::new(MapRegistry::new());
    let slot = vm.load(trivial_program()).unwrap();
    let mut env = RunEnv::default();
    let trivial_pkt = pkt.clone();
    sites.push(Site::new("vm_run_trivial", Limit::Report, move || {
        let mut p = trivial_pkt.clone();
        let mut ctx = PacketCtx::new(&mut p);
        vm.run(slot, &mut ctx, &mut env).unwrap().ret
    }));

    let round_robin = || PolicySource::C {
        source: c_sources::ROUND_ROBIN.to_string(),
        options: CompileOptions::new().define("NUM_THREADS", 6),
    };
    let native = || PolicySource::Native(Box::new(syrup::policies::RoundRobinPolicy::new(6)));
    let trivial = || PolicySource::Bytecode(trivial_program());
    let over_native = Limit::Ratio {
        of: "syrupd_dispatch_native_quiet",
        factor: TRIVIAL_EBPF_OVER_NATIVE,
    };
    let over_quiet = Limit::Ratio {
        of: "syrupd_dispatch_ebpf_trivial_quiet",
        factor: TELEMETRY_ON_OVER_OFF,
    };
    // Each gated pair is timed back to back, so a neighbour's burst is
    // less likely to fall between a site and its reference.
    let rows: [(&str, Limit, bool, &dyn Fn() -> PolicySource); 5] = [
        ("syrupd_dispatch_ebpf", Limit::Report, true, &round_robin),
        ("syrupd_dispatch_native", Limit::Report, true, &native),
        (
            "syrupd_dispatch_native_quiet",
            Limit::Report,
            false,
            &native,
        ),
        (
            "syrupd_dispatch_ebpf_trivial_quiet",
            over_native,
            false,
            &trivial,
        ),
        ("syrupd_dispatch_ebpf_trivial", over_quiet, true, &trivial),
    ];
    for (id, limit, telemetry, policy) in rows {
        let daemon = Syrupd::with_telemetry(if telemetry {
            Registry::new()
        } else {
            Registry::disabled()
        });
        let (app, _) = daemon.register_app("bench", &[8080]).unwrap();
        daemon.deploy(app, Hook::SocketSelect, policy()).unwrap();
        let pkt = pkt.clone();
        sites.push(Site::new(id, limit, move || {
            let mut p = pkt.clone();
            daemon.schedule(Hook::SocketSelect, &mut p, &meta)
        }));
    }
}

fn main() -> ExitCode {
    let mut sites = Vec::new();
    vm_policies(&mut sites);
    verifier_and_compile(&mut sites);
    packet_path(&mut sites);
    syrupd_dispatch(&mut sites);
    bench::gate("micro", &mut sites)
}
