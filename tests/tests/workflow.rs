//! End-to-end workflow tests: the §3.1 pipeline through the public API.

use syrup::core::{CompileOptions, Decision, Hook, HookMeta, PolicySource, Syrupd};
use syrup::net::{AppHeader, FiveTuple, Frame, RequestClass};
use syrup::policies::{c_sources, RoundRobinPolicy, SitaPolicy};

fn datagram(class: RequestClass, user: u32) -> Vec<u8> {
    let flow = FiveTuple {
        src_ip: 0x0A000001,
        dst_ip: 0x0A000002,
        src_port: 40000,
        dst_port: 8080,
    };
    Frame::build(
        &flow,
        &AppHeader {
            req_type: class.code(),
            user_id: user,
            key_hash: 99,
            req_id: 0,
        },
    )
    .datagram()
    .to_vec()
}

fn meta(port: u16) -> HookMeta {
    HookMeta {
        dst_port: port,
        ..HookMeta::default()
    }
}

/// Compile → verify → deploy → schedule, from one string of C.
#[test]
fn c_policy_deploys_and_schedules() {
    let daemon = Syrupd::new();
    let (app, _) = daemon.register_app("kv", &[8080]).unwrap();
    daemon
        .deploy(
            app,
            Hook::SocketSelect,
            PolicySource::C {
                source: c_sources::SITA.to_string(),
                options: CompileOptions::new()
                    .define("NUM_THREADS", 6)
                    .define("SCAN", RequestClass::Scan.code() as i64),
            },
        )
        .unwrap();

    let mut scan = datagram(RequestClass::Scan, 0);
    let (owner, d) = daemon.schedule(Hook::SocketSelect, &mut scan, &meta(8080));
    assert_eq!(owner, Some(app));
    assert_eq!(d, Decision::Executor(0), "SCANs go to socket 0");

    for _ in 0..10 {
        let mut get = datagram(RequestClass::Get, 0);
        let (_, d) = daemon.schedule(Hook::SocketSelect, &mut get, &meta(8080));
        match d {
            Decision::Executor(i) => assert!((1..6).contains(&i), "GETs avoid socket 0"),
            other => panic!("unexpected decision {other:?}"),
        }
    }
}

/// The same policy deployed as eBPF (via the daemon's compiler) and as
/// native Rust must produce identical decision sequences over identical
/// traffic — the correctness basis for using native policies on the
/// simulation hot path.
#[test]
fn ebpf_and_native_deployments_are_equivalent() {
    let traffic: Vec<Vec<u8>> = (0..40)
        .map(|i| {
            datagram(
                if i % 7 == 0 {
                    RequestClass::Scan
                } else {
                    RequestClass::Get
                },
                0,
            )
        })
        .collect();

    let run_daemon = |source: PolicySource| -> Vec<Decision> {
        let daemon = Syrupd::new();
        let (app, _) = daemon.register_app("x", &[8080]).unwrap();
        daemon.deploy(app, Hook::SocketSelect, source).unwrap();
        traffic
            .iter()
            .map(|pkt| {
                let mut p = pkt.clone();
                daemon.schedule(Hook::SocketSelect, &mut p, &meta(8080)).1
            })
            .collect()
    };

    // Round robin.
    let ebpf = run_daemon(PolicySource::C {
        source: c_sources::ROUND_ROBIN.to_string(),
        options: CompileOptions::new().define("NUM_THREADS", 6),
    });
    let native = run_daemon(PolicySource::Native(Box::new(RoundRobinPolicy::new(6))));
    assert_eq!(ebpf, native, "round robin");

    // SITA.
    let ebpf = run_daemon(PolicySource::C {
        source: c_sources::SITA.to_string(),
        options: CompileOptions::new()
            .define("NUM_THREADS", 6)
            .define("SCAN", RequestClass::Scan.code() as i64),
    });
    let native = run_daemon(PolicySource::Native(Box::new(SitaPolicy::new(6))));
    assert_eq!(ebpf, native, "sita");
}

/// Policies can be swapped while traffic flows (§3.1).
#[test]
fn live_policy_update_takes_effect_between_packets() {
    let daemon = Syrupd::new();
    let (app, _) = daemon.register_app("live", &[8080]).unwrap();
    daemon
        .deploy(
            app,
            Hook::SocketSelect,
            PolicySource::C {
                source: "uint32_t schedule(void *a, void *b) { return 3; }".into(),
                options: CompileOptions::new(),
            },
        )
        .unwrap();
    let mut pkt = datagram(RequestClass::Get, 0);
    assert_eq!(
        daemon.schedule(Hook::SocketSelect, &mut pkt, &meta(8080)).1,
        Decision::Executor(3)
    );
    daemon
        .deploy(
            app,
            Hook::SocketSelect,
            PolicySource::Native(Box::new(RoundRobinPolicy::new(2))),
        )
        .unwrap();
    assert_eq!(
        daemon.schedule(Hook::SocketSelect, &mut pkt, &meta(8080)).1,
        Decision::Executor(1)
    );
}

/// The cross-layer loop: a kernel policy and a userspace agent sharing a
/// Map, exactly as the token example in §3.4.
#[test]
fn token_policy_cross_layer_round_trip() {
    let daemon = Syrupd::new();
    let (app, maps) = daemon.register_app("tokens", &[8080]).unwrap();
    let handle = daemon
        .deploy(
            app,
            Hook::SocketSelect,
            PolicySource::C {
                source: c_sources::TOKEN_BASED.to_string(),
                options: CompileOptions::new().define("NUM_THREADS", 6),
            },
        )
        .unwrap();
    let token_map = maps.open(&handle.pinned_maps["token_map"]).unwrap();

    // No tokens: drop.
    let mut pkt = datagram(RequestClass::Get, 3);
    assert_eq!(
        daemon.schedule(Hook::SocketSelect, &mut pkt, &meta(8080)).1,
        Decision::Drop
    );
    // Userspace generates tokens (the generate_tokens snippet).
    token_map.update_u64(3, 2).unwrap();
    assert!(matches!(
        daemon.schedule(Hook::SocketSelect, &mut pkt, &meta(8080)).1,
        Decision::Executor(_)
    ));
    assert!(matches!(
        daemon.schedule(Hook::SocketSelect, &mut pkt, &meta(8080)).1,
        Decision::Executor(_)
    ));
    assert_eq!(
        daemon.schedule(Hook::SocketSelect, &mut pkt, &meta(8080)).1,
        Decision::Drop,
        "bucket exhausted"
    );
    // The kernel policy's atomic decrements are visible to userspace.
    assert_eq!(token_map.lookup_u64(3).unwrap(), Some(0));
}

/// Different hooks hold independent policies for the same app, and the
/// same policy text is portable across hooks (§5.4's claim).
#[test]
fn policy_portability_across_hooks() {
    let daemon = Syrupd::new();
    let (app, _) = daemon.register_app("mica", &[9090]).unwrap();
    // Deploy the identical MICA home policy text at the kernel XDP hook
    // and the NIC-offload hook — no code changes (§5.4's portability).
    let mut last_handle = None;
    for hook in [Hook::XdpSkb, Hook::XdpOffload] {
        last_handle = Some(
            daemon
                .deploy(
                    app,
                    hook,
                    PolicySource::C {
                        source: c_sources::MICA_HOME.to_string(),
                        options: CompileOptions::new(),
                    },
                )
                .unwrap(),
        );
    }
    let view = syrup::core::SyrupMaps::new(app, daemon.registry().clone());
    // Both hooks decide by key hash; with core_map unset they PASS, after
    // setting 8 cores they pick hash % 8. Exercise the offload deployment
    // (whose core_map owns the pin path after the second deploy).
    let core_map_path = &last_handle.unwrap().pinned_maps["core_map"];
    assert_eq!(core_map_path, "/syrup/1/core_map");
    let flow = FiveTuple {
        src_ip: 1,
        dst_ip: 2,
        src_port: 3,
        dst_port: 9090,
    };
    let mut pkt = Frame::build(
        &flow,
        &AppHeader {
            req_type: 1,
            user_id: 0,
            key_hash: 21,
            req_id: 0,
        },
    )
    .datagram()
    .to_vec();
    let m = meta(9090);
    // Without a populated core_map the policy returns PASS.
    assert_eq!(
        daemon.schedule(Hook::XdpOffload, &mut pkt, &m).1,
        Decision::Pass
    );
    // Populate the offload deployment's core_map: it was pinned last.
    let core_map = view.open("/syrup/1/core_map").unwrap();
    core_map.update_u64(0, 8).unwrap();
    assert_eq!(
        daemon.schedule(Hook::XdpOffload, &mut pkt, &m).1,
        Decision::Executor((21 % 8) as u32)
    );
}

/// XDP-style redirect decisions: a bytecode policy calling
/// `bpf_redirect_map` reaches the world as an executor choice, through the
/// full `syrupd` tail-call dispatch.
#[test]
fn redirect_map_decisions_flow_through_syrupd() {
    use syrup::ebpf::{Asm, HelperId, Reg};

    let daemon = Syrupd::new();
    let (app, _) = daemon.register_app("xdp", &[6060]).unwrap();
    // The executor (AF_XDP socket) map the redirect targets.
    let xsk_map = daemon.registry().create(syrup::core::MapDef::u64_array(8));
    let prog = Asm::new()
        .load_map_fd(Reg::R1, xsk_map)
        .mov64_imm(Reg::R2, 5)
        .mov64_imm(Reg::R3, 0)
        .call(HelperId::RedirectMap)
        .exit()
        .build("redirect")
        .unwrap();
    daemon
        .deploy(app, Hook::XdpDrv, PolicySource::Bytecode(prog))
        .unwrap();

    let mut pkt = vec![0u8; 64];
    let (owner, decision) = daemon.schedule(Hook::XdpDrv, &mut pkt, &meta(6060));
    assert_eq!(owner, Some(app));
    assert_eq!(decision, Decision::Executor(5));
}
