//! The paper's scheduling policies, in both forms Syrup supports.
//!
//! Every policy from the evaluation exists here twice:
//!
//! * [`c_sources`] — the Figure 5 / §3.4 policy files in the C subset,
//!   kept as close to the paper's listings as the language allows. These
//!   are what `syrupd` compiles, verifies, and deploys; Table 2's LoC and
//!   instruction counts are measured on them.
//! * [`native`] — behaviourally equivalent Rust implementations of
//!   [`syrup_core::PacketPolicy`], used on the simulation hot path.
//!
//! Equivalence between the two forms is asserted by tests in this crate
//! (exact decision-for-decision where the policy is deterministic,
//! invariant-based where it draws randomness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod c_sources;
pub mod native;

pub use c_sources::{corpus, CorpusEntry};
pub use native::{
    MicaHomePolicy, RfsPolicy, RoundRobinPolicy, ScanAvoidPolicy, SitaPolicy, TokenPolicy,
    VanillaPolicy,
};

/// Request-class wire codes shared by policies and workloads (these match
/// `syrup_net::RequestClass::code`).
pub mod class_codes {
    /// GET / point lookup.
    pub const GET: u64 = 1;
    /// SCAN / range query.
    pub const SCAN: u64 = 2;
    /// MICA PUT.
    pub const PUT: u64 = 3;
}

#[cfg(test)]
mod equivalence_tests {
    //! Native and compiled-C forms must make the same decisions.

    use std::collections::HashMap;

    use syrup_core::{CompileOptions, Decision, HookMeta, PacketPolicy};
    use syrup_ebpf::maps::{MapDef, MapRef, MapRegistry};
    use syrup_ebpf::vm::{PacketCtx, RunEnv, Vm};
    use syrup_ebpf::{ret, verify};
    use syrup_net::{AppHeader, Frame, RequestClass};

    use crate::c_sources;
    use crate::class_codes::{GET, SCAN};
    use crate::native::{
        MicaHomePolicy, RfsPolicy, RoundRobinPolicy, ScanAvoidPolicy, SitaPolicy, TokenPolicy,
    };

    fn datagram(class: RequestClass, key_hash: u64) -> Vec<u8> {
        request(class, 0, key_hash)
    }

    fn request(class: RequestClass, user_id: u32, key_hash: u64) -> Vec<u8> {
        let flow = syrup_net::FiveTuple {
            src_ip: 0x0A00_0001,
            dst_ip: 0x0A00_0002,
            src_port: 40_000,
            dst_port: 8080,
        };
        let app = AppHeader {
            req_type: class.code(),
            user_id,
            key_hash,
            req_id: 0,
        };
        Frame::build(&flow, &app).datagram().to_vec()
    }

    /// Runs `source` over `inputs` in order, after writing each
    /// `(map, key, value)` of `seed` into the map the source declares.
    fn run_c(
        source: &str,
        opts: CompileOptions,
        seed: &[(&str, u32, u64)],
        inputs: &[Vec<u8>],
    ) -> Vec<Decision> {
        run_c_maps(source, opts, seed, inputs).0
    }

    /// [`run_c`], also handing back the maps the source declared, by
    /// name, as the run left them.
    fn run_c_maps(
        source: &str,
        opts: CompileOptions,
        seed: &[(&str, u32, u64)],
        inputs: &[Vec<u8>],
    ) -> (Vec<Decision>, HashMap<String, MapRef>) {
        let maps = MapRegistry::new();
        let compiled = syrup_lang::compile(source, &opts, &maps).expect("compile");
        verify(&compiled.program, &maps)
            .unwrap_or_else(|e| panic!("verify: {e}\n{}", compiled.program.disasm()));
        for &(name, key, value) in seed {
            let map = maps.get(compiled.created_maps[name]).expect("declared");
            map.update_u64(key, value).expect("seed");
        }
        let declared = compiled
            .created_maps
            .iter()
            .map(|(name, &id)| (name.clone(), maps.get(id).expect("declared")))
            .collect();
        let mut vm = Vm::new(maps);
        let slot = vm.load_unverified(compiled.program);
        let mut env = RunEnv::default();
        let decisions = inputs
            .iter()
            .map(|input| {
                let mut bytes = input.clone();
                let mut ctx = PacketCtx::new(&mut bytes);
                let out = vm.run(slot, &mut ctx, &mut env).expect("run");
                Decision::from_ret(out.ret)
            })
            .collect();
        (decisions, declared)
    }

    /// A native policy and the C source it stands in for.
    struct Twin {
        native: Box<dyn PacketPolicy>,
        source: &'static str,
        opts: CompileOptions,
        /// `(map, key, value)` the application writes before traffic.
        seed: &'static [(&'static str, u32, u64)],
    }

    /// A map of its own for a native form, written as `seed` writes the
    /// C form's.
    fn seeded(def: MapDef, seed: &[(&str, u32, u64)]) -> MapRef {
        let maps = MapRegistry::new();
        let map = maps.get(maps.create(def)).expect("created");
        for &(_, key, value) in seed {
            map.update_u64(key, value).expect("in range");
        }
        map
    }

    /// SCAN Avoid over six sockets with `scan_map` holding `seed`: the
    /// native form reads a map of its own, written the same way, and
    /// draws from the VM's starting `get_prandom_u32` state (both are
    /// xorshift64*).
    fn scan_avoid(seed: &'static [(&'static str, u32, u64)]) -> Twin {
        let scan_map = seeded(MapDef::u64_array(64), seed);
        let prandom = RunEnv::default().prandom_state;
        Twin {
            native: Box::new(ScanAvoidPolicy::new(scan_map, 6, prandom)),
            source: c_sources::SCAN_AVOID,
            opts: CompileOptions::new()
                .define("NUM_THREADS", 6)
                .define("GET", GET as i64),
            seed,
        }
    }

    /// RFS steering with `flow_core` holding `seed`; the native form reads
    /// a map of its own, written the same way.
    fn rfs(seed: &'static [(&'static str, u32, u64)]) -> Twin {
        Twin {
            native: Box::new(RfsPolicy::new(seeded(MapDef::u64_array(4096), seed))),
            source: c_sources::RFS,
            opts: CompileOptions::new(),
            seed,
        }
    }

    /// Flows 0, 1 and 4 095, the last entry, seeded; every other flow in
    /// the map reads core 0, and a flow past its 4 096 entries PASSes.
    const FLOW_CORES: &[(&str, u32, u64)] = &[
        ("flow_core", 0, 3),
        ("flow_core", 1, 5),
        ("flow_core", 4095, 2),
    ];

    /// Token-based QoS over six sockets with `token_map` holding `seed`;
    /// the native form spends the tokens of a map of its own, written the
    /// same way.
    fn token(seed: &'static [(&'static str, u32, u64)]) -> (Twin, MapRef) {
        let token_map = seeded(MapDef::u64_array(16), seed);
        let twin = Twin {
            native: Box::new(TokenPolicy::new(token_map.clone(), 6)),
            source: c_sources::TOKEN_BASED,
            opts: CompileOptions::new().define("NUM_THREADS", 6),
            seed,
        };
        (twin, token_map)
    }

    /// Users 0, 1 and 2 hold no tokens, one and many; users 3 to 15 are
    /// unseeded, so hold none either.
    const TOKENS: &[(&str, u32, u64)] = &[
        ("token_map", 0, 0),
        ("token_map", 1, 1),
        ("token_map", 2, 1_000),
    ];

    fn twins() -> Vec<Twin> {
        vec![
            Twin {
                native: Box::new(RoundRobinPolicy::new(6)),
                source: c_sources::ROUND_ROBIN,
                opts: CompileOptions::new().define("NUM_THREADS", 6),
                seed: &[],
            },
            Twin {
                native: Box::new(SitaPolicy::new(6)),
                source: c_sources::SITA,
                opts: CompileOptions::new()
                    .define("NUM_THREADS", 6)
                    .define("SCAN", class_codes_scan()),
                seed: &[],
            },
            // Figure 9's home-partition steering over `core_map` = 6 cores.
            Twin {
                native: Box::new(MicaHomePolicy::new(6)),
                source: c_sources::MICA_HOME,
                opts: CompileOptions::new(),
                seed: &[("core_map", 0, 6)],
            },
            // Every socket's thread serves a GET: the first probe stops.
            scan_avoid(&[
                ("scan_map", 0, GET),
                ("scan_map", 1, GET),
                ("scan_map", 2, GET),
                ("scan_map", 3, GET),
                ("scan_map", 4, GET),
                ("scan_map", 5, GET),
            ]),
            // One GET among SCANs: probing stops there or runs out.
            scan_avoid(&[
                ("scan_map", 0, SCAN),
                ("scan_map", 1, SCAN),
                ("scan_map", 2, SCAN),
                ("scan_map", 3, GET),
                ("scan_map", 4, SCAN),
                ("scan_map", 5, SCAN),
            ]),
            // Every thread serves a SCAN: all six probes run.
            scan_avoid(&[
                ("scan_map", 0, SCAN),
                ("scan_map", 1, SCAN),
                ("scan_map", 2, SCAN),
                ("scan_map", 3, SCAN),
                ("scan_map", 4, SCAN),
                ("scan_map", 5, SCAN),
            ]),
            rfs(FLOW_CORES),
            token(TOKENS).0,
        ]
    }

    /// Short packets (every header field cut off in turn), malformed ones,
    /// and every request class over varied key hashes.
    fn inputs() -> Vec<Vec<u8>> {
        let scan = datagram(RequestClass::Scan, 0x1234_5678_9ABC_DEF0);
        let mut inputs: Vec<Vec<u8>> = [0, 4, 10, 15, 16, 20, 27]
            .iter()
            .map(|&len| scan[..len].to_vec())
            .collect();
        inputs.push(vec![0xFF; scan.len()]);
        inputs.push(vec![0; 64]);
        inputs.push((0..64u8).map(|b| b.wrapping_mul(37)).collect());
        for hash in [0, 1, 5, 6, 7, 12_345, 1 << 63, u64::MAX] {
            for class in [RequestClass::Get, RequestClass::Scan, RequestClass::Put] {
                inputs.push(datagram(class, hash));
            }
        }
        inputs
    }

    /// Runs every input through both halves of `twin` and asserts they
    /// agree; returns the C half's decisions.
    fn assert_twin_matches(mut twin: Twin, inputs: &[Vec<u8>]) -> Vec<Decision> {
        let name = twin.native.name().to_string();
        let c = run_c(twin.source, twin.opts, twin.seed, inputs);
        let n: Vec<Decision> = inputs
            .iter()
            .map(|i| twin.native.schedule(&mut i.clone(), &HookMeta::default()))
            .collect();
        assert_eq!(c, n, "{name}");
        c
    }

    /// Checks the table row whose native policy is called `name`.
    fn assert_row_matches(name: &str, inputs: &[Vec<u8>]) -> Vec<Decision> {
        let twin = twins()
            .into_iter()
            .find(|t| t.native.name() == name)
            .unwrap_or_else(|| panic!("no twin {name}"));
        assert_twin_matches(twin, inputs)
    }

    #[test]
    fn native_twins_match_their_c_sources() {
        let inputs = inputs();
        for twin in twins() {
            assert_twin_matches(twin, &inputs);
        }
    }

    #[test]
    fn round_robin_native_matches_c() {
        assert_row_matches("round_robin", &inputs());
    }

    #[test]
    fn sita_native_matches_c() {
        let inputs = inputs();
        let c = assert_row_matches("sita", &inputs);
        // SCANs pinned to socket 0, GETs never on socket 0.
        for (input, d) in inputs.iter().zip(&c) {
            let Some(ty) = input.get(8..16) else {
                assert_eq!(*d, Decision::Pass);
                continue;
            };
            if u64::from_le_bytes(ty.try_into().unwrap()) == RequestClass::Scan.code() {
                assert_eq!(*d, Decision::Executor(0));
            } else {
                assert!(matches!(d, Decision::Executor(i) if *i >= 1 && *i <= 5));
            }
        }
    }

    #[test]
    fn mica_home_native_matches_c() {
        assert_row_matches("mica_home", &inputs());
    }

    #[test]
    fn rfs_native_matches_c() {
        // Datagrams too short to carry a flow id, then flows seeded,
        // unseeded, and past the map, one of them in exactly four bytes.
        let mut inputs: Vec<Vec<u8>> = (0..4).map(|len| vec![1; len]).collect();
        for flow in [0u32, 1, 2, 4095, 4096, 70_000, u32::MAX] {
            let mut pkt = flow.to_le_bytes().to_vec();
            pkt.extend_from_slice(&[0; 28]);
            inputs.push(pkt);
        }
        inputs.push(4095u32.to_le_bytes().to_vec());
        let c = assert_row_matches("rfs", &inputs);
        use Decision::{Executor as On, Pass};
        assert_eq!(c[..4], [Pass; 4]);
        assert_eq!(
            c[4..],
            [On(3), On(5), On(0), On(2), Pass, Pass, Pass, On(2)]
        );
    }

    /// One call sequence through both forms, each spending its own map:
    /// every decision agrees, and so does every user's balance after.
    #[test]
    fn token_native_matches_c_and_spends_the_same_tokens() {
        // User 16 and `u32::MAX` are past the 16-entry map.
        let users = [0u32, 1, 2, 1, 2, 3, 16, 2, u32::MAX, 15, 2];
        let mut inputs: Vec<Vec<u8>> = users
            .iter()
            .map(|&user| request(RequestClass::Get, user, 0))
            .collect();
        inputs.push(request(RequestClass::Get, 2, 0)[..19].to_vec());
        let (twin, native_tokens) = token(TOKENS);
        let (c, c_maps) = run_c_maps(twin.source, twin.opts, twin.seed, &inputs);
        let mut native = twin.native;
        let n: Vec<Decision> = inputs
            .iter()
            .map(|i| native.schedule(&mut i.clone(), &HookMeta::default()))
            .collect();
        assert_eq!(c, n);
        let admitted = c
            .iter()
            .filter(|d| matches!(d, Decision::Executor(_)))
            .count();
        assert_eq!(admitted, 5, "{c:?}");
        let balances = |map: &MapRef| -> Vec<u64> {
            (0..16)
                .map(|user| map.lookup_u64(user).expect("in range").expect("array"))
                .collect()
        };
        let after = balances(&native_tokens);
        assert_eq!(balances(&c_maps["token_map"]), after);
        assert_eq!(after[..3], [0, 0, 1_000 - 4]);
    }

    fn class_codes_scan() -> i64 {
        RequestClass::Scan.code() as i64
    }

    #[test]
    fn sita_passes_short_packets() {
        let c = run_c(
            c_sources::SITA,
            CompileOptions::new()
                .define("NUM_THREADS", 6)
                .define("SCAN", class_codes_scan()),
            &[],
            &[vec![0u8; 10]],
        );
        assert_eq!(c[0], Decision::Pass);
        let _ = ret::PASS;
    }
}
