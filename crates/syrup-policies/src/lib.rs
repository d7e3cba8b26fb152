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
    MicaHomePolicy, RoundRobinPolicy, ScanAvoidPolicy, SitaPolicy, TokenPolicy, VanillaPolicy,
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

    use syrup_core::{CompileOptions, Decision, HookMeta, PacketPolicy};
    use syrup_ebpf::maps::{MapDef, MapRegistry};
    use syrup_ebpf::vm::{PacketCtx, RunEnv, Vm};
    use syrup_ebpf::{ret, verify};
    use syrup_net::{AppHeader, Frame, RequestClass};

    use crate::c_sources;
    use crate::class_codes::{GET, SCAN};
    use crate::native::{MicaHomePolicy, RoundRobinPolicy, ScanAvoidPolicy, SitaPolicy};

    fn datagram(class: RequestClass, key_hash: u64) -> Vec<u8> {
        let flow = syrup_net::FiveTuple {
            src_ip: 0x0A00_0001,
            dst_ip: 0x0A00_0002,
            src_port: 40_000,
            dst_port: 8080,
        };
        let app = AppHeader {
            req_type: class.code(),
            user_id: 0,
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
        let maps = MapRegistry::new();
        let compiled = syrup_lang::compile(source, &opts, &maps).expect("compile");
        verify(&compiled.program, &maps)
            .unwrap_or_else(|e| panic!("verify: {e}\n{}", compiled.program.disasm()));
        for &(name, key, value) in seed {
            let map = maps.get(compiled.created_maps[name]).expect("declared");
            map.update_u64(key, value).expect("seed");
        }
        let mut vm = Vm::new(maps);
        let slot = vm.load_unverified(compiled.program);
        let mut env = RunEnv::default();
        inputs
            .iter()
            .map(|input| {
                let mut bytes = input.clone();
                let mut ctx = PacketCtx::new(&mut bytes);
                let out = vm.run(slot, &mut ctx, &mut env).expect("run");
                Decision::from_ret(out.ret)
            })
            .collect()
    }

    /// A native policy and the C source it stands in for.
    struct Twin {
        native: Box<dyn PacketPolicy>,
        source: &'static str,
        opts: CompileOptions,
        /// `(map, key, value)` the application writes before traffic.
        seed: &'static [(&'static str, u32, u64)],
    }

    /// SCAN Avoid over six sockets with `scan_map` holding `seed`: the
    /// native form reads a map of its own, written the same way, and
    /// draws from the VM's starting `get_prandom_u32` state (both are
    /// xorshift64*).
    fn scan_avoid(seed: &'static [(&'static str, u32, u64)]) -> Twin {
        let maps = MapRegistry::new();
        let scan_map = maps
            .get(maps.create(MapDef::u64_array(64)))
            .expect("created");
        for &(_, key, value) in seed {
            scan_map.update_u64(key, value).expect("in range");
        }
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
