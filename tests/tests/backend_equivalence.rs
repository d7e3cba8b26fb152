//! Both-backend equivalence over the checked-in paper policies and the
//! quickstart scenario: the fast pre-decoded backend must be observably
//! identical to the reference interpreter — same outcomes (including
//! modelled cycle totals), same packet bytes, same final map state, and
//! for the end-to-end quickstart the same completions and span records.

use syrup::ebpf::maps::{MapEntries, MapId, MapRegistry};
use syrup::ebpf::vm::{Backend, PacketCtx, RunEnv, Vm};
use syrup::policies::corpus;

/// Serializes the tests that flip the `SYRUP_BACKEND` env var — they
/// run on separate threads within this binary otherwise.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Deterministic packet stream shared by both sides: xorshift64* bytes,
/// lengths cycling through the interesting small sizes.
fn packets() -> Vec<Vec<u8>> {
    let mut state: u64 = 0x5EED_CAFE_F00D_1234;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let lens = [0usize, 1, 7, 8, 16, 33, 64, 128];
    (0..32)
        .map(|i| {
            let len = lens[i % lens.len()];
            (0..len).map(|_| next() as u8).collect()
        })
        .collect()
}

fn run_env(i: u64) -> RunEnv {
    RunEnv {
        now_ns: 1_000 + i * 137,
        cpu_id: (i % 4) as u32,
        prandom_state: 0x9E37_79B9 ^ i,
        ..RunEnv::default()
    }
}

/// Dumps every data map in a registry as `(map, entries)` pairs;
/// prog-arrays (which hold programs, not data) are skipped.
fn map_state(maps: &MapRegistry) -> Vec<(u32, MapEntries)> {
    (0..maps.len() as u32)
        .filter_map(|i| {
            let map = maps.get(MapId(i))?;
            map.entries().ok().map(|entries| (i, entries))
        })
        .collect()
}

/// Every paper policy from the corpus, compiled fresh per backend into
/// identically-built worlds, driven with the same deterministic packet
/// stream: full outcome, packet-byte, and whole-map-state equality.
#[test]
fn corpus_policies_agree_across_backends() {
    for entry in corpus() {
        let build = || {
            let maps = MapRegistry::new();
            let compiled = syrup::lang::compile(entry.source, &entry.opts, &maps)
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", entry.name));
            let mut vm = Vm::new(maps.clone());
            let slot = vm.load_unverified(compiled.program);
            (vm, slot, maps)
        };
        let (interp, islot, imaps) = build();
        let (mut fast, fslot, fmaps) = build();
        fast.set_backend(Backend::Fast);
        assert_eq!(fast.backend(), Backend::Fast);

        for (i, packet) in packets().into_iter().enumerate() {
            let mut pkt_i = packet.clone();
            let mut pkt_f = packet;
            let mut env_i = run_env(i as u64);
            let mut env_f = run_env(i as u64);
            let out_i = {
                let mut ctx = PacketCtx::new(&mut pkt_i);
                interp.run(islot, &mut ctx, &mut env_i)
            };
            let out_f = {
                let mut ctx = PacketCtx::new(&mut pkt_f);
                fast.run(fslot, &mut ctx, &mut env_f)
            };
            assert_eq!(
                out_i, out_f,
                "{}: outcome diverged on packet {i}",
                entry.name
            );
            assert_eq!(
                pkt_i, pkt_f,
                "{}: packet bytes diverged on packet {i}",
                entry.name
            );
            assert_eq!(
                env_i.prandom_state, env_f.prandom_state,
                "{}: prandom stream diverged on packet {i}",
                entry.name
            );
        }
        assert_eq!(
            map_state(&imaps),
            map_state(&fmaps),
            "{}: final map state diverged",
            entry.name
        );
    }
}

/// Entering a policy after a traced dispatcher path is running the
/// dispatcher: every corpus policy behind a tail-calling dispatcher, the
/// dispatcher run whole against `Vm::run_after` on the path
/// `Vm::trace_tail_call` resolved, on both backends — four worlds that
/// must agree on outcomes (instruction, cycle and tail-call counts
/// included), packet bytes, `prandom` streams and final map state.
#[test]
fn corpus_policies_entered_after_a_traced_path_agree_across_backends() {
    use syrup::ebpf::{Asm, HelperId, MapDef, Reg};
    for entry in corpus() {
        let worlds: Vec<_> = [Backend::Interp, Backend::Fast]
            .into_iter()
            .flat_map(|backend| [(backend, false), (backend, true)])
            .map(|(backend, direct)| {
                let maps = MapRegistry::new();
                let compiled = syrup::lang::compile(entry.source, &entry.opts, &maps)
                    .unwrap_or_else(|e| panic!("{} failed to compile: {e}", entry.name));
                let progs = maps.create(MapDef::prog_array(1));
                let mut vm = Vm::new(maps.clone());
                vm.set_backend(backend);
                let policy = vm.load_unverified(compiled.program);
                maps.get(progs).unwrap().set_prog(0, Some(policy)).unwrap();
                let dispatcher = Asm::new()
                    .load_map_fd(Reg::R2, progs)
                    .mov64_imm(Reg::R3, 0)
                    .call(HelperId::TailCall)
                    .mov64_imm(Reg::R0, 0)
                    .exit()
                    .build("dispatcher")
                    .unwrap();
                let dispatcher = vm.load(dispatcher).unwrap();
                let path = vm
                    .trace_tail_call(
                        dispatcher,
                        &mut PacketCtx::new(&mut []),
                        &mut RunEnv::default(),
                    )
                    .expect("the dispatcher tail-calls");
                assert_eq!(path.target(), policy);
                assert_eq!(path.insns(), 3);

                let runs: Vec<_> = packets()
                    .into_iter()
                    .enumerate()
                    .map(|(i, mut pkt)| {
                        let mut env = run_env(i as u64);
                        let mut ctx = PacketCtx::new(&mut pkt);
                        let out = if direct {
                            vm.run_after(&path, &mut ctx, &mut env)
                        } else {
                            vm.run(dispatcher, &mut ctx, &mut env)
                        };
                        (out, pkt, env.prandom_state)
                    })
                    .collect();
                (runs, map_state(&maps))
            })
            .collect();
        for world in &worlds[1..] {
            assert!(*world == worlds[0], "{}: worlds diverged", entry.name);
        }
    }
}

/// Pre-decoding is lossless on every corpus policy: re-encoding the
/// decoded stream reproduces the compiler's output exactly.
#[test]
fn corpus_policies_decode_reencode_round_trip() {
    for entry in corpus() {
        let maps = MapRegistry::new();
        let compiled = syrup::lang::compile(entry.source, &entry.opts, &maps)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", entry.name));
        let decoded = syrup::ebpf::decode(&compiled.program);
        assert_eq!(
            decoded.reencode(),
            compiled.program.insns,
            "{}: decode/reencode not lossless",
            entry.name
        );
    }
}

/// The full quickstart scenario — NIC rings, XDP eBPF policy, reuseport
/// group, worker threads — produces byte-identical traces under either
/// backend. Runs both variants sequentially inside one test so the
/// `SYRUP_BACKEND` env var (read once at daemon construction) cannot
/// race with itself.
#[test]
fn quickstart_scenario_identical_across_backends() {
    let _guard = ENV_LOCK.lock().unwrap();
    let run_with = |backend: &str| {
        std::env::set_var("SYRUP_BACKEND", backend);
        let tracer = syrup::trace::Tracer::new();
        let out = syrup::apps::quickstart::run_driven(
            &tracer,
            &syrup::profile::Profiler::disabled(),
            &syrup::blackbox::Recorder::disabled(),
            48,
            false,
            1,
            &mut |_, _, _| {},
        );
        std::env::remove_var("SYRUP_BACKEND");
        out
    };
    let interp = run_with("interp");
    let fast = run_with("fast");
    assert_eq!(interp.syrupd.backend(), Backend::Interp);
    assert_eq!(fast.syrupd.backend(), Backend::Fast);
    assert_eq!(interp.completed, fast.completed, "completions diverged");
    assert_eq!(
        interp.records, fast.records,
        "span records diverged between backends"
    );
    assert_eq!(
        interp.timelines.len(),
        fast.timelines.len(),
        "timeline count diverged"
    );
}

/// Same check for the ranked variant, which routes through the PIFO
/// reuseport group and the ranked-SRPT eBPF policy (64-bit
/// `(rank, executor)` verdict encoding on the fast path).
#[test]
fn ranked_quickstart_identical_across_backends() {
    let _guard = ENV_LOCK.lock().unwrap();
    let run_with = |backend: &str| {
        std::env::set_var("SYRUP_BACKEND", backend);
        let tracer = syrup::trace::Tracer::new();
        let out = syrup::apps::quickstart::run_driven(
            &tracer,
            &syrup::profile::Profiler::disabled(),
            &syrup::blackbox::Recorder::disabled(),
            48,
            true,
            1,
            &mut |_, _, _| {},
        );
        std::env::remove_var("SYRUP_BACKEND");
        out
    };
    let interp = run_with("interp");
    let fast = run_with("fast");
    assert_eq!(interp.completed, fast.completed, "completions diverged");
    assert_eq!(
        interp.records, fast.records,
        "span records diverged between backends"
    );
}
