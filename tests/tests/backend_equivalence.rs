//! Both-backend equivalence over the checked-in paper policies (the
//! quickstart's two bytecode programs, `round_robin` and `ranked_srpt`,
//! among them) and the edges of the specialised engine: the fast backend
//! must be observably identical to the reference interpreter — same
//! outcomes (including modelled cycle totals), same packet bytes, same
//! final map state, and the same profile (the fast engine records a
//! profiled run a block at a time, the interpreter a step at a time).

use syrup::ebpf::maps::{MapEntries, MapId, MapRegistry, ProgSlot};
use syrup::ebpf::vm::{Backend, PacketCtx, RunEnv, Vm, VmError, VmOutcome};
use syrup::ebpf::{Asm, HelperId, MapDef, Reg};
use syrup::policies::corpus;
use syrup::profile::{ProfileReport, Profiler};
use syrup::telemetry::Registry;

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

/// What a profiler attributed: the full report and the folded flamegraph.
fn profile(profiler: &Profiler) -> (ProfileReport, String) {
    (profiler.report(None, usize::MAX), profiler.flame())
}

/// Every paper policy from the corpus, compiled fresh per backend into
/// identically-built worlds, driven with the same deterministic packet
/// stream: full outcome, packet-byte, and whole-map-state equality.
#[test]
fn corpus_policies_agree_across_backends() {
    for entry in corpus() {
        let build = |backend| {
            let maps = MapRegistry::new();
            let compiled = syrup::lang::compile(entry.source, &entry.opts, &maps)
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", entry.name));
            let mut vm = Vm::new(maps.clone());
            vm.set_backend(backend);
            let telemetry = Registry::new();
            vm.attach_telemetry(&telemetry);
            let slot = vm.load_unverified(compiled.program);
            (vm, slot, maps, telemetry)
        };
        let (interp, islot, imaps, reference) = build(Backend::Interp);
        let (fast, fslot, fmaps, _) = build(Backend::Fast);
        assert!(
            fast.decoded(fslot).is_some(),
            "{}: not specialised",
            entry.name
        );

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
        let runs = reference.snapshot().counter("vm/runs_interp");
        assert!(runs > 0, "{}: the reference never ran", entry.name);
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
                            vm.run_after(&path, &mut ctx, &mut env, None)
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

/// The block-profile oracle over the corpus: every paper policy profiled
/// on the default engine, which records a block per hit, and on the
/// interpreter, which records every step. Reports and flamegraphs must be
/// equal exactly, alone and behind a tail-calling dispatcher that is run
/// whole or entered after its traced path.
#[test]
fn corpus_policies_profile_alike_on_both_engines() {
    for entry in corpus() {
        let worlds: Vec<_> = [Backend::Interp, Backend::Fast]
            .into_iter()
            .flat_map(|backend| {
                [
                    (backend, None),
                    (backend, Some(false)),
                    (backend, Some(true)),
                ]
            })
            .map(|(backend, dispatch)| {
                let maps = MapRegistry::new();
                let compiled = syrup::lang::compile(entry.source, &entry.opts, &maps)
                    .unwrap_or_else(|e| panic!("{} failed to compile: {e}", entry.name));
                let progs = maps.create(MapDef::prog_array(1));
                let mut vm = Vm::new(maps.clone());
                vm.set_backend(backend);
                let profiler = Profiler::new();
                vm.attach_profiler(&profiler);
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
                for (i, mut pkt) in packets().into_iter().enumerate() {
                    let mut env = run_env(i as u64);
                    let mut ctx = PacketCtx::new(&mut pkt);
                    let _ = match dispatch {
                        None => vm.run(policy, &mut ctx, &mut env),
                        Some(false) => vm.run(dispatcher, &mut ctx, &mut env),
                        Some(true) => vm.run_after(&path, &mut ctx, &mut env, None),
                    };
                }
                (dispatch, profile(&profiler))
            })
            .collect();
        let (interp, fast) = worlds.split_at(3);
        for (i, f) in interp.iter().zip(fast) {
            assert!(f.1 .0.runs > 0, "{}: nothing profiled", entry.name);
            assert_eq!(i, f, "{}: profiles diverged", entry.name);
        }
        // Run whole or entered after its path, the dispatcher profiles the same.
        assert_eq!(
            fast[1].1, fast[2].1,
            "{}: entry profiles diverged",
            entry.name
        );
    }
}

/// Builds one world per backend with `setup`, runs the slot it returns
/// over a 16-byte packet with `meta0`, and asserts the two agree on the
/// outcome, packet bytes, `prandom` stream and final map state — with no
/// profiler, and with one attached, whose report and flamegraph must
/// agree too. Returns the reference outcome and packet.
fn agree_on(
    meta0: u64,
    setup: impl Fn(&mut Vm) -> ProgSlot,
) -> (Result<VmOutcome, VmError>, Vec<u8>) {
    let [[interp, interp_profiled], [fast, fast_profiled]] =
        [Backend::Interp, Backend::Fast].map(|backend| {
            [Profiler::disabled(), Profiler::new()].map(|profiler| {
                let maps = MapRegistry::new();
                let mut vm = Vm::new(maps.clone());
                vm.set_backend(backend);
                vm.attach_profiler(&profiler);
                let slot = setup(&mut vm);
                let mut pkt = vec![0xA5u8; 16];
                let mut env = run_env(7);
                let mut ctx = PacketCtx::new(&mut pkt);
                ctx.meta[0] = meta0;
                let out = vm.run(slot, &mut ctx, &mut env);
                let run = (out, pkt, env.prandom_state, map_state(&maps));
                (run, profile(&profiler))
            })
        });
    assert!(
        interp.0 == fast.0,
        "engines diverged:\n{interp:?}\n{fast:?}"
    );
    for profiled in [&interp_profiled, &fast_profiled] {
        assert!(profiled.0 == interp.0, "a profiler changed the run");
    }
    assert_eq!(interp_profiled.1 .0.runs, 1);
    assert_eq!(interp_profiled.1, fast_profiled.1, "profiles diverged");
    (interp.0 .0, interp.0 .1)
}

/// A verified program tail-calls a program the verifier refused, which
/// reads what the caller left in r0 and r6–r9: a number, the context, and
/// stack, packet and map-value pointers. A run stays on one engine, so the
/// specialised run finds no specialised target and traps as at an empty
/// slot, while the interpreter runs the target on the caller's registers.
#[test]
fn a_specialised_run_traps_at_a_tail_call_into_an_unverified_program() {
    let [interp, fast] = [Backend::Interp, Backend::Fast].map(|backend| {
        let mut vm = Vm::new(MapRegistry::new());
        vm.set_backend(backend);
        let map = vm.maps().create(MapDef::u64_array(1));
        vm.maps().get(map).unwrap().update_u64(0, 30_000).unwrap();
        let progs = vm.maps().create(MapDef::prog_array(1));
        let caller = Asm::new()
            .mov64_reg(Reg::R6, Reg::R1)
            .ldx_dw(Reg::R8, Reg::R6, 0)
            .ldx_dw(Reg::R2, Reg::R6, 8)
            .mov64_reg(Reg::R3, Reg::R8)
            .add64_imm(Reg::R3, 8)
            .jgt_reg(Reg::R3, Reg::R2, "out")
            .st_dw(Reg::R10, -8, 200)
            .st_w(Reg::R10, -12, 0)
            .load_map_fd(Reg::R1, map)
            .mov64_reg(Reg::R2, Reg::R10)
            .add64_imm(Reg::R2, -12)
            .call(HelperId::MapLookupElem)
            .jeq_imm(Reg::R0, 0, "out")
            .mov64_reg(Reg::R9, Reg::R0)
            .mov64_reg(Reg::R7, Reg::R10)
            .add64_imm(Reg::R7, -8)
            .mov64_imm(Reg::R0, 5)
            .mov64_reg(Reg::R1, Reg::R6)
            .load_map_fd(Reg::R2, progs)
            .mov64_imm(Reg::R3, 0)
            .call(HelperId::TailCall)
            .mov64_imm(Reg::R0, 1)
            .exit()
            .label("out")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("caller")
            .unwrap();
        let caller = vm.load(caller).unwrap();
        assert!(vm.decoded(caller).is_some());
        // Reads r6 before writing it: the verifier refuses it.
        let target = Asm::new()
            .ldx_dw(Reg::R1, Reg::R6, 16)
            .add64_reg(Reg::R0, Reg::R1)
            .ldx_dw(Reg::R2, Reg::R7, 0)
            .add64_reg(Reg::R0, Reg::R2)
            .ldx_b(Reg::R3, Reg::R8, 0)
            .add64_reg(Reg::R0, Reg::R3)
            .ldx_dw(Reg::R4, Reg::R9, 0)
            .add64_reg(Reg::R0, Reg::R4)
            .atomic_add_dw(Reg::R9, 0, Reg::R0)
            .exit()
            .build("target")
            .unwrap();
        let target = vm.load_unverified(target);
        assert!(vm.decoded(target).is_none());
        let live = vm.maps().get(progs).unwrap();
        live.set_prog(0, Some(target)).unwrap();
        let mut pkt = vec![0xA5u8; 16];
        let mut ctx = PacketCtx::new(&mut pkt);
        ctx.meta[0] = 1_000;
        let out = vm.run(caller, &mut ctx, &mut run_env(7));
        (out.map(|o| (o.ret, o.tail_calls)), map_state(vm.maps()))
    });
    let sum = 5 + 1_000 + 200 + 0xA5 + 30_000;
    assert_eq!(interp.0, Ok((sum, 1)));
    assert_eq!(fast.0, Err(VmError::NoSuchProgram));
    // The specialised run stopped before the target's atomic add.
    assert_ne!(interp.1, fast.1);
}

/// 65 537 generic helper call sites, one past what a `u16` site index
/// numbers: the program specialises and runs as the interpreter does.
#[test]
fn a_program_with_more_call_sites_than_a_u16_specialises() {
    let (interp, fast) = {
        let maps = MapRegistry::new();
        let map = maps.create(MapDef::u64_hash(4));
        let mut asm = Asm::new().st_w(Reg::R10, -4, 1);
        for _ in 0..65_537 {
            asm = asm
                .load_map_fd(Reg::R1, map)
                .mov64_reg(Reg::R2, Reg::R10)
                .add64_imm(Reg::R2, -4)
                .call(HelperId::MapDeleteElem);
        }
        let prog = asm.mov64_imm(Reg::R0, 0).exit().build("sites").unwrap();
        assert_eq!(prog.len(), 262_151);
        let mut vm = Vm::new(maps);
        let slot = vm.load(prog).unwrap();
        assert!(vm.decoded(slot).is_some(), "not specialised");
        let mut interp = vm.clone();
        interp.set_backend(Backend::Interp);
        let run = |vm: &Vm| {
            let mut pkt = [0u8; 4];
            vm.run(slot, &mut PacketCtx::new(&mut pkt), &mut RunEnv::default())
        };
        (run(&interp), run(&vm))
    };
    assert_eq!(interp, fast);
    assert_eq!(interp.map(|o| o.insns), Ok(262_151));
}

/// A verified program can still trap: here a map update whose flag in r4
/// is only known at run time.
#[test]
fn a_verified_program_trapping_at_run_time_traps_alike() {
    for flag in [0, 9] {
        let (out, _) = agree_on(flag, |vm| {
            let map = vm.maps().create(MapDef::u64_array(2));
            let prog = Asm::new()
                .st_w(Reg::R10, -4, 1)
                .st_dw(Reg::R10, -16, 7)
                .ldx_dw(Reg::R4, Reg::R1, 16)
                .load_map_fd(Reg::R1, map)
                .mov64_reg(Reg::R2, Reg::R10)
                .add64_imm(Reg::R2, -4)
                .mov64_reg(Reg::R3, Reg::R10)
                .add64_imm(Reg::R3, -16)
                .call(HelperId::MapUpdateElem)
                .exit()
                .build("flag")
                .unwrap();
            let slot = vm.load(prog).unwrap();
            assert!(vm.decoded(slot).is_some());
            slot
        });
        let want = match flag {
            0 => Ok(0),
            _ => Err(VmError::BadHelperArg(HelperId::MapUpdateElem)),
        };
        assert_eq!(out.map(|o| o.ret), want);
    }
}
