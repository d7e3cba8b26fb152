//! Structure-aware fuzzing for the Syrup eBPF stack.
//!
//! The paper's safety story (§3.3, §4.3) rests on one claim: *any program
//! the verifier accepts is safe to run in the datapath*. This crate turns
//! that claim into an executable oracle and hammers it with three program
//! sources:
//!
//! * a structure-aware **generator** ([`gen`]) emitting random but
//!   well-formed instruction sequences — ALU chains, forward branches,
//!   constant-bounded loops, stack traffic, map lookups/updates, and the
//!   packet bounds-check idiom (with deliberate, low-probability omissions
//!   of the check so rejection paths are exercised too);
//! * a **mutator** ([`mutate`]) perturbing the known-good compiled policies
//!   from `syrup-policies`;
//! * a **policy-source generator** ([`langgen`]) producing random programs
//!   in the Syrup C subset for differential testing against the reference
//!   interpreter in `syrup_lang::interp`.
//!
//! Each program is checked against three oracles:
//!
//! 1. **Soundness** — if the verifier accepts, the VM must execute the
//!    program on randomized packets/maps/environments without trapping.
//! 2. **Differential semantics** — a policy compiled through codegen must
//!    produce the same verdict (return value, redirect, packet bytes) as
//!    the direct AST interpreter.
//! 3. **Determinism** — verifying the same bytes twice yields the same
//!    result, and every rejection carries a structured [`VerifierError`].
//!
//! Failures auto-shrink ([`shrink`]) to a minimal instruction sequence and
//! print the reproducing seed.
//!
//! The rank extension adds a fourth oracle ([`sched_oracle`]): random
//! push/pop scripts against the `syrup-sched` queues, checking exact PIFO
//! order against a reference model and the Eiffel bucket queue against its
//! documented approximation bound. Policy sources also probabilistically
//! `return (executor, rank)` pairs, so the differential oracle covers the
//! rank ABI's `rank << 32 | executor` encoding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend_diff;
pub mod gen;
pub mod langgen;
pub mod mutate;
pub mod sched_oracle;
pub mod shrink;

use std::fmt;

use syrup_ebpf::maps::MapRegistry;
use syrup_ebpf::vm::{PacketCtx, RunEnv, Vm, VmError};
use syrup_ebpf::{verify_with_config, Program, VerifierConfig, VerifierError};

/// A small, dependency-free xorshift64* PRNG.
///
/// Deterministic: the same seed always replays the same fuzz run, which is
/// what the failure reports rely on.
#[derive(Debug, Clone)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Creates a generator from `seed` (zero is remapped to a fixed
    /// nonzero constant so the stream never degenerates).
    pub fn new(seed: u64) -> Self {
        Prng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `0..n` (`n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Picks one element of a nonempty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// SplitMix64 finalizer, used to derive independent per-iteration seeds
/// from the master seed.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One randomized VM input: packet bytes plus execution environment.
#[derive(Debug, Clone)]
pub struct FuzzInput {
    /// Packet contents (length 0..64, biased toward interesting sizes).
    pub packet: Vec<u8>,
    /// `ktime_get_ns` value.
    pub now_ns: u64,
    /// `get_smp_processor_id` value.
    pub cpu_id: u32,
    /// `get_prandom_u32` stream seed.
    pub prandom_state: u64,
}

impl FuzzInput {
    /// Draws a random input. Short and empty packets are common on purpose:
    /// they are what break unchecked packet loads.
    pub fn random(rng: &mut Prng) -> Self {
        let len = match rng.below(10) {
            0 => 0,
            1 => rng.below(4) as usize,
            2 => 8,
            3 => 14,
            4 => 16,
            5 => 20,
            6 => 28,
            _ => rng.below(64) as usize,
        };
        let packet = (0..len).map(|_| rng.next_u64() as u8).collect();
        FuzzInput {
            packet,
            now_ns: rng.next_u64() >> 20,
            cpu_id: rng.below(8) as u32,
            prandom_state: rng.next_u64(),
        }
    }

    /// Builds the [`RunEnv`] this input describes.
    pub fn env(&self) -> RunEnv {
        RunEnv {
            now_ns: self.now_ns,
            cpu_id: self.cpu_id,
            prandom_state: self.prandom_state,
            ..RunEnv::default()
        }
    }
}

/// Which oracle a failure violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Verifier accepted a program that trapped in the VM.
    Soundness,
    /// Compiled policy and reference interpreter disagreed.
    Differential,
    /// Re-verifying the same bytes gave a different result.
    Determinism,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Soundness => write!(f, "soundness"),
            FailureKind::Differential => write!(f, "differential"),
            FailureKind::Determinism => write!(f, "determinism"),
        }
    }
}

/// A reproducible oracle violation.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The master seed of the run that found this.
    pub seed: u64,
    /// Zero-based iteration at which the violation occurred.
    pub iteration: u64,
    /// Which oracle fired.
    pub kind: FailureKind,
    /// Human-readable description (VM error, mismatched verdicts, …).
    pub detail: String,
    /// The shrunk failing program.
    pub program: Program,
    /// The input that reproduces the failure, if input-dependent.
    pub input: Option<FuzzInput>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} violation at iteration {} (seed 0x{:016X})",
            self.kind, self.iteration, self.seed
        )?;
        writeln!(
            f,
            "reproduce with: syrup-fuzz --iters {} --seed 0x{:X}",
            self.iteration + 1,
            self.seed
        )?;
        writeln!(f, "detail: {}", self.detail)?;
        if let Some(input) = &self.input {
            writeln!(
                f,
                "input: packet[{}]={:02x?} now_ns={} cpu={} prandom=0x{:x}",
                input.packet.len(),
                input.packet,
                input.now_ns,
                input.cpu_id,
                input.prandom_state
            )?;
        }
        writeln!(f, "shrunk program ({} insns):", self.program.len())?;
        write!(f, "{}", self.program.disasm())
    }
}

/// Rejections for the three shapes the specialised engine could not run
/// untagged, which keep "accepted" and "specialised" the same set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unspecialisable {
    /// A memory step whose base points into two regions.
    pub mixed_pointer: u64,
    /// A checked helper argument with two kinds.
    pub mixed_helper_arg: u64,
    /// A pointer moved beyond `MAX_PTR_OFF`.
    pub pointer_out_of_range: u64,
}

impl Unspecialisable {
    /// Counts `err` if it is one of the three.
    pub fn count(&mut self, err: &VerifierError) {
        match err {
            VerifierError::MixedPointer { .. } => self.mixed_pointer += 1,
            VerifierError::MixedHelperArg { .. } => self.mixed_helper_arg += 1,
            VerifierError::PointerOutOfRange { .. } => self.pointer_out_of_range += 1,
            _ => {}
        }
    }
}

impl fmt::Display for Unspecialisable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} mixed pointer, {} mixed helper argument, {} pointer out of range",
            self.mixed_pointer, self.mixed_helper_arg, self.pointer_out_of_range
        )
    }
}

/// Counters summarizing one fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Iterations actually executed (stops early on the first failure).
    pub iterations: u64,
    /// Programs produced by the bytecode generator.
    pub generated: u64,
    /// Programs produced by mutating the policy corpus.
    pub mutated: u64,
    /// Random policy sources attempted.
    pub lang_sources: u64,
    /// Random policy sources that failed to compile (skipped, not a bug).
    pub lang_compile_errors: u64,
    /// Programs the verifier accepted.
    pub accepted: u64,
    /// Programs the verifier rejected (each with a structured reason).
    pub rejected: u64,
    /// Of those, the ones rejected for a shape the specialised engine
    /// cannot run.
    pub unspecialisable: Unspecialisable,
    /// Total VM executions performed by the soundness oracle.
    pub vm_runs: u64,
    /// Packets compared by the differential oracle.
    pub diff_checks: u64,
    /// The first violation found, if any.
    pub failure: Option<Failure>,
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} iterations: {} generated, {} mutated, {} lang sources \
             ({} compile errors)",
            self.iterations,
            self.generated,
            self.mutated,
            self.lang_sources,
            self.lang_compile_errors
        )?;
        write!(
            f,
            "verifier: {} accepted, {} rejected ({}); {} VM runs, {} differential checks",
            self.accepted, self.rejected, self.unspecialisable, self.vm_runs, self.diff_checks
        )
    }
}

/// Runs `iters` fuzz iterations with the sound (default) verifier.
pub fn run_fuzz(iters: u64, seed: u64) -> FuzzReport {
    run_fuzz_with_config(iters, seed, &VerifierConfig::default())
}

/// [`run_fuzz`] with explicit verifier knobs.
///
/// Passing a weakened [`VerifierConfig`] is how the harness self-tests: the
/// soundness oracle must catch the unsound acceptances the weakened
/// verifier lets through (see the `injected_packet_bounds_bug_is_caught`
/// test).
pub fn run_fuzz_with_config(iters: u64, seed: u64, cfg: &VerifierConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    let corpus = mutate::compiled_corpus();
    for iteration in 0..iters {
        report.iterations = iteration + 1;
        let mut rng = Prng::new(seed ^ splitmix64(iteration.wrapping_add(1)));
        let failure = match iteration % 4 {
            1 => {
                report.mutated += 1;
                let (base, maps) = rng.pick(&corpus);
                let prog = Program::new("fuzz-mut", mutate::mutate(&mut rng, &base.insns));
                check_bytecode(&mut report, seed, iteration, cfg, &prog, maps, &mut rng)
            }
            3 => {
                report.lang_sources += 1;
                check_lang(&mut report, seed, iteration, cfg, &mut rng)
            }
            _ => {
                report.generated += 1;
                let maps = gen::GenMaps::new();
                let prog = gen::generate(&mut rng, &maps);
                check_bytecode(
                    &mut report,
                    seed,
                    iteration,
                    cfg,
                    &prog,
                    &maps.registry,
                    &mut rng,
                )
            }
        };
        if failure.is_some() {
            report.failure = failure;
            break;
        }
    }
    report
}

/// Determinism + soundness oracles for one bytecode program.
fn check_bytecode(
    report: &mut FuzzReport,
    seed: u64,
    iteration: u64,
    cfg: &VerifierConfig,
    prog: &Program,
    maps: &MapRegistry,
    rng: &mut Prng,
) -> Option<Failure> {
    // Oracle 3: determinism. Verify twice; results must be identical and
    // rejections must carry a structured (non-empty) reason.
    let first = verify_with_config(prog, maps, cfg);
    let second = verify_with_config(prog, maps, cfg);
    if first != second {
        let detail = format!("verify #1: {first:?}, verify #2: {second:?}");
        let shrunk = shrink::shrink(&prog.insns, |cand| {
            let p = Program::new("shrunk", cand.to_vec());
            verify_with_config(&p, maps, cfg) != verify_with_config(&p, maps, cfg)
        });
        return Some(Failure {
            seed,
            iteration,
            kind: FailureKind::Determinism,
            detail,
            program: Program::new("shrunk", shrunk),
            input: None,
        });
    }
    match first {
        Err(reason) => {
            report.rejected += 1;
            report.unspecialisable.count(&reason);
            debug_assert!(!structured_reason(&reason).is_empty());
            None
        }
        Ok(_) => {
            report.accepted += 1;
            // Oracle 1: soundness. The accepted program must survive
            // randomized inputs without trapping.
            let mut vm = Vm::new(maps.clone());
            let slot = vm.load_unverified(prog.clone());
            for _ in 0..6 {
                let input = FuzzInput::random(rng);
                report.vm_runs += 1;
                if let Err(err) = run_once(&vm, slot, &input) {
                    return Some(soundness_failure(
                        seed, iteration, cfg, prog, maps, input, &err,
                    ));
                }
            }
            None
        }
    }
}

/// Differential oracle for one random policy source.
fn check_lang(
    report: &mut FuzzReport,
    seed: u64,
    iteration: u64,
    cfg: &VerifierConfig,
    rng: &mut Prng,
) -> Option<Failure> {
    let source = langgen::generate(rng);
    let opts = syrup_lang::CompileOptions::new();

    let vm_maps = MapRegistry::new();
    let compiled = match syrup_lang::compile(&source, &opts, &vm_maps) {
        Ok(c) => c,
        Err(_) => {
            // Random sources are allowed to miss the language subset; only
            // *accepted* programs feed the oracles.
            report.lang_compile_errors += 1;
            return None;
        }
    };
    let first = verify_with_config(&compiled.program, &vm_maps, cfg);
    let second = verify_with_config(&compiled.program, &vm_maps, cfg);
    if first != second {
        return Some(Failure {
            seed,
            iteration,
            kind: FailureKind::Determinism,
            detail: format!("codegen output verified differently twice:\n{source}"),
            program: compiled.program,
            input: None,
        });
    }
    if let Err(reason) = &first {
        report.rejected += 1;
        report.unspecialisable.count(reason);
        return None;
    }
    report.accepted += 1;

    // Oracle 2: differential semantics. Interpret the same AST directly
    // against a second, identically-initialized registry.
    let interp_maps = MapRegistry::new();
    let unit = match syrup_lang::parse_source(&source) {
        Ok(u) => u,
        Err(e) => {
            return Some(Failure {
                seed,
                iteration,
                kind: FailureKind::Differential,
                detail: format!("compiler accepted but parse_source failed: {e}\n{source}"),
                program: compiled.program,
                input: None,
            })
        }
    };
    let policy = match syrup_lang::interp::prepare(&unit, &opts, &interp_maps) {
        Ok(p) => p,
        Err(e) => {
            return Some(Failure {
                seed,
                iteration,
                kind: FailureKind::Differential,
                detail: format!("compiler accepted but interpreter rejected: {e}\n{source}"),
                program: compiled.program,
                input: None,
            })
        }
    };

    let vm = {
        let mut vm = Vm::new(vm_maps.clone());
        let slot = vm.load_unverified(compiled.program.clone());
        (vm, slot)
    };
    for _ in 0..4 {
        let input = FuzzInput::random(rng);
        report.vm_runs += 1;
        report.diff_checks += 1;

        let mut vm_pkt = input.packet.clone();
        let vm_out = {
            let mut ctx = PacketCtx::new(&mut vm_pkt);
            let mut env = input.env();
            vm.0.run(vm.1, &mut ctx, &mut env)
        };
        let mut interp_pkt = input.packet.clone();
        let interp_out = {
            let mut env = input.env();
            policy.run(&mut interp_pkt, &mut env)
        };

        let mismatch = match (&vm_out, &interp_out) {
            (Err(e), _) => Some(format!("verified program trapped in VM: {e:?}")),
            (_, Err(e)) => Some(format!("reference interpreter errored: {e}")),
            (Ok(v), Ok(i)) => {
                if v.ret != i.ret {
                    Some(format!(
                        "VM returned {:#x}, interpreter {:#x}",
                        v.ret, i.ret
                    ))
                } else if v.redirect.map(|(_, idx)| idx) != i.redirect.map(|(_, idx)| idx) {
                    Some(format!(
                        "redirect mismatch: VM {:?}, interpreter {:?}",
                        v.redirect, i.redirect
                    ))
                } else if vm_pkt != interp_pkt {
                    Some(format!(
                        "packet bytes diverged: VM {vm_pkt:02x?}, interpreter {interp_pkt:02x?}"
                    ))
                } else {
                    None
                }
            }
        };
        if let Some(why) = mismatch {
            // A VM trap on a verified program is a soundness bug even when
            // it surfaces through the differential path.
            let kind = if vm_out.is_err() {
                FailureKind::Soundness
            } else {
                FailureKind::Differential
            };
            let expected = interp_out.as_ref().ok().map(|o| o.ret);
            let shrunk = shrink_differential(&compiled.program, &vm_maps, cfg, &input, expected);
            return Some(Failure {
                seed,
                iteration,
                kind,
                detail: format!("{why}\npolicy source:\n{source}"),
                program: shrunk,
                input: Some(input),
            });
        }
    }
    None
}

/// Runs one program once on one input.
fn run_once(vm: &Vm, slot: syrup_ebpf::maps::ProgSlot, input: &FuzzInput) -> Result<u64, VmError> {
    let mut bytes = input.packet.clone();
    let mut ctx = PacketCtx::new(&mut bytes);
    let mut env = input.env();
    vm.run(slot, &mut ctx, &mut env).map(|out| out.ret)
}

/// Builds a shrunk soundness [`Failure`]: the minimized program still
/// verifies (under the same config) and still traps on the recorded input.
fn soundness_failure(
    seed: u64,
    iteration: u64,
    cfg: &VerifierConfig,
    prog: &Program,
    maps: &MapRegistry,
    input: FuzzInput,
    err: &VmError,
) -> Failure {
    let shrunk = shrink::shrink(&prog.insns, |cand| {
        let p = Program::new("shrunk", cand.to_vec());
        if verify_with_config(&p, maps, cfg).is_err() {
            return false;
        }
        let mut vm = Vm::new(maps.clone());
        let slot = vm.load_unverified(p);
        run_once(&vm, slot, &input).is_err()
    });
    Failure {
        seed,
        iteration,
        kind: FailureKind::Soundness,
        detail: format!("verifier accepted, VM trapped with {err:?}"),
        program: Program::new("shrunk", shrunk),
        input: Some(input),
    }
}

/// Shrinks a differential failure: the candidate must still verify and
/// still disagree with the interpreter's recorded verdict (or trap).
fn shrink_differential(
    prog: &Program,
    maps: &MapRegistry,
    cfg: &VerifierConfig,
    input: &FuzzInput,
    expected_ret: Option<u64>,
) -> Program {
    let shrunk = shrink::shrink(&prog.insns, |cand| {
        let p = Program::new("shrunk", cand.to_vec());
        if verify_with_config(&p, maps, cfg).is_err() {
            return false;
        }
        let mut vm = Vm::new(maps.clone());
        let slot = vm.load_unverified(p);
        match (run_once(&vm, slot, input), expected_ret) {
            (Err(_), _) => true,
            (Ok(got), Some(want)) => got != want,
            (Ok(_), None) => false,
        }
    });
    Program::new("shrunk", shrunk)
}

/// The structured reason string of a rejection (oracle 3's requirement
/// that rejections are never opaque).
pub fn structured_reason(err: &VerifierError) -> String {
    format!("{err:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrup_ebpf::vm::Backend;
    use syrup_ebpf::{AluOp, CmpOp, Insn, Operand, Reg, Width};

    #[test]
    fn prng_is_deterministic_and_nondegenerate() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        // Seed zero must not produce an all-zero stream.
        let mut z = Prng::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn clean_fuzz_small_batch_no_violations() {
        let report = run_fuzz(400, 0xFEED_1234);
        if let Some(f) = &report.failure {
            panic!("unexpected violation:\n{f}");
        }
        assert_eq!(report.iterations, 400);
        assert!(
            report.accepted > 0,
            "generator never produced a verifiable program"
        );
        assert!(report.rejected > 0, "rejection paths never exercised");
        assert!(report.vm_runs > 0);
        assert!(report.diff_checks > 0, "differential oracle never ran");
    }

    #[test]
    fn injected_packet_bounds_bug_is_caught() {
        // Weaken the verifier the way a real regression would: skip the
        // data_end proof. The soundness oracle must notice within the CI
        // fuzz budget of 2000 iterations.
        let cfg = VerifierConfig {
            assume_packet_in_bounds: true,
        };
        let report = run_fuzz_with_config(2000, 0xC0FFEE, &cfg);
        let failure = report
            .failure
            .expect("soundness oracle failed to catch the injected verifier bug");
        assert_eq!(failure.kind, FailureKind::Soundness);
        assert!(
            failure.program.len() <= 32,
            "shrunk program too large: {} insns\n{}",
            failure.program.len(),
            failure.program.disasm()
        );
        let text = failure.to_string();
        assert!(
            text.contains("seed 0x0000000000C0FFEE"),
            "report must print the reproducing seed:\n{text}"
        );
        assert!(text.contains("shrunk program"));
        // The minimized program must still reproduce: it verifies only
        // under the buggy config, and the reference interpreter traps on
        // the recorded input with a memory error.
        let maps = MapRegistry::new();
        let program = &failure.program;
        assert!(verify_with_config(program, &maps, &cfg).is_ok());
        assert!(syrup_ebpf::verify(program, &maps).is_err());
        let mut vm = Vm::new(maps.clone());
        vm.set_backend(Backend::Interp);
        let slot = vm.load_unverified(program.clone());
        let input = failure
            .input
            .expect("a soundness failure records its input");
        let trap = run_once(&vm, slot, &input).expect_err("the shrunk program must trap");
        assert!(matches!(trap, VmError::OutOfBounds { .. }), "{trap:?}");
    }

    #[test]
    fn shrinker_removes_dead_code_and_fixes_jumps() {
        // r0 = 0; jump over a dead store; r2 = 1 (dead); exit.
        let insns = vec![
            Insn::Alu {
                w: Width::W64,
                op: AluOp::Mov,
                dst: Reg::R0,
                src: Operand::Imm(0),
            },
            Insn::Jump { off: 1 },
            Insn::Alu {
                w: Width::W64,
                op: AluOp::Mov,
                dst: Reg::R0,
                src: Operand::Imm(7),
            },
            Insn::Alu {
                w: Width::W64,
                op: AluOp::Mov,
                dst: Reg::R2,
                src: Operand::Imm(1),
            },
            Insn::Exit,
        ];
        let maps = MapRegistry::new();
        // "Failure" predicate: program verifies and returns 0.
        let fails = |cand: &[Insn]| {
            let p = Program::new("t", cand.to_vec());
            if syrup_ebpf::verify(&p, &maps).is_err() {
                return false;
            }
            let mut vm = Vm::new(maps.clone());
            let slot = vm.load_unverified(p);
            let mut pkt = vec![0u8; 8];
            let mut ctx = PacketCtx::new(&mut pkt);
            let mut env = RunEnv::default();
            matches!(vm.run(slot, &mut ctx, &mut env), Ok(out) if out.ret == 0)
        };
        assert!(fails(&insns), "seed program must satisfy the predicate");
        let shrunk = shrink::shrink(&insns, fails);
        assert_eq!(
            shrunk.len(),
            2,
            "expected minimal [mov r0,0; exit], got:\n{}",
            Program::new("t", shrunk.clone()).disasm()
        );
        assert!(fails(&shrunk));
    }

    #[test]
    fn mutated_corpus_rejections_are_structured_and_deterministic() {
        let corpus = mutate::compiled_corpus();
        let mut rng = Prng::new(0xDEAD_BEEF);
        let mut rejected = 0;
        for i in 0..120 {
            let (base, maps) = &corpus[i % corpus.len()];
            let prog = Program::new("mut", mutate::mutate(&mut rng, &base.insns));
            let first = syrup_ebpf::verify(&prog, maps);
            let second = syrup_ebpf::verify(&prog, maps);
            assert_eq!(
                first,
                second,
                "verifier nondeterminism on {}",
                prog.disasm()
            );
            if let Err(e) = first {
                rejected += 1;
                assert!(!structured_reason(&e).is_empty());
            }
        }
        assert!(rejected > 0, "mutator never produced a rejected program");
    }

    #[test]
    fn failure_display_includes_seed_and_program() {
        let failure = Failure {
            seed: 0xABCD,
            iteration: 7,
            kind: FailureKind::Differential,
            detail: "ret mismatch".into(),
            program: Program::new(
                "p",
                vec![
                    Insn::Alu {
                        w: Width::W64,
                        op: AluOp::Mov,
                        dst: Reg::R0,
                        src: Operand::Imm(3),
                    },
                    Insn::Exit,
                ],
            ),
            input: None,
        };
        let text = failure.to_string();
        assert!(text.contains("seed 0x000000000000ABCD"));
        assert!(text.contains("--seed 0xABCD"));
        assert!(text.contains("shrunk program (2 insns)"));
        let _ = CmpOp::Eq; // silence unused-import pedantry in some cfgs
    }
}
