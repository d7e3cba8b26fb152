//! Differential oracle: interpreter vs fast execution backend.
//!
//! The fast backend ([`syrup_ebpf::Backend::Fast`], the default) claims the
//! interpreter's full observable contract: it runs every program that
//! verifies on the specialised engine, the rest whole on the interpreter. The
//! oracle hammers the claim with the same
//! three program sources as the main fuzz loop — structured bytecode
//! generation, corpus mutations, and random policy sources in the C subset
//! (including ranked returns) — running every program on *both* backends
//! against two identically-initialized worlds and asserting:
//!
//! * accepted by `verify()` ⇔ specialised: every program the verifier
//!   accepts has a specialised form, and no other does;
//! * identical verdicts: the full `Result<VmOutcome, VmError>` including
//!   return value, instruction and cycle totals, redirects, tail-call
//!   counts, and (for trapping programs, verified or not) the exact trap;
//! * identical packet bytes and `prandom` stream positions after each run;
//! * identical whole-map state ([`MapRef::entries`](syrup_ebpf::maps::MapRef::entries))
//!   after all runs;
//! * identical helper traces (per-helper call and cycle attribution from
//!   two independent profilers);
//! * a reference side that really ran on the interpreter (its
//!   `vm/runs_interp` counts every successful run).
//!
//! Divergences auto-shrink to a minimal instruction sequence with both
//! worlds rebuilt from scratch per candidate, and print a reproducing
//! seed, exactly like the soundness oracle's failures.

use std::fmt;

use syrup_ebpf::maps::{MapId, MapRegistry, ProgSlot};
use syrup_ebpf::vm::{Backend, PacketCtx, Vm};
use syrup_ebpf::{verify, Program};
use syrup_observe::profile::Profiler;
use syrup_observe::telemetry::Registry;

use crate::{gen, langgen, mutate, shrink, splitmix64, FuzzInput, Prng, Unspecialisable};

/// Counters summarizing one backend-diff run.
#[derive(Debug, Clone, Default)]
pub struct BackendDiffReport {
    /// Iterations actually executed (stops early on the first divergence).
    pub iterations: u64,
    /// Programs from the structured bytecode generator.
    pub generated: u64,
    /// Programs from mutating the policy corpus.
    pub mutated: u64,
    /// Random policy sources attempted.
    pub lang_sources: u64,
    /// Random policy sources that failed to compile (skipped, not a bug).
    pub lang_compile_errors: u64,
    /// Programs the verifier accepted.
    pub accepted: u64,
    /// Programs the verifier rejected — still executed on both backends,
    /// since trap behavior must match too.
    pub rejected: u64,
    /// Of those, the ones rejected for a shape the specialised engine
    /// cannot run.
    pub unspecialisable: Unspecialisable,
    /// Programs the fast side ran on the specialised engine.
    pub specialised: u64,
    /// Paired (interp, fast) executions compared.
    pub compared_runs: u64,
    /// Reference-side runs that completed on the interpreter.
    pub interpreted_runs: u64,
    /// The first divergence found, if any.
    pub divergence: Option<BackendDivergence>,
}

impl fmt::Display for BackendDiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} iterations: {} generated, {} mutated, {} lang sources \
             ({} compile errors); {} accepted, {} specialised, {} rejected \
             ({}); {} paired runs compared, {} completed on the reference \
             interpreter",
            self.iterations,
            self.generated,
            self.mutated,
            self.lang_sources,
            self.lang_compile_errors,
            self.accepted,
            self.specialised,
            self.rejected,
            self.unspecialisable,
            self.compared_runs,
            self.interpreted_runs
        )
    }
}

/// A reproducible interpreter/fast-backend disagreement.
#[derive(Debug, Clone)]
pub struct BackendDivergence {
    /// The master seed of the run that found this.
    pub seed: u64,
    /// Zero-based iteration at which the backends disagreed.
    pub iteration: u64,
    /// What diverged (outcome, packet, map state, helper trace).
    pub detail: String,
    /// The shrunk diverging program.
    pub program: Program,
    /// The input that reproduces the divergence, if input-dependent.
    pub input: Option<FuzzInput>,
}

impl fmt::Display for BackendDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "backend divergence at iteration {} (seed 0x{:016X})",
            self.iteration, self.seed
        )?;
        writeln!(
            f,
            "reproduce with: syrup-fuzz --backend-diff {} --seed 0x{:X}",
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

/// Runs `iters` backend-diff iterations from `seed`.
pub fn run_backend_diff(iters: u64, seed: u64) -> BackendDiffReport {
    let mut report = BackendDiffReport::default();
    let corpus = mutate::compiled_corpus();
    let entries = syrup_policies::corpus();
    for iteration in 0..iters {
        report.iterations = iteration + 1;
        // Distinct stream from the main fuzz loop so `--iters` and
        // `--backend-diff` under one seed explore different programs.
        let mut rng = Prng::new(seed ^ splitmix64(iteration.wrapping_add(1)) ^ 0xBD1F_BD1F);
        let divergence = match iteration % 4 {
            1 => {
                report.mutated += 1;
                let idx = rng.below(corpus.len() as u64) as usize;
                let prog = Program::new("diff-mut", mutate::mutate(&mut rng, &corpus[idx].0.insns));
                let entry = entries[idx].clone();
                let world = move || {
                    let maps = MapRegistry::new();
                    syrup_lang::compile(entry.source, &entry.opts, &maps)
                        .expect("corpus policy compiles");
                    maps
                };
                diff_program(&mut report, seed, iteration, &prog, &world, &mut rng)
            }
            3 => {
                report.lang_sources += 1;
                diff_lang(&mut report, seed, iteration, &mut rng)
            }
            _ => {
                report.generated += 1;
                let gen_maps = gen::GenMaps::new();
                let prog = gen::generate(&mut rng, &gen_maps);
                let world = || gen::GenMaps::new().registry;
                diff_program(&mut report, seed, iteration, &prog, &world, &mut rng)
            }
        };
        if divergence.is_some() {
            report.divergence = divergence;
            break;
        }
    }
    report
}

/// One paired world: a VM on each backend over identically-built
/// registries, the program loaded into both.
struct Worlds {
    interp: Vm,
    islot: ProgSlot,
    imaps: MapRegistry,
    iprof: Profiler,
    /// The reference side's telemetry.
    itel: Registry,
    fast: Vm,
    fslot: ProgSlot,
    fmaps: MapRegistry,
    fprof: Profiler,
}

fn build_worlds(prog: &Program, world: &dyn Fn() -> MapRegistry, profile: bool) -> Worlds {
    let imaps = world();
    let fmaps = world();
    let mut interp = Vm::new(imaps.clone());
    interp.set_backend(Backend::Interp);
    let itel = Registry::new();
    interp.attach_telemetry(&itel);
    let mut fast = Vm::new(fmaps.clone());
    fast.set_backend(Backend::Fast);
    let (iprof, fprof) = if profile {
        (Profiler::new(), Profiler::new())
    } else {
        (Profiler::disabled(), Profiler::disabled())
    };
    interp.attach_profiler(&iprof);
    fast.attach_profiler(&fprof);
    let islot = interp.load_unverified(prog.clone());
    let fslot = fast.load_unverified(prog.clone());
    Worlds {
        interp,
        islot,
        imaps,
        iprof,
        itel,
        fast,
        fslot,
        fmaps,
        fprof,
    }
}

/// Runs one input through both backends; `Some(detail)` on divergence.
fn compare_one(w: &Worlds, input: &FuzzInput) -> Option<String> {
    let mut pkt_i = input.packet.clone();
    let mut pkt_f = input.packet.clone();
    let mut env_i = input.env();
    let mut env_f = input.env();
    let out_i = {
        let mut ctx = PacketCtx::new(&mut pkt_i);
        w.interp.run(w.islot, &mut ctx, &mut env_i)
    };
    let out_f = {
        let mut ctx = PacketCtx::new(&mut pkt_f);
        w.fast.run(w.fslot, &mut ctx, &mut env_f)
    };
    if out_i != out_f {
        return Some(format!("outcome: interp {out_i:?}, fast {out_f:?}"));
    }
    if pkt_i != pkt_f {
        return Some(format!(
            "packet bytes: interp {pkt_i:02x?}, fast {pkt_f:02x?}"
        ));
    }
    if env_i.prandom_state != env_f.prandom_state {
        return Some(format!(
            "prandom stream: interp 0x{:x}, fast 0x{:x}",
            env_i.prandom_state, env_f.prandom_state
        ));
    }
    None
}

/// Compares whole-map state across two registries built the same way.
pub(crate) fn compare_maps(a: &MapRegistry, b: &MapRegistry) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("map count: interp {}, fast {}", a.len(), b.len()));
    }
    for i in 0..a.len() as u32 {
        let (ma, mb) = match (a.get(MapId(i)), b.get(MapId(i))) {
            (Some(ma), Some(mb)) => (ma, mb),
            other => return Some(format!("map {i} missing on one side: {other:?}")),
        };
        match (ma.entries(), mb.entries()) {
            (Ok(ea), Ok(eb)) => {
                if ea != eb {
                    return Some(format!(
                        "map {i} state: interp {} entries {ea:02x?}, fast {} entries {eb:02x?}",
                        ea.len(),
                        eb.len()
                    ));
                }
            }
            // Prog-arrays hold programs, not data; nothing to compare.
            (Err(_), Err(_)) => {}
            (ea, eb) => return Some(format!("map {i} kind mismatch: {ea:?} vs {eb:?}")),
        }
    }
    None
}

/// Compares per-helper call/cycle attribution between the two sides'
/// profilers — the "helper traces" half of the oracle.
fn compare_helper_traces(iprof: &Profiler, fprof: &Profiler) -> Option<String> {
    let table = |p: &Profiler| {
        let mut rows: Vec<(String, u64, u64)> = p
            .report(None, 64)
            .helpers
            .into_iter()
            .map(|h| (h.helper, h.calls, h.cycles))
            .collect();
        rows.sort();
        rows
    };
    let a = table(iprof);
    let b = table(fprof);
    if a != b {
        return Some(format!("helper traces: interp {a:?}, fast {b:?}"));
    }
    None
}

/// Shrinks a diverging program: the candidate must still diverge on the
/// recorded input (or in final map state) with both worlds rebuilt.
fn shrink_divergence(
    prog: &Program,
    world: &dyn Fn() -> MapRegistry,
    inputs: &[FuzzInput],
) -> Program {
    let shrunk = shrink::shrink(&prog.insns, |cand| {
        let p = Program::new("shrunk", cand.to_vec());
        let w = build_worlds(&p, world, false);
        for input in inputs {
            if compare_one(&w, input).is_some() {
                return true;
            }
        }
        compare_maps(&w.imaps, &w.fmaps).is_some()
    });
    Program::new("shrunk", shrunk)
}

/// Runs one bytecode program through the full oracle.
fn diff_program(
    report: &mut BackendDiffReport,
    seed: u64,
    iteration: u64,
    prog: &Program,
    world: &dyn Fn() -> MapRegistry,
    rng: &mut Prng,
) -> Option<BackendDivergence> {
    // Trap behavior must match on *rejected* programs too — run them,
    // just with a smaller input budget (they usually trap immediately).
    let verdict = verify(prog, &world());
    let verified = verdict.is_ok();
    let n_inputs = if verified { 4 } else { 2 };
    match &verdict {
        Ok(_) => report.accepted += 1,
        Err(reason) => {
            report.rejected += 1;
            report.unspecialisable.count(reason);
        }
    }
    let w = build_worlds(prog, world, true);
    let specialised = w.fast.decoded(w.fslot).is_some();
    if specialised {
        report.specialised += 1;
    }
    if specialised != verified {
        return Some(BackendDivergence {
            seed,
            iteration,
            detail: format!(
                "verify() gives {:?}, but specialised is {specialised}",
                verdict.map(|_| ())
            ),
            program: prog.clone(),
            input: None,
        });
    }
    let inputs: Vec<FuzzInput> = (0..n_inputs).map(|_| FuzzInput::random(rng)).collect();
    let mut seen: Vec<FuzzInput> = Vec::new();
    for input in inputs {
        report.compared_runs += 1;
        seen.push(input.clone());
        if let Some(detail) = compare_one(&w, &input) {
            return Some(BackendDivergence {
                seed,
                iteration,
                detail,
                program: shrink_divergence(prog, world, &seen),
                input: Some(input),
            });
        }
    }
    let snap = w.itel.snapshot();
    let interpreted = snap.counter("vm/runs_interp");
    report.interpreted_runs += interpreted;
    let detail = compare_maps(&w.imaps, &w.fmaps)
        .or_else(|| compare_helper_traces(&w.iprof, &w.fprof))
        .or_else(|| {
            let runs = snap.counter("vm/runs");
            (runs != interpreted)
                .then(|| format!("reference side: {runs} runs, {interpreted} on the interpreter"))
        })?;
    Some(BackendDivergence {
        seed,
        iteration,
        detail,
        program: shrink_divergence(prog, world, &seen),
        input: None,
    })
}

/// Compiles one random policy source and runs it through the oracle.
fn diff_lang(
    report: &mut BackendDiffReport,
    seed: u64,
    iteration: u64,
    rng: &mut Prng,
) -> Option<BackendDivergence> {
    let source = langgen::generate(rng);
    let opts = syrup_lang::CompileOptions::new();
    let probe = MapRegistry::new();
    let prog = match syrup_lang::compile(&source, &opts, &probe) {
        Ok(c) => c.program,
        Err(_) => {
            report.lang_compile_errors += 1;
            return None;
        }
    };
    let world = {
        let source = source.clone();
        let opts = opts.clone();
        move || {
            let maps = MapRegistry::new();
            syrup_lang::compile(&source, &opts, &maps).expect("compiled once already");
            maps
        }
    };
    let mut divergence = diff_program(report, seed, iteration, &prog, &world, rng)?;
    divergence.detail = format!("{}\npolicy source:\n{source}", divergence.detail);
    Some(divergence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrup_ebpf::maps::MapDef;

    #[test]
    fn clean_backend_diff_small_batch_no_divergence() {
        let report = run_backend_diff(200, 0xD1FF_5EED);
        if let Some(d) = &report.divergence {
            panic!("unexpected backend divergence:\n{d}");
        }
        assert_eq!(report.iterations, 200);
        assert!(report.generated > 0);
        assert!(report.mutated > 0);
        assert!(report.lang_sources > 0);
        assert!(report.compared_runs > 0);
        assert!(report.specialised > 0, "the specialised engine never ran");
        assert_eq!(report.accepted, report.specialised);
        assert!(report.interpreted_runs > 0, "the reference never ran");
        assert!(
            report.rejected > 0,
            "trap-path comparison never exercised (no rejected programs ran)"
        );
    }

    #[test]
    fn map_state_comparison_detects_planted_difference() {
        let a = MapRegistry::new();
        let b = MapRegistry::new();
        let ma = a.create(MapDef::u64_array(4));
        let _ = b.create(MapDef::u64_array(4));
        assert!(compare_maps(&a, &b).is_none());
        a.get(ma).unwrap().update_u64(2, 99).unwrap();
        let detail = compare_maps(&a, &b).expect("planted difference missed");
        assert!(detail.contains("map 0"), "unhelpful detail: {detail}");
    }
}
