//! The profiled quickstart, plain and ranked, on the daemon's default
//! engine: the profiler attributes exactly the cycles the VM accounts
//! for, the folded flamegraph carries exactly the attributed cycles, and
//! attaching it changes nothing the daemon's telemetry can see.
//! (`backend_equivalence.rs` profiles each bytecode policy of the
//! quickstart on both engines.)

use syrup::apps::quickstart;
use syrup::ebpf::vm::Backend;
use syrup::profile::Profiler;
use syrup::trace::Tracer;

const REQUESTS: usize = 48;

#[test]
fn profiler_is_exact_and_observes_without_perturbing() {
    for ranked in [false, true] {
        let variant = format!("ranked {ranked}");
        let tracer = Tracer::disabled();
        let profiler = Profiler::new();
        let run_with = |profiler: &Profiler| {
            let recorder = syrup::blackbox::Recorder::disabled();
            quickstart::run_driven(
                &tracer,
                profiler,
                &recorder,
                REQUESTS,
                ranked,
                1,
                &mut |_, _, _| {},
            )
        };
        let plain = run_with(&Profiler::disabled());
        let profiled = run_with(&profiler);
        assert_eq!(profiled.syrupd.backend(), Backend::Fast, "{variant}");

        // Observe, don't perturb.
        assert_eq!(plain.completed, profiled.completed, "{variant}");
        let telemetry = profiled.syrupd.telemetry_snapshot();
        assert_eq!(plain.syrupd.telemetry_snapshot(), telemetry, "{variant}");

        // Every cycle the VM accounted for sits in some (prog, pc)
        // bucket, and nothing else does.
        let run_cycles = telemetry
            .histogram("vm/run_cycles")
            .expect("vm publishes run_cycles");
        let report = profiler.report(Some(run_cycles.sum()), usize::MAX);
        assert_eq!(report.attributed_cycles, run_cycles.sum(), "{variant}");
        assert_eq!(report.coverage, 1.0, "{variant}");
        assert_eq!(report.runs, run_cycles.count(), "{variant}");
        // The XDP policy always runs on the VM; the ranked scenario's
        // socket-select policy does too.
        let vm_hooks = if ranked { 2 } else { 1 };
        assert_eq!(report.runs, (vm_hooks * REQUESTS) as u64, "{variant}");
        let by_pc: u64 = report.hotspots.iter().map(|h| h.cycles).sum();
        assert_eq!(by_pc, report.attributed_cycles, "{variant}");

        // The flamegraph folds the same cycles under full chains.
        let flame = profiler.flame();
        let folded: u64 = flame
            .lines()
            .map(|l| l.rsplit_once(' ').expect("frames count").1)
            .map(|count| count.parse::<u64>().expect("numeric count"))
            .sum();
        assert_eq!(folded, report.attributed_cycles, "{variant}");
        assert!(
            flame.lines().all(|l| l.starts_with("vm;syrupd_dispatch;")),
            "{variant}: {flame}"
        );
    }
}
