//! The daemon's published dispatch table: independent apps scheduled from
//! independent threads, redeploys racing callers, the table against a
//! model, and instruments attached after deployment.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::SeqCst};
use std::sync::Barrier;

use proptest::prelude::*;

use syrup::core::{AppId, CompileOptions, Decision, Hook, HookMeta, PolicySource, Syrupd, Verdict};
use syrup::ebpf::vm::Backend;
use syrup::ebpf::{ret, Asm, Reg};

fn meta(port: u16, now_ns: u64) -> HookMeta {
    HookMeta {
        dst_port: port,
        now_ns,
        ..HookMeta::default()
    }
}

/// Bytecode that always answers `executor` at `rank`.
fn constant(executor: u32, rank: u32) -> PolicySource {
    let prog = Asm::new()
        .load_imm64(Reg::R0, ret::with_rank(u64::from(executor), rank) as i64)
        .exit()
        .build("constant")
        .unwrap();
    PolicySource::Bytecode(prog)
}

/// A native policy that always answers `executor` at `rank`.
fn native_constant(executor: u32, rank: u32) -> PolicySource {
    struct Constant(Verdict);
    impl syrup::core::PacketPolicy for Constant {
        fn schedule(&mut self, _pkt: &mut [u8], _meta: &HookMeta) -> Decision {
            self.0.decision
        }
        fn schedule_verdict(&mut self, _pkt: &mut [u8], _meta: &HookMeta) -> Verdict {
            self.0
        }
    }
    PolicySource::Native(Box::new(Constant(Verdict {
        decision: Decision::Executor(executor),
        rank,
    })))
}

// ---------------------------------------------------------------------
// (a) N threads, one app each, against the same calls made by one thread.
// ---------------------------------------------------------------------

const CALLS_PER_APP: u64 = 400;

/// Stateful twice over: a counter in the globals map and the policy's own
/// `get_random()` stream, so a verdict depends on every earlier call of
/// the same app and on no call of any other.
fn stateful_policy(executors: i64) -> PolicySource {
    PolicySource::C {
        source: "
            uint32_t idx = 0;
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                idx++;
                return (idx + get_random()) % NUM_THREADS;
            }"
        .to_string(),
        options: CompileOptions::new().define("NUM_THREADS", executors),
    }
}

fn daemon_with_apps(n: usize) -> (Syrupd, Vec<(AppId, u16)>) {
    let daemon = Syrupd::new();
    let apps = (0..n)
        .map(|i| {
            let port = 7000 + i as u16;
            let (app, _) = daemon.register_app(format!("app-{i}"), &[port]).unwrap();
            daemon
                .deploy(app, Hook::SocketSelect, stateful_policy(3 + i as i64))
                .unwrap();
            (app, port)
        })
        .collect();
    (daemon, apps)
}

fn call_loop(daemon: &Syrupd, app: AppId, port: u16) -> Vec<Decision> {
    let mut pkt = [0u8; 32];
    (0..CALLS_PER_APP)
        .map(|i| {
            let (owner, decision) = daemon.schedule(Hook::SocketSelect, &mut pkt, &meta(port, i));
            assert_eq!(owner, Some(app));
            decision
        })
        .collect()
}

fn run_cycles(daemon: &Syrupd) -> u64 {
    daemon
        .telemetry_snapshot()
        .histogram("vm/run_cycles")
        .expect("the VM publishes run_cycles")
        .sum()
}

#[test]
fn threads_with_an_app_each_see_what_one_thread_sees() {
    for n in [2usize, 4] {
        let (alone, apps) = daemon_with_apps(n);
        let expected: Vec<Vec<Decision>> = apps
            .iter()
            .map(|&(app, port)| call_loop(&alone, app, port))
            .collect();

        let (shared, shared_apps) = daemon_with_apps(n);
        assert_eq!(shared_apps, apps);
        let start = Barrier::new(n);
        let got: Vec<Vec<Decision>> = std::thread::scope(|s| {
            let handles: Vec<_> = apps
                .iter()
                .map(|&(app, port)| {
                    let (shared, start) = (&shared, &start);
                    s.spawn(move || {
                        start.wait();
                        call_loop(shared, app, port)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        assert_eq!(got, expected, "{n} threads");
        for &(app, _) in &apps {
            assert_eq!(
                shared
                    .app_snapshot(app)
                    .counter("socket-select/invocations"),
                CALLS_PER_APP
            );
        }
        assert_eq!(run_cycles(&shared), run_cycles(&alone), "{n} threads");
        let snap = shared.telemetry_snapshot();
        assert_eq!(snap.counter("syrupd/dispatches"), CALLS_PER_APP * n as u64);
        assert_eq!(snap.counter("vm/traps"), 0);
    }
}

// ---------------------------------------------------------------------
// (b) Redeploy and undeploy racing a caller on the same port.
// ---------------------------------------------------------------------

#[test]
fn a_caller_racing_redeploys_sees_the_old_or_the_new_policy() {
    const PORT: u16 = 9100;
    const ROUNDS: u32 = 40;
    let daemon = Syrupd::new();
    let (app, _) = daemon.register_app("live", &[PORT]).unwrap();
    // Generation g answers executor g; which engine runs it cycles through
    // eBPF→eBPF, eBPF→native and native→eBPF.
    let policy = |generation: u32| match generation % 3 {
        2 => native_constant(generation, 0),
        _ => constant(generation, 0),
    };
    daemon.deploy(app, Hook::SocketSelect, policy(0)).unwrap();

    // `deploying` is the newest generation whose `deploy` was called and
    // `deployed` the newest whose `deploy` returned: a call must be
    // answered by a generation between the `deployed` it read before and
    // the `deploying` it read after. `undeploying` is raised before
    // `undeploy` is called and `undeployed` after it returned.
    let deploying = AtomicU32::new(0);
    let deployed = AtomicU32::new(0);
    let undeploying = AtomicBool::new(false);
    let undeployed = AtomicBool::new(false);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        let caller = s.spawn(|| {
            let mut pkt = [0u8; 16];
            let mut calls_after_undeploy = 0;
            start.wait();
            while calls_after_undeploy < 100 {
                let gone_before = undeployed.load(SeqCst);
                let oldest = deployed.load(SeqCst);
                let got = daemon.schedule(Hook::SocketSelect, &mut pkt, &meta(PORT, 0));
                let newest = deploying.load(SeqCst);
                let going_after = undeploying.load(SeqCst);
                match got {
                    (Some(owner), Decision::Executor(generation)) => {
                        assert_eq!(owner, app);
                        assert!(!gone_before, "a policy answered after undeploy returned");
                        assert!(
                            (oldest..=newest).contains(&generation),
                            "policy {generation} answered, {oldest} to {newest} were live"
                        );
                    }
                    (None, Decision::Pass) => {
                        assert!(going_after, "unowned before undeploy was called");
                    }
                    // An owned PASS included: a call runs the policy of
                    // the table it fetched, or finds no route at all.
                    other => panic!("neither policy's verdict: {other:?}"),
                }
                if gone_before {
                    assert_eq!(got, (None, Decision::Pass));
                    calls_after_undeploy += 1;
                }
            }
        });

        start.wait();
        for generation in 1..=ROUNDS {
            deploying.store(generation, SeqCst);
            daemon
                .deploy(app, Hook::SocketSelect, policy(generation))
                .unwrap();
            deployed.store(generation, SeqCst);
        }
        undeploying.store(true, SeqCst);
        daemon.undeploy(app, Hook::SocketSelect);
        undeployed.store(true, SeqCst);
        caller.join().unwrap();
    });

    let snap = daemon.telemetry_snapshot();
    assert_eq!(snap.counter("vm/traps"), 0);
    assert_eq!(daemon.app_snapshot(app).counter("socket-select/traps"), 0);
    assert_eq!(snap.counter("syrupd/deploys"), u64::from(ROUNDS) + 1);
}

// ---------------------------------------------------------------------
// (c) The published table against a model, one control operation at a time.
// ---------------------------------------------------------------------

/// Ports each candidate app asks for, the extremes included.
const PORT_SETS: [&[u16]; 4] = [&[0, 100], &[65535], &[7, 8, 9], &[500]];
const PROBES: [u16; 10] = [0, 1, 7, 8, 9, 100, 500, 501, 65534, 65535];
const HOOKS: [Hook; 2] = [Hook::SocketSelect, Hook::XdpDrv];

/// What candidate `i`'s policy answers: the executor tells the native
/// policy from the bytecode one, the rank tells the candidates apart.
fn answer(i: usize, native: bool) -> Verdict {
    Verdict {
        decision: Decision::Executor(i as u32 + if native { 10 } else { 1 }),
        rank: 40 + i as u32,
    }
}

proptest! {
    #[test]
    fn table_matches_model(ops in prop::collection::vec((0u8..5, 0usize..4, 0usize..2), 1..60)) {
        let daemon = Syrupd::new();
        let mut ids: [Option<AppId>; 4] = [None; 4];
        // (hook, port) → (owner, ranked): what `schedule_verdict` must say.
        let mut model: BTreeMap<(Hook, u16), (AppId, bool)> = BTreeMap::new();
        let mut ranked: BTreeMap<(AppId, Hook), bool> = BTreeMap::new();
        let mut native: BTreeMap<(AppId, Hook), bool> = BTreeMap::new();

        for (op, i, h) in ops {
            let hook = HOOKS[h];
            let Some(app) = ids[i] else {
                // Every operation on an unregistered candidate registers it.
                let (app, _) = daemon.register_app(format!("app-{i}"), PORT_SETS[i]).unwrap();
                ids[i] = Some(app);
                continue;
            };
            match op {
                0 | 1 => {
                    let is_native = op == 1;
                    let want = answer(i, is_native);
                    let Decision::Executor(executor) = want.decision else { unreachable!() };
                    let source = if is_native {
                        native_constant(executor, want.rank)
                    } else {
                        constant(executor, want.rank)
                    };
                    daemon.deploy(app, hook, source).unwrap();
                    native.insert((app, hook), is_native);
                    for &port in PORT_SETS[i] {
                        let on = ranked.get(&(app, hook)).copied().unwrap_or(false);
                        model.insert((hook, port), (app, on));
                    }
                }
                2 => {
                    daemon.undeploy(app, hook);
                    model.retain(|&(at, _), &mut (owner, _)| (at, owner) != (hook, app));
                }
                3 => {
                    daemon.enable_ranks(app, hook);
                    prop_assert!(daemon.ranks_enabled(app, hook));
                    ranked.insert((app, hook), true);
                    for (&(at, _), entry) in model.iter_mut() {
                        if (at, entry.0) == (hook, app) {
                            entry.1 = true;
                        }
                    }
                }
                // A second registration of owned ports is refused and
                // changes nothing.
                _ => prop_assert!(daemon.register_app("thief", PORT_SETS[i]).is_err()),
            }

            let mut pkt = [0u8; 8];
            for hook in HOOKS {
                for port in PROBES {
                    let got = daemon.schedule_verdict(hook, &mut pkt, &meta(port, 0));
                    let want = match model.get(&(hook, port)) {
                        None => (None, Verdict::unranked(Decision::Pass)),
                        Some(&(owner, on)) => {
                            let i = ids.iter().position(|id| *id == Some(owner)).unwrap();
                            let mut verdict = answer(i, native[&(owner, hook)]);
                            if !on {
                                verdict.rank = 0;
                            }
                            (Some(owner), verdict)
                        }
                    };
                    prop_assert_eq!(got, want, "{} port {}", hook, port);
                }
            }
            let mut rows = daemon.deployed();
            rows.sort();
            let mut want_rows: Vec<(AppId, Hook, bool)> = model
                .iter()
                .map(|(&(hook, _), &(owner, _))| (owner, hook, native[&(owner, hook)]))
                .collect();
            want_rows.sort();
            want_rows.dedup();
            prop_assert_eq!(rows, want_rows);
        }
        prop_assert_eq!(daemon.telemetry_snapshot().counter("vm/traps"), 0);
    }
}

// ---------------------------------------------------------------------
// (d) Instruments attached after `deploy` bind on the next call.
// ---------------------------------------------------------------------

#[test]
fn instruments_attached_after_deploy_take_effect_on_the_next_call() {
    const PORT: u16 = 8080;
    let daemon = Syrupd::new();
    let (app, _) = daemon.register_app("late", &[PORT]).unwrap();
    daemon
        .deploy(app, Hook::SocketSelect, constant(5, 0))
        .unwrap();
    let mut pkt = [0u8; 16];
    let mut call = |m: &HookMeta| daemon.schedule(Hook::SocketSelect, &mut pkt, m);
    assert_eq!(call(&meta(PORT, 1)), (Some(app), Decision::Executor(5)));

    let tracer = syrup::trace::Tracer::new();
    daemon.attach_tracer(&tracer);
    assert!(daemon.tracer().is_enabled());
    let traced = HookMeta {
        trace: tracer.ingress(2),
        ..meta(PORT, 2)
    };
    call(&traced);
    let stages: Vec<_> = tracer.drain().iter().map(|r| r.stage).collect();
    assert!(
        stages.contains(&syrup::trace::Stage::SocketSelect),
        "{stages:?}"
    );
    assert!(stages.contains(&syrup::trace::Stage::VmExec), "{stages:?}");

    let recorder = syrup::blackbox::Recorder::new();
    daemon.attach_blackbox(&recorder);
    call(&meta(PORT, 3));
    let events = recorder.events(syrup::blackbox::Layer::Syrupd);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].at_ns, 3);

    let profiler = syrup::profile::Profiler::new();
    daemon.attach_profiler(&profiler);
    call(&meta(PORT, 4));
    let report = profiler.report(None, 8);
    assert_eq!(report.runs, 1);
    assert!(report.hotspots.iter().all(|h| h.insn.is_some()));

    // A daemon starts on `Backend::default()`; `set_backend` moves the
    // next call to the other engine.
    let (first, second) = match daemon.backend() {
        Backend::Interp => (Backend::Interp, Backend::Fast),
        Backend::Fast => (Backend::Fast, Backend::Interp),
    };
    daemon.set_backend(second);
    assert_eq!(daemon.backend(), second);
    assert_eq!(call(&meta(PORT, 5)), (Some(app), Decision::Executor(5)));
    let snap = daemon.telemetry_snapshot();
    assert_eq!(snap.counter(&format!("vm/runs_{second}")), 1);
    assert_eq!(snap.counter(&format!("vm/runs_{first}")), 4);
    // The earlier attachments survive the later ones.
    assert_eq!(recorder.events(syrup::blackbox::Layer::Syrupd).len(), 3);
    assert_eq!(profiler.report(None, 8).runs, 2);
}
