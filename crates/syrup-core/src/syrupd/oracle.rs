//! The differential oracle for direct dispatch: a daemon entering policies
//! the way `schedule` does against a twin running the §4.3 root program
//! for every input. Whatever either side can observe must agree.

use syrup_ebpf::maps::MapEntries;
use syrup_ebpf::Asm;
use syrup_observe::blackbox::{Layer, Recorder};
use syrup_observe::profile::Profiler;
use syrup_policies::c_sources::table2;

use super::*;
use crate::CompileOptions;

/// One side of the comparison, every sink attached.
struct Side {
    daemon: Syrupd,
    profiler: Profiler,
    recorder: Recorder,
    /// What the VM handed back for each bytecode dispatch.
    runs: Vec<Result<VmOutcome, VmError>>,
    /// What `schedule_verdict` answered and left in the packet.
    answers: Vec<(Option<AppId>, Verdict, Vec<u8>)>,
}

impl Side {
    fn new(backend: Backend) -> Side {
        let daemon = Syrupd::new();
        daemon.set_backend(backend);
        let (profiler, recorder) = (Profiler::new(), Recorder::new());
        // The first trap would otherwise freeze the rings.
        recorder.arm(syrup_observe::blackbox::TriggerCause::VmTrap, false);
        daemon.attach_profiler(&profiler);
        daemon.attach_blackbox(&recorder);
        Side {
            daemon,
            profiler,
            recorder,
            runs: Vec::new(),
            answers: Vec::new(),
        }
    }

    /// One input, entered directly or through the hook's root program.
    fn call(&mut self, through_root: bool, hook: Hook, mut pkt: Vec<u8>, meta: &HookMeta) {
        let root = self.daemon.control.lock().hooks[&hook].root_slot;
        let runs = &mut self.runs;
        let (app, verdict) =
            self.daemon
                .schedule_entering(hook, &mut pkt, meta, |vm, path, ctx, env| {
                    let result = if through_root {
                        vm.run(root, ctx, env)
                    } else {
                        vm.run_after(path, ctx, env)
                    };
                    runs.push(result.clone());
                    result
                });
        self.answers.push((app, verdict, pkt));
    }

    /// Every data map's contents and every bytecode policy's `prandom`
    /// state.
    fn state(&self) -> (Vec<MapEntries>, Vec<u64>) {
        let registry = self.daemon.registry();
        let maps = (0..registry.len() as u32)
            .filter_map(|id| registry.get(MapId(id))?.entries().ok())
            .collect();
        let control = self.daemon.control.lock();
        let mut streams: Vec<(Hook, AppId, u64)> = Vec::new();
        for (hook, hs) in &control.hooks {
            for (app, slot) in &hs.policies {
                if let Exec::Ebpf(env) = &*slot.exec.lock() {
                    streams.push((*hook, *app, env.prandom_state));
                }
            }
        }
        streams.sort();
        (maps, streams.into_iter().map(|s| s.2).collect())
    }
}

fn c(source: &str) -> PolicySource {
    PolicySource::C {
        source: source.to_string(),
        options: CompileOptions::new(),
    }
}

/// Deploys the scenario on `d`: the four Table-2 policies, a constant, a
/// `get_random()` caller, a native policy, and bytecode that redirects,
/// tail-calls itself up to the cap, and traps — on one- and three-port
/// apps over two hooks. Returns the `(hook, port)` pairs to aim at.
fn scenario(d: &Syrupd) -> Vec<(Hook, u16)> {
    let registry = d.registry().clone();
    let mut targets = Vec::new();
    let mut next_port = 7000u16;
    let mut add = |hook: Hook, ports: usize, source: &dyn Fn(&[MapId]) -> PolicySource| {
        let owned: Vec<u16> = (next_port..).take(ports).collect();
        next_port += 10;
        let (app, _) = d.register_app(format!("app-{}", owned[0]), &owned).unwrap();
        // Maps a bytecode policy names exist before it is verified.
        let maps = [
            registry.create(MapDef::u64_hash(4)),
            registry.create(MapDef::prog_array(1)),
        ];
        let handle = d.deploy(app, hook, source(&maps)).unwrap();
        // Something in every declared map, so lookups hit and miss.
        for path in handle.pinned_maps.values() {
            let map = registry.open(path).unwrap();
            for key in 0..4 {
                let _ = map.update_u64(key, u64::from(key % 3));
            }
        }
        targets.extend(owned.iter().map(|&port| (hook, port)));
        (app, maps)
    };

    for (i, entry) in table2(4).into_iter().enumerate() {
        let hook = [Hook::SocketSelect, Hook::XdpDrv][i % 2];
        add(hook, 1 + 2 * (i % 2), &|_| PolicySource::C {
            source: entry.source.to_string(),
            options: entry.opts.clone(),
        });
    }
    add(Hook::SocketSelect, 3, &|_| {
        c("uint32_t schedule(void *a, void *b) { return 5; }")
    });
    add(Hook::XdpDrv, 1, &|_| {
        c("uint32_t schedule(void *a, void *b) { return get_random() % 8; }")
    });
    add(Hook::SocketSelect, 1, &|_| {
        PolicySource::Native(Box::new(|_: &mut [u8], m: &HookMeta| {
            Decision::Executor(m.rx_queue)
        }))
    });
    add(Hook::XdpDrv, 3, &|maps| {
        let redirect = Asm::new()
            .ldx_dw(Reg::R2, Reg::R1, 16) // META0 = rx queue
            .load_map_fd(Reg::R1, maps[0])
            .mov64_imm(Reg::R3, 0)
            .call(HelperId::RedirectMap)
            .exit()
            .build("redirect")
            .unwrap();
        PolicySource::Bytecode(redirect)
    });
    // Tail-calls itself until the kernel's cap fails the call; its twin's
    // prog-array names a slot nothing was ever loaded into, which traps.
    let chain = |maps: &[MapId]| {
        let chain = Asm::new()
            .load_map_fd(Reg::R2, maps[1])
            .mov64_imm(Reg::R3, 0)
            .call(HelperId::TailCall)
            .mov64_imm(Reg::R0, 9)
            .exit()
            .build("chain")
            .unwrap();
        PolicySource::Bytecode(chain)
    };
    let (app, maps) = add(Hook::XdpDrv, 1, &chain);
    let own = d.control.lock().hooks[&Hook::XdpDrv].policies[&app].prog;
    registry.get(maps[1]).unwrap().set_prog(0, own).unwrap();
    let (_, maps) = add(Hook::SocketSelect, 1, &chain);
    let nowhere = Some(ProgSlot(1 << 20));
    registry.get(maps[1]).unwrap().set_prog(0, nowhere).unwrap();
    // A hook with policies and a port nobody owns.
    targets.push((Hook::SocketSelect, 6999));
    targets
}

#[test]
fn direct_entry_is_the_root_program() {
    for backend in [Backend::Interp, Backend::Fast] {
        let (mut direct, mut rooted) = (Side::new(backend), Side::new(backend));
        let targets = scenario(&direct.daemon);
        assert_eq!(scenario(&rooted.daemon), targets);

        let mut state: u64 = 0x5EED_CAFE_F00D_1234;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let lens = [0usize, 1, 7, 8, 16, 28, 33, 64];
        for i in 0..600u64 {
            let (hook, port) = targets[(next() % targets.len() as u64) as usize];
            let len = lens[(next() % lens.len() as u64) as usize];
            let pkt: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let meta = HookMeta {
                dst_port: port,
                now_ns: 1_000 + i * 137,
                cpu: (next() % 4) as u32,
                rx_queue: (next() % 8) as u32,
                ..HookMeta::default()
            };
            direct.call(false, hook, pkt.clone(), &meta);
            rooted.call(true, hook, pkt, &meta);
        }

        // Every `VmOutcome` field and every trap kind, call by call.
        assert_eq!(direct.runs, rooted.runs, "{backend}");
        assert_eq!(direct.answers, rooted.answers, "{backend}");
        let caps = |runs: &[Result<VmOutcome, VmError>]| {
            let capped = |r: &&Result<VmOutcome, VmError>| matches!(r, Ok(out) if out.tail_calls == syrup_ebpf::vm::MAX_TAIL_CALLS);
            runs.iter().filter(capped).count()
        };
        assert!(direct.runs.iter().any(|r| r.is_err()), "nothing trapped");
        assert!(caps(&direct.runs) > 0, "nothing reached the tail-call cap");
        assert!(direct
            .runs
            .iter()
            .any(|r| matches!(r, Ok(out) if out.redirect.is_some())));

        assert_eq!(direct.state(), rooted.state(), "{backend}");
        // `vm/*`, `syrupd/*` and every `app<id>/<hook>/*`.
        assert_eq!(
            direct.daemon.telemetry_snapshot(),
            rooted.daemon.telemetry_snapshot(),
            "{backend}"
        );
        // The recorder keeps every decision record, so the `Syrupd`
        // layer's equality covers all of them.
        assert_eq!(direct.recorder.dropped(Layer::Syrupd), 0);
        for layer in [Layer::Vm, Layer::Syrupd] {
            assert_eq!(
                direct.recorder.events(layer),
                rooted.recorder.events(layer),
                "{backend} {layer:?}"
            );
        }
        let vm_events = direct.recorder.events(Layer::Vm);
        let tail_caps = vm_events
            .iter()
            .filter(|e| e.kind == syrup_observe::blackbox::EventKind::VmTailCap)
            .count();
        assert_eq!(tail_caps, caps(&direct.runs));

        // The per-(prog, pc) table, the helper table and the folded stacks.
        let total = direct
            .daemon
            .telemetry_snapshot()
            .histogram("vm/run_cycles")
            .unwrap()
            .sum();
        let report = direct.profiler.report(Some(total), usize::MAX);
        assert_eq!(report, rooted.profiler.report(Some(total), usize::MAX));
        assert_eq!(direct.profiler.flame(), rooted.profiler.flame());
        assert!(report
            .hotspots
            .iter()
            .any(|h| h.prog == "syrupd_dispatch" && h.pc == 11));
    }
}
