//! Reduced-scale checks that each figure's *ordering* claims hold through
//! the public API. The full sweeps live in the `bench` binaries; these
//! run in seconds and gate regressions on the qualitative results.

use syrup::apps::late_world::{self, Binding, LateConfig};
use syrup::apps::mica::{self, MicaConfig, MicaMode};
use syrup::apps::mt_world::{self, MtConfig, SchedKind};
use syrup::apps::rfs_world::{self, RfsConfig, Steering};
use syrup::apps::server_world::{self, ServerConfig, SocketPolicyKind};
use syrup::sim::Duration;
use syrup::storage::world::{self as storage, StorageConfig};

fn server(
    policy: SocketPolicyKind,
    load: f64,
    get_frac: f64,
    seed: u64,
) -> server_world::ServerResult {
    let mut cfg = ServerConfig::fig2(policy, load, seed);
    cfg.get_fraction = get_frac;
    cfg.warmup = Duration::from_millis(20);
    cfg.measure = Duration::from_millis(100);
    server_world::run(&cfg)
}

/// Figure 2: at 350K RPS vanilla hashing misbehaves in most seeds while
/// round robin drops nothing and stays fast.
#[test]
fn fig2_round_robin_beats_vanilla_hashing() {
    let mut vanilla_trouble = 0;
    for seed in 1..=4 {
        let _seed_guard =
            syrup_integration::SeedGuard::new("fig2_round_robin_beats_vanilla_hashing", seed);
        let v = server(SocketPolicyKind::Vanilla, 350_000.0, 1.0, seed);
        if v.overall.drop_pct() > 0.3 || v.overall.latency.p99() > Duration::from_micros(400) {
            vanilla_trouble += 1;
        }
        let rr = server(SocketPolicyKind::RoundRobin, 350_000.0, 1.0, seed);
        assert_eq!(rr.overall.dropped, 0);
        assert!(rr.overall.latency.p99() < Duration::from_micros(150));
    }
    assert!(
        vanilla_trouble >= 3,
        "vanilla misbehaved in {vanilla_trouble}/4 seeds"
    );
}

/// Figure 6: the policy ordering SITA < SCAN Avoid < Round Robin ≤
/// Vanilla on 99% latency at moderate load.
#[test]
fn fig6_policy_ordering_holds() {
    let load = 150_000.0;
    let vanilla = server(SocketPolicyKind::Vanilla, load, 0.995, 2)
        .overall
        .latency
        .p99();
    let rr = server(SocketPolicyKind::RoundRobin, load, 0.995, 2)
        .overall
        .latency
        .p99();
    let sa = server(SocketPolicyKind::ScanAvoid, load, 0.995, 2)
        .overall
        .latency
        .p99();
    let sita = server(SocketPolicyKind::Sita, load, 0.995, 2)
        .overall
        .latency
        .p99();
    assert!(sita < sa, "SITA {sita} < SCAN Avoid {sa}");
    assert!(sa < rr, "SCAN Avoid {sa} < RR {rr}");
    assert!(rr <= vanilla, "RR {rr} <= Vanilla {vanilla}");
    // The 8x-or-better claim vs the defaults.
    assert!(
        vanilla.as_nanos() >= 8 * sita.as_nanos(),
        "expected >=8x gap: vanilla {vanilla} vs SITA {sita}"
    );
}

/// Figure 7: under the same offered overload, the token policy keeps the
/// LS tail several times lower than round robin while BE throughput only
/// drops modestly.
#[test]
fn fig7_token_policy_tradeoff() {
    let run = |policy| {
        let mut cfg = ServerConfig::fig7(policy, 250_000.0, 150_000.0, 3);
        cfg.warmup = Duration::from_millis(20);
        cfg.measure = Duration::from_millis(120);
        server_world::run(&cfg)
    };
    let rr = run(SocketPolicyKind::RoundRobin);
    let tok = run(SocketPolicyKind::TokenBased {
        rate_per_sec: 350_000,
    });
    let rr_ls = rr.per_tenant[&0].latency.p99();
    let tok_ls = tok.per_tenant[&0].latency.p99();
    assert!(
        rr_ls.as_nanos() > 3 * tok_ls.as_nanos(),
        "LS p99: RR {rr_ls} vs token {tok_ls}"
    );
    // RR serves BE a bit more than the token policy does.
    assert!(rr.per_tenant[&1].completed >= tok.per_tenant[&1].completed);
    // But the token policy still serves BE from gifted leftovers.
    assert!(tok.per_tenant[&1].completed > 0);
}

/// Figure 8: cross-layer deployment dominates both single-layer ones on
/// the GET tail.
#[test]
fn fig8_cross_layer_dominates() {
    let run = |socket, sched| {
        let mut cfg = MtConfig::fig8(socket, sched, 6_000.0, 4);
        cfg.warmup = Duration::from_millis(50);
        cfg.measure = Duration::from_millis(300);
        mt_world::run(&cfg)
    };
    let socket_only = run(SocketPolicyKind::ScanAvoid, SchedKind::Cfs);
    let thread_only = run(SocketPolicyKind::Vanilla, SchedKind::Ghost);
    let both = run(SocketPolicyKind::ScanAvoid, SchedKind::Ghost);
    assert!(both.get.p99() < socket_only.get.p99());
    assert!(both.get.p99() < thread_only.get.p99());
    assert!(both.get.p99() < Duration::from_micros(500));
}

/// Figure 9: capacity ordering SW Redirect < Syrup SW < Syrup HW for both
/// workload mixes.
#[test]
fn fig9_capacity_ordering() {
    for get_frac in [0.5, 0.95] {
        let probe = 2_300_000.0;
        let app = mica::run(&MicaConfig::fig9(MicaMode::SwRedirect, get_frac, probe, 5));
        let sw = mica::run(&MicaConfig::fig9(MicaMode::SyrupSw, get_frac, probe, 5));
        let hw = mica::run(&MicaConfig::fig9(MicaMode::SyrupHw, get_frac, probe, 5));
        assert!(
            app.latency.p999() > Duration::from_millis(1),
            "SW redirect should be saturated at {probe} (mix {get_frac})"
        );
        assert!(sw.latency.p999() < Duration::from_millis(1));
        assert!(hw.latency.p999() < sw.latency.p999());
    }
}

/// Extension §6.3 (`ext_late_binding`): past the point where a SCAN can
/// sit in front of a GET, late binding's p99 is never above early
/// binding's, and it holds the 150µs budget at a load where early binding
/// (round robin) is already several times over it.
#[test]
fn ext_late_binding_beats_early_binding_past_the_knee() {
    let p99 = |binding, load| {
        let mut cfg = LateConfig::fig6_style(binding, load, 3);
        cfg.warmup = Duration::from_millis(20);
        cfg.measure = Duration::from_millis(150);
        late_world::run(&cfg).latency.p99()
    };
    for load in [50_000.0, 150_000.0, 250_000.0, 350_000.0] {
        let (early, late) = (p99(Binding::Early, load), p99(Binding::Late, load));
        assert!(late <= early, "@{load}: late {late} vs early {early}");
    }
    let budget = Duration::from_micros(150);
    assert!(p99(Binding::Late, 200_000.0) < budget);
    assert!(p99(Binding::Early, 200_000.0).as_nanos() > 3 * budget.as_nanos());
}

/// Motivation §2.1 (`ext_rfs`): RFS-style flow locality reaches a peak
/// goodput well above hash steering's — the binary prints +179%, the
/// paper quotes "up to 200%".
#[test]
fn ext_rfs_peak_goodput_beats_hash_steering() {
    let peak = |steering| {
        let goodput = |load| {
            let mut cfg = RfsConfig::netperf(steering, load, 2);
            cfg.warmup = Duration::from_millis(10);
            cfg.measure = Duration::from_millis(60);
            rfs_world::run(&cfg).throughput_rps
        };
        [400_000.0, 700_000.0, 1_000_000.0, 1_400_000.0]
            .map(goodput)
            .into_iter()
            .fold(0.0, f64::max)
    };
    let (hash, rfs) = (peak(Steering::Hash), peak(Steering::Rfs));
    assert!(rfs > 2.0 * hash, "peak goodput: RFS {rfs} vs hash {hash}");
}

/// Extension §6.1 (`ext_storage`): as the offered write rate grows, the
/// token policy holds the read p95 flat while the unprotected device lets
/// it climb by an order of magnitude.
#[test]
fn ext_storage_token_policy_holds_read_p95_flat() {
    let read_p95 = |with_policy, write_iops| {
        let r = storage::run(&StorageConfig {
            write_iops,
            with_policy,
            measure: Duration::from_millis(100),
            seed: 4,
            ..StorageConfig::default()
        });
        r.read_latency.percentile(0.95).as_nanos()
    };
    let (light, heavy) = (3_000.0, 24_000.0);
    let (open_light, open_heavy) = (read_p95(false, light), read_p95(false, heavy));
    let (tok_light, tok_heavy) = (read_p95(true, light), read_p95(true, heavy));
    assert!(
        open_heavy > 10 * open_light,
        "unprotected p95 should blow up: {open_light} -> {open_heavy}"
    );
    assert!(
        2 * tok_heavy < 3 * tok_light && 2 * tok_light < 3 * tok_heavy,
        "token-policy p95 should stay flat: {tok_light} -> {tok_heavy}"
    );
    assert!(tok_heavy * 10 < open_heavy);
}

/// Buffer-sizing ablation (`ablate_sockbuf`): under hash steering a
/// bigger socket buffer trades drops for tail latency; round robin drops
/// nothing and keeps its tail at every capacity.
#[test]
fn ablate_sockbuf_capacity_only_matters_under_hash_steering() {
    let run = |policy, capacity, seed| {
        let mut cfg = ServerConfig::fig2(policy, 350_000.0, seed);
        cfg.socket_capacity = capacity;
        cfg.warmup = Duration::from_millis(20);
        cfg.measure = Duration::from_millis(100);
        server_world::run(&cfg).overall
    };
    let capacities = [16, 128, 1024];
    let mut drop_sums = [0.0; 3];
    for seed in 1..=4 {
        let _seed_guard = syrup_integration::SeedGuard::new(
            "ablate_sockbuf_capacity_only_matters_under_hash_steering",
            seed,
        );
        let vanilla = capacities.map(|c| run(SocketPolicyKind::Vanilla, c, seed));
        for (sum, r) in drop_sums.iter_mut().zip(&vanilla) {
            *sum += r.drop_pct();
        }
        // Deeper buffers never drop more, and whatever they keep queues.
        assert!(vanilla[0].dropped >= vanilla[1].dropped);
        assert!(vanilla[1].dropped >= vanilla[2].dropped);
        if vanilla[0].dropped > 0 {
            assert!(vanilla[0].latency.p99() < vanilla[2].latency.p99());
        }
        for c in capacities {
            let rr = run(SocketPolicyKind::RoundRobin, c, seed);
            assert_eq!(rr.dropped, 0, "round robin dropped at capacity {c}");
            assert!(rr.latency.p99() < Duration::from_micros(150));
        }
    }
    assert!(
        drop_sums[0] > drop_sums[2] && drop_sums[0] > 0.0,
        "vanilla drops should fall with capacity: {drop_sums:?}"
    );
}

/// `(completed, dropped, p50 ns, p99 ns)` of one small fixed-seed run per
/// mode of the four worlds no determinism suite covers. The values were
/// taken at the commit before the worlds moved onto `sim::drive`; a
/// change to any world's RNG draw order or event order moves them.
#[test]
fn small_worlds_reproduce_their_pinned_outcomes() {
    use syrup::sim::LatencySummary;

    let row = |completed: u64, dropped: u64, l: &LatencySummary| {
        (completed, dropped, l.p50().as_nanos(), l.p99().as_nanos())
    };
    let mica = |mode| {
        let mut cfg = MicaConfig::fig9(mode, 0.5, 2_400_000.0, 3);
        cfg.queue_capacity = 256;
        cfg.warmup = Duration::from_millis(2);
        cfg.measure = Duration::from_millis(10);
        let r = mica::run(&cfg);
        row(r.completed, r.dropped, &r.latency)
    };
    let rfs = |steering| {
        let mut cfg = RfsConfig::netperf(steering, 600_000.0, 5);
        cfg.warmup = Duration::from_millis(2);
        cfg.measure = Duration::from_millis(20);
        let r = rfs_world::run(&cfg);
        row(r.completed, 0, &r.latency)
    };
    let late = |binding| {
        let mut cfg = LateConfig::fig6_style(binding, 450_000.0, 9);
        cfg.capacity = 64;
        cfg.warmup = Duration::from_millis(2);
        cfg.measure = Duration::from_millis(30);
        let r = late_world::run(&cfg);
        row(r.completed, r.dropped, &r.latency)
    };
    let store = |with_policy| {
        let r = storage::run(&StorageConfig {
            with_policy,
            measure: Duration::from_millis(20),
            seed: 2,
            ..StorageConfig::default()
        });
        row(
            r.reads_done + r.writes_done,
            r.writes_rejected,
            &r.read_latency,
        )
    };
    let table = [
        (
            "mica sw-redirect",
            mica(MicaMode::SwRedirect),
            (18651, 5341, 1049596, 1087993),
        ),
        (
            "mica syrup-sw",
            mica(MicaMode::SyrupSw),
            (23992, 0, 11008, 42351),
        ),
        (
            "mica syrup-hw",
            mica(MicaMode::SyrupHw),
            (23992, 0, 6573, 21873),
        ),
        ("rfs hash", rfs(Steering::Hash), (9434, 0, 1811054, 6744194)),
        ("rfs rfs", rfs(Steering::Rfs), (11990, 0, 3900, 12757)),
        (
            "late early",
            late(Binding::Early),
            (11393, 2085, 773821, 2151624),
        ),
        (
            "late late",
            late(Binding::Late),
            (11476, 2002, 157246, 293921),
        ),
        ("storage open", store(false), (1687, 0, 4431612, 8889936)),
        ("storage token", store(true), (1277, 410, 88000, 646000)),
    ];
    for (name, got, want) in table {
        assert_eq!(got, want, "{name}");
    }
}
