//! Rank-extension experiment: SRPT-via-rank vs FCFS under heavy-tailed
//! service times, plus a WFQ-across-tenants variant.
//!
//! The rank ABI's pitch is that a policy can pick *where* a request runs
//! and *when* it runs relative to its queue-mates. This harness measures
//! the "when" half on the `syrup-sched` queues directly, in an M/G/1-style
//! single-worker simulation:
//!
//! * **Panel A** (`sched_tail_srpt.csv`) — p99 slowdown (sojourn time /
//!   service time) vs offered load for three disciplines over identical
//!   arrival sequences: FCFS (`ExecQueue` FIFO), SRPT-via-rank on the
//!   exact PIFO (rank = service time, non-preemptive shortest-job-first),
//!   and the same ranks through an Eiffel bucket queue to show the cost
//!   of approximation. Service times are bounded-Pareto (α = 1.5), the
//!   heavy-tailed regime where SRPT's advantage is classical.
//! * **Panel B** (`sched_wfq_tenants.csv`) — two tenants share the
//!   worker; tenant `light` sends 20% of requests, tenant `heavy` 80%
//!   with 8× longer requests. FCFS lets the heavy tenant's backlog set
//!   the light tenant's tail; WFQ-via-rank (rank = per-tenant virtual
//!   finish time) isolates it.
//!
//! The binary exits nonzero if SRPT fails to improve p99 slowdown over
//! FCFS at the highest load, so CI can run it in smoke mode
//! (`SYRUP_SCALE=0.05`) as a regression gate on the rank machinery.

use crate::{emit, sweep, Sweep};
use syrup::sched::{ExecQueue, QueueKind};
use syrup::sim::SimRng;

/// Mean service time of the short-request class, nanoseconds.
const PARETO_MIN_NS: f64 = 1_000.0;
/// Service-time cap (bounded Pareto), nanoseconds.
const PARETO_MAX_NS: f64 = 1_000_000.0;
/// Pareto shape: 1 < α < 2 — infinite variance before bounding.
const PARETO_ALPHA: f64 = 1.5;

/// One request flowing through the simulated worker queue.
#[derive(Clone, Copy)]
struct Job {
    arrival_ns: f64,
    service_ns: f64,
    tenant: usize,
}

/// Bounded Pareto service draw.
fn pareto_service(rng: &mut SimRng) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (PARETO_MIN_NS * u.powf(-1.0 / PARETO_ALPHA)).min(PARETO_MAX_NS)
}

/// Mean of the bounded Pareto above (for converting utilization to an
/// arrival rate).
fn pareto_mean() -> f64 {
    // α/(α-1) · x_m, adjusted for the truncation at x_max.
    let a = PARETO_ALPHA;
    let (xm, xmax) = (PARETO_MIN_NS, PARETO_MAX_NS);
    let num = 1.0 - (xm / xmax).powf(a - 1.0);
    (a * xm / (a - 1.0)) * num / (1.0 - (xm / xmax).powf(a))
}

/// Simulates `n` jobs through one non-preemptive worker whose queue obeys
/// `kind`, ranking each job by `rank_of`. Returns per-job (sojourn,
/// service, tenant).
fn simulate(
    jobs: &[Job],
    kind: QueueKind,
    mut rank_of: impl FnMut(&Job) -> u32,
) -> Vec<(f64, f64, usize)> {
    let mut q: ExecQueue<Job> = ExecQueue::new(kind);
    let mut out = Vec::with_capacity(jobs.len());
    let mut next = 0usize;
    let mut free_at = 0.0f64;
    while out.len() < jobs.len() {
        if q.is_empty() {
            // Idle server: jump to the next arrival.
            free_at = free_at.max(jobs[next].arrival_ns);
        }
        // Everyone who arrived by the moment the server picks is eligible.
        while next < jobs.len() && jobs[next].arrival_ns <= free_at {
            let rank = rank_of(&jobs[next]);
            q.push(jobs[next], rank);
            next += 1;
        }
        let job = q.pop().expect("queue non-empty by construction");
        let done = free_at + job.service_ns;
        out.push((done - job.arrival_ns, job.service_ns, job.tenant));
        free_at = done;
    }
    out
}

fn p99(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[((0.99 * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1]
}

/// Panel A job stream: Poisson arrivals at utilization `rho`, bounded
/// Pareto service, single tenant.
fn heavy_tailed_jobs(n: usize, rho: f64, seed: u64) -> Vec<Job> {
    let mut rng = SimRng::new(seed);
    let mean_interarrival = pareto_mean() / rho;
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -mean_interarrival * u.ln();
            Job {
                arrival_ns: t,
                service_ns: pareto_service(&mut rng),
                tenant: 0,
            }
        })
        .collect()
}

fn panel_a(loads: &[f64], seeds: u64, n: usize) -> (Sweep, bool) {
    // Bucket horizon covers the full service-time range at 4096 ns per
    // bucket — coarse on purpose, to make approximation visible.
    let bucket = QueueKind::Bucket {
        buckets: (PARETO_MAX_NS as usize).div_ceil(4096) + 1,
        granularity: 4096,
    };
    let [sweep] = sweep(
        [Sweep::new(
            "Rank extension: SRPT vs FCFS, bounded-Pareto service (α=1.5)",
            "Utilization",
            "p99 slowdown",
        )],
        &[
            ("FCFS", QueueKind::Fifo),
            ("SRPT (pifo)", QueueKind::Pifo),
            ("SRPT (bucket)", bucket),
        ],
        loads,
        seeds,
        |&kind, rho, seed| {
            let jobs = heavy_tailed_jobs(n, rho, 1 + (seed - 1) * 7919);
            let done = simulate(&jobs, kind, |j| j.service_ns as u32);
            [p99(done.iter().map(|(soj, svc, _)| soj / svc).collect())]
        },
    );
    // Mean p99 slowdown across seeds at the highest load.
    let worst = |series: usize| sweep.series[series].means().last().unwrap().1;
    let (fcfs, srpt) = (worst(0), worst(1));
    println!(
        "\n# At utilization {}: FCFS p99 slowdown {fcfs:.1}, SRPT {srpt:.1} ({:.1}x better)",
        loads.last().unwrap(),
        fcfs / srpt
    );
    (sweep, srpt < fcfs)
}

/// Panel B job stream: tenant 0 ("light") sends 20% of requests with
/// exponential-ish short service; tenant 1 ("heavy") sends the rest at 8×
/// the size.
fn two_tenant_jobs(n: usize, rho: f64, seed: u64) -> Vec<Job> {
    let mut rng = SimRng::new(seed);
    let light_ns = 2_000.0;
    let heavy_ns = 16_000.0;
    let mean_service = 0.2 * light_ns + 0.8 * heavy_ns;
    let mean_interarrival = mean_service / rho;
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -mean_interarrival * u.ln();
            let tenant = usize::from(!rng.chance(0.2));
            let base = if tenant == 0 { light_ns } else { heavy_ns };
            let jitter: f64 = rng.gen_range(0.5..1.5);
            Job {
                arrival_ns: t,
                service_ns: base * jitter,
                tenant,
            }
        })
        .collect()
}

fn panel_b(loads: &[f64], seeds: u64, n: usize) -> Sweep {
    let [sweep] = sweep(
        [Sweep::new(
            "Rank extension: WFQ across tenants (light tenant p99 latency)",
            "Utilization",
            "light-tenant p99 latency (us)",
        )],
        &[("FCFS", QueueKind::Fifo), ("WFQ (rank)", QueueKind::Pifo)],
        loads,
        seeds,
        |&kind, rho, seed| {
            let jobs = two_tenant_jobs(n, rho, 1 + (seed - 1) * 6007);
            // Per-tenant virtual finish times, equal weights: each
            // tenant's clock advances by its own service demand, so a
            // backlogged heavy tenant cannot starve the light one. (FCFS
            // ignores the rank.)
            let mut vft = [0.0f64; 2];
            let done = simulate(&jobs, kind, |j| {
                let f = vft[j.tenant].max(j.arrival_ns) + j.service_ns;
                vft[j.tenant] = f;
                // Ranks are u32: virtual time in 1024 ns ticks.
                (f / 1024.0) as u32
            });
            let light = done.iter().filter(|(_, _, tenant)| *tenant == 0);
            [p99(light.map(|(soj, _, _)| soj / 1_000.0).collect())]
        },
    );
    sweep
}

/// Regenerates `sched_tail_srpt.csv` and `sched_wfq_tenants.csv`; an error
/// if SRPT does not beat FCFS at the highest load.
pub fn run(seeds: u64) -> Result<(), String> {
    let loads = [0.5, 0.6, 0.7, 0.8, 0.9];
    let n = (20_000.0 * crate::scale()).max(2_000.0) as usize;

    let (srpt, srpt_wins) = panel_a(&loads, seeds, n);
    emit("sched_tail_srpt", &srpt);

    let wfq = panel_b(&loads, seeds, n);
    emit("sched_wfq_tenants", &wfq);

    if !srpt_wins {
        return Err("FAIL: SRPT did not improve p99 slowdown over FCFS at the highest load".into());
    }
    Ok(())
}
