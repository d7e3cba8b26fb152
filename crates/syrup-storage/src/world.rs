//! The two-tenant storage experiment: read SLO vs write interference.
//!
//! A latency-sensitive tenant issues reads while a best-effort tenant
//! issues writes, both over the shared flash device. Without admission
//! control the writes monopolize channels and the read tail explodes;
//! with the ReFlex-style token policy the writer is throttled to its
//! budget and the read p95 stays near device latency — the qualitative
//! result of ReFlex that §6.1 says Syrup's model covers.

use syrup_core::{Decision, MapDef, MapRegistry};
use syrup_sim::{drive, Duration, EventQueue, LatencySummary, OpenLoop, SimRng, Time};

use crate::device::{FlashDevice, FlashParams};
use crate::io::{IoOp, IoRequest, NvmeQueues};
use crate::policy::{IoTokenPolicy, TokenParams};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Read rate of the latency-sensitive tenant (IOPS).
    pub read_iops: f64,
    /// Write rate of the best-effort tenant (IOPS).
    pub write_iops: f64,
    /// Whether the token policy is deployed (else everything is admitted).
    pub with_policy: bool,
    /// Refill epoch for the writer's budget.
    pub epoch: Duration,
    /// Writes granted to the writer per epoch.
    pub writer_budget_per_epoch: u64,
    /// Device model.
    pub device: FlashParams,
    /// Measured interval (plus an equal warm-up before it).
    pub measure: Duration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            read_iops: 30_000.0,
            write_iops: 12_000.0,
            with_policy: true,
            // One write per millisecond: ~6% channel time on writes.
            epoch: Duration::from_millis(1),
            writer_budget_per_epoch: 1,
            device: FlashParams::default(),
            measure: Duration::from_millis(200),
            seed: 1,
        }
    }
}

/// Outcome of one run.
#[derive(Debug, Clone)]
pub struct StorageResult {
    /// Read latency order statistics (the SLO metric).
    pub read_latency: LatencySummary,
    /// Completed reads.
    pub reads_done: u64,
    /// Completed writes.
    pub writes_done: u64,
    /// Writes rejected by the policy.
    pub writes_rejected: u64,
}

enum Ev {
    ReadArrival,
    WriteArrival,
    Epoch,
    Complete { queue: u32, req: IoRequest },
}

/// Runs one configuration.
pub fn run(cfg: &StorageConfig) -> StorageResult {
    let mut rng = SimRng::new(cfg.seed);
    let registry = MapRegistry::new();
    let token_map = registry.get(registry.create(MapDef::u64_array(4))).unwrap();
    let mut policy = IoTokenPolicy::new(
        token_map,
        TokenParams::default(),
        cfg.device.channels as u32,
    );
    // Tenant 0 = reader (generous budget), tenant 1 = writer (throttled).
    let read_budget = 1_000_000u64;
    policy.refill(&[(0, read_budget), (1, cfg.writer_budget_per_epoch * 6)]);

    let mut device = FlashDevice::new(cfg.device);
    let mut queues = NvmeQueues::new(cfg.device.channels, 64);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    // The warm-up is as long as the measured interval.
    let mut reads = OpenLoop::poisson(cfg.read_iops, cfg.measure, cfg.measure);
    let mut writes = OpenLoop::poisson(cfg.write_iops, cfg.measure, cfg.measure);
    let mut recorder = reads.recorder();
    let mut reads_done = 0u64;
    let mut writes_done = 0u64;

    reads.schedule_next(&mut rng, &mut queue, Ev::ReadArrival);
    writes.schedule_next(&mut rng, &mut queue, Ev::WriteArrival);
    queue.push(Time::ZERO + cfg.epoch, Ev::Epoch);

    drive("storage world", &mut queue, |now, ev, q| match ev {
        Ev::Epoch => {
            if cfg.with_policy {
                policy.refill(&[(0, read_budget), (1, cfg.writer_budget_per_epoch * 6)]);
            }
            if now < reads.end() {
                q.push(now + cfg.epoch, Ev::Epoch);
            }
        }
        Ev::ReadArrival | Ev::WriteArrival => {
            let is_read = matches!(ev, Ev::ReadArrival);
            let load = if is_read { &mut reads } else { &mut writes };
            load.schedule_next(&mut rng, q, ev);
            let req = IoRequest {
                op: if is_read { IoOp::Read } else { IoOp::Write },
                lba: rng.gen_u64() % 1_000_000,
                len: 4096,
                tenant: if is_read { 0 } else { 1 },
                issued: now,
            };
            let default = (req.lba % cfg.device.channels as u64) as u32;
            let decision = if cfg.with_policy {
                policy.schedule(&req)
            } else {
                Decision::Executor(default)
            };
            if let Some(queue) = queues.submit(decision, default) {
                let done = device.submit(&req, now);
                q.push(done, Ev::Complete { queue, req });
            }
        }
        Ev::Complete { queue, req } => {
            queues.complete(queue);
            match req.op {
                IoOp::Read => {
                    // The recorder drops completions inside the warm-up.
                    recorder.record(req.issued, now);
                    reads_done += 1;
                }
                IoOp::Write => writes_done += 1,
            }
        }
    });

    StorageResult {
        read_latency: recorder.summary(),
        reads_done,
        writes_done,
        writes_rejected: policy.rejections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_policy_protects_read_tail_from_writes() {
        let unprotected = run(&StorageConfig {
            with_policy: false,
            ..Default::default()
        });
        let protected = run(&StorageConfig::default());
        let (u, p) = (
            unprotected.read_latency.percentile(0.95),
            protected.read_latency.percentile(0.95),
        );
        assert!(
            u.as_nanos() > 2 * p.as_nanos(),
            "write interference should dominate the unprotected tail: {u} vs {p}"
        );
        assert!(
            p < Duration::from_micros(400),
            "protected read p95 {p} should stay near device latency"
        );
        assert!(
            protected.writes_rejected > 0,
            "the writer must be throttled"
        );
    }

    #[test]
    fn reads_alone_see_near_device_latency() {
        let r = run(&StorageConfig {
            write_iops: 0.0,
            with_policy: false,
            ..Default::default()
        });
        let p50 = r.read_latency.p50();
        assert!(
            (Duration::from_micros(80)..Duration::from_micros(200)).contains(&p50),
            "p50 {p50}"
        );
        assert_eq!(r.writes_done, 0);
    }

    #[test]
    fn unthrottled_writer_completes_more_writes() {
        let unprotected = run(&StorageConfig {
            with_policy: false,
            ..Default::default()
        });
        let protected = run(&StorageConfig::default());
        assert!(unprotected.writes_done > protected.writes_done);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run(&StorageConfig::default());
        let b = run(&StorageConfig::default());
        assert_eq!(a.reads_done, b.reads_done);
        assert_eq!(a.read_latency.p99(), b.read_latency.p99());
    }
}
