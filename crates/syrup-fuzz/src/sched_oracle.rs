//! Dequeue-order oracles for the `syrup-sched` queues.
//!
//! The rank extension moves real scheduling decisions into
//! [`syrup_sched::Pifo`] and [`syrup_sched::BucketQueue`], so their
//! ordering contracts get the same treatment as the verifier: random
//! push/pop scripts checked against executable oracles.
//!
//! * **PIFO order** — the exact queue must dequeue in non-decreasing rank
//!   with FIFO ties. The reference model is a plain `Vec` popped by a
//!   linear scan for the first minimum; any divergence is a bug.
//! * **Bucket approximation** — within the horizon, the Eiffel queue may
//!   invert only ranks closer than one bucket width: replaying the same
//!   script against the exact PIFO, every bucket-queue dequeue must obey
//!   `rank(popped) < rank(exact_min) + granularity`.
//!
//! Scripts interleave pushes and pops so the queues are exercised at many
//! occupancies, and ranks are drawn from small ranges to force ties.

use std::fmt;

use crate::Prng;
use syrup_sched::{BucketQueue, Pifo};

/// Counters from one sched-oracle run.
#[derive(Debug, Clone, Default)]
pub struct SchedFuzzReport {
    /// Random scripts executed.
    pub scripts: u64,
    /// Total push/pop operations across all scripts.
    pub ops: u64,
    /// Dequeues compared against the PIFO reference model.
    pub pifo_checks: u64,
    /// Dequeues checked against the bucket approximation bound.
    pub bucket_checks: u64,
    /// Bucket dequeues that differed from the exact minimum (legal while
    /// under the bound; proves the oracle sees real approximation, not
    /// accidentally identical behaviour).
    pub bucket_inversions: u64,
    /// The first violation found, if any (with the reproducing seed).
    pub failure: Option<String>,
}

impl fmt::Display for SchedFuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sched scripts, {} ops: {} pifo order checks, {} bucket bound checks",
            self.scripts, self.ops, self.pifo_checks, self.bucket_checks
        )
    }
}

/// Runs `scripts` random queue scripts; stops at the first violation.
pub fn run_sched_fuzz(scripts: u64, seed: u64) -> SchedFuzzReport {
    let mut report = SchedFuzzReport::default();
    for script in 0..scripts {
        report.scripts = script + 1;
        let mut rng = Prng::new(seed ^ (script.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1));
        if let Err(detail) = check_script(&mut report, &mut rng) {
            report.failure = Some(format!(
                "sched oracle violation in script {script} (seed 0x{seed:016X}): {detail}"
            ));
            break;
        }
    }
    report
}

/// One script: the same op sequence driven through the exact PIFO, the
/// reference model, and a bucket queue sized to keep every rank in
/// horizon.
fn check_script(report: &mut SchedFuzzReport, rng: &mut Prng) -> Result<(), String> {
    // Small rank ranges force ties; the bucket horizon covers the whole
    // range so the approximation bound applies to every item.
    let rank_range = 1 + rng.below(64) as u32;
    let granularity = 1 + rng.below(8) as u32;
    let num_buckets = (rank_range as usize).div_ceil(granularity as usize) + 1;
    let mut pifo: Pifo<u64> = Pifo::new();
    let mut bucket: BucketQueue<u64> = BucketQueue::new(num_buckets, granularity);
    let mut model: Vec<(u32, u64)> = Vec::new();
    let mut next_item = 0u64;

    for _ in 0..16 + rng.below(48) {
        report.ops += 1;
        let push = model.is_empty() || rng.chance(60);
        if push {
            let rank = rng.below(u64::from(rank_range)) as u32;
            pifo.push(next_item, rank);
            bucket.push(next_item, rank);
            model.push((rank, next_item));
            next_item += 1;
            continue;
        }
        // Reference pop: first occurrence of the minimum rank (FIFO tie).
        let min_at = model
            .iter()
            .enumerate()
            .min_by_key(|(i, (rank, _))| (*rank, *i))
            .map(|(i, _)| i)
            .expect("model is non-empty on pop");
        let (want_rank, want_item) = model.remove(min_at);

        report.pifo_checks += 1;
        let got = pifo.pop_entry();
        if got != Some((want_item, want_rank)) {
            return Err(format!(
                "pifo popped {got:?}, reference model expected item {want_item} rank {want_rank}"
            ));
        }

        // The bucket queue may pick a different item, but only within one
        // bucket width of the true minimum.
        report.bucket_checks += 1;
        let (_, got_rank) = bucket
            .pop_entry()
            .ok_or_else(|| "bucket queue empty while model holds items".to_string())?;
        if got_rank != want_rank {
            report.bucket_inversions += 1;
        }
        if got_rank >= want_rank.saturating_add(granularity) {
            return Err(format!(
                "bucket queue popped rank {got_rank}, exact minimum was {want_rank} \
                 (granularity {granularity}: inversion must stay below one bucket)"
            ));
        }
    }

    // Drain: lengths must agree and the PIFO must finish in exact order.
    if pifo.len() != model.len() || bucket.len() != model.len() {
        return Err(format!(
            "lengths diverged: pifo {}, bucket {}, model {}",
            pifo.len(),
            bucket.len(),
            model.len()
        ));
    }
    model.sort_by_key(|&(rank, item)| (rank, item));
    for &(want_rank, want_item) in &model {
        report.pifo_checks += 1;
        match pifo.pop_entry() {
            Some((item, rank)) if item == want_item && rank == want_rank => {}
            got => {
                return Err(format!(
                    "drain: pifo popped {got:?}, expected item {want_item} rank {want_rank}"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_is_green_on_the_real_queues() {
        let report = run_sched_fuzz(200, 0xC0FFEE);
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert_eq!(report.scripts, 200);
        assert!(report.pifo_checks > 1000, "{report}");
        assert!(report.bucket_checks > 500, "{report}");
    }

    #[test]
    fn oracle_runs_are_deterministic() {
        let a = run_sched_fuzz(50, 42);
        let b = run_sched_fuzz(50, 42);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.pifo_checks, b.pifo_checks);
    }

    #[test]
    fn bucket_oracle_is_not_vacuous() {
        // With granularity > 1 some scripts must actually observe the
        // bucket queue deviating from the exact minimum — otherwise the
        // bound check never tests anything.
        let report = run_sched_fuzz(200, 0xC0FFEE);
        assert!(
            report.bucket_inversions > 0,
            "bucket queue never approximated across {} checks",
            report.bucket_checks
        );
    }
}
