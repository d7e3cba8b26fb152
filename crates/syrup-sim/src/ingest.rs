//! Ingestion of `run_windows` per-window samples into shard series.
//!
//! [`ingest_windows`] turns the raw [`WindowSample`] stream from a
//! sharded scale run into named per-shard series (`shard<k>/events`,
//! `shard<k>/barrier_wait_ns`, `shard<k>/mailbox_out`, …) plus the
//! cross-shard skew series `imbalance/max_mean` and `imbalance/gini`
//! (reusing the profiler's Gini machinery). Windows are lock-step
//! across shards — sample `k` of every shard describes the same window
//! — so skew is computed index-by-index, no alignment pass needed.
//!
//! Pass [`Scope::disabled`] to get the [`WindowsSummary`] aggregates
//! (the `BENCH_scale.json` extension fields) without storing any series.

use syrup_observe::profile::gini;
use syrup_observe::scope::Scope;

use crate::WindowSample;

/// Aggregates over one run's window stream: the shard-level summary
/// fields `bench --bin scale` appends to `BENCH_scale.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowsSummary {
    /// Windows simulated (max across shards; shards are lock-step, so
    /// they only differ when a run recorded nothing).
    pub windows: u64,
    /// Events dispatched across all shards' windows.
    pub events: u64,
    /// Wall nanoseconds each shard spent blocked on window barriers.
    pub barrier_wait_ns_per_shard: Vec<u64>,
    /// Total cross-shard messages deposited.
    pub mailbox_out: u64,
    /// Total cross-shard messages received.
    pub mailbox_in: u64,
    /// Peak per-window imbalance: max shard events / mean shard events.
    pub peak_max_mean: f64,
    /// Mean per-window Gini coefficient of shard event counts.
    pub mean_gini: f64,
    /// Barrier-stall share of total wall time across shards, percent:
    /// `Σ barrier_wait / Σ wall × 100`.
    pub barrier_stall_pct: f64,
}

/// Feeds per-shard window samples into `scope` and computes the
/// [`WindowsSummary`]. `per_shard[k]` is shard `k`'s lock-step window
/// stream (as returned in `ScaleResult::per_shard_windows` or
/// `ShardRun::windows`).
pub fn ingest_windows(scope: &Scope, per_shard: &[Vec<WindowSample>]) -> WindowsSummary {
    let mut summary = WindowsSummary {
        windows: per_shard.iter().map(|w| w.len() as u64).max().unwrap_or(0),
        ..WindowsSummary::default()
    };
    let mut total_wall = 0u64;
    let mut total_barrier = 0u64;

    for (shard, windows) in per_shard.iter().enumerate() {
        let events = scope.series(&format!("shard{shard}/events"));
        let barrier = scope.series(&format!("shard{shard}/barrier_wait_ns"));
        let mbox_out = scope.series(&format!("shard{shard}/mailbox_out"));
        let mbox_in = scope.series(&format!("shard{shard}/mailbox_in"));
        let occupancy = scope.series(&format!("shard{shard}/occupancy"));
        let mut shard_barrier = 0u64;
        for w in windows {
            events.record(w.window_start_ns, w.events as f64);
            barrier.record(w.window_start_ns, w.barrier_wait_ns as f64);
            mbox_out.record(w.window_start_ns, w.mailbox_out as f64);
            mbox_in.record(w.window_start_ns, w.mailbox_in as f64);
            occupancy.record(w.window_start_ns, w.occupancy as f64);
            summary.events += w.events;
            summary.mailbox_out += w.mailbox_out;
            summary.mailbox_in += w.mailbox_in;
            shard_barrier += w.barrier_wait_ns;
            total_wall += w.wall_ns;
        }
        total_barrier += shard_barrier;
        summary.barrier_wait_ns_per_shard.push(shard_barrier);
    }

    // Cross-shard skew, window by window (lock-step indices).
    if per_shard.len() > 1 {
        let max_mean = scope.series("imbalance/max_mean");
        let gini_series = scope.series("imbalance/gini");
        let mut gini_sum = 0.0;
        let mut gini_count = 0u64;
        for idx in 0..summary.windows as usize {
            let at_ns = per_shard
                .iter()
                .filter_map(|w| w.get(idx))
                .map(|w| w.window_start_ns)
                .max()
                .unwrap_or(0);
            let counts: Vec<f64> = per_shard
                .iter()
                .map(|w| w.get(idx).map_or(0.0, |w| w.events as f64))
                .collect();
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            if mean > 0.0 {
                let max = counts.iter().cloned().fold(0.0, f64::max);
                let ratio = max / mean;
                summary.peak_max_mean = summary.peak_max_mean.max(ratio);
                max_mean.record(at_ns, ratio);
                let g = gini(&counts);
                gini_series.record(at_ns, g);
                gini_sum += g;
                gini_count += 1;
            }
        }
        if gini_count > 0 {
            summary.mean_gini = gini_sum / gini_count as f64;
        }
    }

    if total_wall > 0 {
        summary.barrier_stall_pct = total_barrier as f64 / total_wall as f64 * 100.0;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(start: u64, events: u64, barrier: u64, wall: u64, out: u64, inn: u64) -> WindowSample {
        WindowSample {
            window_start_ns: start,
            events,
            barrier_wait_ns: barrier,
            wall_ns: wall,
            mailbox_out: out,
            mailbox_in: inn,
            occupancy: events / 2,
        }
    }

    #[test]
    fn ingest_builds_per_shard_series_and_summary() {
        let scope = Scope::new();
        let per_shard = vec![
            vec![w(0, 100, 50, 1_000, 5, 3), w(20_000, 200, 150, 2_000, 7, 9)],
            vec![w(0, 300, 10, 1_000, 3, 5), w(20_000, 200, 90, 2_000, 9, 7)],
        ];
        let summary = ingest_windows(&scope, &per_shard);

        assert_eq!(summary.windows, 2);
        assert_eq!(summary.events, 800);
        assert_eq!(summary.barrier_wait_ns_per_shard, vec![200, 100]);
        assert_eq!(summary.mailbox_out, 24);
        assert_eq!(summary.mailbox_in, 24);
        // Window 0: counts (100, 300), mean 200, max/mean 1.5.
        // Window 1: counts (200, 200), max/mean 1.0.
        assert!((summary.peak_max_mean - 1.5).abs() < 1e-9);
        // Gini of (100, 300) = 0.25; of (200, 200) = 0. Mean 0.125.
        assert!((summary.mean_gini - 0.125).abs() < 1e-9);
        // Stall: (200 + 100) / 6000 = 5%.
        assert!((summary.barrier_stall_pct - 5.0).abs() < 1e-9);

        let ev0 = scope.get("shard0/events").unwrap();
        assert_eq!(
            ev0.points.iter().map(|p| p.value).collect::<Vec<_>>(),
            vec![100.0, 200.0]
        );
        assert_eq!(ev0.points[1].at_ns, 20_000);
        assert!(scope.get("shard1/barrier_wait_ns").is_some());
        assert!(scope.get("shard0/mailbox_out").is_some());
        assert!(scope.get("shard1/occupancy").is_some());
        let mm = scope.get("imbalance/max_mean").unwrap();
        assert_eq!(mm.points.len(), 2);
        assert!((mm.points[0].value - 1.5).abs() < 1e-9);
        let gi = scope.get("imbalance/gini").unwrap();
        assert!((gi.points[0].value - 0.25).abs() < 1e-9);
    }

    #[test]
    fn single_shard_run_has_no_imbalance_series() {
        let scope = Scope::new();
        let summary = ingest_windows(&scope, &[vec![w(0, 10, 0, 100, 0, 0)]]);
        assert_eq!(summary.windows, 1);
        assert_eq!(summary.peak_max_mean, 0.0);
        assert!(scope.get("imbalance/max_mean").is_none());
        assert!(scope.get("shard0/events").is_some());
    }

    #[test]
    fn disabled_scope_still_summarizes() {
        let scope = Scope::disabled();
        let per_shard = vec![
            vec![w(0, 100, 50, 1_000, 5, 3)],
            vec![w(0, 300, 10, 1_000, 3, 5)],
        ];
        let summary = ingest_windows(&scope, &per_shard);
        assert_eq!(summary.events, 400);
        assert!((summary.peak_max_mean - 1.5).abs() < 1e-9);
        assert!(scope.snapshot_all().is_empty());
    }

    #[test]
    fn empty_input_is_empty_summary() {
        let summary = ingest_windows(&Scope::new(), &[]);
        assert_eq!(summary, WindowsSummary::default());
    }
}
