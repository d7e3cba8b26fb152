//! Extension experiment (§6.1): the storage backend.
//!
//! A latency-sensitive reader shares a flash device with a best-effort
//! writer. Sweeping the offered write rate shows the ReFlex-style token
//! policy holding the read p95 flat (by throttling the writer to its
//! budget) where the unprotected device lets write interference blow up
//! the read tail.

use crate::{emit, scaled, sweep, Duration, Sweep};
use syrup::storage::world::{self, StorageConfig};

/// Regenerates `ext_storage_read_p95.csv` and
/// `ext_storage_write_goodput.csv`.
pub fn run(seeds: u64) -> Result<(), String> {
    let write_rates: Vec<f64> = (0..=8).map(|i| i as f64 * 3_000.0).collect();
    let [p95, wtput] = sweep(
        [
            Sweep::new(
                "Extension (6.1): read p95 vs offered write rate (30K read IOPS)",
                "Offered write IOPS",
                "Read p95 latency (us)",
            ),
            Sweep::new(
                "Extension (6.1): write goodput",
                "Offered write IOPS",
                "Writes completed per second",
            ),
        ],
        &[("No policy", false), ("Syrup token policy", true)],
        &write_rates,
        seeds,
        |&with_policy, write_iops, seed| {
            let cfg = StorageConfig {
                write_iops,
                with_policy,
                measure: scaled(Duration::from_millis(200)),
                seed,
                ..StorageConfig::default()
            };
            let r = world::run(&cfg);
            [
                r.read_latency.percentile(0.95).as_micros_f64(),
                r.writes_done as f64 / (2.0 * cfg.measure.as_secs_f64()),
            ]
        },
    );
    emit("ext_storage_read_p95", &p95);
    emit("ext_storage_write_goodput", &wtput);
    Ok(())
}
