//! `top`: a dashboard over a sharded scale run.

use syrup::scope::{ingest_windows, AnomalyEngine, Scope};
use syrup::sim::{scale, ScaleCfg, ScaleEngine};

use crate::args::{has_flag, json_array, num_flag, to_json};
use crate::scenario::{run, Sink};

/// A `top`-style dashboard over a sharded scale run: per-frame, per-shard
/// throughput, barrier-stall share, and occupancy, with cross-shard
/// imbalance, anomaly events from EWMA+MAD detectors over per-shard
/// throughput, and the ranked quickstart's rank-band queue pressure.
///
/// The run records per-window samples ([`syrup::sim::WindowSample`]),
/// feeds them through [`syrup::scope::ingest_windows`] into a
/// [`syrup::scope::Scope`], and groups the lock-step windows into
/// `--frames` frames. `--json` prints one object per frame and then one
/// summary object, so scripts can stream frames line by line.
pub fn top(args: &[String]) -> Result<(), String> {
    let flows: u64 = num_flag(args, "--flows", 4_000)?;
    let shards: usize = num_flag(args, "--shards", 2)?;
    let frames: usize = num_flag(args, "--frames", 8)?;
    let seed: u64 = num_flag(args, "--seed", 7)?;
    // The scale engine asserts its preconditions; a flag has to fail here
    // instead. Flow ids are `u32`, and a shard with no flow has nothing
    // to simulate.
    if shards == 0 || frames == 0 {
        return Err("--shards and --frames must be positive".to_string());
    }
    if flows == 0 || flows > u64::from(u32::MAX) {
        return Err(format!("--flows must be between 1 and {}", u32::MAX));
    }
    if shards as u64 > flows {
        return Err("--shards must not exceed --flows".to_string());
    }
    let json = has_flag(args, "--json");

    let mut cfg = ScaleCfg::new(flows, shards, seed);
    cfg.record_windows = true;
    let result = scale::run(&cfg, ScaleEngine::Wheel);
    let scope = Scope::new();
    let summary = ingest_windows(&scope, &result.per_shard_windows);

    // Anomaly detectors over per-shard throughput, fed in lock-step
    // order so the baselines see time the way a live monitor would.
    // Single windows hold a handful of events each, so adjacent windows
    // are summed into coarser buckets first — the detectors should flag
    // sustained throughput excursions, not per-window burstiness.
    let mut engine = AnomalyEngine::new();
    let mut anomalies = Vec::new();
    let nwindows = summary.windows as usize;
    let bucket = (nwindows / 256).max(1);
    for lo in (0..nwindows).step_by(bucket) {
        for (k, windows) in result.per_shard_windows.iter().enumerate() {
            let chunk = &windows[lo.min(windows.len())..(lo + bucket).min(windows.len())];
            let Some(first) = chunk.first() else { continue };
            let events: u64 = chunk.iter().map(|w| w.events).sum();
            if let Some(ev) = engine.observe(
                &format!("shard{k}/events"),
                first.window_start_ns,
                events as f64,
            ) {
                anomalies.push(ev);
            }
        }
    }

    // Rank-band queue pressure comes from the ranked quickstart — the
    // scale world has no ranked queues, so the dashboard borrows the
    // PIFO sockets' per-band occupancy for its pressure panel.
    let (_, band_profiler) = run(&["--ranked".to_string()], &[Sink::Profiler])?;
    let bands = band_profiler.pressure().rank_bands;

    if !json {
        println!(
            "syrup top — {} flows over {} shards ({} engine): {} windows in {} frames, {} events",
            flows,
            shards,
            ScaleEngine::Wheel.name(),
            nwindows,
            frames,
            summary.events
        );
    }
    let per_frame = nwindows.div_ceil(frames).max(1);
    let mut frame_no = 0u64;
    for lo in (0..nwindows).step_by(per_frame) {
        let hi = (lo + per_frame).min(nwindows);
        frame_no += 1;
        let start_ns = result.per_shard_windows[0]
            .get(lo)
            .map_or(0, |w| w.window_start_ns);
        let end_ns = result.per_shard_windows[0]
            .get(hi - 1)
            .map_or(start_ns, |w| w.window_start_ns);
        // (shard, events, barrier wait, stall %, mailbox out, last occupancy)
        let shard_rows: Vec<(usize, u64, u64, f64, u64, u64)> = result
            .per_shard_windows
            .iter()
            .enumerate()
            .map(|(k, w)| {
                let s = &w[lo.min(w.len())..hi.min(w.len())];
                let barrier: u64 = s.iter().map(|w| w.barrier_wait_ns).sum();
                let wall: u64 = s.iter().map(|w| w.wall_ns).sum();
                let stall = if wall > 0 {
                    barrier as f64 / wall as f64 * 100.0
                } else {
                    0.0
                };
                (
                    k,
                    s.iter().map(|w| w.events).sum(),
                    barrier,
                    stall,
                    s.iter().map(|w| w.mailbox_out).sum(),
                    s.last().map_or(0, |w| w.occupancy),
                )
            })
            .collect();
        let frame_events: u64 = shard_rows.iter().map(|r| r.1).sum();
        let mean = frame_events as f64 / shards as f64;
        let imbalance = if mean > 0.0 {
            shard_rows.iter().map(|r| r.1).max().unwrap_or(0) as f64 / mean
        } else {
            0.0
        };
        let frame_anoms: Vec<_> = anomalies
            .iter()
            .filter(|a| a.at_ns >= start_ns && a.at_ns <= end_ns)
            .collect();
        if json {
            let shard = |(k, ev, barrier, stall, mbox, occ): &(usize, u64, u64, f64, u64, u64)| {
                format!(
                    "{{\"shard\":{k},\"events\":{ev},\"barrier_wait_ns\":{barrier},\
                     \"stall_pct\":{stall:.2},\"mailbox_out\":{mbox},\"occupancy\":{occ}}}"
                )
            };
            println!(
                "{{\"frame\":{frame_no},\"start_ns\":{start_ns},\"end_ns\":{end_ns},\
                 \"events\":{frame_events},\"imbalance_max_mean\":{imbalance:.4},\
                 \"shards\":{},\"anomalies\":{}}}",
                json_array(shard_rows.iter().map(shard)),
                to_json(&frame_anoms)?
            );
        } else {
            println!(
                "\nframe {frame_no}  [{start_ns} .. {end_ns}] ns  events {frame_events}  \
                 imbalance {imbalance:.2}  anomalies {}",
                frame_anoms.len()
            );
            println!(
                "  {:<6} {:>9} {:>15} {:>7} {:>12} {:>10}",
                "shard", "events", "barrier_wait_ns", "stall%", "mailbox_out", "occupancy"
            );
            for (k, ev, barrier, stall, mbox, occ) in &shard_rows {
                println!(
                    "  {:<6} {:>9} {:>15} {:>7.2} {:>12} {:>10}",
                    k, ev, barrier, stall, mbox, occ
                );
            }
            for a in &frame_anoms {
                println!(
                    "  ! anomaly {}: value {:.0} vs median {:.0} (z {:.1})",
                    a.series, a.value, a.median, a.z
                );
            }
        }
    }
    if json {
        println!(
            "{{\"summary\":{{\"flows\":{flows},\"shards\":{shards},\"windows\":{nwindows},\
             \"events\":{},\"completed\":{},\"barrier_stall_pct\":{:.4},\
             \"peak_max_mean\":{:.4},\"mean_gini\":{:.6},\"anomalies\":{},\"rank_bands\":{}}}}}",
            summary.events,
            result.stats.completed,
            summary.barrier_stall_pct,
            summary.peak_max_mean,
            summary.mean_gini,
            anomalies.len(),
            to_json(&bands)?
        );
    } else {
        println!(
            "\noverall: {} completed, barrier stall {:.2}%, peak imbalance {:.2}, \
             mean gini {:.4}, {} anomalies",
            result.stats.completed,
            summary.barrier_stall_pct,
            summary.peak_max_mean,
            summary.mean_gini,
            anomalies.len()
        );
        for b in &bands {
            println!(
                "rank-band pressure ({}, ranked quickstart): {:.2?}",
                b.component, b.mean_depths
            );
        }
    }
    Ok(())
}
