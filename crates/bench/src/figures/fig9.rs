//! Figure 9: MICA, 8 threads — steering at three layers of the stack.
//!
//! The same Syrup hash policy ("key hash → home core") deployed at three
//! different places: nowhere (original MICA's application-layer software
//! redirect), the kernel XDP hook (Syrup SW), and the programmable NIC
//! (Syrup HW). Two mixes, 50/50 and 95/5 GET/PUT; the y-axis is 99.9%
//! latency. Expected knees: ~1.7–1.8, ~2.7–2.8, ~3.2–3.3 MRPS.

use crate::{emit, knee_comparison, sweep_with, window, Sweep};
use syrup::apps::mica::{self, MicaConfig, MicaMode};

/// Regenerates `fig9a.csv` and `fig9b.csv`.
pub fn run(seeds: u64) -> Result<(), String> {
    let loads: Vec<f64> = (1..=14).map(|i| i as f64 * 250_000.0).collect();
    let modes =
        [MicaMode::SwRedirect, MicaMode::SyrupSw, MicaMode::SyrupHw].map(|m| (m.label(), m));
    for (tag, mix_label, get_frac) in [
        ("fig9a", "50% GET - 50% PUT", 0.5),
        ("fig9b", "95% GET - 5% PUT", 0.95),
    ] {
        let [sweep] = sweep_with(
            [Sweep::new(
                format!("Figure 9 ({mix_label}): MICA 8 threads"),
                "Load (RPS)",
                "99.9% Latency (us)",
            )],
            &modes,
            &loads,
            seeds,
            |&mode, load, seed| {
                let mut cfg = MicaConfig::fig9(mode, get_frac, load, seed);
                (cfg.warmup, cfg.measure) = window(20, 120);
                [mica::run(&cfg).latency.p999().as_micros_f64()]
            },
            |mode_label| eprintln!("finished {mix_label} / {mode_label}"),
        );
        emit(tag, &sweep);
        knee_comparison(&sweep, 1000.0, MicaMode::SwRedirect.label());
    }
    Ok(())
}
