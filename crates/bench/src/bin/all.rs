//! Regenerates every artifact under `results/` in one timed pass: the ten
//! figure programs of [`bench::figures::FIGURES`], then `table2`.
//!
//! Appends `{bench: "figs", host facts, SYRUP_SCALE, per-figure wall_s,
//! total_wall_s}` to `results/BENCH_figs.json` — the "wall-seconds to
//! regenerate every figure" headline — and overwrites
//! `results/PROVENANCE.json` with the scale, seed counts and host the
//! CSVs now in `results/` came from. Takes no arguments; the scale is
//! `SYRUP_SCALE` as for every figure. To check that the tree holds what
//! the code produces, run it at the scale PROVENANCE names and
//! `git diff --exit-code -- 'results/*.csv'`.

use std::process::ExitCode;
use std::time::Instant;

use bench::figures::{self, FIGURES};

fn regenerate_all() -> Result<(), String> {
    let scale = bench::scale();
    // Before the run: regenerating dirties the checkout.
    let host = bench::host_facts();
    let mut wall_s = Vec::new();
    let mut timed = |name: &str, run: &dyn Fn() -> Result<(), String>| {
        let start = Instant::now();
        run().map_err(|e| format!("all: {name}: {e}"))?;
        wall_s.push(format!("\"{name}\":{:.3}", start.elapsed().as_secs_f64()));
        Ok::<(), String>(())
    };
    let start = Instant::now();
    for figure in &FIGURES {
        timed(figure.name, &|| figure.regenerate())?;
    }
    timed("table2", &figures::table2)?;
    let total = start.elapsed().as_secs_f64();
    println!("\n# regenerated every figure in {total:.1} s at SYRUP_SCALE={scale}");
    bench::append_bench_record(
        "BENCH_figs.json",
        &format!(
            "{{\"bench\":\"figs\",\"unix_ts\":{},{host},\"syrup_scale\":{scale},\
             \"wall_s\":{{{}}},\"total_wall_s\":{total:.3}}}",
            bench::unix_ts(),
            wall_s.join(",")
        ),
    );
    let seeds: Vec<String> = FIGURES
        .iter()
        .map(|f| format!("\"{}\":{}", f.name, bench::scaled_seeds(f.seeds)))
        .collect();
    let provenance = format!(
        "{{\"syrup_scale\":{scale},\"seeds\":{{{}}},{host}}}\n",
        seeds.join(",")
    );
    let path = bench::results_dir().join("PROVENANCE.json");
    std::fs::write(&path, provenance)
        .map_err(|e| format!("all: could not write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: all  (no arguments; SYRUP_SCALE sets the scale)");
        return ExitCode::from(2);
    }
    bench::exit_code(regenerate_all())
}
