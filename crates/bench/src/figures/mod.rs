//! The artifact list: every figure program, by name.
//!
//! Each submodule regenerates one figure (its module doc says which and
//! what the paper claims about it) through the shared [`crate::sweep()`]
//! loop. [`FIGURES`] is the only place the ten names are listed in code:
//! `src/bin/<name>.rs` is a one-line `main` over it, and `--bin all` walks
//! it (plus [`table2`]) to regenerate everything under `results/` in one
//! timed pass.

use std::process::ExitCode;

mod ablate_sockbuf;
mod ext_late_binding;
mod ext_rfs;
mod ext_storage;
mod fig2;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod sched_tail;
mod table2;

pub use table2::run as table2;

/// One figure program of the registry.
pub struct Figure {
    /// Name of the program and of its `src/bin/<name>.rs`.
    pub name: &'static str,
    /// Seeds per sweep cell at `SYRUP_SCALE=1`.
    pub seeds: u64,
    run: fn(seeds: u64) -> Result<(), String>,
}

impl Figure {
    /// Runs the figure with its seed count scaled by `SYRUP_SCALE`:
    /// prints its tables and writes its CSVs into `results/`.
    pub fn regenerate(&self) -> Result<(), String> {
        (self.run)(crate::scaled_seeds(self.seeds))
    }
}

/// Every world-backed figure, in the order `all` regenerates them.
#[rustfmt::skip]
pub const FIGURES: [Figure; 10] = [
    Figure { name: "fig2", seeds: 20, run: fig2::run },
    Figure { name: "fig6", seeds: 5, run: fig6::run },
    Figure { name: "fig7", seeds: 5, run: fig7::run },
    Figure { name: "fig8", seeds: 5, run: fig8::run },
    Figure { name: "fig9", seeds: 3, run: fig9::run },
    Figure { name: "sched_tail", seeds: 10, run: sched_tail::run },
    Figure { name: "ablate_sockbuf", seeds: 5, run: ablate_sockbuf::run },
    Figure { name: "ext_late_binding", seeds: 5, run: ext_late_binding::run },
    Figure { name: "ext_rfs", seeds: 5, run: ext_rfs::run },
    Figure { name: "ext_storage", seeds: 5, run: ext_storage::run },
];

/// The whole `main` of `src/bin/<name>.rs`.
pub fn main(name: &str) -> ExitCode {
    let figure = FIGURES.iter().find(|f| f.name == name);
    crate::exit_code(figure.expect("a registered figure").regenerate())
}
