//! The one sweep loop every figure runs: configurations × x values ×
//! seeds, one run per cell, any number of metrics per run.

use crate::{Series, Sweep};

/// Fills `panels` — one empty [`Sweep`] per metric — by calling `run` for
/// every `(configuration, x, seed)` cell.
///
/// Each panel gets one [`Series`] per entry of `configs`, in that order
/// and under that label; each series gets one point per entry of `xs`
/// holding the per-seed values for seeds `1..=seeds`. `run` returns one
/// value per panel: element `k` lands in panel `k`. A configuration's
/// completion is reported on stderr as `finished <label>`, once.
pub fn sweep<C, const N: usize>(
    panels: [Sweep; N],
    configs: &[(&str, C)],
    xs: &[f64],
    seeds: u64,
    run: impl FnMut(&C, f64, u64) -> [f64; N],
) -> [Sweep; N] {
    sweep_with(panels, configs, xs, seeds, run, |label| {
        eprintln!("finished {label}")
    })
}

/// [`sweep`] with the per-configuration completion report handed to
/// `finished` instead of stderr (Figure 9 prefixes its workload mix).
pub fn sweep_with<C, const N: usize>(
    mut panels: [Sweep; N],
    configs: &[(&str, C)],
    xs: &[f64],
    seeds: u64,
    mut run: impl FnMut(&C, f64, u64) -> [f64; N],
    mut finished: impl FnMut(&str),
) -> [Sweep; N] {
    for (label, config) in configs {
        let mut series: [Series; N] = std::array::from_fn(|_| Series::new(*label));
        for &x in xs {
            let mut columns: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
            for seed in 1..=seeds {
                for (column, y) in columns.iter_mut().zip(run(config, x, seed)) {
                    column.push(y);
                }
            }
            for (series, column) in series.iter_mut().zip(columns) {
                series.push(x, column);
            }
        }
        for (panel, series) in panels.iter_mut().zip(series) {
            panel.push_series(series);
        }
        finished(label);
    }
    panels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_fills_panels_in_config_order_with_seeds_from_one() {
        let mut calls = Vec::new();
        let mut finished = Vec::new();
        let [a, b] = sweep_with(
            [Sweep::new("A", "x", "ya"), Sweep::new("B", "x", "yb")],
            &[("second", 20.0), ("first", 10.0)],
            &[1.0, 2.0, 3.0],
            2,
            |&offset, x, seed| {
                calls.push((offset, x, seed));
                [offset + x, -(seed as f64)]
            },
            |label| finished.push(label.to_string()),
        );
        // One run per cell, configurations outermost, seeds 1..=n innermost.
        assert_eq!(calls.len(), 2 * 3 * 2);
        assert_eq!(calls[..3], [(20.0, 1.0, 1), (20.0, 1.0, 2), (20.0, 2.0, 1)]);
        assert_eq!(finished, ["second", "first"]);
        for panel in [&a, &b] {
            let labels: Vec<&str> = panel.series.iter().map(|s| s.label.as_str()).collect();
            assert_eq!(labels, ["second", "first"], "series order is configs order");
        }
        // Panel k holds element k of what `run` returned.
        assert_eq!(a.series[1].points[2], (3.0, vec![13.0, 13.0]));
        assert_eq!(b.series[0].points[0], (1.0, vec![-1.0, -2.0]));
        assert_eq!((a.title.as_str(), b.y_label.as_str()), ("A", "yb"));
    }

    #[test]
    fn sweep_without_configs_returns_the_panels_empty() {
        let [only] = sweep(
            [Sweep::new("T", "x", "y")],
            &[] as &[(&str, ())],
            &[1.0],
            3,
            |_, _, _| unreachable!("no configuration, no run"),
        );
        assert!(only.series.is_empty());
    }
}
