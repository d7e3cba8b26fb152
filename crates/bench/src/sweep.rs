//! The one sweep loop every figure runs, and the panels it fills.
//!
//! Every figure in the paper is a sweep: hold the configuration fixed, vary
//! offered load, and plot a statistic per load point with error bars across
//! seeds. [`sweep()`] runs configurations × x values × seeds, one run per
//! cell, any number of metrics per run; each metric fills one [`Sweep`],
//! which renders the rows the paper plots as an aligned text table and as
//! CSV for external plotting.

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

/// One measured series of a sweep: a named line on the figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label, e.g. `"Vanilla Linux"` or `"Round Robin"`.
    pub label: String,
    /// `(x, per-seed y values)` rows in sweep order.
    pub points: Vec<(f64, Vec<f64>)>,
}

impl Series {
    /// Creates an empty series with the given legend label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends the per-seed measurements for one x value.
    pub fn push(&mut self, x: f64, ys: Vec<f64>) {
        self.points.push((x, ys));
    }

    /// Mean y at each x.
    pub fn means(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|(x, ys)| (*x, mean_stdev(ys).0))
            .collect()
    }

    /// The largest x whose mean y stays at or below `limit`, i.e. the
    /// "load sustained before the tail explodes" statistic the paper quotes
    /// (e.g. "124% higher throughput before the tail latency explodes").
    pub fn max_x_within(&self, limit: f64) -> Option<f64> {
        self.means()
            .into_iter()
            .filter(|&(_, y)| y <= limit)
            .map(|(x, _)| x)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }
}

/// A complete figure: several series over a common x-axis.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Figure title, e.g. `"Figure 6: 99% latency vs load"`.
    pub title: String,
    /// X-axis label, e.g. `"Load (RPS)"`.
    pub x_label: String,
    /// Y-axis label, e.g. `"99% Latency (us)"`.
    pub y_label: String,
    /// The measured lines.
    pub series: Vec<Series>,
}

impl Sweep {
    /// Creates an empty sweep with axis metadata.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Sweep {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a finished series.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Renders an aligned `mean (± stdev)` table, one row per x value and
    /// one column per series — the textual equivalent of the paper's plot.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# {}\n# y: {}  (mean ± stdev across seeds)\n",
            self.title, self.y_label
        ));
        let mut header = vec![self.x_label.clone()];
        header.extend(self.series.iter().map(|s| s.label.clone()));

        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|(x, _)| *x).collect())
            .unwrap_or_default();

        let mut rows: Vec<Vec<String>> = vec![header];
        for (i, x) in xs.iter().enumerate() {
            let mut row = vec![format_sig(*x)];
            for s in &self.series {
                match s.points.get(i) {
                    Some((_, ys)) if !ys.is_empty() => {
                        let (m, sd) = mean_stdev(ys);
                        row.push(format!("{} ±{}", format_sig(m), format_sig(sd)));
                    }
                    _ => row.push("-".to_string()),
                }
            }
            rows.push(row);
        }

        let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
        let widths: Vec<usize> = (0..cols)
            .map(|c| {
                rows.iter()
                    .filter_map(|r| r.get(c))
                    .map(|s| s.len())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for row in &rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{:>width$}", cell, width = widths[c]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Renders `x,series1_mean,series1_stdev,...` CSV for plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(' ', "_"));
        for s in &self.series {
            let tag = s.label.replace(' ', "_");
            out.push_str(&format!(",{tag}_mean,{tag}_stdev"));
        }
        out.push('\n');
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|(x, _)| *x).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                match s.points.get(i) {
                    Some((_, ys)) if !ys.is_empty() => {
                        let (m, sd) = mean_stdev(ys);
                        out.push_str(&format!(",{m},{sd}"));
                    }
                    _ => out.push_str(",,"),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Formats with three significant decimals but no trailing zero noise.
fn format_sig(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Mean and sample standard deviation of a set of per-seed measurements,
/// used for the error bars the paper draws across 5–20 runs.
fn mean_stdev(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
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

    fn sample_sweep() -> Sweep {
        let mut sw = Sweep::new("Fig X", "Load (RPS)", "99% Latency (us)");
        let mut a = Series::new("Vanilla");
        a.push(100.0, vec![50.0, 60.0]);
        a.push(200.0, vec![2000.0, 2200.0]);
        let mut b = Series::new("RR");
        b.push(100.0, vec![40.0]);
        b.push(200.0, vec![55.0]);
        sw.push_series(a);
        sw.push_series(b);
        sw
    }

    #[test]
    fn table_contains_all_labels_and_rows() {
        let t = sample_sweep().to_table();
        assert!(t.contains("Vanilla"));
        assert!(t.contains("RR"));
        assert!(t.contains("100"));
        assert!(t.contains("200"));
        assert!(t.contains("±"));
    }

    #[test]
    fn csv_shape() {
        let csv = sample_sweep().to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("Load_(RPS),Vanilla_mean,Vanilla_stdev"));
        assert_eq!(lines[1].split(',').count(), 5);
    }

    #[test]
    fn max_x_within_finds_knee() {
        let sw = sample_sweep();
        assert_eq!(sw.series[0].max_x_within(100.0), Some(100.0));
        assert_eq!(sw.series[1].max_x_within(100.0), Some(200.0));
        assert_eq!(sw.series[0].max_x_within(1.0), None);
    }

    #[test]
    fn means_average_seeds() {
        let sw = sample_sweep();
        let means = sw.series[0].means();
        assert_eq!(means[0], (100.0, 55.0));
    }

    #[test]
    fn empty_sweep_renders() {
        let sw = Sweep::new("empty", "x", "y");
        assert!(sw.to_table().contains("empty"));
        assert!(sw.to_csv().starts_with("x"));
    }

    #[test]
    fn mean_stdev_basics() {
        let (m, s) = mean_stdev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.138089935).abs() < 1e-6);
        assert_eq!(mean_stdev(&[]), (0.0, 0.0));
        assert_eq!(mean_stdev(&[3.0]), (3.0, 0.0));
    }
}
