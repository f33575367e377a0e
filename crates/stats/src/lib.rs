//! Statistics primitives and text-table rendering for the SMT simulator.
//!
//! The pipeline model and the experiment harness both need the same small
//! vocabulary: event/ratio counters, running means, small histograms, named
//! data series (one per figure line), and fixed-width text tables that can
//! be diffed against the paper's tables.
//!
//! # Examples
//!
//! ```
//! use smt_stats::Ratio;
//!
//! let mut miss_rate = Ratio::new();
//! for i in 0..100 {
//!     miss_rate.record(i % 10 == 0);
//! }
//! assert_eq!(miss_rate.percent(), 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binio;
pub mod counters;
#[cfg(feature = "fault-inject")]
pub mod faults;
pub mod json;
pub mod sched;

use std::fmt;
use std::fmt::Write as _;

pub use counters::Counters;

counters! {
    /// A hit/total style ratio counter (miss rates, prediction rates, ...).
    pub struct Ratio {
        /// Number of events for which the tracked condition held.
        pub hits: u64,
        /// Total number of events observed.
        pub total: u64,
    }
}

impl Ratio {
    /// Creates an empty ratio.
    pub fn new() -> Ratio {
        Ratio::default()
    }

    /// Records one event; `hit` says whether the tracked condition held.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        self.hits += u64::from(hit);
    }

    /// The fraction of events for which the condition held (0.0 when empty).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// The ratio expressed as a percentage.
    pub fn percent(&self) -> f64 {
        self.fraction() * 100.0
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}% ({}/{})", self.percent(), self.hits, self.total)
    }
}

/// An incrementally updated arithmetic mean.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMean {
    sum: f64,
    count: u64,
}

impl RunningMean {
    /// Creates an empty mean.
    pub fn new() -> RunningMean {
        RunningMean::default()
    }

    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, sample: f64) {
        self.sum += sample;
        self.count += 1;
    }

    /// The mean of all recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// A small fixed-bucket histogram over `0..=max` with an overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram covering values `0..=max`; larger values land in
    /// the final (overflow) bucket.
    pub fn new(max: usize) -> Histogram {
        Histogram {
            buckets: vec![0; max + 2],
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: usize) {
        let idx = value.min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
    }

    /// Count in the bucket for `value` (overflow bucket for large values).
    pub fn count(&self, value: usize) -> u64 {
        self.buckets[value.min(self.buckets.len() - 1)]
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of recorded samples, treating overflow samples as `max + 1`.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(v, &c)| v as f64 * c as f64)
            .sum();
        sum / total as f64
    }
}

/// A named series of `(x, y)` points — one line of a paper figure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    /// Line label, e.g. `"ICOUNT.2.8"`.
    pub name: String,
    /// `(x, y)` points, e.g. `(threads, IPC)`.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Series {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The `y` value at the given `x`, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|(px, _)| *px == x).map(|(_, y)| *y)
    }

    /// The maximum `y` value in the series, if non-empty.
    pub fn y_max(&self) -> Option<f64> {
        self.points.iter().map(|&(_, y)| y).fold(None, |acc, y| {
            Some(match acc {
                None => y,
                Some(m) => m.max(y),
            })
        })
    }
}

/// Renders a set of series as a fixed-width text table: one row per distinct
/// `x`, one column per series. Useful for printing figure data.
pub fn render_series_table(x_label: &str, series: &[Series]) -> String {
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN x values"));
    xs.dedup();

    let mut table = TextTable::new();
    let mut header = vec![x_label.to_string()];
    header.extend(series.iter().map(|s| s.name.clone()));
    table.header(header);
    for x in xs {
        let mut row = vec![format_num(x)];
        for s in series {
            row.push(match s.y_at(x) {
                Some(y) => format!("{:.2}", y),
                None => "-".to_string(),
            });
        }
        table.row(row);
    }
    table.to_string()
}

fn format_num(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{}", x as i64)
    } else {
        format!("{:.2}", x)
    }
}

/// A simple fixed-width text table builder.
///
/// The first column is left-aligned; all other columns are right-aligned,
/// which matches how the paper's tables read.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates an empty table.
    pub fn new() -> TextTable {
        TextTable::default()
    }

    /// Sets the header row.
    pub fn header(&mut self, cells: Vec<String>) -> &mut TextTable {
        self.header = cells;
        self
    }

    /// Appends a data row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut TextTable {
        self.rows.push(cells);
        self
    }

    /// Appends a row from string slices.
    pub fn row_strs(&mut self, cells: &[&str]) -> &mut TextTable {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as comma-separated values (header included).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        if !self.header.is_empty() {
            let cells: Vec<String> = self.header.iter().map(|c| esc(c)).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| esc(c)).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = row.get(i).unwrap_or(&empty);
                if i == 0 {
                    write!(f, "{:<width$}", cell, width = w)?;
                } else {
                    write!(f, "  {:>width$}", cell, width = w)?;
                }
            }
            writeln!(f)
        };
        if !self.header.is_empty() {
            write_row(f, &self.header)?;
            let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
            writeln!(f, "{}", "-".repeat(total))?;
        }
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_basics() {
        let mut r = Ratio::new();
        assert_eq!(r.fraction(), 0.0);
        r.record(true);
        r.record(false);
        r.record(false);
        r.record(true);
        assert_eq!(r.percent(), 50.0);
        assert_eq!((r.hits, r.total), (2, 4));
    }

    #[test]
    fn ratio_merge() {
        let mut a = Ratio { hits: 1, total: 4 };
        let b = Ratio { hits: 3, total: 4 };
        a.merge(&b);
        assert_eq!(a.fraction(), 0.5);
    }

    #[test]
    fn ratio_display_is_nonempty() {
        let r = Ratio { hits: 1, total: 3 };
        let s = r.to_string();
        assert!(s.contains("1/3"));
    }

    #[test]
    fn running_mean() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), 0.0);
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.record(v);
        }
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.count(), 4);
        assert_eq!(m.sum(), 10.0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(4);
        for v in [0, 1, 1, 4, 9, 100] {
            h.record(v);
        }
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(4), 1);
        // 9 and 100 land in the overflow bucket (treated as 5).
        assert_eq!(h.count(5), 2);
        assert_eq!(h.total(), 6);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn histogram_empty_mean_is_zero() {
        let h = Histogram::new(4);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn series_points_and_lookup() {
        let mut s = Series::new("ICOUNT.2.8");
        s.push(1.0, 2.1);
        s.push(8.0, 5.4);
        assert_eq!(s.y_at(8.0), Some(5.4));
        assert_eq!(s.y_at(2.0), None);
        assert_eq!(s.y_max(), Some(5.4));
    }

    #[test]
    fn series_table_renders_all_lines() {
        let mut a = Series::new("RR.1.8");
        a.push(1.0, 2.1);
        a.push(8.0, 3.9);
        let mut b = Series::new("ICOUNT.2.8");
        b.push(8.0, 5.4);
        let out = render_series_table("threads", &[a, b]);
        assert!(out.contains("RR.1.8"));
        assert!(out.contains("ICOUNT.2.8"));
        assert!(out.contains("5.40"));
        // x=1 exists only for series a; series b shows "-".
        assert!(out.lines().any(|l| l.starts_with('1') && l.contains('-')));
    }

    #[test]
    fn text_table_alignment_and_csv() {
        let mut t = TextTable::new();
        t.header(vec!["metric".into(), "1".into(), "8".into()]);
        t.row_strs(&["ipc", "2.10", "5.40"]);
        t.row_strs(&["miss,rate", "2.5%", "14.1%"]);
        let s = t.to_string();
        assert!(s.contains("metric"));
        assert!(s.contains("5.40"));
        let csv = t.to_csv();
        assert!(csv.starts_with("metric,1,8"));
        assert!(csv.contains("\"miss,rate\""));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
