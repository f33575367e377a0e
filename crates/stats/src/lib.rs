//! Statistics primitives and text-table rendering for the SMT simulator.
//!
//! The pipeline model and the experiment harness both need the same small
//! vocabulary: event/ratio counters (declared through [`counters!`]) and
//! fixed-width text tables that can be diffed against the paper's tables.
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
    fn text_table_alignment() {
        let mut t = TextTable::new();
        t.header(vec!["metric".into(), "1".into(), "8".into()]);
        t.row(vec!["ipc".into(), "2.10".into(), "5.40".into()]);
        let s = t.to_string();
        assert!(s.contains("metric"));
        assert!(s.contains("5.40"));
    }
}
