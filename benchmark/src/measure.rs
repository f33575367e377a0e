//! Sample statistics, the report digest and small timing helpers.

use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// A simulated count that must repeat bit for bit on one seed.
    pub exact: bool,
}

impl Metric {
    /// A measured (host-time or host-state) metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            exact: false,
        }
    }

    /// A simulated metric.
    pub fn exact(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            exact: true,
            ..Metric::new(name, value, unit)
        }
    }
}

/// Median of the samples: the middle one, or the mean of the middle two.
///
/// # Panics
///
/// Panics on an empty slice — every caller takes at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Smallest and largest sample.
pub fn min_max(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// 64-bit FNV-1a over `bytes`: the digest printed for every rendered
/// report and study document, so two runs compare by one number.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `f` once and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median elapsed nanoseconds of `reps` calls of `f`.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), 91.0, "10 of 101 samples lie beyond");
        assert_eq!(percentile(&s, 50.0), 51.0);
        assert_eq!(percentile(&s, 100.0), 101.0);
        assert_eq!(percentile(&[5.0, 9.0, 7.0], 90.0), 9.0);
        assert_eq!(percentile(&[5.0], 0.0), 5.0);
    }

    #[test]
    fn min_max_spans_the_samples() {
        assert_eq!(min_max(&[2.0, -1.0, 5.0]), (-1.0, 5.0));
    }

    #[test]
    fn digest_matches_the_fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
