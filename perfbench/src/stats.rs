//! Latency histograms and medians.
//!
//! Latencies go into `simnet::Histogram`, whose percentile is the
//! nearest-rank rule: the `p`-th percentile of `n` sorted samples is the
//! sample at 1-based rank `ceil(p / 100 * n)`. Per-slice and per-round
//! figures are floats and use [`median_f64`], the same rule at p50.
//! Either way the result is a value that was measured, never an
//! interpolation between two.

use simnet::{Histogram, SimDuration};

/// A histogram of nanosecond samples.
pub fn histogram(ns: impl IntoIterator<Item = u64>) -> Histogram {
    let mut h = Histogram::new();
    for x in ns {
        h.record(SimDuration::from_nanos(x));
    }
    h
}

/// Median (nearest rank) of a float list; `None` if empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().div_ceil(2).max(1) - 1).copied()
}

/// Indexes, in run order, of a run's quieter slices or rounds: those
/// in which the hypervisor took no more CPU time than in the median one.
/// At least half are kept, and all of them when none lost more than
/// the median.
pub fn quiet(stolen: &[u64]) -> Vec<usize> {
    let mut sorted = stolen.to_vec();
    sorted.sort_unstable();
    let Some(&median) = sorted.get(sorted.len().div_ceil(2).max(1) - 1) else {
        return Vec::new();
    };
    (0..stolen.len()).filter(|&k| stolen[k] <= median).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_floats_is_a_measured_value() {
        assert_eq!(median_f64(&[0.3, 0.1, 0.2, 0.4]), Some(0.2));
        assert_eq!(median_f64(&[2.5, 1.5, 3.5]), Some(2.5));
        assert_eq!(median_f64(&[7.0]), Some(7.0));
        assert_eq!(median_f64(&[]), None);
    }

    #[test]
    fn quiet_drops_what_lost_more_than_the_median() {
        assert_eq!(quiet(&[5, 0, 9, 0]), vec![1, 3]);
        assert_eq!(quiet(&[0, 0, 0]), vec![0, 1, 2]);
        assert_eq!(quiet(&[3, 0, 0, 1, 0, 0]), vec![1, 2, 4, 5]);
        assert_eq!(quiet(&[4, 0, 4, 1, 4]), vec![0, 1, 2, 3, 4]);
        assert!(quiet(&[]).is_empty());
    }

    #[test]
    fn histogram_keeps_nanoseconds() {
        let mut h = histogram([30, 10, 20]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.median().as_nanos(), 20);
    }
}
