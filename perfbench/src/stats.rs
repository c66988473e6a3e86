//! Exact order statistics over raw per-request samples.
//!
//! Percentiles are read from the sorted samples themselves (nearest
//! rank), never from histogram buckets, and a percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly above a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from raw samples, with the count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
}

/// The `p`-th percentile (`0 < p < 100`) of `samples` by nearest rank:
/// the smallest sample with at least `p`% of all samples at or below it.
///
/// # Errors
///
/// When fewer than [`MIN_BEYOND`] samples lie beyond that rank — such a
/// percentile is noise, not a number.
pub fn percentile(samples: &[f64], p: f64) -> Result<Percentile, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = samples.len();
    // Nearest rank, 1-based: ceil(p/100 · n). The epsilon keeps exact
    // products such as 0.99 · 1000 from rounding up past 990.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it (need {MIN_BEYOND})"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of a small set of repeated measurements (e.g. set-up times);
/// unlike [`percentile`] it needs no tail beyond it.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Shuffled so the function has to sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn nearest_rank_on_one_to_a_thousand() {
        let v = one_to(1000);
        assert_eq!(percentile(&v, 50.0).unwrap().value, 500.0);
        assert_eq!(percentile(&v, 99.0).unwrap().value, 990.0);
        assert_eq!(percentile(&v, 99.0).unwrap().samples, 1000);
        assert_eq!(percentile(&v, 90.0).unwrap().value, 900.0);
    }

    #[test]
    fn ranks_round_up_between_samples() {
        // 0.5 · 21 = 10.5 → rank 11.
        let v = one_to(21);
        assert_eq!(percentile(&v, 50.0).unwrap().value, 11.0);
    }

    #[test]
    fn too_thin_a_tail_is_an_error() {
        // p99 of 999 samples has rank 990 and only 9 samples beyond it.
        assert!(percentile(&one_to(999), 99.0).is_err());
        assert!(percentile(&one_to(1000), 99.0).is_ok());
        // p50 needs 20 samples.
        assert!(percentile(&one_to(19), 50.0).is_err());
        assert!(percentile(&one_to(20), 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn ties_and_unsorted_input() {
        let mut v = vec![5.0; 30];
        v.extend([1.0; 30]);
        assert_eq!(percentile(&v, 50.0).unwrap().value, 1.0);
        v.push(5.0);
        assert_eq!(percentile(&v, 50.0).unwrap().value, 5.0);
    }

    #[test]
    fn median_and_mean_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
