//! Order statistics the benchmark reports: exact nearest-rank percentiles
//! with the "at least ten samples beyond" rule, and medians of host times.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` (0 < q <= 100) among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0) * n as f64).ceil().max(1.0) as usize
}

/// Exact nearest-rank percentile of an ascending slice.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q).min(sorted.len()) - 1]
}

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    /// The nearest-rank value.
    pub value: u64,
    /// Samples it was taken from.
    pub samples: usize,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// Percentile `q` of `samples`, or an error when fewer than
/// [`MIN_BEYOND`] samples lie beyond its rank (the figure would then
/// rest on a handful of outliers).
pub fn tail(samples: &[u64], q: f64) -> Result<Tail, String> {
    if samples.is_empty() {
        return Err(format!("p{q} of no samples"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let r = rank(sorted.len(), q).min(sorted.len());
    let beyond = sorted.len() - r;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{q} over {} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            sorted.len()
        ));
    }
    Ok(Tail {
        value: sorted[r - 1],
        samples: sorted.len(),
        beyond,
    })
}

/// Median of a non-empty list (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50);
        assert_eq!(nearest_rank(&v, 99.0), 99);
        assert_eq!(nearest_rank(&v, 100.0), 100);
        assert_eq!(nearest_rank(&v, 0.1), 1);
        assert_eq!(nearest_rank(&[7], 99.0), 7);
        // ranks round up: p50 of four samples is the second
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, ten beyond
        let ok: Vec<u64> = (1..=1000).rev().collect();
        let t = tail(&ok, 99.0).unwrap();
        assert_eq!((t.value, t.samples, t.beyond), (990, 1000, 10));
        // 999 samples: rank 990 leaves nine beyond
        let short: Vec<u64> = (1..=999).collect();
        assert!(tail(&short, 99.0).is_err());
        // p50 needs only 20 samples
        assert_eq!(tail(&(1..=20).collect::<Vec<_>>(), 50.0).unwrap().value, 10);
        assert!(tail(&(1..=19).collect::<Vec<_>>(), 50.0).is_err());
        assert!(tail(&[], 50.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
