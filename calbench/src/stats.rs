//! Nearest-rank quantiles, with the tail rule the benchmark reports by.

/// The nearest-rank `q`-quantile of `values`: the smallest sample such
/// that at least `q` of all samples are at or below it. `None` for an
/// empty slice.
pub fn nearest_rank(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(values, 0.5)
}

/// Samples a tail quantile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile, refused (`None`) unless at least
/// [`MIN_BEYOND`] samples lie strictly above its rank, so a reported
/// tail always rests on ten or more observations.
pub fn tail(values: &[f64], q: f64) -> Option<f64> {
    let rank = (q.clamp(0.0, 1.0) * values.len() as f64).ceil() as usize;
    if values.len().saturating_sub(rank.max(1)) < MIN_BEYOND {
        return None;
    }
    nearest_rank(values, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.51), Some(6.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        let v = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(median(&v), Some(3.0));
    }

    #[test]
    fn p99_refuses_without_ten_samples_beyond() {
        // 1099 samples: rank ceil(0.99·1099) = 1089, 10 beyond it.
        let ok: Vec<f64> = (1..=1099).map(f64::from).collect();
        assert_eq!(tail(&ok, 0.99), Some(1089.0));
        // 1000 samples: rank 990, 10 beyond.
        let ok: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&ok, 0.99), Some(990.0));
        // 999 samples: rank 990, only 9 beyond.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&short, 0.99), None);
        assert_eq!(tail(&[], 0.99), None);
    }
}
