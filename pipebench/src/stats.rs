//! Order statistics over timing samples.

/// Median of `values` (mean of the middle two for an even count); NaN,
/// written as JSON `null`, when every run failed and left no sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The 90th percentile, reported only when at least ten samples lie
/// above it (n ≥ 100); a tail read off fewer samples is noise.
pub fn p90(values: &[f64]) -> Option<f64> {
    if values.len() < 100 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank: the smallest sample with at least 90% at or below it.
    let rank = (sorted.len() * 9).div_ceil(10);
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&few), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = p90(&enough).unwrap();
        assert_eq!(p, 90.0);
        assert_eq!(enough.iter().filter(|&&x| x > p).count(), 10);
    }
}
