//! Exact quantiles from raw sample vectors.
//!
//! Every timing the benchmark reports is a quantile of the raw samples
//! it collected, never of a bucketed histogram. A tail percentile is
//! only reported when at least [`MIN_TAIL`] samples lie beyond it;
//! otherwise the caller gets an error naming the shortfall.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between the two nearest ranks (the "type 7" estimator).
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// A tail quantile, refused unless at least [`MIN_TAIL`] samples lie
/// beyond it.
pub fn tail(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    // The epsilon keeps `(1 - 0.9) * 100` from flooring to 9.
    let beyond = ((1.0 - q) * samples.len() as f64 + 1e-9).floor() as usize;
    if beyond < MIN_TAIL {
        return Err(format!(
            "{what}: {} samples leave {beyond} beyond p{:.0}, need {MIN_TAIL}",
            samples.len(),
            q * 100.0
        ));
    }
    Ok(quantile(samples, q).expect("non-empty"))
}

/// Samples needed so that a `q` tail percentile is reportable.
pub fn needed_for(q: f64) -> usize {
    (MIN_TAIL as f64 / (1.0 - q) - 1e-9).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_refuses_thin_samples() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail(&v, 0.9, "x").is_err());
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert!((tail(&v, 0.9, "x").unwrap() - 89.1).abs() < 1e-9);
        assert_eq!(needed_for(0.9), 100);
    }
}
