//! Order statistics and means used to turn per-round and per-session values
//! into reported metrics.

/// Sorted copy; NaNs (which no measurement here produces) sort last.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Percentile `p` in `[0, 1]` with linear interpolation between closest
/// ranks (`p = 0.5` is the median). `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let last = v.len().checked_sub(1)?;
    let rank = p.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Geometric mean of strictly positive values; `None` if the slice is empty
/// or holds a value that is not positive and finite.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Samples strictly beyond percentile `p` in a pool of `n` (how many
/// observations back the reported tail).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the acceptance rule uses — with the exclusive quartile method
/// of Python's `statistics.quantiles(values, n=4)`.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

/// `(new - old) / old`, signed so that a positive value is *worse* for the
/// metric's direction.
pub fn relative_worsening(old: f64, new: f64, higher_is_better: bool) -> f64 {
    let change = (new - old) / old.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(11.0));
        assert_eq!(percentile(&[1.0, 2.0], 0.9), Some(1.9));
    }

    #[test]
    fn geometric_mean_rejects_non_positive_values() {
        let g = geometric_mean(&[1.0, 4.0, 16.0]).expect("positive values");
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        assert_eq!(geometric_mean(&[1.0, f64::INFINITY]), None);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(105, 0.9), 10);
        assert_eq!(samples_beyond(70, 0.9), 7);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).expect("ten values");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 10.5, 9.5], n=4) == [9.5, 10.0, 10.5]
        let s = quartile_spread(&[10.0, 10.5, 9.5]).expect("three values");
        assert!((s - 0.1).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((relative_worsening(10.0, 11.0, false) - 0.1).abs() < 1e-12);
        assert!((relative_worsening(10.0, 11.0, true) + 0.1).abs() < 1e-12);
        assert!((relative_worsening(10.0, 9.0, true) - 0.1).abs() < 1e-12);
    }
}
