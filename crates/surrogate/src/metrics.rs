//! Regression-quality metrics.

/// Root-mean-squared error.
pub fn rmse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty());
    let mse = pred
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64;
    mse.sqrt()
}

/// Coefficient of determination (`1 - SS_res / SS_tot`; `0.0` when the
/// target is constant and predictions match it, negative when worse than
/// the mean predictor).
pub fn r2(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty());
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|t| (t - mean) * (t - mean)).sum();
    let ss_res: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t) * (p - t)).sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Average ranks, with ties sharing their mean rank.
fn ranks(v: &[f64]) -> Vec<f64> {
    let n = v.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap_or(std::cmp::Ordering::Equal));
    let mut r = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && v[order[j + 1]] == v[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            r[k] = avg;
        }
        i = j + 1;
    }
    r
}

/// Spearman rank correlation — the metric that matters for tuners, which
/// only need predicted *ordering* of candidates to be right.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    assert!(a.len() >= 2, "need at least two points");
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..a.len() {
        let (x, y) = (ra[i] - mean, rb[i] - mean);
        num += x * y;
        da += x * x;
        db += y * y;
    }
    if da == 0.0 || db == 0.0 {
        0.0
    } else {
        num / (da * db).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_basic() {
        let p = [1.0, 2.0, 3.0];
        let t = [1.0, 2.0, 5.0];
        assert!((rmse(&p, &t) - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn r2_perfect_and_mean() {
        let t = [1.0, 2.0, 3.0, 4.0];
        assert!((r2(&t, &t) - 1.0).abs() < 1e-12);
        let mean_pred = [2.5; 4];
        assert!(r2(&mean_pred, &t).abs() < 1e-12);
    }

    #[test]
    fn spearman_monotone_invariance() {
        let a: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b: Vec<f64> = a.iter().map(|x| x.exp()).collect(); // monotone map
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        let c: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((spearman(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [1.0, 1.0, 2.0, 3.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        let flat = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(spearman(&flat, &b), 0.0);
    }
}
