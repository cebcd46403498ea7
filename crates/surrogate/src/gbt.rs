//! Gradient-boosted regression trees (the XGBoost stand-in behind
//! AutoTVM's `XGBTuner`).

use crate::tree::{gather_columns, FitScratch, RegressionTree, LANES};
use crate::Regressor;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Gradient boosting with squared loss, shrinkage and row subsampling.
///
/// Squared loss means each round fits a CART tree to the current
/// residuals — sufficient for the tuner's purpose (ranking candidate
/// configurations by predicted runtime).
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    /// Boosting rounds (trees).
    pub n_rounds: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
    /// Depth cap per tree.
    pub max_depth: usize,
    /// Fraction of rows sampled per round (1.0 = all).
    pub subsample: f64,
    /// RNG seed.
    pub seed: u64,
    base: f64,
    trees: Vec<RegressionTree>,
}

impl GradientBoosting {
    /// Booster with `n_rounds` rounds, learning rate 0.3 and depth 6 —
    /// XGBoost's classic defaults.
    pub fn new(n_rounds: usize) -> GradientBoosting {
        GradientBoosting {
            n_rounds: n_rounds.max(1),
            learning_rate: 0.3,
            max_depth: 6,
            subsample: 1.0,
            seed: 0,
            base: 0.0,
            trees: Vec::new(),
        }
    }

    /// Builder: learning rate.
    pub fn with_learning_rate(mut self, lr: f64) -> Self {
        assert!(lr > 0.0 && lr <= 1.0, "learning rate must be in (0, 1]");
        self.learning_rate = lr;
        self
    }

    /// Builder: tree depth.
    pub fn with_max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Builder: row subsample fraction.
    pub fn with_subsample(mut self, s: f64) -> Self {
        assert!(s > 0.0 && s <= 1.0, "subsample must be in (0, 1]");
        self.subsample = s;
        self
    }

    /// Builder: RNG seed.
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// True once fitted.
    pub fn is_fitted(&self) -> bool {
        !self.trees.is_empty() || self.base != 0.0
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// [`Regressor::predict_one`] of each of `n_rows` rows laid end to end
    /// in one row-major slice, bit for bit.
    ///
    /// Rows go down each tree [`LANES`] at a time
    /// ([`RegressionTree::predict_lanes`]; the last block repeats the last
    /// row to fill up), and each row's leaves are summed in tree order from
    /// the value `Iterator::sum` starts from, as `predict_one` sums them.
    pub fn predict_rows(&self, rows: &[f64], n_rows: usize) -> Vec<f64> {
        assert!(self.is_fitted(), "predict before fit");
        let width = rows.len().checked_div(n_rows).unwrap_or(0);
        assert_eq!(width * n_rows, rows.len(), "ragged rows");
        let zero: f64 = std::iter::empty::<f64>().sum();
        let mut out = Vec::with_capacity(n_rows);
        for block in (0..n_rows).step_by(LANES) {
            let starts = std::array::from_fn(|lane| (block + lane).min(n_rows - 1) * width);
            let mut sums = [zero; LANES];
            for tree in &self.trees {
                for (sum, leaf) in sums.iter_mut().zip(tree.predict_lanes(rows, &starts)) {
                    *sum += leaf;
                }
            }
            for sum in &sums[..LANES.min(n_rows - block)] {
                out.push(self.base + self.learning_rate * sum);
            }
        }
        out
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        let n = x.len();
        self.trees.clear();
        self.base = y.iter().sum::<f64>() / n as f64;
        let mut pred: Vec<f64> = vec![self.base; n];
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let m = ((n as f64 * self.subsample).round() as usize).clamp(1, n);
        let mut order: Vec<usize> = (0..n).collect();
        let mut scratch = FitScratch::default();
        let mut rx: Vec<f64> = Vec::new();
        let mut ry: Vec<f64> = Vec::with_capacity(m);

        for round in 0..self.n_rounds {
            if m < n {
                order.shuffle(&mut rng);
            }
            let rows = &order[..m];
            gather_columns(x, rows, &mut rx);
            ry.clear();
            ry.extend(rows.iter().map(|&i| y[i] - pred[i]));
            let mut tree =
                RegressionTree::new(self.max_depth).with_seed(self.seed.wrapping_add(round as u64));
            tree.fit_columns(&rx, &ry, &mut scratch);
            for i in 0..n {
                pred[i] += self.learning_rate * tree.predict_one(&x[i]);
            }
            self.trees.push(tree);
        }
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        assert!(self.is_fitted(), "predict before fit");
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict_one(row)).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{rmse, spearman};

    fn friedmanish(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // Deterministic nonlinear 3-feature target.
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i % 10) as f64 / 10.0;
                let b = ((i / 10) % 10) as f64 / 10.0;
                let c = ((i / 100) % 10) as f64 / 10.0;
                vec![a, b, c]
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| 10.0 * (std::f64::consts::PI * r[0]).sin() + 5.0 * r[1] * r[1] + 2.0 * r[2])
            .collect();
        (x, y)
    }

    #[test]
    fn boosting_reduces_error_with_rounds() {
        let (x, y) = friedmanish(300);
        let mut weak = GradientBoosting::new(3).with_seed(1);
        weak.fit(&x, &y);
        let mut strong = GradientBoosting::new(60).with_seed(1);
        strong.fit(&x, &y);
        let e_weak = rmse(&weak.predict(&x), &y);
        let e_strong = rmse(&strong.predict(&x), &y);
        assert!(e_strong < e_weak * 0.5, "weak={e_weak}, strong={e_strong}");
    }

    #[test]
    fn ranks_targets_well() {
        let (x, y) = friedmanish(300);
        let mut gbt = GradientBoosting::new(40).with_seed(4);
        gbt.fit(&x, &y);
        let rho = spearman(&gbt.predict(&x), &y);
        assert!(rho > 0.95, "spearman={rho}");
    }

    #[test]
    fn subsample_still_learns() {
        let (x, y) = friedmanish(300);
        let mut gbt = GradientBoosting::new(60).with_subsample(0.5).with_seed(2);
        gbt.fit(&x, &y);
        let rho = spearman(&gbt.predict(&x), &y);
        assert!(rho > 0.9, "spearman={rho}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = friedmanish(120);
        let mut a = GradientBoosting::new(15).with_subsample(0.7).with_seed(9);
        let mut b = GradientBoosting::new(15).with_subsample(0.7).with_seed(9);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn constant_target_predicts_base() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 10];
        let mut gbt = GradientBoosting::new(5);
        gbt.fit(&x, &y);
        assert!((gbt.predict_one(&[3.0]) - 7.0).abs() < 1e-9);
        assert_eq!(gbt.n_trees(), 5);
    }

    /// The fit loop as it was when every round cloned its rows for the
    /// row-vector splitter (`tree::oracle`): same subsample draws, same
    /// residuals, so the same predictions to the bit.
    #[test]
    fn fits_like_the_row_cloning_booster() {
        use crate::tree::oracle::OracleTree;
        let (x, y) = friedmanish(150);
        for subsample in [1.0, 0.6] {
            let mut gbt = GradientBoosting::new(12)
                .with_max_depth(4)
                .with_subsample(subsample)
                .with_seed(7);
            gbt.fit(&x, &y);

            let n = x.len();
            let base = y.iter().sum::<f64>() / n as f64;
            let mut pred = vec![base; n];
            let mut rng = SmallRng::seed_from_u64(gbt.seed);
            let m = ((n as f64 * subsample).round() as usize).clamp(1, n);
            let mut order: Vec<usize> = (0..n).collect();
            let mut trees = Vec::new();
            for round in 0..gbt.n_rounds {
                let rows: Vec<usize> = if m < n {
                    order.shuffle(&mut rng);
                    order[..m].to_vec()
                } else {
                    order.clone()
                };
                let rx: Vec<Vec<f64>> = rows.iter().map(|&i| x[i].clone()).collect();
                let ry: Vec<f64> = rows.iter().map(|&i| y[i] - pred[i]).collect();
                let mut tree = OracleTree::like(
                    &RegressionTree::new(gbt.max_depth)
                        .with_seed(gbt.seed.wrapping_add(round as u64)),
                );
                tree.fit(&rx, &ry);
                for i in 0..n {
                    pred[i] += gbt.learning_rate * tree.predict_one(&x[i]);
                }
                trees.push(tree);
            }
            for row in &x {
                let old = base
                    + gbt.learning_rate * trees.iter().map(|t| t.predict_one(row)).sum::<f64>();
                assert_eq!(gbt.predict_one(row).to_bits(), old.to_bits());
            }
        }
    }

    /// Every row of a 57 600-point grid of six integer ranks, 3mm-mini's
    /// shape, through a booster fitted the way the XGB tuner fits one and
    /// through one whose rank-0 rows of feature 0 reach a −0.0 leaf in
    /// every tree from a −0.0 base: those predict −0.0 only when the
    /// leaves are summed from the value `Iterator::sum` starts from.
    #[test]
    fn predict_rows_is_predict_one_bit_for_bit() {
        // Row-major, last feature fastest: (6, 5, 8, 6, 8, 5) ranks.
        let (strides, cards) = ([9600, 1920, 240, 40, 5, 1], [6, 5, 8, 6, 8, 5]);
        let grid: Vec<f64> = (0..57_600)
            .flat_map(|i| (0..6).map(move |d| (i / strides[d] % cards[d]) as f64))
            .collect();
        let x: Vec<Vec<f64>> = grid.chunks(6).step_by(997).map(<[f64]>::to_vec).collect();
        // A bowl, and every seventh point a failure at a penalty.
        let bowl = |r: &[f64]| 1e-3 * (1.0 + (r[0] - 2.0).powi(2) + 0.5 * (r[3] - 1.0).powi(2));
        let y: Vec<f64> = (0..x.len())
            .map(|i| if i % 7 == 3 { 0.1 } else { bowl(&x[i]) })
            .collect();
        let mut fitted = GradientBoosting::new(40).with_max_depth(4).with_seed(7);
        fitted.fit(&x, &y);
        let trees = (0..40)
            .map(|t| {
                let step = |r: &Vec<f64>| if r[0] == 0.0 { -0.0 } else { 100.0 + t as f64 };
                let mut tree = RegressionTree::new(4);
                tree.fit(&x, &x.iter().map(step).collect::<Vec<f64>>());
                tree
            })
            .collect();
        let signed_zero = GradientBoosting {
            base: -0.0,
            trees,
            ..GradientBoosting::new(40)
        };
        // All of it, and a count that leaves the last block part-filled.
        for (model, n) in [(&fitted, 57_600), (&signed_zero, 57_600), (&fitted, 13)] {
            let got = model.predict_rows(&grid[..6 * n], n);
            assert_eq!(got.len(), n);
            for (i, (row, got)) in grid.chunks(6).zip(&got).enumerate() {
                assert_eq!(got.to_bits(), model.predict_one(row).to_bits(), "row {i}");
            }
        }
        let zeros = signed_zero.predict_rows(&grid, 57_600);
        assert!(zeros.iter().any(|p| p.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn invalid_lr_rejected() {
        let _ = GradientBoosting::new(5).with_learning_rate(0.0);
    }
}
