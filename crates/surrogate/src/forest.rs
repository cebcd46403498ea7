//! Random-forest regression with ensemble-variance uncertainty.

use crate::tree::{gather_columns, FitScratch, RegressionTree, LANES};
use crate::Regressor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Bagged ensemble of [`RegressionTree`]s — the ytopt surrogate.
///
/// `predict_with_std` exposes the per-tree spread, which the LCB
/// acquisition function in `ytopt-bo` uses as its uncertainty estimate
/// (exactly how ytopt uses scikit-learn's forest).
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Number of trees.
    pub n_trees: usize,
    /// Depth cap per tree.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features per split (`None` = `ceil(n_features / 3)`, scikit-learn's
    /// regression default).
    pub max_features: Option<usize>,
    /// Bootstrap resampling of rows per tree.
    pub bootstrap: bool,
    /// Base RNG seed.
    pub seed: u64,
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Forest with `n_trees` trees and library defaults
    /// (depth 16, leaf 1, bootstrap on).
    pub fn new(n_trees: usize) -> RandomForest {
        RandomForest {
            n_trees: n_trees.max(1),
            max_depth: 16,
            min_samples_leaf: 1,
            max_features: None,
            bootstrap: true,
            seed: 0,
            trees: Vec::new(),
        }
    }

    /// Builder: RNG seed.
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Builder: depth cap.
    pub fn with_max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Builder: minimum samples per leaf.
    pub fn with_min_samples_leaf(mut self, m: usize) -> Self {
        self.min_samples_leaf = m.max(1);
        self
    }

    /// Builder: features per split.
    pub fn with_max_features(mut self, m: usize) -> Self {
        self.max_features = Some(m.max(1));
        self
    }

    /// Builder: toggle bootstrap resampling.
    pub fn with_bootstrap(mut self, b: bool) -> Self {
        self.bootstrap = b;
        self
    }

    /// True once fitted.
    pub fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }

    /// Predict mean and standard deviation across trees.
    pub fn predict_with_std(&self, row: &[f64]) -> (f64, f64) {
        assert!(self.is_fitted(), "predict before fit");
        let preds: Vec<f64> = self.trees.iter().map(|t| t.predict_one(row)).collect();
        mean_and_std(&preds)
    }

    /// Batch version of [`RandomForest::predict_with_std`], bit-for-bit
    /// identical to scoring each row with it.
    pub fn predict_with_std_batch(&self, rows: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let width = rows.first().map_or(0, Vec::len);
        let flat: Vec<f64> = rows.iter().flat_map(|r| &r[..width]).copied().collect();
        self.predict_with_std_rows(&flat, rows.len())
    }

    /// [`RandomForest::predict_with_std_batch`] over `n_rows` rows laid
    /// end to end in one row-major slice.
    ///
    /// Rows are scored [`LANES`] at a time (the last block repeats the
    /// last row to fill up): tree by tree, every row's leaf value goes to
    /// a `rows × trees` table ([`RegressionTree::predict_lanes`]), and each
    /// row of the table is then reduced as `predict_with_std` reduces its
    /// `preds`.
    pub fn predict_with_std_rows(&self, rows: &[f64], n_rows: usize) -> Vec<(f64, f64)> {
        assert!(self.is_fitted(), "predict before fit");
        if n_rows == 0 {
            return Vec::new();
        }
        assert_eq!(rows.len() % n_rows, 0, "ragged rows");
        let width = rows.len() / n_rows;
        let blocks = n_rows.div_ceil(LANES);
        let n_trees = self.trees.len();
        let mut leaves = vec![0.0; blocks * LANES * n_trees];
        // Tree-outermost: one tree's nodes stay in cache for all rows.
        for (t, tree) in self.trees.iter().enumerate() {
            for block in 0..blocks {
                let starts =
                    std::array::from_fn(|lane| (block * LANES + lane).min(n_rows - 1) * width);
                let block_leaves = tree.predict_lanes(rows, &starts);
                for (lane, leaf) in block_leaves.into_iter().enumerate() {
                    leaves[(block * LANES + lane) * n_trees + t] = leaf;
                }
            }
        }
        leaves
            .chunks_exact(n_trees)
            .take(n_rows)
            .map(mean_and_std)
            .collect()
    }
}

/// Mean and (population) standard deviation of one row's per-tree
/// predictions, summed in tree order.
fn mean_and_std(preds: &[f64]) -> (f64, f64) {
    let n = preds.len() as f64;
    let mean = preds.iter().sum::<f64>() / n;
    let var = preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

impl Regressor for RandomForest {
    /// Trees are fitted one after another: each draws its bootstrap rows
    /// by index from an RNG seeded by `(forest seed, tree index)` and
    /// gathers them into one column-major matrix that, like the
    /// splitter's buffers, the next tree reuses. (A whole fit on the few
    /// hundred rows a tuner observes takes less than starting threads
    /// for it.)
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        let n = x.len();
        let n_feat = x[0].len();
        let max_features = self
            .max_features
            .unwrap_or_else(|| n_feat.div_ceil(3))
            .min(n_feat);
        let mut scratch = FitScratch::default();
        let mut rows: Vec<usize> = Vec::with_capacity(n);
        let mut bx: Vec<f64> = Vec::new();
        let mut by: Vec<f64> = Vec::with_capacity(n);
        self.trees = (0..self.n_trees)
            .map(|t| {
                let tree_seed = self
                    .seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(t as u64 + 1);
                let mut rng = SmallRng::seed_from_u64(tree_seed);
                rows.clear();
                if self.bootstrap {
                    rows.extend((0..n).map(|_| rng.gen_range(0..n)));
                } else {
                    rows.extend(0..n);
                }
                gather_columns(x, &rows, &mut bx);
                by.clear();
                by.extend(rows.iter().map(|&i| y[i]));
                let mut tree = RegressionTree::new(self.max_depth)
                    .with_min_samples_leaf(self.min_samples_leaf)
                    .with_max_features(max_features)
                    .with_seed(tree_seed ^ 0xABCD);
                tree.fit_columns(&bx, &by, &mut scratch);
                tree
            })
            .collect();
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        self.predict_with_std(row).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;
    use crate::tree::oracle::{assert_same_nodes, OracleTree};

    fn quadratic(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[0]).collect();
        (x, y)
    }

    #[test]
    fn fits_quadratic_reasonably() {
        let (x, y) = quadratic(100);
        let mut rf = RandomForest::new(30).with_seed(3);
        rf.fit(&x, &y);
        let preds = rf.predict(&x);
        assert!(rmse(&preds, &y) < 0.05, "rmse={}", rmse(&preds, &y));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = quadratic(50);
        let mut a = RandomForest::new(10).with_seed(11);
        let mut b = RandomForest::new(10).with_seed(11);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict(&x), b.predict(&x));
        let mut c = RandomForest::new(10).with_seed(12);
        c.fit(&x, &y);
        assert_ne!(a.predict(&x), c.predict(&x));
    }

    #[test]
    fn uncertainty_grows_off_distribution() {
        let (x, y) = quadratic(60);
        let mut rf = RandomForest::new(40).with_seed(5);
        rf.fit(&x, &y);
        // In-sample uncertainty near a dense region vs far extrapolation.
        let (_, s_in) = rf.predict_with_std(&[0.5]);
        // All trees extrapolate with their last leaf: spread may collapse,
        // so just assert both are finite and non-negative.
        let (_, s_out) = rf.predict_with_std(&[5.0]);
        assert!(s_in >= 0.0 && s_out >= 0.0);
        assert!(s_in.is_finite() && s_out.is_finite());
    }

    #[test]
    fn no_bootstrap_full_depth_interpolates() {
        let (x, y) = quadratic(30);
        let mut rf = RandomForest::new(5)
            .with_bootstrap(false)
            .with_max_features(1)
            .with_seed(2);
        rf.fit(&x, &y);
        // Without bootstrap and with all features, trees see all rows:
        // training error should be ~0.
        let preds = rf.predict(&x);
        assert!(rmse(&preds, &y) < 1e-9);
        // And the ensemble agrees with itself -> zero std.
        let (_, s) = rf.predict_with_std(&x[10]);
        assert!(s < 1e-12);
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        let rf = RandomForest::new(3);
        let _ = rf.predict_with_std(&[0.0]);
    }

    /// The forest as it fitted before rows were drawn by index: every
    /// tree's bootstrap sample cloned row by row and handed to the
    /// row-vector splitter (`tree::oracle`).
    fn oracle_trees(rf: &RandomForest, x: &[Vec<f64>], y: &[f64]) -> Vec<OracleTree> {
        let n = x.len();
        let n_feat = x[0].len();
        let max_features = rf
            .max_features
            .unwrap_or_else(|| n_feat.div_ceil(3))
            .min(n_feat);
        (0..rf.n_trees)
            .map(|t| {
                let tree_seed = rf
                    .seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(t as u64 + 1);
                let mut rng = SmallRng::seed_from_u64(tree_seed);
                let (bx, by): (Vec<Vec<f64>>, Vec<f64>) = if rf.bootstrap {
                    (0..n)
                        .map(|_| {
                            let i = rng.gen_range(0..n);
                            (x[i].clone(), y[i])
                        })
                        .unzip()
                } else {
                    (x.to_vec(), y.to_vec())
                };
                let mut tree = OracleTree::like(
                    &RegressionTree::new(rf.max_depth)
                        .with_min_samples_leaf(rf.min_samples_leaf)
                        .with_max_features(max_features)
                        .with_seed(tree_seed ^ 0xABCD),
                );
                tree.fit(&bx, &by);
                tree
            })
            .collect()
    }

    /// Encoded configurations as the optimizer observes them: integer
    /// ranks, many ties, a target with repeats.
    fn ranked(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0..20) as f64).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| {
                let s: f64 = r
                    .iter()
                    .enumerate()
                    .map(|(j, v)| (v - 3.0 - j as f64).powi(2))
                    .sum();
                (1.0 + s).round()
            })
            .collect();
        (x, y)
    }

    #[test]
    fn fits_the_trees_the_row_cloning_forest_fitted() {
        for (n, d, bootstrap) in [(10, 2, true), (100, 2, true), (60, 6, true), (40, 6, false)] {
            let (x, y) = ranked(n, d, n as u64);
            let mut rf = RandomForest::new(32)
                .with_seed(0x5EED ^ d as u64)
                .with_bootstrap(bootstrap);
            rf.fit(&x, &y);
            let oracle = oracle_trees(&rf, &x, &y);
            for (t, (tree, old)) in rf.trees.iter().zip(&oracle).enumerate() {
                assert_same_nodes(tree, old, &format!("n {n}, d {d}, tree {t}"));
            }
        }
    }

    #[test]
    fn batch_predict_is_bit_identical_to_per_row() {
        let (x, y) = ranked(100, 6, 21);
        let mut rf = RandomForest::new(32).with_seed(21);
        rf.fit(&x, &y);
        // Around the lane width of the tree walk, and the candidate count
        // of one ask on a large space.
        for n_rows in [0, 1, 7, 8, 9, 1088] {
            let (rows, _) = ranked(n_rows.max(1), 6, 1000 + n_rows as u64);
            let rows = &rows[..n_rows];
            let serial: Vec<(f64, f64)> = rows.iter().map(|r| rf.predict_with_std(r)).collect();
            let batch = rf.predict_with_std_batch(rows);
            assert_eq!(batch.len(), n_rows);
            for (r, (b, s)) in batch.iter().zip(&serial).enumerate() {
                assert_eq!(
                    (b.0.to_bits(), b.1.to_bits()),
                    (s.0.to_bits(), s.1.to_bits()),
                    "row {r} of {n_rows}"
                );
            }
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            assert_eq!(rf.predict_with_std_rows(&flat, n_rows), batch);
        }
    }
}
