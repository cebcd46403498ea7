//! CART regression trees (variance-reduction splitting).

use crate::Regressor;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Rows [`RegressionTree::predict_lanes`] walks down a tree side by side.
pub(crate) const LANES: usize = 8;

/// One node of a fitted tree, stored in an arena in pre-order.
///
/// A leaf is its own successor on both sides, so a walk of `depth` steps
/// from the root ends on a row's leaf without asking what kind of node
/// it stands on.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Split threshold (unused on a leaf).
    threshold: f64,
    /// Mean target of the rows that reached the node: a leaf's prediction.
    value: f64,
    /// Split feature (0 on a leaf).
    feature: u32,
    /// Successor, indexed by `row[feature] <= threshold`: `next[1]` is the
    /// left subtree, `next[0]` the right one (where NaN goes).
    next: [u32; 2],
}

/// One training row inside the node being split, packed so that integer
/// order is the order to sort in: the [`sort_key`] of its value of the
/// feature being scanned in the high 64 bits, then its position before
/// the sort (so an unstable sort of these is a stable sort by the feature
/// value), then the row itself ([`row_of`]).
type Sample = u128;

fn row_of(s: Sample) -> usize {
    s as u32 as usize
}

/// Bits whose unsigned order is the order of the floats, with `-0.0` and
/// `0.0` equal as `partial_cmp` has them, and every NaN equal to every
/// other and last.
fn sort_key(v: f64) -> u64 {
    if v.is_nan() {
        return u64::MAX;
    }
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Buffers that one fit after another reuses, so that growing a tree
/// allocates nothing but its nodes.
#[derive(Debug, Default)]
pub(crate) struct FitScratch {
    /// Training rows, permuted so that every node owns a contiguous range
    /// in ascending row order.
    rows: Vec<u32>,
    /// The right-hand rows of the range being partitioned.
    spill: Vec<u32>,
    /// The rows of the node being split, sorted by one feature after
    /// another.
    order: Vec<Sample>,
    /// Feature indices, reshuffled at every node that subsamples them.
    feats: Vec<usize>,
}

/// Copy the chosen `rows` of `x` into `out` as one contiguous column per
/// feature (`out[f * rows.len() + p] = x[rows[p]][f]`), the layout
/// [`RegressionTree::fit_columns`] reads.
pub(crate) fn gather_columns(x: &[Vec<f64>], rows: &[usize], out: &mut Vec<f64>) {
    let n_feat = x[0].len();
    out.clear();
    out.resize(n_feat * rows.len(), 0.0);
    for (p, &i) in rows.iter().enumerate() {
        for (f, &v) in x[i][..n_feat].iter().enumerate() {
            out[f * rows.len() + p] = v;
        }
    }
}

/// A CART regression tree.
///
/// Splits greedily minimize the summed squared error of the two children;
/// `max_features` (feature subsampling per split) supplies the
/// decorrelation random forests need.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required in each child of a split.
    pub min_samples_leaf: usize,
    /// Features considered per split (`None` = all).
    pub max_features: Option<usize>,
    /// RNG seed for feature subsampling.
    pub seed: u64,
    nodes: Vec<Node>,
    /// Depth of the deepest leaf.
    depth: usize,
}

impl RegressionTree {
    /// Tree with the given depth cap and default leaf size 1.
    pub fn new(max_depth: usize) -> RegressionTree {
        RegressionTree {
            max_depth,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
            nodes: Vec::new(),
            depth: 0,
        }
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

    /// Builder: RNG seed.
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Number of nodes of the fitted tree (0 before fitting).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Fit on `y.len()` rows given as one contiguous column per feature
    /// (`x[f * n + i]` is feature `f` of row `i`; see [`gather_columns`]).
    pub(crate) fn fit_columns(&mut self, x: &[f64], y: &[f64], scratch: &mut FitScratch) {
        let n = y.len();
        assert!(n > 0, "cannot fit on an empty dataset");
        assert_eq!(x.len() % n, 0, "ragged columns");
        self.nodes.clear();
        self.depth = 0;
        scratch.rows.clear();
        scratch.rows.extend(0..n as u32);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let root = self.build(x, y, scratch, (0, n), 0, &mut rng);
        debug_assert_eq!(root, 0);
    }

    /// Best (feature, threshold) split of `rows`, or `None` when no split
    /// satisfies the leaf-size constraint.
    ///
    /// `order` is sorted stably by one feature after another without
    /// being reset in between, so rows that tie on a feature are summed
    /// in the order the previous feature left them in: part of the result,
    /// down to the last bit of `sse`.
    ///
    /// A column that holds both numbers and NaNs has no `partial_cmp`
    /// order, and where its NaNs landed used to be an accident of the
    /// sort; they now sort last. (An all-NaN column, what a parameter the
    /// observed configurations lack encodes to, keeps its order.)
    fn best_split(
        &self,
        x: &[f64],
        y: &[f64],
        rows: &[u32],
        feats: &[usize],
        order: &mut Vec<Sample>,
    ) -> Option<(usize, f64)> {
        let n = rows.len();
        let total_sum: f64 = rows.iter().map(|&i| y[i as usize]).sum();
        let total_sq: f64 = rows.iter().map(|&i| y[i as usize] * y[i as usize]).sum();
        let mut best: Option<(usize, f64, f64)> = None;

        order.clear();
        order.extend(rows.iter().map(|&row| row as u128));
        for &f in feats {
            let col = &x[f * y.len()..(f + 1) * y.len()];
            for (pos, s) in order.iter_mut().enumerate() {
                let row = row_of(*s);
                *s = (sort_key(col[row]) as u128) << 64 | (pos as u128) << 32 | row as u128;
            }
            order.sort_unstable();
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for pos in 0..n - 1 {
                let yi = y[row_of(order[pos])];
                left_sum += yi;
                left_sq += yi * yi;
                let nl = pos + 1;
                let nr = n - nl;
                if nl < self.min_samples_leaf || nr < self.min_samples_leaf {
                    continue;
                }
                // Can't split between equal feature values.
                let here = col[row_of(order[pos])];
                let next = col[row_of(order[pos + 1])];
                if here == next {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse_l = left_sq - left_sum * left_sum / nl as f64;
                let sse_r = right_sq - right_sum * right_sum / nr as f64;
                let sse = sse_l + sse_r;
                if best.map(|(_, _, b)| sse < b).unwrap_or(true) {
                    best = Some((f, 0.5 * (here + next), sse));
                }
            }
        }
        best.map(|(feature, threshold, _)| (feature, threshold))
    }

    /// Grow the subtree over `scratch.rows[lo..hi]`; returns its slot.
    fn build(
        &mut self,
        x: &[f64],
        y: &[f64],
        scratch: &mut FitScratch,
        (lo, hi): (usize, usize),
        depth: usize,
        rng: &mut SmallRng,
    ) -> usize {
        let FitScratch {
            rows,
            spill,
            order,
            feats,
        } = scratch;
        let node_rows = &rows[lo..hi];
        let value = node_rows.iter().map(|&i| y[i as usize]).sum::<f64>() / node_rows.len() as f64;
        let homogeneous = node_rows
            .iter()
            .all(|&i| y[i as usize] == y[node_rows[0] as usize]);
        // A leaf until a split is found; the slot precedes both subtrees.
        let slot = self.nodes.len();
        self.nodes.push(Node {
            threshold: 0.0,
            value,
            feature: 0,
            next: [slot as u32; 2],
        });
        self.depth = self.depth.max(depth);
        if depth >= self.max_depth || node_rows.len() < 2 * self.min_samples_leaf || homogeneous {
            return slot;
        }

        let n_feat = x.len() / y.len();
        feats.clear();
        feats.extend(0..n_feat);
        let considered = match self.max_features {
            Some(m) if m < n_feat => {
                feats.shuffle(rng);
                m
            }
            _ => n_feat,
        };

        let Some((feature, threshold)) =
            self.best_split(x, y, node_rows, &feats[..considered], order)
        else {
            return slot;
        };
        // Stable partition in place: left rows close up at the front, right
        // rows wait in `spill`.
        let col = &x[feature * y.len()..(feature + 1) * y.len()];
        let mut mid = lo;
        spill.clear();
        for r in lo..hi {
            let i = rows[r];
            if col[i as usize] <= threshold {
                rows[mid] = i;
                mid += 1;
            } else {
                spill.push(i);
            }
        }
        rows[mid..hi].copy_from_slice(spill);

        let left = self.build(x, y, scratch, (lo, mid), depth + 1, rng);
        let right = self.build(x, y, scratch, (mid, hi), depth + 1, rng);
        let node = &mut self.nodes[slot];
        node.feature = feature as u32;
        node.threshold = threshold;
        node.next = [right as u32, left as u32];
        slot
    }

    /// Predict [`LANES`] rows at once: row `lane` is the slice of `rows`
    /// that starts at `starts[lane]`, and its result equals
    /// [`Regressor::predict_one`] of it.
    ///
    /// The rows go down the tree together for `depth` steps with no branch
    /// on the data, so their independent loads overlap instead of each row
    /// waiting on its own chain of mispredicted comparisons.
    pub(crate) fn predict_lanes(&self, rows: &[f64], starts: &[usize; LANES]) -> [f64; LANES] {
        assert!(!self.nodes.is_empty(), "predict before fit");
        let nodes = &self.nodes[..];
        let mut cur = [0usize; LANES];
        for _ in 0..self.depth {
            for (c, start) in cur.iter_mut().zip(starts) {
                let node = &nodes[*c];
                let v = rows[start + node.feature as usize];
                *c = node.next[usize::from(v <= node.threshold)] as usize;
            }
        }
        cur.map(|c| nodes[c].value)
    }
}

impl Regressor for RegressionTree {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        let all_rows: Vec<usize> = (0..x.len()).collect();
        let mut columns = Vec::new();
        gather_columns(x, &all_rows, &mut columns);
        self.fit_columns(&columns, y, &mut FitScratch::default());
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        assert!(!self.nodes.is_empty(), "predict before fit");
        let mut cur = 0usize;
        loop {
            let node = &self.nodes[cur];
            if node.next[0] as usize == cur {
                return node.value;
            }
            cur = node.next[usize::from(row[node.feature as usize] <= node.threshold)] as usize;
        }
    }
}

/// The splitter as it was before it worked on contiguous columns, kept
/// verbatim as the reference the new one is compared with node for node.
#[cfg(test)]
pub(crate) mod oracle {
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[derive(Debug, Clone)]
    pub(crate) enum Node {
        Split {
            feature: usize,
            threshold: f64,
            left: usize,
            right: usize,
        },
        Leaf {
            value: f64,
        },
    }

    #[derive(Debug, Clone)]
    pub(crate) struct OracleTree {
        pub max_depth: usize,
        pub min_samples_leaf: usize,
        pub max_features: Option<usize>,
        pub seed: u64,
        pub nodes: Vec<Node>,
    }

    impl OracleTree {
        pub(crate) fn like(tree: &super::RegressionTree) -> OracleTree {
            OracleTree {
                max_depth: tree.max_depth,
                min_samples_leaf: tree.min_samples_leaf,
                max_features: tree.max_features,
                seed: tree.seed,
                nodes: Vec::new(),
            }
        }

        fn mean(y: &[f64], idx: &[usize]) -> f64 {
            idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64
        }

        fn best_split(
            &self,
            x: &[Vec<f64>],
            y: &[f64],
            idx: &[usize],
            features: &[usize],
        ) -> Option<(usize, f64, f64)> {
            let n = idx.len();
            let total_sum: f64 = idx.iter().map(|&i| y[i]).sum();
            let mut best: Option<(usize, f64, f64)> = None;

            let mut order: Vec<usize> = idx.to_vec();
            for &f in features {
                order.sort_by(|&a, &b| {
                    x[a][f]
                        .partial_cmp(&x[b][f])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut left_sum = 0.0;
                let mut left_sq = 0.0;
                let total_sq: f64 = idx.iter().map(|&i| y[i] * y[i]).sum();
                for pos in 0..n - 1 {
                    let i = order[pos];
                    left_sum += y[i];
                    left_sq += y[i] * y[i];
                    let nl = pos + 1;
                    let nr = n - nl;
                    if nl < self.min_samples_leaf || nr < self.min_samples_leaf {
                        continue;
                    }
                    // Can't split between equal feature values.
                    if x[order[pos]][f] == x[order[pos + 1]][f] {
                        continue;
                    }
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    let sse_l = left_sq - left_sum * left_sum / nl as f64;
                    let sse_r = right_sq - right_sum * right_sum / nr as f64;
                    let sse = sse_l + sse_r;
                    if best.map(|(_, _, b)| sse < b).unwrap_or(true) {
                        let thr = 0.5 * (x[order[pos]][f] + x[order[pos + 1]][f]);
                        best = Some((f, thr, sse));
                    }
                }
            }
            best
        }

        fn build(
            &mut self,
            x: &[Vec<f64>],
            y: &[f64],
            idx: Vec<usize>,
            depth: usize,
            rng: &mut SmallRng,
        ) -> usize {
            let leaf_value = Self::mean(y, &idx);
            let homogeneous = idx.iter().all(|&i| y[i] == y[idx[0]]);
            if depth >= self.max_depth || idx.len() < 2 * self.min_samples_leaf || homogeneous {
                self.nodes.push(Node::Leaf { value: leaf_value });
                return self.nodes.len() - 1;
            }

            let n_feat = x[0].len();
            let mut all_feats: Vec<usize> = (0..n_feat).collect();
            let feats: Vec<usize> = match self.max_features {
                Some(m) if m < n_feat => {
                    all_feats.shuffle(rng);
                    all_feats.truncate(m);
                    all_feats
                }
                _ => all_feats,
            };

            match self.best_split(x, y, &idx, &feats) {
                Some((feature, threshold, _)) => {
                    let (li, ri): (Vec<usize>, Vec<usize>) =
                        idx.into_iter().partition(|&i| x[i][feature] <= threshold);
                    // Reserve a slot for this split node, fill after children.
                    let slot = self.nodes.len();
                    self.nodes.push(Node::Leaf { value: leaf_value });
                    let left = self.build(x, y, li, depth + 1, rng);
                    let right = self.build(x, y, ri, depth + 1, rng);
                    self.nodes[slot] = Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    };
                    slot
                }
                None => {
                    self.nodes.push(Node::Leaf { value: leaf_value });
                    self.nodes.len() - 1
                }
            }
        }

        pub(crate) fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
            assert_eq!(x.len(), y.len());
            assert!(!x.is_empty(), "cannot fit on an empty dataset");
            self.nodes.clear();
            let idx: Vec<usize> = (0..x.len()).collect();
            let mut rng = SmallRng::seed_from_u64(self.seed);
            let root = self.build(x, y, idx, 0, &mut rng);
            debug_assert_eq!(root, 0);
        }

        pub(crate) fn predict_one(&self, row: &[f64]) -> f64 {
            assert!(!self.nodes.is_empty(), "predict before fit");
            let mut cur = 0usize;
            loop {
                match &self.nodes[cur] {
                    Node::Leaf { value } => return *value,
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        cur = if row[*feature] <= *threshold {
                            *left
                        } else {
                            *right
                        };
                    }
                }
            }
        }
    }

    /// A float's bits, with every NaN the same: which NaN `0.0 / 0.0` (the
    /// mean of a child no row reached) yields depends on whether the
    /// compiler folded it, not on the splitter.
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// `tree`'s arena must be `oracle`'s, node for node and bit for bit.
    pub(crate) fn assert_same_nodes(tree: &super::RegressionTree, oracle: &OracleTree, what: &str) {
        assert_eq!(tree.nodes.len(), oracle.nodes.len(), "{what}: node count");
        for (slot, (new, old)) in tree.nodes.iter().zip(&oracle.nodes).enumerate() {
            match old {
                Node::Leaf { value } => {
                    assert_eq!(
                        (new.next, bits(new.value)),
                        ([slot as u32; 2], bits(*value)),
                        "{what}: leaf {slot}"
                    );
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    assert_eq!(
                        (new.feature as usize, bits(new.threshold), new.next),
                        (*feature, bits(*threshold), [*right as u32, *left as u32]),
                        "{what}: split {slot}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{assert_same_nodes, OracleTree};
    use super::*;
    use rand::Rng;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 1 if x0 > 5 else 0
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i > 5 { 1.0 } else { 0.0 }).collect();
        (x, y)
    }

    #[test]
    fn learns_step_function_exactly() {
        let (x, y) = step_data();
        let mut t = RegressionTree::new(4);
        t.fit(&x, &y);
        assert_eq!(t.predict_one(&[2.0]), 0.0);
        assert_eq!(t.predict_one(&[9.0]), 1.0);
    }

    #[test]
    fn depth_zero_predicts_mean() {
        let (x, y) = step_data();
        let mut t = RegressionTree::new(0);
        t.fit(&x, &y);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((t.predict_one(&[3.0]) - mean).abs() < 1e-12);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = step_data();
        let mut t = RegressionTree::new(10).with_min_samples_leaf(10);
        t.fit(&x, &y);
        // With leaves >= 10 of 20 samples only one split is possible.
        assert!(t.node_count() <= 3);
    }

    #[test]
    fn two_feature_interaction() {
        // y = x0 XOR x1 on a 2D grid — needs depth 2.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..5 {
                    x.push(vec![a as f64, b as f64]);
                    y.push(((a ^ b) as f64).abs());
                }
            }
        }
        let mut t = RegressionTree::new(3);
        t.fit(&x, &y);
        assert_eq!(t.predict_one(&[0.0, 0.0]), 0.0);
        assert_eq!(t.predict_one(&[1.0, 0.0]), 1.0);
        assert_eq!(t.predict_one(&[0.0, 1.0]), 1.0);
        assert_eq!(t.predict_one(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn constant_target_single_leaf() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![3.5; 10];
        let mut t = RegressionTree::new(8);
        t.fit(&x, &y);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict_one(&[100.0]), 3.5);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        let mut t = RegressionTree::new(2);
        t.fit(&[], &[]);
    }

    #[test]
    fn feature_subsampling_is_deterministic() {
        let (x, y) = step_data();
        let mut a = RegressionTree::new(4).with_max_features(1).with_seed(9);
        let mut b = RegressionTree::new(4).with_max_features(1).with_seed(9);
        a.fit(&x, &y);
        b.fit(&x, &y);
        for i in 0..20 {
            assert_eq!(a.predict_one(&[i as f64]), b.predict_one(&[i as f64]));
        }
    }

    /// Tie-heavy data: features are integer ranks below 30, as the encoded
    /// configurations are, and targets repeat, so equal `sse`s and the
    /// order ties are summed in both decide splits.
    fn ranked_dataset(rng: &mut SmallRng, n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0..30) as f64).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|row| {
                let smooth: f64 = row
                    .iter()
                    .enumerate()
                    .map(|(j, v)| (v - 7.0 - j as f64).powi(2))
                    .sum();
                if rng.gen_bool(0.3) {
                    rng.gen_range(0..4) as f64
                } else {
                    1.0 + smooth * 0.37 + rng.gen_range(0.0..0.5)
                }
            })
            .collect();
        (x, y)
    }

    #[test]
    fn splits_like_the_row_vector_splitter_node_for_node() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let mut scratch = FitScratch::default();
        for case in 0..400 {
            let d = rng.gen_range(1..=8);
            let n = rng.gen_range(2..=200);
            let (mut x, y) = ranked_dataset(&mut rng, n, d);
            if case % 5 == 0 {
                // A parameter the configurations do not have encodes as NaN.
                let nan_col = rng.gen_range(0..d);
                for row in &mut x {
                    row[nan_col] = f64::NAN;
                }
            }
            if case % 3 == 0 {
                // Negative values, and zeros of both signs (equal, so tied).
                for v in x.iter_mut().flatten() {
                    *v -= 15.0;
                    if *v == 0.0 && rng.gen_bool(0.5) {
                        *v = -0.0;
                    }
                }
            }
            let mut tree = RegressionTree::new(rng.gen_range(0..=16))
                .with_min_samples_leaf(rng.gen_range(1..=3))
                .with_seed(rng.gen());
            if rng.gen_bool(0.8) {
                tree = tree.with_max_features(rng.gen_range(1..=d));
            }
            let mut oracle = OracleTree::like(&tree);
            oracle.fit(&x, &y);

            let what = format!("case {case}: n {n}, d {d}, {tree:?}");
            tree.fit(&x, &y);
            assert_same_nodes(&tree, &oracle, &what);
            // And through the entry point the ensembles use, scratch reused.
            let all_rows: Vec<usize> = (0..n).collect();
            let mut columns = Vec::new();
            gather_columns(&x, &all_rows, &mut columns);
            tree.fit_columns(&columns, &y, &mut scratch);
            assert_same_nodes(&tree, &oracle, &what);
        }
    }

    #[test]
    fn sort_keys_order_like_the_floats() {
        let ascending = [
            f64::NEG_INFINITY,
            -2.5,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            3.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for pair in ascending.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let expected = a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Less);
            assert_eq!(sort_key(a).cmp(&sort_key(b)), expected, "{a} vs {b}");
        }
        assert_eq!(sort_key(f64::NAN), sort_key(-f64::NAN));
    }

    #[test]
    fn lane_walk_predicts_like_the_single_row_walk() {
        let mut rng = SmallRng::seed_from_u64(77);
        let (x, y) = ranked_dataset(&mut rng, 120, 3);
        let mut tree = RegressionTree::new(12);
        tree.fit(&x, &y);
        let mut oracle = OracleTree::like(&tree);
        oracle.fit(&x, &y);
        let (probes, _) = ranked_dataset(&mut rng, 3 * LANES, 3);
        let flat: Vec<f64> = probes.iter().flatten().copied().collect();
        // Any rows, in any order.
        let picks: [usize; LANES] = std::array::from_fn(|lane| (lane * 7 + 3) % (2 * LANES));
        let lanes = tree.predict_lanes(&flat, &picks.map(|r| r * 3));
        for (r, got) in picks.into_iter().zip(lanes) {
            assert_eq!(got.to_bits(), tree.predict_one(&probes[r]).to_bits());
            assert_eq!(got.to_bits(), oracle.predict_one(&probes[r]).to_bits());
        }
    }
}
