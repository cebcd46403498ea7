//! `GridSearchTuner`: enumerate the space in grid (flat-index) order.

use crate::measure::MeasureResult;
use crate::tuner::Tuner;
use configspace::{ConfigSpace, Configuration};

/// AutoTVM's `GridSearchTuner`.
///
/// On the paper's spaces the grid order starts in the all-smallest-tiles
/// corner, which is why the paper finds this tuner "performed the worst
/// for all the experiments" at a 100-evaluation budget: it never leaves
/// the bad corner of a 74M-point space.
pub struct GridSearchTuner {
    space: ConfigSpace,
    cursor: u128,
    size: u128,
}

impl GridSearchTuner {
    /// New tuner over `space`.
    pub fn new(space: ConfigSpace) -> GridSearchTuner {
        // Past `u128` points, as far as flat indices go.
        let size = space.size().unwrap_or(u128::MAX);
        GridSearchTuner {
            space,
            cursor: 0,
            size,
        }
    }
}

impl Tuner for GridSearchTuner {
    fn name(&self) -> &str {
        "AutoTVM-GridSearch"
    }

    fn next_batch(&mut self, n: usize) -> Vec<Configuration> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n && self.cursor < self.size {
            out.push(self.space.at(self.cursor));
            self.cursor += 1;
        }
        out
    }

    fn update(&mut self, _results: &[(Configuration, MeasureResult)]) {}

    fn has_next(&self) -> bool {
        self.cursor < self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use configspace::Hyperparameter;

    #[test]
    fn enumerates_in_grid_order() {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("P0", &[1, 2]));
        cs.add(Hyperparameter::ordinal_ints("P1", &[10, 20, 30]));
        let mut t = GridSearchTuner::new(cs);
        let all = t.next_batch(10);
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].ints(), vec![1, 10]);
        assert_eq!(all[1].ints(), vec![1, 20]);
        assert_eq!(all[5].ints(), vec![2, 30]);
        assert!(!t.has_next());
        assert!(t.next_batch(4).is_empty());
    }

    #[test]
    fn starts_in_smallest_tile_corner() {
        // The property that dooms grid search in the paper.
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("P0", &[1, 2, 4, 1000]));
        cs.add(Hyperparameter::ordinal_ints("P1", &[1, 2, 4, 1000]));
        let mut t = GridSearchTuner::new(cs);
        let first = t.next_batch(1);
        assert_eq!(first[0].ints(), vec![1, 1]);
    }
}
