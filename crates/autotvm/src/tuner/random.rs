//! `RandomTuner`: enumerate the space in a random order.

use crate::measure::MeasureResult;
use crate::tuner::Tuner;
use configspace::{ConfigSpace, Configuration};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Spaces up to this size get a materialized random permutation (exact
/// no-repeat enumeration); larger spaces use rejection sampling. Every
/// index of a permuted space fits the permutation's `u32`.
const PERMUTE_LIMIT: u128 = 1 << 20;

/// AutoTVM's `RandomTuner`.
pub struct RandomTuner {
    space: ConfigSpace,
    rng: SmallRng,
    /// Pre-shuffled flat indices (small spaces).
    perm: Option<Vec<u32>>,
    cursor: usize,
    /// Flat indices drawn so far (large spaces).
    visited: HashSet<u128>,
    exhausted: bool,
}

impl RandomTuner {
    /// New tuner over `space`.
    pub fn new(space: ConfigSpace, seed: u64) -> RandomTuner {
        let mut rng = SmallRng::seed_from_u64(seed);
        let size = space.size().expect("RandomTuner needs a discrete space");
        let perm = if size <= PERMUTE_LIMIT {
            let mut p: Vec<u32> = (0..size as u32).collect();
            p.shuffle(&mut rng);
            Some(p)
        } else {
            None
        };
        RandomTuner {
            space,
            rng,
            perm,
            cursor: 0,
            visited: HashSet::new(),
            exhausted: false,
        }
    }
}

impl Tuner for RandomTuner {
    fn name(&self) -> &str {
        "AutoTVM-Random"
    }

    fn next_batch(&mut self, n: usize) -> Vec<Configuration> {
        let mut out = Vec::with_capacity(n);
        match &self.perm {
            Some(perm) => {
                while out.len() < n && self.cursor < perm.len() {
                    out.push(self.space.at(u128::from(perm[self.cursor])));
                    self.cursor += 1;
                }
                if self.cursor >= perm.len() {
                    self.exhausted = true;
                }
            }
            None => {
                // Huge space: collisions are vanishingly rare; bound the
                // rejection loop anyway.
                let size = self.space.size().expect("discrete");
                let mut attempts = 0usize;
                while out.len() < n && attempts < n * 100 {
                    attempts += 1;
                    let idx = (self.rng.gen::<u128>()) % size;
                    if self.visited.insert(idx) {
                        out.push(self.space.at(idx));
                    }
                }
                if out.is_empty() {
                    self.exhausted = true;
                }
            }
        }
        out
    }

    fn update(&mut self, _results: &[(Configuration, MeasureResult)]) {}

    fn has_next(&self) -> bool {
        !self.exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use configspace::Hyperparameter;

    fn small_space() -> ConfigSpace {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("P0", &[1, 2, 4, 8]));
        cs.add(Hyperparameter::ordinal_ints("P1", &[1, 2, 4]));
        cs
    }

    #[test]
    fn enumerates_whole_space_without_repeats() {
        let mut t = RandomTuner::new(small_space(), 1);
        let mut seen = std::collections::HashSet::new();
        let mut total = 0;
        while t.has_next() {
            for c in t.next_batch(5) {
                assert!(seen.insert(c.key()), "duplicate {c}");
                total += 1;
            }
        }
        assert_eq!(total, 12);
    }

    #[test]
    fn order_is_random_but_seeded() {
        let c1: Vec<String> = RandomTuner::new(small_space(), 7)
            .next_batch(12)
            .iter()
            .map(|c| c.key())
            .collect();
        let c2: Vec<String> = RandomTuner::new(small_space(), 7)
            .next_batch(12)
            .iter()
            .map(|c| c.key())
            .collect();
        let c3: Vec<String> = RandomTuner::new(small_space(), 8)
            .next_batch(12)
            .iter()
            .map(|c| c.key())
            .collect();
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
        // And differs from grid order.
        let grid: Vec<String> = small_space().grid().map(|c| c.key()).collect();
        assert_ne!(c1, grid);
    }

    #[test]
    fn a_u32_permutation_proposes_what_the_u128_one_did() {
        // 6⁵·12 = 93 312 points: past `u16`, under the limit. The shuffle
        // swaps by position, so the element type changes neither the
        // permutation nor the number of draws.
        let mut cs = ConfigSpace::new();
        for (i, n) in [6i64, 6, 6, 6, 6, 12].into_iter().enumerate() {
            let values: Vec<i64> = (1..=n).collect();
            cs.add(Hyperparameter::ordinal_ints(format!("P{i}"), &values));
        }
        let size = cs.size().expect("discrete");
        assert!(size > 65_536 && size <= PERMUTE_LIMIT);
        for seed in [1, 77, 2023] {
            let mut wide: Vec<u128> = (0..size).collect();
            wide.shuffle(&mut SmallRng::seed_from_u64(seed));
            let want: Vec<String> = wide[..100].iter().map(|&i| cs.at(i).key()).collect();
            let got = RandomTuner::new(cs.clone(), seed).next_batch(100);
            let got: Vec<String> = got.iter().map(|c| c.key()).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn huge_space_sampling_dedups() {
        let mut cs = ConfigSpace::new();
        for i in 0..8 {
            cs.add(Hyperparameter::ordinal_ints(
                format!("P{i}"),
                &(1..=12).collect::<Vec<i64>>(),
            ));
        }
        assert!(cs.size().expect("discrete") > PERMUTE_LIMIT);
        let mut t = RandomTuner::new(cs, 3);
        let batch = t.next_batch(50);
        assert_eq!(batch.len(), 50);
        let keys: std::collections::HashSet<_> = batch.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), 50);
    }
}
