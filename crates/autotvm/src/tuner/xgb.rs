//! `XGBTuner`: gradient-boosted-tree cost model + candidate proposal.
//!
//! Mirrors AutoTVM's model-based tuner: observed (configuration, runtime)
//! pairs train a boosted-tree regressor over the encoded knob vector; the
//! tuner then proposes the unvisited candidates with the best predicted
//! runtime (full-grid ranking on small spaces, simulated annealing on
//! large ones), keeping only candidates predicted to be competitive with
//! the best runtime already measured.
//!
//! That competitiveness filter is what makes the tuner stop early on the
//! paper's small LU/Cholesky spaces — once the model is confident no
//! unvisited point beats the incumbent, the proposal pool empties. The
//! paper observes exactly this: "XGBoost search tuner could only do at
//! most 56 evaluations no matter how many evaluations are set".
//!
//! Candidates are encoded rows and flat grid indices; only the winners of
//! a refill become configurations.

use crate::measure::MeasureResult;
use crate::tuner::sa::anneal;
use crate::tuner::Tuner;
use configspace::{ConfigSpace, Configuration};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;
use surrogate::gbt::GradientBoosting;
use surrogate::Regressor;

/// Grid-rank candidates exhaustively up to this space size; anneal above.
const GRID_LIMIT: u128 = 1 << 16;
/// Candidates proposed per model refresh (AutoTVM `plan_size`).
const PLAN_SIZE: usize = 16;
/// Random trials before the first model fit.
const N_INITIAL: usize = 16;
/// Boosting rounds per refit.
const N_ROUNDS: usize = 40;

/// AutoTVM's `XGBTuner`.
pub struct XgbTuner {
    space: ConfigSpace,
    rng: SmallRng,
    /// Proposal filter: keep candidates with predicted runtime below
    /// `(1 + margin) × best observed`.
    pub improvement_margin: f64,
    observed: Vec<(Vec<f64>, f64)>,
    best_runtime: f64,
    worst_runtime: f64,
    pending: Vec<Configuration>,
    /// Flat indices of the points proposed or measured so far. A
    /// configuration from outside the space has none, so it is never one
    /// of them.
    visited: HashSet<u128>,
    /// The encoded grid of a space of at most [`GRID_LIMIT`] points,
    /// enumerated at the first model-based refill.
    grid: Option<Vec<f64>>,
    exhausted: bool,
}

impl XgbTuner {
    /// New tuner with AutoTVM-like defaults over a discrete space.
    pub fn new(space: ConfigSpace, seed: u64) -> XgbTuner {
        space.size().expect("XgbTuner needs a discrete space");
        XgbTuner {
            space,
            rng: SmallRng::seed_from_u64(seed),
            improvement_margin: 0.05,
            observed: Vec::new(),
            best_runtime: f64::INFINITY,
            worst_runtime: f64::NEG_INFINITY,
            pending: Vec::new(),
            visited: HashSet::new(),
            grid: None,
            exhausted: false,
        }
    }

    /// Up to `n` distinct unvisited random points, marked visited.
    fn propose_random(&mut self, n: usize) {
        let mut row = Vec::with_capacity(self.space.len());
        let mut attempts = 0;
        while self.pending.len() < n && attempts < n * 200 {
            attempts += 1;
            row.clear();
            self.space.sample_encoded(&mut self.rng, &mut row);
            let index = self.space.index_of_encoded(&row).expect("sampled");
            if self.visited.insert(index) {
                self.pending.push(self.space.at(index));
            }
        }
    }

    /// Called with nothing pending, so every point proposed before is
    /// visited by now.
    fn refill(&mut self) {
        if self.observed.len() < N_INITIAL {
            self.propose_random(PLAN_SIZE);
            if self.pending.is_empty() {
                self.exhausted = true;
            }
            return;
        }

        // Train the cost model on everything observed so far.
        let (x, y): (Vec<Vec<f64>>, Vec<f64>) = self.observed.iter().cloned().unzip();
        let mut model = GradientBoosting::new(N_ROUNDS)
            .with_max_depth(4)
            .with_seed(7);
        model.fit(&x, &y);

        // Unvisited points predicted competitive, as (index, prediction).
        let threshold = self.best_runtime * (1.0 + self.improvement_margin);
        let visited = &self.visited;
        let keep = |&(index, pred): &(u128, f64)| pred <= threshold && !visited.contains(&index);
        let size = self.space.size().expect("discrete space");
        let mut candidates: Vec<(u128, f64)> = if size <= GRID_LIMIT {
            let grid = self.grid.get_or_insert_with(|| self.space.grid_encoded());
            model
                .predict_rows(grid, size as usize)
                .into_iter()
                .enumerate()
                .map(|(i, pred)| (i as u128, pred))
                .filter(keep)
                .collect()
        } else {
            let space = &self.space;
            let score = |row: &[f64]| -model.predict_one(row);
            anneal(space, &score, PLAN_SIZE * 4, 60, &mut self.rng)
                .into_iter()
                .map(|(row, s)| (space.index_of_encoded(&row).expect("annealed"), -s))
                .filter(keep)
                .collect()
        };
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        candidates.truncate(PLAN_SIZE);

        for (index, _) in candidates {
            self.visited.insert(index);
            self.pending.push(self.space.at(index));
        }
        if self.pending.is_empty() {
            // No unvisited candidate predicted competitive: stop early
            // (the paper's ≤56-evaluation behavior).
            self.exhausted = true;
        }
    }
}

impl Tuner for XgbTuner {
    fn name(&self) -> &str {
        "AutoTVM-XGB"
    }

    fn next_batch(&mut self, n: usize) -> Vec<Configuration> {
        if self.exhausted {
            return Vec::new();
        }
        if self.pending.is_empty() {
            self.refill();
        }
        let take = n.min(self.pending.len());
        self.pending.drain(..take).collect()
    }

    fn update(&mut self, results: &[(Configuration, MeasureResult)]) {
        // Two passes: ingest successes first so the penalty scale for
        // failures reflects every success in the batch, independent of the
        // order the measurer happened to return results in.
        for (cfg, res) in results {
            if let Some(index) = self.space.index_of(cfg) {
                self.visited.insert(index);
            }
            if let Some(t) = res.runtime_s {
                self.observed.push((self.space.encode(cfg), t));
                self.best_runtime = self.best_runtime.min(t);
                self.worst_runtime = self.worst_runtime.max(t);
            }
        }
        for (cfg, res) in results {
            if res.runtime_s.is_none() {
                // Teach the model that this region fails, as AutoTVM
                // does (a failed measurement gets the worst score):
                // a large-but-finite penalty keeps the regression
                // well-posed while steering proposals away.
                let penalty = if self.worst_runtime.is_finite() {
                    self.worst_runtime * 10.0
                } else {
                    1e6
                };
                self.observed.push((self.space.encode(cfg), penalty));
            }
        }
    }

    fn has_next(&self) -> bool {
        !self.exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use configspace::Hyperparameter;

    fn space(n: i64) -> ConfigSpace {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints(
            "P0",
            &(1..=n).collect::<Vec<i64>>(),
        ));
        cs.add(Hyperparameter::ordinal_ints(
            "P1",
            &(1..=n).collect::<Vec<i64>>(),
        ));
        cs
    }

    /// Smooth objective, minimum 1.0 at (15, 6).
    fn runtime(c: &Configuration) -> f64 {
        let (a, b) = (c.int("P0") as f64, c.int("P1") as f64);
        1.0 + 0.05 * ((a - 15.0).powi(2) + (b - 6.0).powi(2))
    }

    fn drive(t: &mut XgbTuner, budget: usize) -> (usize, f64) {
        let mut evals = 0;
        let mut best = f64::INFINITY;
        while evals < budget && t.has_next() {
            let batch = t.next_batch(8);
            if batch.is_empty() {
                break;
            }
            let results: Vec<_> = batch
                .iter()
                .map(|c| {
                    let r = runtime(c);
                    (c.clone(), MeasureResult::ok(r, r))
                })
                .collect();
            evals += results.len();
            for (_, r) in &results {
                best = best.min(r.runtime_s.expect("ok"));
            }
            t.update(&results);
        }
        (evals, best)
    }

    #[test]
    fn model_guides_search_to_optimum() {
        let mut t = XgbTuner::new(space(20), 3);
        let (_, best) = drive(&mut t, 100);
        assert!(best < 1.6, "best={best}");
    }

    #[test]
    fn stops_early_on_small_space() {
        // 400-point space, like the paper's LU/Cholesky large: the tuner
        // must terminate well before a 400-evaluation budget.
        let mut t = XgbTuner::new(space(20), 1);
        let (evals, _) = drive(&mut t, 400);
        assert!(
            evals < 120,
            "competitiveness filter should stop the tuner early, did {evals}"
        );
        assert!(!t.has_next());
    }

    #[test]
    fn never_repeats() {
        let mut t = XgbTuner::new(space(12), 5);
        let mut seen = HashSet::new();
        while t.has_next() && seen.len() < 144 {
            let batch = t.next_batch(8);
            if batch.is_empty() {
                break;
            }
            let results: Vec<_> = batch
                .iter()
                .map(|c| {
                    assert!(seen.insert(c.key()), "repeat {c}");
                    let r = runtime(c);
                    (c.clone(), MeasureResult::ok(r, r))
                })
                .collect();
            t.update(&results);
        }
    }

    #[test]
    fn failed_measurements_are_tolerated() {
        let mut t = XgbTuner::new(space(10), 2);
        let batch = t.next_batch(4);
        let results: Vec<_> = batch
            .iter()
            .map(|c| (c.clone(), MeasureResult::fail("compile error", 0.1)))
            .collect();
        t.update(&results);
        assert!(t.has_next());
        assert!(!t.next_batch(4).is_empty());
    }

    #[test]
    fn failed_measurements_penalize_the_model() {
        let mut t = XgbTuner::new(space(10), 2);
        let batch = t.next_batch(4);
        assert_eq!(t.observed.len(), 0);
        // One success fixes the penalty scale; failures train at 10×.
        let mut results: Vec<_> = batch
            .iter()
            .skip(1)
            .map(|c| (c.clone(), MeasureResult::fail("compile error", 0.1)))
            .collect();
        results.push((batch[0].clone(), MeasureResult::ok(2.0, 2.0)));
        t.update(&results);
        assert_eq!(t.observed.len(), 4, "failures become training points");
        assert!(t.observed.iter().any(|(_, y)| (*y - 20.0).abs() < 1e-9));
    }
}
