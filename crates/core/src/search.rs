//! The ask/tell Bayesian-optimization search.

use crate::acquisition::Acquisition;
use configspace::{ConfigSpace, Configuration, IndexSet};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use surrogate::forest::RandomForest;
use surrogate::Regressor;

/// Spaces up to this size are ranked exhaustively; larger spaces rank a
/// random candidate sample plus neighbours of the incumbents.
const GRID_LIMIT: u128 = 1 << 16;

/// Tunable knobs of the search (ytopt-style defaults).
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Random configurations before the first surrogate fit.
    pub n_initial: usize,
    /// Acquisition function (ytopt: LCB with κ = 1.96).
    pub acquisition: Acquisition,
    /// Trees in the Random-Forest surrogate.
    pub n_trees: usize,
    /// Candidate samples per ask on large spaces.
    pub n_candidates: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            n_initial: 10,
            acquisition: Acquisition::default(),
            n_trees: 32,
            n_candidates: 1024,
            seed: 0,
        }
    }
}

/// Ask/tell Bayesian optimizer: Random-Forest surrogate + acquisition
/// ranking (the search method inside ytopt).
///
/// An ask works on *encoded* rows ([`ConfigSpace::encode`], the vectors
/// the surrogate consumes) from the first candidate to the acquisition
/// minimum; only the winner becomes a [`Configuration`].
pub struct BayesianOptimizer {
    space: ConfigSpace,
    cfg: SearchConfig,
    rng: SmallRng,
    observed_x: Vec<Vec<f64>>,
    observed_y: Vec<f64>,
    best_y: f64,
    best_config: Option<Configuration>,
    /// Flat indices of the points proposed or told so far. A configuration
    /// from outside the space has none, so the length says how many points
    /// are left.
    visited: IndexSet,
    /// The encoded grid of a space of at most [`GRID_LIMIT`] points,
    /// enumerated at the first model-based ask.
    grid: Option<Vec<f64>>,
    exhausted: bool,
}

impl BayesianOptimizer {
    /// New optimizer over `space`.
    pub fn new(space: ConfigSpace, cfg: SearchConfig) -> BayesianOptimizer {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        BayesianOptimizer {
            visited: IndexSet::default(),
            space,
            cfg,
            rng,
            observed_x: Vec::new(),
            observed_y: Vec::new(),
            best_y: f64::INFINITY,
            best_config: None,
            grid: None,
            exhausted: false,
        }
    }

    /// The space being searched.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// Number of observations told so far.
    pub fn observed(&self) -> usize {
        self.observed_y.len()
    }

    /// Best (configuration, runtime) observed.
    pub fn incumbent(&self) -> Option<(&Configuration, f64)> {
        self.best_config.as_ref().map(|c| (c, self.best_y))
    }

    /// True when every configuration of a finite space has been proposed.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// A random unvisited point, encoded: rejection sampling, then a scan
    /// of the grid once the visited set is dense.
    fn random_unvisited(&mut self) -> Option<Vec<f64>> {
        if let Some(size) = self.space.size() {
            if (self.visited.len() as u128) >= size {
                return None;
            }
        }
        let mut row = Vec::with_capacity(self.space.len());
        for _ in 0..10_000 {
            row.clear();
            self.space.sample_encoded(&mut self.rng, &mut row);
            let index = self.space.index_of_encoded(&row);
            if index.is_some_and(|i| !self.visited.contains(&i)) {
                return Some(row);
            }
        }
        let i = (0..).find(|i| !self.visited.contains(i))?;
        Some(self.space.encode(&self.space.at(i)))
    }

    /// The unvisited candidates of one ask as (encoded rows end to end,
    /// their number): the whole grid of a small space, else `n_candidates`
    /// distinct samples plus the distinct ones of 64 neighbours of the
    /// incumbent.
    fn candidates(&mut self) -> (Vec<f64>, usize) {
        let dims = self.space.len();
        match self.space.size() {
            Some(size) if size <= GRID_LIMIT => {
                // Row `i` of the grid is the point `i`.
                let grid = self.grid.get_or_insert_with(|| self.space.grid_encoded());
                let mut out = Vec::with_capacity(grid.len());
                let mut n = 0;
                for i in (0..size).filter(|i| !self.visited.contains(i)) {
                    let at = i as usize * dims;
                    out.extend_from_slice(&grid[at..at + dims]);
                    n += 1;
                }
                (out, n)
            }
            _ => {
                let mut out = Vec::with_capacity(dims * (self.cfg.n_candidates + 64));
                let mut seen = IndexSet::default();
                let mut row = Vec::with_capacity(dims);
                while seen.len() < self.cfg.n_candidates {
                    row.clear();
                    self.space.sample_encoded(&mut self.rng, &mut row);
                    self.offer(&row, &mut seen, &mut out);
                }
                // Exploitation seeds: neighbours of the incumbent.
                if let Some(best) = &self.best_config {
                    let best = self.space.encode(best);
                    for _ in 0..64 {
                        row.clear();
                        self.space.neighbor_encoded(&best, &mut self.rng, &mut row);
                        self.offer(&row, &mut seen, &mut out);
                    }
                }
                (out, seen.len())
            }
        }
    }

    /// Append `row` to the candidates `out` if it is an unvisited point
    /// not among them yet (`seen`). A row that is no point of the space, a
    /// neighbour of an incumbent from outside it, is no candidate.
    fn offer(&self, row: &[f64], seen: &mut IndexSet, out: &mut Vec<f64>) {
        match self.space.index_of_encoded(row) {
            Some(i) if !self.visited.contains(&i) && seen.insert(i) => out.extend_from_slice(row),
            _ => {}
        }
    }

    /// One ask in encoded form; marks the point visited.
    fn ask_row(&mut self) -> Option<Vec<f64>> {
        let pick = if self.observed_y.len() < self.cfg.n_initial {
            self.random_unvisited()
        } else {
            let (cands, n) = self.candidates();
            if n == 0 {
                None
            } else {
                let mut rf = RandomForest::new(self.cfg.n_trees)
                    .with_seed(self.cfg.seed ^ 0x5EED)
                    .with_min_samples_leaf(1);
                rf.fit(&self.observed_x, &self.observed_y);
                let acq = self.cfg.acquisition;
                let best = self.best_y;
                let dims = self.space.len();
                rf.predict_with_std_rows(&cands, n)
                    .into_iter()
                    .enumerate()
                    .map(|(i, (m, s))| (i, acq.score(m, s, best)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| cands[i * dims..(i + 1) * dims].to_vec())
            }
        };
        match &pick {
            Some(row) => self.visited.extend(self.space.index_of_encoded(row)),
            None => self.exhausted = true,
        }
        pick
    }

    /// Propose the next configuration to evaluate (step 1 of the paper's
    /// loop). Returns `None` when a finite space is exhausted.
    pub fn ask(&mut self) -> Option<Configuration> {
        self.ask_row().map(|row| self.space.decode(&row))
    }

    /// Propose a batch using the constant-liar strategy: after each pick
    /// the incumbent runtime is "lied" in as its observation so subsequent
    /// picks diversify. (ytopt extension for asynchronous evaluation.)
    pub fn ask_batch(&mut self, n: usize) -> Vec<Configuration> {
        let mut out = Vec::with_capacity(n);
        let lie = if self.best_y.is_finite() {
            self.best_y
        } else {
            1.0
        };
        for _ in 0..n {
            match self.ask_row() {
                Some(row) => {
                    out.push(self.space.decode(&row));
                    self.observed_x.push(row);
                    self.observed_y.push(lie);
                }
                None => break,
            }
        }
        // Retract the lies; real observations arrive via `tell`.
        for _ in 0..out.len() {
            self.observed_x.pop();
            self.observed_y.pop();
        }
        out
    }

    /// Report the measured runtime for a configuration (step 5).
    /// Failures are told as a large penalty so the surrogate learns to
    /// avoid the region.
    pub fn tell(&mut self, config: &Configuration, runtime_s: Option<f64>) {
        let row = self.space.encode(config);
        // A configuration from outside the space (a journal written over a
        // wider one) still informs the surrogate, but it is not one of the
        // points the search has left to propose.
        if let Some(i) = self.space.index_of(config) {
            self.visited.insert(i);
        }
        let y = match runtime_s {
            Some(t) => t,
            None => {
                // Penalty: 10× the worst seen (or an arbitrary large value
                // before any success).
                let worst = self
                    .observed_y
                    .iter()
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                if worst.is_finite() {
                    worst * 10.0
                } else {
                    1e6
                }
            }
        };
        self.observed_x.push(row);
        self.observed_y.push(y);
        if runtime_s.is_some() && y < self.best_y {
            self.best_y = y;
            self.best_config = Some(config.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use configspace::{Hyperparameter, ParamValue};
    use std::collections::HashSet;

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

    fn objective(c: &Configuration) -> f64 {
        let (a, b) = (c.int("P0") as f64, c.int("P1") as f64);
        1.0 + 0.1 * ((a - 13.0).powi(2) + (b - 4.0).powi(2))
    }

    #[test]
    fn bo_beats_its_own_random_phase() {
        let mut bo = BayesianOptimizer::new(space(16), SearchConfig::default());
        let mut best_random = f64::INFINITY;
        let mut best_total = f64::INFINITY;
        for i in 0..60 {
            let c = bo.ask().expect("space not exhausted");
            let y = objective(&c);
            if i < 10 {
                best_random = best_random.min(y);
            }
            best_total = best_total.min(y);
            bo.tell(&c, Some(y));
        }
        assert!(best_total <= best_random);
        assert!(best_total < 2.0, "BO should get near 1.0, got {best_total}");
        let (inc, y) = bo.incumbent().expect("has incumbent");
        assert_eq!(objective(inc), y);
    }

    #[test]
    fn never_proposes_duplicates() {
        let mut bo = BayesianOptimizer::new(space(6), SearchConfig::default());
        let mut seen = HashSet::new();
        while let Some(c) = bo.ask() {
            assert!(seen.insert(c.key()), "duplicate {c}");
            bo.tell(&c, Some(objective(&c)));
        }
        assert_eq!(seen.len(), 36, "finite space fully enumerated");
        assert!(bo.is_exhausted());
    }

    #[test]
    fn ask_batch_returns_distinct() {
        let mut bo = BayesianOptimizer::new(space(16), SearchConfig::default());
        // Prime past the random phase.
        for _ in 0..12 {
            let c = bo.ask().expect("ask");
            bo.tell(&c, Some(objective(&c)));
        }
        let batch = bo.ask_batch(5);
        assert_eq!(batch.len(), 5);
        let keys: HashSet<_> = batch.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), 5);
        assert_eq!(bo.observed(), 12, "lies must be retracted");
    }

    #[test]
    fn failures_penalized_not_fatal() {
        let mut bo = BayesianOptimizer::new(space(8), SearchConfig::default());
        for _ in 0..20 {
            let c = bo.ask().expect("ask");
            // Fail half the evaluations.
            if c.int("P0") % 2 == 0 {
                bo.tell(&c, None);
            } else {
                bo.tell(&c, Some(objective(&c)));
            }
        }
        assert!(bo.incumbent().is_some());
        assert_eq!(bo.observed(), 20);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let run = |seed| {
            let cfg = SearchConfig {
                seed,
                ..Default::default()
            };
            let mut bo = BayesianOptimizer::new(space(16), cfg);
            let mut keys = Vec::new();
            for _ in 0..25 {
                let c = bo.ask().expect("ask");
                keys.push(c.key());
                bo.tell(&c, Some(objective(&c)));
            }
            keys
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4), run(5));
    }

    #[test]
    fn foreign_observations_do_not_exhaust_the_space() {
        // Told configurations from a wider space (a resumed journal) used
        // to count as visited points of this one: three of them and a
        // 3-point space reported itself exhausted with nothing proposed.
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("P0", &[1, 2, 3]));
        let mut bo = BayesianOptimizer::new(cs, SearchConfig::default());
        let foreign = |names: &[&str], values: &[i64]| {
            Configuration::new(
                names.iter().map(|n| n.to_string()).collect(),
                values.iter().map(|&v| ParamValue::Int(v)).collect(),
            )
        };
        bo.tell(&foreign(&["P0"], &[10]), Some(3.0));
        bo.tell(&foreign(&["P0", "P1"], &[1, 7]), Some(2.0));
        bo.tell(&foreign(&["Q"], &[2]), None);
        let mut seen = HashSet::new();
        while let Some(c) = bo.ask() {
            assert!(seen.insert(c.int("P0")), "duplicate {c}");
            bo.tell(&c, Some(c.int("P0") as f64));
        }
        assert_eq!(seen, HashSet::from([1, 2, 3]));
        assert!(bo.is_exhausted());
        assert_eq!(bo.observed(), 6);
    }
}
