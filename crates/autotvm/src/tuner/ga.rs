//! `GATuner`: genetic algorithm over knob-index genomes.

use crate::measure::MeasureResult;
use crate::tuner::Tuner;
use configspace::{ConfigSpace, Configuration, IndexSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One genome: the encoded row of a point, the index of each parameter's
/// value.
type Genome = Vec<f64>;

/// Elites carried into the next generation (AutoTVM default 3).
const ELITE_NUM: usize = 3;
/// Per-gene mutation probability.
const MUTATION_PROB: f64 = 0.1;

/// AutoTVM's `GATuner` (population GA with elitism, uniform crossover and
/// point mutation; fitness = negative runtime).
pub struct GaTuner {
    space: ConfigSpace,
    rng: SmallRng,
    /// Population size: AutoTVM's 100, or the whole space if smaller.
    pop_size: usize,
    /// Current generation waiting to be measured.
    pending: Vec<Genome>,
    /// Measured genomes and fitness of the current generation.
    scored: Vec<(Genome, f64)>,
    /// All-time elites.
    elites: Vec<(Genome, f64)>,
    /// Flat indices of the points proposed so far.
    visited: IndexSet,
}

impl GaTuner {
    /// New tuner with AutoTVM's defaults.
    pub fn new(space: ConfigSpace, seed: u64) -> GaTuner {
        let pop_size = space.size().map_or(100, |size| size.min(100) as usize);
        let mut t = GaTuner {
            space,
            rng: SmallRng::seed_from_u64(seed),
            pop_size,
            pending: Vec::new(),
            scored: Vec::new(),
            elites: Vec::new(),
            visited: IndexSet::default(),
        };
        t.seed_population();
        t
    }

    fn random_genome(&mut self) -> Genome {
        let mut g = Vec::with_capacity(self.space.len());
        self.space.sample_encoded(&mut self.rng, &mut g);
        g
    }

    /// Mark `g` visited; true if it is a point of the space not visited
    /// before.
    fn visit(&mut self, g: &Genome) -> bool {
        self.space
            .index_of_encoded(g)
            .is_some_and(|i| self.visited.insert(i))
    }

    fn seed_population(&mut self) {
        let mut attempts = 0;
        while self.pending.len() < self.pop_size && attempts < self.pop_size * 50 {
            attempts += 1;
            let g = self.random_genome();
            if self.visit(&g) {
                self.pending.push(g);
            }
        }
    }

    fn breed(&mut self) {
        // Parents: tournament over last generation + all-time elites.
        let mut pool = self.scored.clone();
        pool.extend(self.elites.iter().cloned());
        if pool.is_empty() {
            self.seed_population();
            return;
        }
        let mut next: Vec<Genome> = Vec::with_capacity(self.pop_size);
        let mut attempts = 0usize;
        let max_attempts = self.pop_size * 100;
        while next.len() < self.pop_size && attempts < max_attempts {
            attempts += 1;
            let a = self.tournament(&pool);
            let b = self.tournament(&pool);
            // Uniform crossover.
            let mut child: Genome = a
                .iter()
                .zip(b.iter())
                .map(|(&x, &y)| if self.rng.gen_bool(0.5) { x } else { y })
                .collect();
            // Point mutation.
            for (gene, p) in child.iter_mut().zip(self.space.params()) {
                if self.rng.gen::<f64>() < MUTATION_PROB {
                    *gene = p.sample_encoded(&mut self.rng);
                }
            }
            if self.visit(&child) {
                next.push(child);
            }
        }
        // Couldn't breed anything unvisited (space nearly exhausted):
        // fall back to random unvisited genomes.
        if next.is_empty() && self.unvisited_left() {
            let mut attempts = 0;
            while next.is_empty() && attempts < 10_000 {
                attempts += 1;
                let g = self.random_genome();
                if self.visit(&g) {
                    next.push(g);
                }
            }
        }
        self.pending = next;
        self.scored.clear();
    }

    /// Whether some point of the space is not visited yet.
    fn unvisited_left(&self) -> bool {
        self.space
            .size()
            .is_none_or(|size| size > self.visited.len() as u128)
    }

    fn tournament(&mut self, pool: &[(Genome, f64)]) -> Genome {
        let k = 2.min(pool.len());
        let mut best: Option<&(Genome, f64)> = None;
        for _ in 0..k {
            let cand = &pool[self.rng.gen_range(0..pool.len())];
            if best.map(|b| cand.1 > b.1).unwrap_or(true) {
                best = Some(cand);
            }
        }
        best.expect("non-empty pool").0.clone()
    }
}

impl Tuner for GaTuner {
    fn name(&self) -> &str {
        "AutoTVM-GA"
    }

    fn next_batch(&mut self, n: usize) -> Vec<Configuration> {
        if self.pending.is_empty() {
            self.breed();
        }
        let take = n.min(self.pending.len());
        let drained: Vec<Genome> = self.pending.drain(..take).collect();
        drained.iter().map(|g| self.space.decode(g)).collect()
    }

    fn update(&mut self, results: &[(Configuration, MeasureResult)]) {
        for (cfg, res) in results {
            // A configuration from outside the space (a value it lacks, a
            // parameter too many or too few) has no genome to breed.
            let g = self.space.encode(cfg);
            if cfg.len() != g.len() || self.space.index_of_encoded(&g).is_none() {
                continue;
            }
            let fitness = match res.runtime_s {
                Some(t) if t > 0.0 => -t,
                _ => f64::NEG_INFINITY,
            };
            self.scored.push((g.clone(), fitness));
            // Maintain the elite set.
            self.elites.push((g, fitness));
            self.elites
                .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            self.elites.truncate(ELITE_NUM);
        }
    }

    fn has_next(&self) -> bool {
        !self.pending.is_empty() || self.unvisited_left()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use configspace::Hyperparameter;
    use std::collections::HashSet;

    fn space() -> ConfigSpace {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints(
            "P0",
            &(1..=16).collect::<Vec<i64>>(),
        ));
        cs.add(Hyperparameter::ordinal_ints(
            "P1",
            &(1..=16).collect::<Vec<i64>>(),
        ));
        cs
    }

    /// Synthetic objective: minimum at (P0=12, P1=5).
    fn runtime(c: &Configuration) -> f64 {
        let (a, b) = (c.int("P0") as f64, c.int("P1") as f64);
        1.0 + (a - 12.0).powi(2) + (b - 5.0).powi(2)
    }

    #[test]
    fn converges_toward_optimum() {
        let mut t = GaTuner::new(space(), 5);
        let mut best = f64::INFINITY;
        let mut evals = 0;
        while evals < 160 && t.has_next() {
            let batch = t.next_batch(16);
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
            for (_, r) in &results {
                best = best.min(r.runtime_s.expect("ok"));
                evals += 1;
            }
            t.update(&results);
        }
        // Random chance of hitting within distance^2 <= 8 in 160/256 draws
        // is high anyway, but GA should find something near-optimal.
        assert!(best < 10.0, "best={best}");
    }

    #[test]
    fn never_repeats_configurations() {
        let mut t = GaTuner::new(space(), 9);
        let mut seen = HashSet::new();
        let mut drawn = 0;
        while drawn < 256 && t.has_next() {
            let batch = t.next_batch(20);
            if batch.is_empty() {
                break;
            }
            let results: Vec<_> = batch
                .iter()
                .map(|c| {
                    assert!(seen.insert(c.key()), "repeat: {c}");
                    drawn += 1;
                    let r = runtime(c);
                    (c.clone(), MeasureResult::ok(r, r))
                })
                .collect();
            t.update(&results);
        }
        assert!(drawn >= 200, "should cover most of the space, got {drawn}");
    }

    #[test]
    fn exhausts_small_space() {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("P0", &[1, 2, 3]));
        let mut t = GaTuner::new(cs, 1);
        let mut total = 0;
        for _ in 0..10 {
            let batch = t.next_batch(10);
            let results: Vec<_> = batch
                .iter()
                .map(|c| (c.clone(), MeasureResult::ok(1.0, 1.0)))
                .collect();
            t.update(&results);
            total += batch.len();
            if !t.has_next() {
                break;
            }
        }
        assert_eq!(total, 3);
        assert!(!t.has_next());
    }
}
