//! `YtoptTuner`: the paper's Figure 3, as a type.
//!
//! The proposed framework "basically replaces the autotuning modules
//! [of Figure 1] with the ytopt module". [`YtoptTuner`] does exactly
//! that: it exposes the Bayesian-optimization search through AutoTVM's
//! `Tuner` interface, so the same measure loop drives all five
//! strategies the paper compares.

use crate::measure::MeasureResult;
use crate::tuner::Tuner;
use configspace::{ConfigSpace, Configuration};
use ytopt_bo::search::{BayesianOptimizer, SearchConfig};

/// The BO search behind the AutoTVM `Tuner` interface.
pub struct YtoptTuner {
    bo: BayesianOptimizer,
}

impl YtoptTuner {
    /// New tuner with ytopt defaults (RF surrogate, LCB κ = 1.96).
    pub fn new(space: ConfigSpace, seed: u64) -> YtoptTuner {
        let cfg = SearchConfig {
            seed,
            ..Default::default()
        };
        YtoptTuner::with_config(space, cfg)
    }

    /// New tuner with explicit search knobs (used by the ablations).
    pub fn with_config(space: ConfigSpace, cfg: SearchConfig) -> YtoptTuner {
        YtoptTuner {
            bo: BayesianOptimizer::new(space, cfg),
        }
    }

    /// Borrow the underlying optimizer (incumbent inspection).
    pub fn optimizer(&self) -> &BayesianOptimizer {
        &self.bo
    }
}

impl Tuner for YtoptTuner {
    fn name(&self) -> &str {
        "ytopt"
    }

    fn next_batch(&mut self, n: usize) -> Vec<Configuration> {
        if n == 1 {
            self.bo.ask().into_iter().collect()
        } else {
            self.bo.ask_batch(n)
        }
    }

    fn update(&mut self, results: &[(Configuration, MeasureResult)]) {
        for (cfg, res) in results {
            self.bo.tell(cfg, res.runtime_s);
        }
    }

    fn has_next(&self) -> bool {
        !self.bo.is_exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{tune, TuneOptions};
    use crate::measure::FnEvaluator;
    use configspace::Hyperparameter;

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

    #[test]
    fn drives_through_autotvm_interface() {
        let ev = FnEvaluator::new(space(), |c| {
            let r = 1.0
                + 0.2 * ((c.int("P0") - 11) as f64).powi(2)
                + 0.2 * ((c.int("P1") - 6) as f64).powi(2);
            MeasureResult::ok(r, r)
        });
        let mut t = YtoptTuner::new(space(), 3);
        let res = tune(
            &mut t,
            &ev,
            TuneOptions {
                max_evals: 60,
                batch: 1,
                max_process_s: None,
            },
        );
        assert_eq!(res.tuner, "ytopt");
        assert_eq!(res.len(), 60);
        let best = res.best().expect("best").runtime_s.expect("ok");
        assert!(
            best < 1.5,
            "BO through the tuner interface should converge, got {best}"
        );
        let (inc, inc_y) = t.optimizer().incumbent().expect("incumbent");
        assert_eq!(Some(inc_y), res.best().expect("best").runtime_s);
        assert_eq!(inc.len(), 2);
    }

    #[test]
    fn exhausts_finite_space() {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("P0", &[1, 2, 3]));
        let ev = FnEvaluator::new(cs.clone(), |c| MeasureResult::ok(c.int("P0") as f64, 0.1));
        let mut t = YtoptTuner::new(cs, 1);
        let res = tune(&mut t, &ev, TuneOptions::default());
        assert_eq!(res.len(), 3);
        assert!(!t.has_next());
    }
}
