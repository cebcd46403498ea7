//! Tuner strategies.

pub mod ga;
pub mod gridsearch;
pub mod random;
pub mod sa;
pub mod xgb;
pub mod ytopt;

use crate::measure::MeasureResult;
use configspace::Configuration;

/// A search strategy over a configuration space — AutoTVM's `Tuner`
/// interface (`next_batch` / `update` / `has_next`).
pub trait Tuner {
    /// Strategy name as plotted in the paper's figures
    /// (e.g. `"AutoTVM-XGB"`).
    fn name(&self) -> &str;

    /// Propose up to `n` configurations to measure next. May return fewer
    /// (or none) when the strategy's candidate pool is exhausted.
    fn next_batch(&mut self, n: usize) -> Vec<Configuration>;

    /// Feed back measurement results for previously proposed
    /// configurations.
    fn update(&mut self, results: &[(Configuration, MeasureResult)]);

    /// Whether the tuner can still propose new configurations.
    fn has_next(&self) -> bool;
}
