#![warn(missing_docs)]
//! # ytopt-bo — Bayesian-optimization autotuning (the paper's framework)
//!
//! A native reimplementation of the ytopt autotuner the paper plugs into
//! TVM: sample a few random configurations, fit a **Random-Forest
//! surrogate** over the (configuration → runtime) pairs, and repeatedly
//! evaluate the configuration minimizing the **lower-confidence-bound
//! (LCB)** acquisition over the surrogate's mean/uncertainty — balancing
//! exploitation (low predicted runtime) against exploration (high
//! ensemble variance).
//!
//! The crate owns the *search*, not a loop: `autotvm::driver` runs every
//! tuner — this one included, as `autotvm::YtoptTuner` — through one
//! ask/measure/tell trial loop with journaling, resume and pruning.
//!
//! * [`search::BayesianOptimizer`] — ask/tell search (with constant-liar
//!   batch proposals as an extension),
//! * [`acquisition::Acquisition`] — LCB (the paper's choice), plus EI and
//!   PI for the ablation benches,
//! * [`fault::MeasureError`] — the structured measurement-failure
//!   taxonomy shared with the AutoTVM measurement pipeline,
//! * [`journal::TrialJournal`] — the performance database: every
//!   evaluated configuration with its runtime, error class and process
//!   time, one crash-consistent JSON line per trial, written by the
//!   driver's `tune_journaled` and replayed by `resume_from_journal`,
//! * [`problem`] — the evaluator-side counters every layer reports.
//!
//! ```
//! use configspace::{ConfigSpace, Hyperparameter};
//! use ytopt_bo::search::{BayesianOptimizer, SearchConfig};
//!
//! let mut cs = ConfigSpace::new();
//! cs.add(Hyperparameter::ordinal_ints("P0", &(1..=32).collect::<Vec<_>>()));
//! let mut bo = BayesianOptimizer::new(cs, SearchConfig::default());
//! for _ in 0..32 {
//!     let config = bo.ask().expect("space not exhausted");
//!     let runtime = (config.int("P0") as f64 - 20.0).abs() + 1.0;
//!     bo.tell(&config, Some(runtime));
//! }
//! let (best, runtime) = bo.incumbent().expect("ran");
//! assert_eq!((best.int("P0"), runtime), (20, 1.0));
//! ```

pub mod acquisition;
pub mod fault;
pub mod journal;
pub mod problem;
pub mod search;

pub use acquisition::Acquisition;
pub use fault::MeasureError;
pub use journal::{TrialJournal, TrialRecord};
pub use problem::{CacheStats, JitStats, ParStats, PruneStats, SimdStats, StaticCheckStats};
pub use search::BayesianOptimizer;
