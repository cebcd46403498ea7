#![warn(missing_docs)]
//! # autotvm — the tuning framework (AutoTVM reimplementation)
//!
//! The paper compares its BO framework against AutoTVM with four tuner
//! strategies; this crate provides all five behind one [`Tuner`]
//! interface, over the same [`configspace::ConfigSpace`] the molds expose:
//!
//! * [`tuner::ytopt::YtoptTuner`] — the paper's framework: ytopt's
//!   Random-Forest + LCB Bayesian optimization (`ytopt_bo`) "replacing the
//!   autotuning module" of Figure 3,
//! * [`tuner::random::RandomTuner`] — enumerate the space in random order,
//! * [`tuner::gridsearch::GridSearchTuner`] — enumerate in grid order,
//! * [`tuner::ga::GaTuner`] — genetic algorithm over knob indices,
//! * [`tuner::xgb::XgbTuner`] — gradient-boosted-tree cost model with
//!   simulated-annealing candidate proposal (the XGBoost tuner). Like the
//!   paper observed on the small LU/Cholesky spaces, its proposal pool can
//!   exhaust before the trial budget and the tuner stops early (§5: "at
//!   most 56 evaluations").
//!
//! [`measure`] defines the evaluation interface and the process-time
//! accounting (build + transfer + repeated runs), and [`driver::tune`]
//! runs the one trial loop, charging the tuner's *real* think time plus the
//! (simulated or real) evaluation cost — the quantity Figures 4–13 of the
//! paper plot on their time axes. The journal `driver::tune_journaled`
//! writes (`ytopt_bo::journal`) is the one on-disk trial format — AutoTVM's
//! tuning log and the paper's performance database at once.
//!
//! Fault tolerance: [`harness::HarnessedEvaluator`] wraps any evaluator
//! with panic isolation, wall-clock timeouts and transient-failure retry;
//! [`harness::FaultInjector`] is its deterministic chaos-testing
//! counterpart; [`driver::tune_journaled`] /
//! [`driver::resume_from_journal`] give crash-consistent checkpointing of
//! tuning runs.

pub mod driver;
pub mod harness;
pub mod measure;
pub mod tuner;

pub use driver::{
    resume_from_journal, tune, tune_journaled, tune_parallel, Trial, TuneOptions, TuningResult,
};
pub use harness::{FaultInjector, FaultPlan, HarnessOptions, HarnessedEvaluator};
pub use measure::{
    CacheStats, Evaluator, JitStats, MeasureError, MeasureResult, ParStats, SimdStats,
};
pub use tuner::{
    ga::GaTuner, gridsearch::GridSearchTuner, random::RandomTuner, xgb::XgbTuner,
    ytopt::YtoptTuner, Tuner,
};
