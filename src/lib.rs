#![warn(missing_docs)]
//! # tvm-autotune — autotuning TVM-style scientific kernels with Bayesian optimization
//!
//! A Rust reproduction of *"Autotuning Apache TVM-based Scientific
//! Applications Using Bayesian Optimization"* (Wu, Paramasivam, Taylor;
//! SC 2023 workshops), built from scratch:
//!
//! | Paper component | Crate |
//! |---|---|
//! | TVM tensor-expression language + schedules | [`te`] |
//! | TVM lowering, TIR, passes | [`tir`] |
//! | TVM runtime (tensors, CPU interpreter) | [`runtime`] |
//! | Swing cluster (NVIDIA A100) | [`sim`] — analytical device model |
//! | PolyBench 4.2 kernels (3mm, LU, Cholesky, …) | [`polybench`] |
//! | ConfigSpace | [`configspace`] |
//! | scikit-learn RF / XGBoost | [`surrogate`] |
//! | AutoTVM (Random/GridSearch/GA/XGB tuners, the trial loop) | [`autotvm`] |
//! | ytopt (RF surrogate + LCB Bayesian optimization) | [`bo`] |
//!
//! This umbrella crate re-exports everything and adds the glue type the
//! experiments are built on:
//!
//! * [`MoldEvaluator`] — measures a PolyBench code mold on a device with
//!   the paper's process-time accounting (instantiate + build +
//!   transfer + repeated runs) behind the [`autotvm::Evaluator`]
//!   interface.
//!
//! [`YtoptTuner`] (re-exported from [`autotvm`]) exposes the BO search
//! through the AutoTVM `Tuner` interface, literally "replacing the
//! autotuning module" as Figure 3 of the paper describes, so one driver
//! runs all five strategies.
//!
//! ## Quickstart
//!
//! ```
//! use tvm_autotune::{MoldEvaluator, YtoptTuner};
//! use tvm_autotune::polybench::{molds::mold_for, KernelName, ProblemSize};
//! use tvm_autotune::sim::{GpuSpec, SimDevice};
//! use tvm_autotune::autotvm::{tune, Tuner, TuneOptions};
//!
//! let mold = mold_for(KernelName::Lu, ProblemSize::Large);
//! let dev = SimDevice::new(GpuSpec::a100());
//! let eval = MoldEvaluator::simulated(mold, dev);
//! let mut tuner = YtoptTuner::new(eval.space().clone(), 42);
//! let result = tune(&mut tuner, &eval, TuneOptions { max_evals: 20, ..Default::default() });
//! assert_eq!(result.len(), 20);
//! assert!(result.best().is_some());
//! ```

pub use autotvm;
pub use configspace;
pub use gpu_sim as sim;
pub use polybench;
pub use surrogate;
pub use tvm_runtime as runtime;
pub use tvm_te as te;
pub use tvm_tir as tir;
pub use ytopt_bo as bo;

mod evaluator;

pub use autotvm::YtoptTuner;
pub use evaluator::{MemoCache, MoldEvaluator};

/// Convenient glob import for examples and downstream users.
pub mod prelude {
    pub use crate::evaluator::{MemoCache, MoldEvaluator};
    pub use autotvm::{
        resume_from_journal, tune, tune_journaled, tune_parallel, CacheStats, Evaluator,
        FaultInjector, FaultPlan, GaTuner, GridSearchTuner, HarnessOptions, HarnessedEvaluator,
        MeasureError, MeasureResult, RandomTuner, TuneOptions, Tuner, TuningResult, XgbTuner,
        YtoptTuner,
    };
    pub use configspace::{ConfigSpace, Configuration, Hyperparameter, ParamValue};
    pub use gpu_sim::{GpuSpec, SimDevice};
    pub use polybench::{
        molds::{mold_for, mold_for_mode},
        CodeMold, KernelName, ProblemSize, SpaceMode,
    };
    pub use tvm_runtime::{CpuDevice, Device, Module, NDArray};
    pub use tvm_te::{compute, placeholder, reduce_axis, sum, DType, Schedule};
    pub use tvm_tir::lower::lower;
    pub use ytopt_bo::{TrialJournal, TrialRecord};
}
