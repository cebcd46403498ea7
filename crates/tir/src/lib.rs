#![warn(missing_docs)]
//! # tvm-tir — loop-nest tensor IR and lowering
//!
//! The second half of the mini-TVM compilation pipeline:
//!
//! * [`stmt::Stmt`] — an explicit loop-nest statement IR (TVM's TIR),
//! * [`lower::lower`] — turns a scheduled [`tvm_te::Schedule`] into a
//!   [`stmt::PrimFunc`] (loop nests with buffer stores),
//! * [`passes`] — simplification, loop unrolling, vectorization
//!   legalization and structural verification,
//! * [`analysis`] — loop-nest feature extraction consumed by the
//!   analytical GPU cost model (`gpu-sim`) and the XGB tuner's feature
//!   encoding (`autotvm`),
//! * [`analyze`] — static schedule-safety analysis (interval bounds
//!   proofs and parallel-dependence race detection) run before any
//!   config is compiled or measured,
//! * [`builder`] — an imperative TIR builder used for kernels whose
//!   loop-carried dependences fall outside pure tensor expressions
//!   (PolyBench LU and Cholesky).
//!
//! ```
//! use tvm_te::{placeholder, compute, DType, Schedule};
//! use tvm_tir::lower::lower;
//!
//! let a = placeholder([8, 8], DType::F64, "A");
//! let b = compute([8, 8], "B", |i| a.at(&[i[0].clone(), i[1].clone()]) + 1i64);
//! let s = Schedule::create(&[b.clone()]);
//! let f = lower(&s, &[a, b], "add_one");
//! assert_eq!(f.params.len(), 2);
//! ```

pub mod analysis;
pub mod analyze;
pub mod buffer;
pub mod builder;
pub mod lower;
pub mod passes;
pub mod printer;
pub mod stmt;

pub use buffer::Buffer;
pub use lower::{lower, lower_with_options, LowerOptions};
pub use passes::pipeline::{optimize, PassManager, PassTrace, PipelineError, PIPELINE_VERSION};
pub use stmt::{ForKind, PrimFunc, Stmt};
