#![warn(missing_docs)]
//! # tvm-te — a tensor-expression (TE) DSL in Rust
//!
//! This crate reimplements the slice of Apache TVM's tensor-expression
//! language that the paper *"Autotuning Apache TVM-based Scientific
//! Applications Using Bayesian Optimization"* exercises:
//!
//! * [`placeholder`] / [`compute`] tensor declarations,
//! * scalar [`expr::PrimExpr`] arithmetic with [`reduce_axis`]-based
//!   sum reductions ([`sum`]),
//! * a [`schedule::Schedule`] tree with the loop transformations the paper
//!   tunes over: `split`, `reorder`, `fuse`, `tile`, `unroll`, `vectorize`,
//!   `parallel` and GPU thread `bind`.
//!
//! The companion crate `tvm-tir` lowers a scheduled TE graph into an
//! explicit loop-nest IR which can be interpreted (`tvm-runtime`) or fed to
//! the analytical GPU cost model (`gpu-sim`).
//!
//! ## Quick example
//!
//! ```
//! use tvm_te::{placeholder, compute, reduce_axis, sum, DType, Schedule};
//!
//! let (n, m, k) = (64usize, 64usize, 64usize);
//! let a = placeholder([n, k], DType::F64, "A");
//! let b = placeholder([k, m], DType::F64, "B");
//! let kk = reduce_axis(0, k as i64, "k");
//! let c = compute([n, m], "C", |idx| {
//!     sum(a.at(&[idx[0].clone(), kk.var_expr()]) * b.at(&[kk.var_expr(), idx[1].clone()]),
//!         &[kk.clone()])
//! });
//! let mut s = Schedule::create(&[c.clone()]);
//! let (y, x) = (c.axis(0), c.axis(1));
//! let (yo, yi) = s.split(&c, &y, 8);
//! let (xo, xi) = s.split(&c, &x, 8);
//! s.reorder(&c, &[yo, xo, yi, xi]);
//! ```

pub mod dtype;
pub mod expr;
pub mod ops;
pub mod printer;
pub mod range;
pub mod reduce;
pub mod schedule;
pub mod tensor;
pub mod var;
pub mod visitor;

pub use dtype::DType;
pub use expr::{BinOp, CmpOp, PrimExpr};
pub use ops::{float, floordiv, floormod, int, max_expr, min_expr, sqrt};
pub use range::Range;
pub use reduce::sum;
pub use schedule::{IterVarAttr, Schedule, Stage, StageRef};
pub use tensor::{compute, placeholder, Op, OpKind, Tensor};
pub use var::{reduce_axis, IterVar, IterVarType, Var};
