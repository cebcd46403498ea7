#![warn(missing_docs)]
//! # polybench — PolyBench 4.2 kernels as TVM-style code molds
//!
//! The paper tunes three PolyBench 4.2 kernels — `3mm`, `cholesky` and
//! `lu` — written in the TE language, with their loop-tiling `split`
//! factors exposed as tunable parameters ("code molds"). This crate
//! provides:
//!
//! * [`datasets`] — the PolyBench problem-size presets
//!   (mini…extralarge; the paper uses *large* and *extralarge*),
//! * [`kernels`] — one table of functions per kernel: `3mm` goes through
//!   the full TE → schedule → lower pipeline with the paper's six split
//!   parameters; `lu` and `cholesky` (loop-carried dependences) are built
//!   as right-looking factorizations with tiled trailing updates via the
//!   imperative TIR builder, exposing the paper's two tile parameters.
//!   `gemm`, `2mm`, `syrk` and `trmm` are included as extensions,
//! * [`spaces`] — the exact tuning spaces of the paper (ordinal
//!   hyperparameters over divisor lists), reproducing Table 1's
//!   cardinalities bit-for-bit,
//! * [`mod@reference`] — plain-Rust reference implementations used to verify
//!   every mold configuration numerically,
//! * [`molds`] — the [`molds::CodeMold`] trait and the one mold type
//!   implementing it, a kernel's table at a size and a space mode.
//!
//! ```
//! use polybench::{molds::mold_for, KernelName, ProblemSize};
//! let mold = mold_for(KernelName::Lu, ProblemSize::Mini);
//! assert_eq!(mold.space().len(), 2); // tile_y, tile_x
//! let cfg = mold.space().default_configuration();
//! let func = mold.instantiate(&cfg);
//! assert!(func.body.loop_depth() >= 3);
//! ```

pub mod datasets;
pub mod divisors;
pub mod kernels;
pub mod molds;
pub mod reference;
pub mod spaces;
pub mod verify;

pub use datasets::{KernelName, ProblemSize};
pub use molds::{mold_for, mold_for_mode, CodeMold};
pub use spaces::{embed_config, space_for, space_for_mode, SpaceMode};
