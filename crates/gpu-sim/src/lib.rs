#![warn(missing_docs)]
//! # gpu-sim — an analytical GPU device model (simulated Swing / A100)
//!
//! The paper measures kernels on Argonne's Swing cluster (8× NVIDIA A100
//! per node). This reproduction has no GPU, so this crate implements the
//! substitution documented in DESIGN.md: a deterministic analytical device
//! that predicts kernel runtime *as a function of the lowered loop
//! structure* — which is exactly the quantity the autotuners search over.
//!
//! The model (see [`model`]) is a two-level blocked-cache roofline:
//!
//! 1. loop-nest features come from `tvm_tir::analysis` (extents, access
//!    strides, guard selectivity, flops),
//! 2. for each cache level, the maximal loop suffix whose working set
//!    fits decides the reuse level; traffic above it is charged to the
//!    next level's bandwidth (trailing-invariant outer loops get LRU
//!    reuse credit),
//! 3. compute time is a peak-flops roofline scaled by occupancy (grid ×
//!    block parallelism vs. SM capacity) and coalescing efficiency,
//! 4. sequential outer loops (e.g. the `k` elimination loop of LU /
//!    Cholesky) charge a per-iteration device-synchronization cost.
//!
//! The device is deterministic: a configuration-keyed hash supplies
//! bounded measurement "noise" so tuner traces look like real runs and
//! repeated experiments reproduce exactly.
//!
//! ```
//! use gpu_sim::{GpuSpec, SimDevice};
//! use tvm_runtime::Device;
//! use tvm_te::{compute, placeholder, DType, Schedule};
//! use tvm_tir::lower::lower;
//!
//! let n = 256usize;
//! let a = placeholder([n, n], DType::F64, "A");
//! let b = compute([n, n], "B", |i| a.at(&[i[0].clone(), i[1].clone()]) * 2i64);
//! let s = Schedule::create(&[b.clone()]);
//! let f = lower(&s, &[a, b], "scale");
//! let dev = SimDevice::new(GpuSpec::a100());
//! let t = dev.predict(&f); // analytical: no data needed
//! assert!(t > 0.0 && t.is_finite());
//! assert_eq!((&dev as &dyn Device).name(), "A100-40GB");
//! ```

pub mod device;
pub mod model;
pub mod spec;

pub use device::SimDevice;
pub use model::{cost_model, CostBreakdown};
pub use spec::GpuSpec;
