#![warn(missing_docs)]
//! # tvm-runtime — tensors and a CPU interpreter for lowered TIR
//!
//! Executes [`tvm_tir::PrimFunc`]s produced by lowering (or the imperative
//! builder) against [`NDArray`] arguments. This is the *real numerics* path
//! of the reproduction: every candidate configuration the tuners propose
//! can be validated against PolyBench reference kernels at small sizes,
//! and timed on the host CPU.
//!
//! Execution goes through a compiled engine: [`compile()`] turns a lowered
//! function into a flat register program once, and the [`vm`] executes it
//! allocation-free — typically well over an order of magnitude faster than
//! the tree-walking [`interp`], which is kept as the differential-testing
//! oracle and as the fallback for anything the compiler rejects.
//!
//! The paper's large-scale measurements (N = 2000/4000 on A100 GPUs) run
//! against the analytical device in the sibling `gpu-sim` crate instead;
//! both implement the same [`device::Device`] trait.
//!
//! ```
//! use tvm_te::{compute, placeholder, DType, Schedule};
//! use tvm_tir::lower::lower;
//! use tvm_runtime::{Module, NDArray};
//!
//! let a = placeholder([4], DType::F64, "A");
//! let b = compute([4], "B", |i| a.at(&[i[0].clone()]) + 1i64);
//! let s = Schedule::create(&[b.clone()]);
//! let m = Module::new(lower(&s, &[a, b], "add1"));
//! let x = NDArray::from_f64(&[4], &[1.0, 2.0, 3.0, 4.0]);
//! let mut args = [x, NDArray::zeros(&[4], DType::F64)];
//! m.run(&mut args).unwrap();
//! assert_eq!(args[1].to_f64_vec(), vec![2.0, 3.0, 4.0, 5.0]);
//! ```

pub mod codegen;
pub mod compile;
pub mod device;
pub mod interp;
pub mod module;
pub mod ndarray;
pub mod optimize;
pub mod pool;
pub mod vm;

pub use codegen::{
    default_backend, jit_fingerprint, scalar_backend, CodegenBackend, JitCounters, JitProgram,
    JitStats, NoopBackend, SimdCounters, SimdReport, SimdStats, JIT_VERSION,
};
pub use compile::{compile, CompileError, CompiledFunc};
pub use device::{CpuDevice, Device, DeviceError};
pub use module::Module;
pub use ndarray::{NDArray, TensorData};
pub use optimize::{compile_optimized, engine_fingerprint};
pub use pool::{ParCounters, ParStats, PAR_VERSION};
