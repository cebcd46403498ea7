//! Device abstraction: anything that can run and time a lowered function.

use crate::codegen::{
    default_backend, CodegenBackend, JitCounters, JitStats, SimdCounters, SimdStats,
};
use crate::compile::{compile, CompiledFunc};
use crate::interp::ExecError;
use crate::ndarray::NDArray;
use crate::pool::{ParCounters, ParStats};
use crate::vm;
use std::sync::Arc;
use std::time::Instant;
use tvm_tir::PrimFunc;

/// Failure while building or running a kernel on a device.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// The interpreter rejected or failed the kernel.
    Exec(ExecError),
    /// The device's compile/cost model rejected the kernel (e.g. a
    /// configuration exceeding simulated shared memory).
    Rejected(String),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Exec(e) => write!(f, "execution error: {e}"),
            DeviceError::Rejected(s) => write!(f, "kernel rejected: {s}"),
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<ExecError> for DeviceError {
    fn from(e: ExecError) -> Self {
        DeviceError::Exec(e)
    }
}

/// A measurement target: runs a kernel and reports seconds per run.
///
/// Implemented by [`CpuDevice`] (real host execution via the interpreter)
/// and by `gpu_sim::SimDevice` (analytical A100 model). Both are driven by
/// the same tuner code, which is exactly the role TVM's measure
/// infrastructure plays between AutoTVM and remote runners.
///
/// `Send + Sync` so evaluators can measure candidate batches from worker
/// threads (the BO framework's parallel evaluation mode).
pub trait Device: Send + Sync {
    /// Human-readable device name (e.g. `"cpu"`, `"sim-a100"`).
    fn name(&self) -> &str;

    /// Run the kernel once against `args`, returning elapsed seconds.
    ///
    /// For analytical devices the returned time is modeled and `args` may
    /// be left untouched.
    fn run(&self, func: &PrimFunc, args: &mut [NDArray]) -> Result<f64, DeviceError>;

    /// Simulated/real cost of *compiling* the kernel, in seconds.
    ///
    /// Used by autotuning process-time accounting (the paper's "autotuning
    /// process time" includes per-candidate build cost). The default
    /// charges nothing.
    fn build_cost(&self, _func: &PrimFunc) -> f64 {
        0.0
    }

    /// Run `repeats` times and return the minimum observed seconds —
    /// TVM's standard timing discipline (min filters scheduler noise).
    fn time(
        &self,
        func: &PrimFunc,
        args: &mut [NDArray],
        repeats: usize,
    ) -> Result<f64, DeviceError> {
        let mut best = f64::INFINITY;
        for _ in 0..repeats.max(1) {
            best = best.min(self.run(func, args)?);
        }
        Ok(best)
    }

    /// Compile `func` to a reusable artifact for [`Device::run_prepared`],
    /// or `None` when this device has no compiled path (analytical devices,
    /// or a function the compiler rejects). Evaluators call this once per
    /// configuration and cache the result across repeats.
    fn prepare(&self, _func: &PrimFunc) -> Option<Arc<CompiledFunc>> {
        None
    }

    /// Run a previously [`Device::prepare`]d artifact, returning elapsed
    /// seconds. Only meaningful on devices whose `prepare` returns `Some`.
    fn run_prepared(
        &self,
        _prepared: &CompiledFunc,
        _args: &mut [NDArray],
    ) -> Result<f64, DeviceError> {
        Err(DeviceError::Rejected(
            "device has no compiled execution path".into(),
        ))
    }

    /// Fingerprint of the compile/optimization pipeline this device runs
    /// kernels through, or `None` when measurements do not depend on a
    /// compiler (analytical devices). Evaluators fold it into memo keys
    /// and journal records: measurements taken under one pipeline must
    /// never be silently reused under another.
    fn fingerprint(&self) -> Option<String> {
        None
    }

    /// Native-codegen compile statistics, or `None` when this device has
    /// no JIT rung. Counters accumulate across all clones of a device
    /// (evaluator workers share them), so the snapshot reflects the whole
    /// tuning run.
    fn jit_stats(&self) -> Option<JitStats> {
        None
    }

    /// Multicore-dispatch statistics (proven/unproven parallel loops,
    /// pool dispatches, per-reason sequential fallbacks), or `None` when
    /// this device never runs loops on the worker pool. Counters are
    /// shared across clones like [`Device::jit_stats`].
    fn par_stats(&self) -> Option<ParStats> {
        None
    }

    /// Packed-SIMD emission statistics (packed/tiled/scalar vector
    /// sites with per-reason fallbacks, plus the emitted lane widths),
    /// or `None` when this device has no native codegen rung. Counters
    /// are shared across clones like [`Device::jit_stats`].
    fn simd_stats(&self) -> Option<SimdStats> {
        None
    }
}

/// Execution engine of a [`CpuDevice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum CpuMode {
    /// Tree-walking reference interpreter only.
    Interp,
    /// Scalar bytecode VM, no optimization pipeline.
    Scalar,
    /// TIR pass pipeline + block-optimized VM (the default).
    #[default]
    Optimized,
    /// Optimized pipeline plus native machine-code generation for the
    /// hot loop nests, falling back to the optimized VM per function.
    Jit,
}

/// Codegen backend plus compile counters, shared by every clone of a
/// JIT-mode device so stats cover a whole (possibly multi-threaded)
/// tuning run.
#[derive(Debug)]
struct JitState {
    backend: Arc<dyn CodegenBackend>,
    counters: JitCounters,
    /// Packed-SIMD emission tally, merged from every compiled
    /// function's [`crate::codegen::SimdReport`].
    simd: SimdCounters,
}

/// Host CPU device executing kernels through the optimized compiled VM
/// (with interpreter fallback for functions the compiler rejects), and
/// optionally through native JIT-compiled code ([`CpuDevice::jit`]).
#[derive(Debug, Clone)]
pub struct CpuDevice {
    mode: CpuMode,
    jit: Option<Arc<JitState>>,
    /// Multicore-dispatch counters, shared across clones; `Some` on the
    /// rungs that execute `Parallel` loops on the worker pool
    /// (Optimized and Jit).
    par: Option<Arc<ParCounters>>,
}

impl Default for CpuDevice {
    fn default() -> CpuDevice {
        CpuDevice::new()
    }
}

impl CpuDevice {
    /// New CPU device (optimized compiled VM execution).
    pub fn new() -> CpuDevice {
        CpuDevice {
            mode: CpuMode::Optimized,
            jit: None,
            par: Some(Arc::new(ParCounters::new())),
        }
    }

    /// CPU device pinned to the reference interpreter — the differential
    /// oracle, and the rung the benchmark's `runtime.interp.ns_per_elem`
    /// times.
    pub fn interpreter() -> CpuDevice {
        CpuDevice {
            mode: CpuMode::Interp,
            jit: None,
            par: None,
        }
    }

    /// CPU device pinned to the scalar (unoptimized) VM — the reference
    /// `tests/vm_differential.rs` compares the optimized engine against.
    /// Runs everything sequentially: `compile` marks every parallel loop
    /// unproven, so the scalar rung never consults the pool.
    pub fn scalar_vm() -> CpuDevice {
        CpuDevice {
            mode: CpuMode::Scalar,
            jit: None,
            par: None,
        }
    }

    /// CPU device with the native JIT rung: optimized bytecode whose hot
    /// loop nests run as emitted machine code, with per-function fallback
    /// to the optimized VM whenever the backend declines (every fallback
    /// is counted with its reason — see [`Device::jit_stats`]).
    pub fn jit() -> CpuDevice {
        CpuDevice::jit_with_backend(default_backend())
    }

    /// JIT-mode device with an explicit backend (tests use this to pin
    /// the SSE2-only emitter or a never-compiling backend).
    pub fn jit_with_backend(backend: Arc<dyn CodegenBackend>) -> CpuDevice {
        let simd = SimdCounters::default();
        simd.set_lanes(backend.f64_lanes());
        CpuDevice {
            mode: CpuMode::Jit,
            jit: Some(Arc::new(JitState {
                backend,
                counters: JitCounters::default(),
                simd,
            })),
            par: Some(Arc::new(ParCounters::new())),
        }
    }

    /// Wire the device's shared parallel counters into a compiled
    /// function and record its static census (how many parallel loops
    /// the analyzer proved race-free vs. left sequential).
    fn attach_par(&self, mut cf: CompiledFunc) -> CompiledFunc {
        if let Some(counters) = &self.par {
            let (proven, unproven) = cf.parallel_loop_counts();
            counters.record_prepared(proven as u64, unproven as u64);
            cf.par = Some(Arc::clone(counters));
        }
        cf
    }

    /// Optimize + JIT-compile with fallback accounting. `None` only when
    /// even the bytecode compiler rejects the function (interpreter
    /// territory); `Some` is the jitted function or, after a recorded
    /// fallback, the optimized-VM function unchanged.
    fn jit_prepare(&self, func: &PrimFunc) -> Option<Arc<CompiledFunc>> {
        let state = self.jit.as_ref().expect("jit mode without state");
        let cf = crate::optimize::compile_optimized(func).ok()?;
        match state.backend.jit_compile(&cf) {
            Ok(jitted) => {
                state.counters.record_success(
                    jitted.jit_nest_count() as u64,
                    jitted.jit_code_bytes() as u64,
                );
                if let Some(program) = &jitted.jit {
                    state.simd.record_report(program.simd_report());
                }
                Some(Arc::new(self.attach_par(jitted)))
            }
            Err(e) => {
                state.counters.record_fallback(&e.0);
                Some(Arc::new(self.attach_par(cf)))
            }
        }
    }
}

impl Device for CpuDevice {
    fn name(&self) -> &str {
        "cpu"
    }

    fn run(&self, func: &PrimFunc, args: &mut [NDArray]) -> Result<f64, DeviceError> {
        let t0 = Instant::now();
        match self.mode {
            CpuMode::Interp => crate::interp::execute(func, args)?,
            CpuMode::Scalar => match compile(func) {
                Ok(cf) => vm::execute(&cf, args)?,
                Err(_) => crate::interp::execute(func, args)?,
            },
            CpuMode::Optimized => match crate::optimize::compile_optimized(func) {
                Ok(cf) => vm::execute(&self.attach_par(cf), args)?,
                Err(_) => crate::interp::execute(func, args)?,
            },
            CpuMode::Jit => match self.jit_prepare(func) {
                Some(cf) => vm::execute(&cf, args)?,
                None => crate::interp::execute(func, args)?,
            },
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    fn prepare(&self, func: &PrimFunc) -> Option<Arc<CompiledFunc>> {
        match self.mode {
            CpuMode::Interp => None,
            CpuMode::Scalar => compile(func).ok().map(Arc::new),
            CpuMode::Optimized => crate::optimize::compile_optimized(func)
                .ok()
                .map(|cf| Arc::new(self.attach_par(cf))),
            CpuMode::Jit => self.jit_prepare(func),
        }
    }

    fn run_prepared(
        &self,
        prepared: &CompiledFunc,
        args: &mut [NDArray],
    ) -> Result<f64, DeviceError> {
        let t0 = Instant::now();
        vm::execute(prepared, args)?;
        Ok(t0.elapsed().as_secs_f64())
    }

    fn fingerprint(&self) -> Option<String> {
        Some(match self.mode {
            CpuMode::Interp => "interp/v1".to_string(),
            CpuMode::Scalar => crate::optimize::ENGINE_VERSION.to_string(),
            CpuMode::Optimized => crate::optimize::engine_fingerprint(),
            // Distinct from Optimized even though fallbacks execute the
            // same bytecode: replay verification must attribute a trial
            // to the engine that could have jitted it.
            CpuMode::Jit => crate::codegen::jit_fingerprint(),
        })
    }

    fn jit_stats(&self) -> Option<JitStats> {
        self.jit.as_ref().map(|s| s.counters.snapshot())
    }

    fn par_stats(&self) -> Option<ParStats> {
        self.par.as_ref().map(|c| c.snapshot())
    }

    fn simd_stats(&self) -> Option<SimdStats> {
        self.jit.as_ref().map(|s| s.simd.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::{compute, placeholder, reduce_axis, sum, DType, Schedule};
    use tvm_tir::lower::lower;

    fn matmul(n: usize) -> PrimFunc {
        let a = placeholder([n, n], DType::F64, "A");
        let b = placeholder([n, n], DType::F64, "B");
        let k = reduce_axis(0, n as i64, "k");
        let c = compute([n, n], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        let s = Schedule::create(std::slice::from_ref(&c));
        lower(&s, &[a, b, c], "mm")
    }

    #[test]
    fn cpu_device_times_execution() {
        let a = placeholder([64], DType::F64, "A");
        let b = compute([64], "B", |i| a.at(&[i[0].clone()]) * 2i64);
        let s = Schedule::create(std::slice::from_ref(&b));
        let f = lower(&s, &[a, b], "dbl");
        let dev = CpuDevice::new();
        let mut args = [
            NDArray::random(&[64], DType::F64, 3, 0.0, 1.0),
            NDArray::zeros(&[64], DType::F64),
        ];
        let t = dev.run(&f, &mut args).expect("run");
        assert!(t >= 0.0);
        assert!(args[1].to_f64_vec()[0] > 0.0 || args[1].to_f64_vec().iter().any(|&v| v != 0.0));
        let tmin = dev.time(&f, &mut args, 3).expect("time");
        assert!(tmin <= t * 10.0 + 1.0);
        assert_eq!(dev.build_cost(&f), 0.0);
        assert_eq!(dev.name(), "cpu");
    }

    #[test]
    fn prepared_path_matches_direct_run() {
        let a = placeholder([32], DType::F64, "A");
        let b = compute([32], "B", |i| a.at(&[i[0].clone()]) * 3i64);
        let s = Schedule::create(std::slice::from_ref(&b));
        let f = lower(&s, &[a, b], "tpl");
        let dev = CpuDevice::new();
        let prepared = dev.prepare(&f).expect("cpu device compiles kernels");
        let input = NDArray::random(&[32], DType::F64, 5, -1.0, 1.0);
        let mut via_run = [input.clone(), NDArray::zeros(&[32], DType::F64)];
        let mut via_prepared = [input, NDArray::zeros(&[32], DType::F64)];
        dev.run(&f, &mut via_run).expect("run");
        dev.run_prepared(&prepared, &mut via_prepared)
            .expect("run_prepared");
        assert_eq!(via_run[1], via_prepared[1]);
        // The interpreter-pinned device has no compiled path.
        assert!(CpuDevice::interpreter().prepare(&f).is_none());
    }

    #[test]
    fn jit_device_matches_optimized_bit_for_bit() {
        let f = matmul(10);
        let mk_args = || {
            [
                NDArray::random(&[10, 10], DType::F64, 11, -1.0, 1.0),
                NDArray::random(&[10, 10], DType::F64, 12, -1.0, 1.0),
                NDArray::zeros(&[10, 10], DType::F64),
            ]
        };
        let jit = CpuDevice::jit();
        let mut via_jit = mk_args();
        let mut via_opt = mk_args();
        jit.run(&f, &mut via_jit).expect("jit run");
        CpuDevice::new().run(&f, &mut via_opt).expect("opt run");
        assert_eq!(via_jit[2], via_opt[2], "jit must match the optimized VM");

        let stats = jit.jit_stats().expect("jit device reports stats");
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            assert_eq!(stats.functions_jitted, 1, "matmul must actually jit");
            assert!(stats.nests_compiled >= 1);
            assert!(stats.bytes_emitted > 0);
            assert_eq!(stats.fallbacks, 0, "{:?}", stats.fallback_reasons);
            let prepared = jit.prepare(&f).expect("prepare");
            assert!(
                prepared.jit_nest_count() >= 1,
                "prepared artifact carries native code"
            );
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            assert_eq!(stats.functions_jitted, 0);
            assert_eq!(stats.fallbacks, 1, "noop backend must count its refusal");
        }
        // Non-JIT devices expose no stats.
        assert!(CpuDevice::new().jit_stats().is_none());
    }

    #[test]
    fn jit_fallback_is_counted_and_still_correct() {
        // Float max is outside the jittable subset (NaN/-0.0 semantics),
        // so this relu must fall back to the optimized VM with a reason.
        let a = placeholder([16], DType::F64, "A");
        let b = compute([16], "B", |i| {
            tvm_te::max_expr(a.at(&[i[0].clone()]), 0.0f64)
        });
        let s = Schedule::create(std::slice::from_ref(&b));
        let f = lower(&s, &[a, b], "sel");
        let dev = CpuDevice::jit();
        let mut args = [
            NDArray::random(&[16], DType::F64, 9, -1.0, 1.0),
            NDArray::zeros(&[16], DType::F64),
        ];
        dev.run(&f, &mut args).expect("fallback run");
        let mut expect = [args[0].clone(), NDArray::zeros(&[16], DType::F64)];
        CpuDevice::new().run(&f, &mut expect).expect("opt run");
        assert_eq!(args[1], expect[1]);
        let stats = dev.jit_stats().expect("stats");
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.functions_jitted, 0);
        assert_eq!(
            stats.fallback_reasons.iter().map(|(_, n)| n).sum::<u64>(),
            1,
            "every fallback carries a reason: {:?}",
            stats.fallback_reasons
        );
    }

    #[test]
    fn par_stats_flow_through_the_device() {
        let _guard = crate::pool::test_threads_lock();
        crate::pool::set_num_threads(4);
        let n = 12;
        let a = placeholder([n, n], DType::F64, "A");
        let c = compute([n, n], "C", |i| a.at(&[i[0].clone(), i[1].clone()]) * 2i64);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let y = c.axis(0);
        s.parallel(&c, &y);
        let f = lower(&s, &[a, c], "par_dbl");
        let dev = CpuDevice::new();
        let mut args = [
            NDArray::random(&[n, n], DType::F64, 3, -1.0, 1.0),
            NDArray::zeros(&[n, n], DType::F64),
        ];
        dev.run(&f, &mut args).expect("run");
        let stats = dev.par_stats().expect("optimized rung tracks par stats");
        assert_eq!(stats.loops_proven, 1, "{stats:?}");
        assert_eq!(stats.loops_unproven, 0, "{stats:?}");
        assert_eq!(stats.dispatches, 1, "{stats:?}");
        assert_eq!(stats.pool_threads, 4);
        // Bit-identical to the interpreter under dispatch.
        let mut expect = [args[0].clone(), NDArray::zeros(&[n, n], DType::F64)];
        CpuDevice::interpreter()
            .run(&f, &mut expect)
            .expect("interp");
        assert_eq!(args[1], expect[1]);
        // Rungs that never dispatch expose no stats.
        assert!(CpuDevice::interpreter().par_stats().is_none());
        assert!(CpuDevice::scalar_vm().par_stats().is_none());
        // The parallel layer is part of the replay boundary.
        let fp = dev.fingerprint().expect("fingerprint");
        assert!(fp.ends_with("+par/v1"), "{fp}");
    }

    #[test]
    fn jit_fingerprint_is_distinct_per_rung() {
        let fps: Vec<String> = [
            CpuDevice::interpreter(),
            CpuDevice::scalar_vm(),
            CpuDevice::new(),
            CpuDevice::jit(),
        ]
        .iter()
        .map(|d| d.fingerprint().expect("cpu devices fingerprint"))
        .collect();
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "rung fingerprints must be distinct");
            }
        }
        assert!(fps[3].ends_with(crate::codegen::JIT_VERSION));
    }
}
