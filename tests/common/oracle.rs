//! The oracle harness: the interpreter is the semantics every engine
//! must reproduce, bit for bit, at every thread budget, and the
//! analyzer's verdicts must hold up against concrete witnesses.
//!
//! - [`engines`] compiles a function for every bytecode engine;
//! - [`check`] and [`check_against`] run the interpreter and then every
//!   engine at every budget in [`BUDGETS`];
//! - [`check_verdict`] confirms a mold configuration's verdict and
//!   returns what failed instead of panicking.
//!
//! A new engine is one more entry in [`engines`] (a new JIT tier, one
//! more in [`jit_tiers`]); every check picks it up.

use configspace::Configuration;
use polybench::CodeMold;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tvm_runtime::interp::ExecError;
use tvm_runtime::{
    compile, compile_optimized, default_backend, interp, pool, scalar_backend, vm, CodegenBackend,
    CompileError, CompiledFunc, NDArray,
};
use tvm_te::DType;
use tvm_tir::analyze::{self, codes, oracle, AnalysisReport, Diagnostic};
use tvm_tir::PrimFunc;

/// The worker-pool budgets every check runs each engine at: sequential,
/// two and four threads, and 7, more threads than the host has cores and
/// than many loops have iterations, so workers wake late and the extent
/// caps how many take part.
pub const BUDGETS: [usize; 4] = [1, 2, 4, 7];

/// The lock a check holds while it moves the process-wide thread budget.
/// A test that sets the budget itself takes it too.
pub fn budget_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The JIT rung's tiers: the one the host supports, SSE2 (x86-64 Linux
/// only) and scalar. Off x86-64 every tier declines.
pub fn jit_tiers() -> Vec<(&'static str, Arc<dyn CodegenBackend>)> {
    let mut tiers = vec![("detected JIT", default_backend())];
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    tiers.push((
        "SSE2 JIT",
        Arc::new(tvm_runtime::codegen::X86Backend::sse2_only()),
    ));
    tiers.push(("scalar JIT", scalar_backend()));
    tiers
}

/// `func` compiled for every engine: the scalar VM, the optimized VM and
/// the JIT on each of [`jit_tiers`]. A tier that declines runs the
/// optimized bytecode, as the device does.
pub fn engines(func: &PrimFunc) -> Result<Vec<(&'static str, CompiledFunc)>, CompileError> {
    let optimized = compile_optimized(func)?;
    let jitted: Vec<_> = jit_tiers()
        .into_iter()
        .map(|(tier, backend)| {
            let cf = backend.jit_compile(&optimized);
            (tier, cf.unwrap_or_else(|_| optimized.clone()))
        })
        .collect();
    let bytecode = vec![("scalar VM", compile(func)?), ("optimized VM", optimized)];
    Ok([bytecode, jitted].concat())
}

/// Runs `func` on the interpreter, then on every engine at every budget,
/// each from a copy of `args`. Every run must return the interpreter's
/// `Result` and leave bit-identical arrays, and a function the analyzer
/// admits must not go out of bounds. Returns the interpreter's result.
pub fn check(func: &PrimFunc, args: &[NDArray], context: &str) -> Result<(), ExecError> {
    check_against(func, func, args, context)
}

/// [`check`] with `reference` on the interpreter as the oracle and
/// `func` on the interpreter and on every engine.
pub fn check_against(
    reference: &PrimFunc,
    func: &PrimFunc,
    args: &[NDArray],
    context: &str,
) -> Result<(), ExecError> {
    sweep(reference, func, args).unwrap_or_else(|e| panic!("{context}: {e}"))
}

/// The sweep behind [`check_against`]: the interpreter's result, or the
/// first disagreement.
fn sweep(
    reference: &PrimFunc,
    func: &PrimFunc,
    args: &[NDArray],
) -> Result<Result<(), ExecError>, String> {
    let mut want = args.to_vec();
    let oracle = interp::execute(reference, &mut want);
    if matches!(oracle, Err(ExecError::OutOfBounds { .. })) && !analyze::check(func).is_rejected() {
        return Err(format!("admitted by the analyzer, but {oracle:?}"));
    }
    let agree = |engine: &str, got: Result<(), ExecError>, run: &[NDArray]| {
        if got != oracle {
            return Err(format!(
                "the {engine} returned {got:?}, the interpreter {oracle:?}"
            ));
        }
        match want.iter().zip(run).position(|(a, b)| !same_bits(a, b)) {
            Some(i) => Err(format!("arg {i} diverged on the {engine}")),
            None => Ok(()),
        }
    };
    if !std::ptr::eq(reference, func) {
        let mut run = args.to_vec();
        agree("interpreter", interp::execute(func, &mut run), &run)?;
    }
    let engines = engines(func).map_err(|e| format!("does not compile: {e}"))?;
    let _budget = budget_lock();
    let before = pool::num_threads();
    let swept = BUDGETS.iter().try_for_each(|&threads| {
        pool::set_num_threads(threads);
        engines.iter().try_for_each(|(engine, cf)| {
            let mut run = args.to_vec();
            let got = vm::execute(cf, &mut run);
            agree(&format!("{engine} at {threads} threads"), got, &run)
        })
    });
    pool::set_num_threads(before);
    swept.map(|()| oracle)
}

/// Same shape, same dtype and the same bits in every element (a NaN
/// equals itself, `-0.0` does not equal `0.0`).
fn same_bits(a: &NDArray, b: &NDArray) -> bool {
    let bits = |x: &NDArray| x.as_f64().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    a.shape() == b.shape()
        && a.dtype() == b.dtype()
        && if a.dtype() == DType::F64 {
            bits(a) == bits(b)
        } else {
            a == b
        }
}

/// The denials of `report` that name no buffer of `func`.
pub fn phantom_denials<'r>(func: &PrimFunc, report: &'r AnalysisReport) -> Vec<&'r Diagnostic> {
    let names: Vec<&str> = (func.params.iter().chain(&func.allocs))
        .map(|b| b.name.as_str())
        .collect();
    report
        .denials()
        .filter(|d| !d.buffer.as_deref().is_some_and(|b| names.contains(&b)))
        .collect()
}

/// What [`check_verdict`] found for one configuration.
#[derive(Debug)]
pub struct Verdict {
    /// The denials' codes, with the loop and the buffer when they name
    /// one; empty when the configuration was admitted.
    pub denials: Vec<String>,
    /// Every confirmation that failed, empty when all of them held.
    pub failures: Vec<String>,
}

/// Runs `config` of `mold` through prelint, instantiation and
/// [`analyze::check`], and confirms the verdict by a concrete witness:
/// - a prelint denial by the instantiation panic it predicts, or, for
///   `TIR-VEC-OVER`, by masked vector lanes in the lowered function;
/// - an analyzer denial by naming a real buffer, and a race denial by
///   re-evaluating its witness ([`unwitnessed_races`]);
/// - an admission by [`check`] on the mold's arguments, with no error.
pub fn check_verdict(mold: &dyn CodeMold, config: &Configuration) -> Verdict {
    let lint = mold.prelint(config);
    if !lint.is_empty() {
        let denials = lint.iter().map(|d| d.code.to_string()).collect();
        let failure = if lint.iter().all(|d| d.code == codes::VEC_OVER) {
            // Lowering masks the lanes past the trip count.
            let masked = oracle::confirm_masked_vector(&mold.instantiate(config));
            (!masked).then_some("no masked lanes")
        } else {
            // Zero trip counts and illegal fuses abort instantiation.
            let attempt = catch_unwind(AssertUnwindSafe(|| mold.instantiate(config)));
            attempt.is_ok().then_some("instantiation did not panic")
        };
        let failures = failure.iter().map(|f| f.to_string()).collect();
        return Verdict { denials, failures };
    }
    let func = mold.instantiate(config);
    let report = analyze::check(&func);
    let denials = (report.denials())
        .map(|d| {
            let on = d
                .loop_var
                .as_ref()
                .map_or(String::new(), |v| format!(" on {v}"));
            let over = d
                .buffer
                .as_ref()
                .map_or(String::new(), |b| format!(" over {b}"));
            format!("{}{on}{over}", d.code)
        })
        .collect();
    let mut failures: Vec<String> = (phantom_denials(&func, &report).iter())
        .map(|d| format!("{} names no buffer of the function", d.code))
        .collect();
    failures.extend(unwitnessed_races(&func, &report));
    if !report.is_rejected() {
        match sweep(&func, &func, &mold.init_args()) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => failures.push(format!("admitted, but the interpreter fails: {e}")),
            Err(e) => failures.push(e),
        }
    }
    Verdict { denials, failures }
}

/// Every race denial of `report` on `func` whose witness does not hold
/// when `oracle::confirm_race` evaluates it on the function, described.
pub fn unwitnessed_races(func: &PrimFunc, report: &AnalysisReport) -> Vec<String> {
    let witnessed = analyze::deps::races(func);
    (report.denials())
        .filter(|d| d.code.starts_with("TIR-RACE"))
        .filter(|d| {
            !witnessed.iter().any(|(r, w)| {
                (r.code, &r.buffer, &r.loop_var) == (d.code, &d.buffer, &d.loop_var)
                    && w.as_ref().is_some_and(|w| oracle::confirm_race(func, w))
            })
        })
        .map(|d| format!("{} on {:?} has no witness that holds", d.code, d.loop_var))
        .collect()
}
