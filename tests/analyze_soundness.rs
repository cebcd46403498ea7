//! Differential soundness of the static schedule-safety analyzer.
//!
//! The analyzer gates every config before compilation, so its verdicts
//! must track the execution engines: an **accepted** `(kernel, config)`
//! pair must never raise an out-of-bounds `ExecError` in the interpreter
//! or the compiled VM, and a **rejected** pair's diagnostics must name a
//! buffer that actually exists in the lowered function.

use polybench::molds::mold_for;
use polybench::{KernelName, ProblemSize};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tvm_runtime::interp::ExecError;
use tvm_runtime::{compile, interp, vm};
use tvm_te::{ops, DType, Var};
use tvm_tir::analyze;
use tvm_tir::{Buffer, ForKind, PrimFunc, Stmt};

const KERNELS: [KernelName; 7] = [
    KernelName::Mm3,
    KernelName::Lu,
    KernelName::Cholesky,
    KernelName::Gemm,
    KernelName::Mm2,
    KernelName::Syrk,
    KernelName::Trmm,
];

/// True when the error is the class the bounds analysis guards against.
fn is_oob(err: &ExecError) -> bool {
    matches!(err, ExecError::OutOfBounds { .. })
}

/// Every buffer name reachable from the function signature.
fn buffer_names(func: &PrimFunc) -> Vec<String> {
    func.params
        .iter()
        .chain(func.allocs.iter())
        .map(|b| b.name.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Accepted configs never go out of bounds on either engine;
    /// rejected configs name a real buffer in their diagnostics.
    #[test]
    fn accepted_configs_never_oob(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for kernel in KERNELS {
            let mold = mold_for(kernel, ProblemSize::Mini);
            let config = mold.space().sample(&mut rng);
            let func = mold.instantiate(&config);
            let report = analyze::check(&func);
            let context = format!("{} / {config}", mold.name());
            if report.is_rejected() {
                // Soundness of the *diagnostics*: they must point at
                // something real, not a phantom access.
                let names = buffer_names(&func);
                for d in report.denials() {
                    let buf = d.buffer.as_deref().unwrap_or_else(|| {
                        panic!("{context}: denial {} lacks a buffer", d.code)
                    });
                    prop_assert!(
                        names.iter().any(|n| n == buf),
                        "{}: denial names unknown buffer `{}` (have {:?})",
                        context, buf, names
                    );
                }
            } else {
                // Accepted: both engines must run without OOB.
                let mut via_interp = mold.init_args();
                if let Err(e) = interp::execute(&func, &mut via_interp) {
                    prop_assert!(!is_oob(&e), "{}: interp OOB after accept: {}", context, e);
                }
                let cf = compile(&func)
                    .unwrap_or_else(|e| panic!("{context}: accepted config failed to compile: {e}"));
                let mut via_vm = mold.init_args();
                if let Err(e) = vm::execute(&cf, &mut via_vm) {
                    prop_assert!(!is_oob(&e), "{}: VM OOB after accept: {}", context, e);
                }
            }
        }
    }
}

/// The PolyBench molds only emit in-bounds schedules, so the analyzer
/// must accept every configuration it sees from them — a mass-rejection
/// regression here would silently starve the tuner of measurements.
#[test]
fn all_mold_configs_are_accepted() {
    let mut rng = SmallRng::seed_from_u64(7);
    for kernel in KERNELS {
        let mold = mold_for(kernel, ProblemSize::Mini);
        for i in 0..12 {
            let config = if i == 0 {
                mold.space().default_configuration()
            } else {
                mold.space().sample(&mut rng)
            };
            let func = mold.instantiate(&config);
            let report = analyze::check(&func);
            assert!(
                !report.is_rejected(),
                "{} / {config}: legal schedule rejected:\n{}",
                mold.name(),
                report.render_text()
            );
        }
    }
}

/// Hand-broken functions must be rejected, each denial must name one of
/// the function's real buffers, and each bounds denial a concrete access
/// path. The broken function is verified to be *genuinely* broken by
/// running it on the interpreter and demanding an out-of-bounds error —
/// the analyzer and the engine must agree on both sides of the verdict.
#[test]
fn corrupted_kernels_are_rejected_with_real_access_paths() {
    for kernel in KERNELS {
        let mold = mold_for(kernel, ProblemSize::Mini);
        let config = mold.space().default_configuration();
        let func = mold.instantiate(&config);
        let corrupted = shift_store_indices(&func);
        let mut args = mold.init_args();
        match interp::execute(&corrupted, &mut args) {
            Err(e) if is_oob(&e) => {}
            other => panic!(
                "{}: shifted stores should OOB at runtime, got {other:?}",
                mold.name()
            ),
        }
        let report = analyze::check(&corrupted);
        assert!(
            report.is_rejected(),
            "{}: runtime-OOB schedule must be rejected, got:\n{}",
            mold.name(),
            report.render_text()
        );
        let names = buffer_names(&corrupted);
        for d in report.denials() {
            let buf = d.buffer.as_deref().expect("denial carries a buffer");
            assert!(
                names.iter().any(|n| n == buf),
                "{}: denial names unknown buffer `{buf}`",
                mold.name()
            );
            // Only bounds denials carry an access path. Until PR 8 they
            // were the only denials here; since the molds gained
            // `s.parallel(yo)` the row shift is also a true `TIR-RACE-RW`
            // on `i.outer` (iteration i writes the row i+1 reads), and a
            // race denial names a pair of accesses, not one path.
            assert!(
                d.access.is_some() || d.code != analyze::codes::OOB,
                "{}: bounds denial lacks an access path",
                mold.name()
            );
        }
        assert!(
            report.denials().any(|d| d.code == analyze::codes::OOB),
            "{}: the out-of-bounds store itself was not denied",
            mold.name()
        );
    }
}

/// Return a copy of `func` with every store's leading index shifted by
/// one: the last iteration of the surrounding loop then writes one row
/// past the end of the buffer, past any tail guard.
fn shift_store_indices(func: &PrimFunc) -> PrimFunc {
    fn shift(stmt: &Stmt) -> Stmt {
        match stmt {
            Stmt::For {
                var,
                min,
                extent,
                kind,
                body,
            } => Stmt::For {
                var: var.clone(),
                min: *min,
                extent: *extent,
                kind: *kind,
                body: Box::new(shift(body)),
            },
            Stmt::Seq(stmts) => Stmt::Seq(stmts.iter().map(shift).collect()),
            Stmt::IfThenElse { cond, then, else_ } => Stmt::IfThenElse {
                cond: cond.clone(),
                then: Box::new(shift(then)),
                else_: else_.as_ref().map(|e| Box::new(shift(e))),
            },
            Stmt::BufferStore {
                buffer,
                indices,
                value,
            } => {
                let mut indices = indices.clone();
                if let Some(first) = indices.first_mut() {
                    *first = first.clone() + ops::int(1);
                }
                Stmt::BufferStore {
                    buffer: buffer.clone(),
                    indices,
                    value: value.clone(),
                }
            }
            other => other.clone(),
        }
    }
    let mut out = func.clone();
    out.body = shift(&out.body);
    out
}

/// A synthetic parallel reduction (write-write race on the parallel axis)
/// must be denied with a race code, independent of the mold pipeline.
#[test]
fn synthetic_parallel_race_is_denied() {
    // parallel i: C[0] = C[0] + A[i] — the classic reduction race.
    let i = Var::index("i");
    let c = Buffer::new("C", [1usize], DType::F64);
    let a = tvm_te::placeholder([8], DType::F64, "A");
    let c_read = tvm_te::placeholder([1], DType::F64, "C");
    let race = PrimFunc {
        name: "race".into(),
        params: vec![c.clone()],
        allocs: vec![],
        body: Stmt::For {
            var: i.clone(),
            min: 0,
            extent: 8,
            kind: ForKind::Parallel,
            body: Box::new(Stmt::BufferStore {
                buffer: c,
                indices: vec![ops::int(0)],
                value: c_read.at(&[ops::int(0)]) + a.at(&[i.expr()]),
            }),
        },
    };
    let report = analyze::check(&race);
    assert!(report.is_rejected(), "parallel reduction must be denied");
    assert!(
        report
            .denials()
            .any(|d| d.code == analyze::codes::RACE_WW || d.code == analyze::codes::RACE_RW),
        "expected a race code, got:\n{}",
        report.render_text()
    );
}
