//! Differential soundness of the static schedule-safety analyzer,
//! through the shared harness (`common::oracle`).
//!
//! The analyzer gates every config before compilation, so its verdicts
//! must track the execution engines: an **accepted** `(kernel, config)`
//! pair must never raise an out-of-bounds `ExecError` on any engine at
//! any thread budget, and a **rejected** pair's diagnostics must name a
//! buffer that actually exists in the lowered function.

mod common;

use common::oracle::{check, check_verdict, phantom_denials};
use polybench::molds::mold_for;
use polybench::{KernelName, ProblemSize};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tvm_runtime::interp::ExecError;
use tvm_te::{ops, DType, Var};
use tvm_tir::analyze;
use tvm_tir::{Buffer, ForKind, PrimFunc, Stmt};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every sampled config runs alike on every engine, and an accepted
    /// one never out of bounds (`check` holds both); rejected configs
    /// name a real buffer in their diagnostics.
    #[test]
    fn accepted_configs_never_oob(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for kernel in KernelName::all() {
            let mold = mold_for(kernel, ProblemSize::Mini);
            let config = mold.space().sample(&mut rng);
            let func = mold.instantiate(&config);
            let context = format!("{} / {config}", mold.name());
            let report = analyze::check(&func);
            let phantoms = phantom_denials(&func, &report);
            prop_assert!(phantoms.is_empty(), "{}: {:?}", context, phantoms);
            let _ = check(&func, &mold.init_args(), &context);
        }
    }
}

/// The PolyBench molds only emit in-bounds schedules, so the analyzer
/// must accept every configuration it sees from them — a mass-rejection
/// regression here would silently starve the tuner of measurements.
/// Every kernel and every sample is visited; the test fails once, at the
/// end, with the list of every configuration that was denied or whose
/// verdict did not hold up.
#[test]
fn all_mold_configs_are_accepted() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut failing = Vec::new();
    for kernel in KernelName::all() {
        let mold = mold_for(kernel, ProblemSize::Mini);
        for i in 0..12 {
            let config = if i == 0 {
                mold.space().default_configuration()
            } else {
                mold.space().sample(&mut rng)
            };
            let verdict = check_verdict(&*mold, &config);
            if !verdict.denials.is_empty() || !verdict.failures.is_empty() {
                failing.push(format!("{} / {config}: {verdict:?}", mold.name()));
            }
        }
    }
    assert!(
        failing.is_empty(),
        "{} legal schedules rejected or unconfirmed:\n{}",
        failing.len(),
        failing.join("\n")
    );
}

/// Hand-broken functions must be rejected, each denial must name one of
/// the function's real buffers, and each bounds denial a concrete access
/// path. The broken function is verified to be *genuinely* broken by
/// running it on every engine and demanding an out-of-bounds error —
/// the analyzer and the engines must agree on both sides of the verdict.
#[test]
fn corrupted_kernels_are_rejected_with_real_access_paths() {
    for kernel in KernelName::all() {
        let mold = mold_for(kernel, ProblemSize::Mini);
        let config = mold.space().default_configuration();
        let func = mold.instantiate(&config);
        let corrupted = shift_store_indices(&func);
        let context = format!("{} shifted", mold.name());
        match check(&corrupted, &mold.init_args(), &context) {
            Err(ExecError::OutOfBounds { .. }) => {}
            other => panic!("{context}: shifted stores should OOB at runtime, got {other:?}"),
        }
        let report = analyze::check(&corrupted);
        assert!(
            report.is_rejected(),
            "{context}: runtime-OOB schedule must be rejected, got:\n{:#?}",
            report.diagnostics
        );
        let phantoms = phantom_denials(&corrupted, &report);
        assert!(phantoms.is_empty(), "{context}: {phantoms:?}");
        for d in report.denials() {
            // Only bounds denials carry an access path: the row shift is
            // also a true `TIR-RACE-RW` on the parallel `i.outer`
            // (iteration i writes the row i+1 reads), and a race denial
            // names a pair of accesses, not one path.
            assert!(
                d.access.is_some() || d.code != analyze::codes::OOB,
                "{context}: bounds denial lacks an access path",
            );
        }
        assert!(
            report.denials().any(|d| d.code == analyze::codes::OOB),
            "{context}: the out-of-bounds store itself was not denied",
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
        "expected a race code, got:\n{:#?}",
        report.diagnostics
    );
}
