//! Differential soundness of the *aggressive* schedule spaces.
//!
//! The aggressive spaces deliberately contain illegal schedules — zero
//! tiles, over-wide vectorization, non-adjacent fuses, racy parallel
//! annotations — and the static analyzer is the only thing keeping them
//! away from the engines. This suite closes the loop in both directions:
//!
//! * every **admitted** `(kernel, config)` pair must run bit-identically
//!   on all four engines (reference interpreter, scalar VM, optimized
//!   VM, native JIT) without any `ExecError`;
//! * every **denied** pair must be confirmed by a concrete oracle: a
//!   `TIR-TRIP-ZERO` / `TIR-FUSE-ILLEGAL` prelint denial by the
//!   instantiation panic it predicts, a `TIR-VEC-OVER` denial by masked
//!   vector lanes in the lowered function, and a race denial by
//!   exhaustive enumeration of the denied loop's iterations.
//!
//! Each kernel must contribute at least one denial and one admission, so
//! neither side of the verdict is ever vacuous.

use configspace::{Configuration, ParamValue};
use polybench::molds::{mold_for, mold_for_mode};
use polybench::spaces::embed_config;
use polybench::{CodeMold, KernelName, ProblemSize, SpaceMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tvm_runtime::{
    compile, compile_optimized, default_backend, interp, scalar_backend, vm, NDArray,
};
use tvm_tir::analyze::{self, codes, oracle};
use tvm_tir::PrimFunc;

const KERNELS: [KernelName; 7] = [
    KernelName::Mm3,
    KernelName::Lu,
    KernelName::Cholesky,
    KernelName::Gemm,
    KernelName::Mm2,
    KernelName::Syrk,
    KernelName::Trmm,
];

/// An admitted config must execute on all four engines — the JIT once
/// per tier, packed and fully scalar — with no error and bit-identical
/// output arrays.
fn run_all_engines(func: &PrimFunc, args: &[NDArray], context: &str) {
    let mut via_interp = args.to_vec();
    interp::execute(func, &mut via_interp)
        .unwrap_or_else(|e| panic!("{context}: interpreter failed after admit: {e}"));
    let cf =
        compile(func).unwrap_or_else(|e| panic!("{context}: admitted config must compile: {e}"));
    let cf_opt = compile_optimized(func)
        .unwrap_or_else(|e| panic!("{context}: optimized pipeline must compile: {e}"));
    let [packed, scalar] = [default_backend(), scalar_backend()].map(|backend| {
        backend
            .jit_compile(&cf_opt)
            .unwrap_or_else(|_| cf_opt.clone())
    });
    let engines = [
        ("scalar VM", cf),
        ("optimized VM", cf_opt),
        ("packed JIT", packed),
        ("scalar JIT", scalar),
    ];
    for (engine, compiled) in engines {
        let mut via = args.to_vec();
        vm::execute(&compiled, &mut via)
            .unwrap_or_else(|e| panic!("{context}: {engine} failed after admit: {e}"));
        for (i, (a, b)) in via_interp.iter().zip(&via).enumerate() {
            assert_eq!(a, b, "{context}: arg {i} diverged on the {engine}");
        }
    }
}

/// Classify one configuration through the full prelint → instantiate →
/// analyze pipeline, cross-check every denial against its concrete
/// oracle, and run admitted configs on all four engines. Returns `true`
/// iff the config was admitted.
fn classify_and_check(mold: &dyn CodeMold, config: &Configuration, context: &str) -> bool {
    let lint = mold.prelint(config);
    if !lint.is_empty() {
        let lint_codes: Vec<&str> = lint.iter().map(|d| d.code).collect();
        if lint_codes.iter().all(|&c| c == codes::VEC_OVER) {
            // Over-wide vectorization still instantiates — lowering masks
            // the dead lanes — and the oracle must find that mask.
            let func = mold.instantiate(config);
            assert!(
                oracle::confirm_masked_vector(&func),
                "{context}: TIR-VEC-OVER denial must materialize as masked vector lanes"
            );
        } else {
            // Zero trip counts and illegal fuses abort instantiation;
            // the panic is the denial's concrete witness.
            let attempt = catch_unwind(AssertUnwindSafe(|| mold.instantiate(config)));
            assert!(
                attempt.is_err(),
                "{context}: prelint denial {lint_codes:?} predicted an instantiation \
                 failure that did not happen"
            );
        }
        return false;
    }
    let func = mold.instantiate(config);
    let report = analyze::check(&func);
    if report.is_rejected() {
        let races: Vec<_> = report
            .denials()
            .filter(|d| d.code.starts_with("TIR-RACE"))
            .collect();
        if races.is_empty() {
            // Non-race analyzer denials must at least point at a real
            // buffer, not a phantom access.
            let names: Vec<&str> = func
                .params
                .iter()
                .chain(func.allocs.iter())
                .map(|b| b.name.as_str())
                .collect();
            for d in report.denials() {
                let buf = d
                    .buffer
                    .as_deref()
                    .unwrap_or_else(|| panic!("{context}: denial {} lacks a buffer", d.code));
                assert!(
                    names.contains(&buf),
                    "{context}: denial names unknown buffer `{buf}` (have {names:?})"
                );
            }
        } else {
            assert!(
                races.iter().any(|d| oracle::confirm_race(&func, d)),
                "{context}: race denial must be confirmed by concrete enumeration:\n{}",
                report.render_text()
            );
        }
        return false;
    }
    run_all_engines(&func, &mold.init_args(), context);
    true
}

/// Sampled sweep over every kernel's aggressive space, anchored by two
/// deterministic corners so each kernel contributes at least one denial
/// (the all-zero-tile grid corner) and one admission (the embedded paper
/// default) regardless of what the sampler draws.
#[test]
fn aggressive_configs_are_sound_on_all_four_engines() {
    let mut rng = SmallRng::seed_from_u64(0xA99);
    for kernel in KERNELS {
        let mold = mold_for_mode(kernel, ProblemSize::Mini, SpaceMode::Aggressive);
        let mut admits = 0usize;
        let mut denies = 0usize;

        let zero = mold.space().grid().next().expect("non-empty space");
        assert!(
            !classify_and_check(&*mold, &zero, &format!("{} zero-tile corner", mold.name())),
            "{}: the all-zero-tile corner must be denied",
            mold.name()
        );
        denies += 1;

        let paper = mold_for(kernel, ProblemSize::Mini);
        let embedded = embed_config(mold.space(), &paper.space().default_configuration());
        assert!(
            classify_and_check(
                &*mold,
                &embedded,
                &format!("{} embedded paper default", mold.name())
            ),
            "{}: the embedded paper default must be admitted",
            mold.name()
        );
        admits += 1;

        for i in 0..10 {
            let config = mold.space().sample(&mut rng);
            let context = format!("{} / {config} (sample {i})", mold.name());
            if classify_and_check(&*mold, &config, &context) {
                admits += 1;
            } else {
                denies += 1;
            }
        }
        assert!(
            admits >= 1 && denies >= 1,
            "{}: need both verdicts exercised, got {admits} admits / {denies} denies",
            mold.name()
        );
    }
}

/// All three oracle kinds, pinned on gemm with hand-picked configs so
/// each denial class is exercised deterministically (the sampled sweep
/// above may or may not draw them for any one kernel).
#[test]
fn gemm_denials_are_confirmed_by_every_oracle_kind() {
    let mold = mold_for_mode(KernelName::Gemm, ProblemSize::Mini, SpaceMode::Aggressive);
    let names: Vec<String> = ["P0", "P1", "ORDER", "FUSE", "VEC", "PAR", "UNROLL"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cfg =
        |vals: [i64; 7]| Configuration::new(names.clone(), vals.map(ParamValue::Int).to_vec());

    // VEC wider than the x tile: instantiable, lanes provably masked.
    let vec_over = cfg([4, 5, 0, 0, 64, 0, 0]);
    assert_eq!(
        mold.prelint(&vec_over)
            .iter()
            .map(|d| d.code)
            .collect::<Vec<_>>(),
        vec![codes::VEC_OVER]
    );
    assert!(oracle::confirm_masked_vector(&mold.instantiate(&vec_over)));

    // Parallel reduction: clean prelint, denied by the race analysis,
    // confirmed by exhaustive enumeration of the parallel iterations.
    let racy = cfg([4, 5, 0, 0, 0, 2, 0]);
    assert!(
        mold.prelint(&racy).is_empty(),
        "races are the analyzer's job"
    );
    let func = mold.instantiate(&racy);
    let report = analyze::check(&func);
    let denial = report
        .denials()
        .find(|d| d.code.starts_with("TIR-RACE"))
        .expect("parallel reduction must be denied");
    assert!(oracle::confirm_race(&func, denial));

    // Zero tile and non-adjacent fuse: the predicted instantiation
    // failures must actually occur.
    for (label, bad) in [
        ("zero tile", cfg([0, 5, 0, 0, 0, 0, 0])),
        ("illegal fuse", cfg([4, 5, 0, 2, 0, 0, 0])),
    ] {
        assert!(!mold.prelint(&bad).is_empty(), "{label} must be denied");
        let attempt = catch_unwind(AssertUnwindSafe(|| mold.instantiate(&bad)));
        assert!(attempt.is_err(), "{label} must abort instantiation");
    }
}
