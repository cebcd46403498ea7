//! Per-pass property tests: every statement-level TIR pass — and the
//! whole default pipeline — must preserve execution semantics on
//! randomized split/reorder/fuse schedules, and must not change the
//! static schedule-safety analyzer's verdict. Generated tile nests hold
//! the interchange pass to moving exactly the loops it proves it may.
//!
//! The reference interpreter running the original function is the
//! semantics oracle: the transformed function runs on the interpreter and
//! on every engine of the shared harness (`common::oracle`) from identical
//! argument snapshots and must produce bit-identical outputs (and the
//! identical result / error class).

mod common;

use common::nests::{matmul_args, plan_strategy, scheduled_matmul, tile_nest};
use common::oracle::check_against;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tvm_tir::passes::{interchange, licm, simplify, strength};
use tvm_tir::{analyze, optimize, PassManager, PrimFunc, Stmt};

/// A statement-level pass, by name.
type Pass = (&'static str, fn(&Stmt) -> Stmt);

/// Every statement-level pass of the default pipeline.
const PASSES: [Pass; 4] = [
    ("interchange", interchange::interchange_rows),
    ("strength-reduce", strength::strength_reduce_stmt),
    ("simplify", simplify::simplify_stmt),
    ("licm", licm::hoist_invariant_guards),
];

/// `func` after `pass` alone, verified.
fn run_pass(func: &PrimFunc, (name, pass): Pass) -> PrimFunc {
    (PassManager::empty().add_pass(name, pass).run(func))
        .unwrap_or_else(|e| panic!("{name} failed verification: {e:?}"))
}

/// The analyzer's verdict on `func` and on `transformed`, the same.
fn same_verdict(func: &PrimFunc, transformed: &PrimFunc, context: &str) {
    let (before, after) = (analyze::check(func), analyze::check(transformed));
    assert_eq!(
        before.is_rejected(),
        after.is_rejected(),
        "{context} flipped the safety verdict:\nbefore:\n{:#?}\nafter:\n{:#?}",
        before.diagnostics,
        after.diagnostics
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn each_pass_preserves_matmul_semantics(plan in plan_strategy(), seed in any::<u64>()) {
        let func = scheduled_matmul(&plan);
        for pass in PASSES {
            let transformed = run_pass(&func, pass);
            let context = format!("{} / {plan:?}", pass.0);
            let _ = check_against(&func, &transformed, &matmul_args(seed), &context);
        }
    }

    #[test]
    fn full_pipeline_preserves_matmul_semantics(plan in plan_strategy(), seed in any::<u64>()) {
        let func = scheduled_matmul(&plan);
        let optimized = optimize(&func).expect("default pipeline");
        let context = format!("pipeline / {plan:?}");
        let _ = check_against(&func, &optimized, &matmul_args(seed), &context);
    }

    #[test]
    fn analyzer_verdict_survives_optimization(plan in plan_strategy()) {
        let func = scheduled_matmul(&plan);
        let optimized = optimize(&func).expect("default pipeline");
        same_verdict(&func, &optimized, &format!("the pipeline on {plan:?}"));
        for pass in PASSES {
            same_verdict(&func, &run_pass(&func, pass), &format!("{} on {plan:?}", pass.0));
        }
    }
}

#[test]
fn generated_tile_nests_move_exactly_and_only_when_proven() {
    let mut rng = SmallRng::seed_from_u64(0x711e);
    let (mut moved, mut refused) = (0, 0);
    for case in 0..160 {
        let (func, args, context, near_miss) = tile_nest(&mut rng);
        let context = format!("case {case}: {context}");
        let transformed = run_pass(&func, PASSES[0]);
        let _ = check_against(&func, &transformed, &args, &context);
        same_verdict(&func, &transformed, &context);
        let changed = transformed.body.to_string() != func.body.to_string();
        assert_eq!(changed, !near_miss, "{context}:\n{}", transformed.body);
        (moved, refused) = (moved + changed as u32, refused + near_miss as u32);
    }
    assert!(moved > 50 && refused > 50, "{moved} {refused}");
}
