//! Per-pass property tests: every statement-level TIR pass — and the
//! whole default pipeline — must preserve execution semantics on
//! randomized split/reorder/fuse schedules, and must not change the
//! static schedule-safety analyzer's verdict.
//!
//! The reference interpreter running the original function is the
//! semantics oracle: the transformed function runs on the interpreter and
//! on every engine of the shared harness (`common::oracle`) from identical
//! argument snapshots and must produce bit-identical outputs (and the
//! identical result / error class).

mod common;

use common::nests::{matmul_args, plan_strategy, scheduled_matmul};
use common::oracle::check_against;
use proptest::prelude::*;
use tvm_tir::passes::{licm, simplify, strength};
use tvm_tir::{analyze, optimize, PassManager};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn each_pass_preserves_matmul_semantics(plan in plan_strategy(), seed in any::<u64>()) {
        let func = scheduled_matmul(&plan);
        type PassFn = fn(&tvm_tir::Stmt) -> tvm_tir::Stmt;
        let passes: [(&str, PassFn); 3] = [
            ("strength-reduce", strength::strength_reduce_stmt),
            ("simplify", simplify::simplify_stmt),
            ("licm", licm::hoist_invariant_guards),
        ];
        for (name, pass) in passes {
            let transformed = PassManager::empty()
                .add_pass(name, pass)
                .run(&func)
                .unwrap_or_else(|e| panic!("{name} failed verification: {e:?}"));
            let context = format!("{name} / {plan:?}");
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
        let before = analyze::check(&func);
        let after = analyze::check(&optimized);
        prop_assert_eq!(
            before.is_rejected(),
            after.is_rejected(),
            "optimization flipped the safety verdict for {:?}:\nbefore:\n{:#?}\nafter:\n{:#?}",
            &plan,
            before.diagnostics,
            after.diagnostics
        );
    }
}
