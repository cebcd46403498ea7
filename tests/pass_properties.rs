//! Per-pass property tests: every statement-level TIR pass — and the
//! whole default pipeline — must preserve execution semantics on
//! randomized split/reorder/fuse schedules, and must not change the
//! static schedule-safety analyzer's verdict.
//!
//! The reference interpreter is the semantics oracle: the original and
//! the transformed function are run from identical argument snapshots
//! and must produce bit-identical outputs (and the identical result /
//! error class).

use proptest::prelude::*;
use tvm_runtime::{interp, NDArray};
use tvm_te::{compute, placeholder, reduce_axis, sum, DType, Schedule};
use tvm_tir::passes::{licm, simplify, strength};
use tvm_tir::{analyze, lower::lower, optimize, PassManager, PrimFunc};

const N: usize = 8;

/// Randomized schedule shape for the matmul nest under test.
#[derive(Debug, Clone)]
struct Plan {
    split_y: i64,
    split_x: i64,
    reorder: bool,
    fuse_y: bool,
    parallel_outer: bool,
    vectorize_inner: bool,
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (
        (1i64..=5, 1i64..=5),
        (any::<bool>(), any::<bool>()),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((split_y, split_x), (reorder, fuse_y), (parallel_outer, vectorize_inner))| Plan {
                split_y,
                split_x,
                reorder,
                fuse_y,
                parallel_outer,
                vectorize_inner,
            },
        )
}

/// Lower an `N`×`N` matmul under `plan`. Non-divisible split factors
/// produce tail guards — exactly the expressions LICM and
/// strength reduction exist to move and rewrite.
fn scheduled_matmul(plan: &Plan) -> PrimFunc {
    let a = placeholder([N, N], DType::F64, "A");
    let b = placeholder([N, N], DType::F64, "B");
    let k = reduce_axis(0, N as i64, "k");
    let c = compute([N, N], "C", |i| {
        sum(
            a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    let mut s = Schedule::create(std::slice::from_ref(&c));
    let (y, x) = (c.axis(0), c.axis(1));
    let (yo, yi) = s.split(&c, &y, plan.split_y);
    let (xo, xi) = s.split(&c, &x, plan.split_x);
    if plan.fuse_y {
        // Fusing the split back introduces div/mod recovery indexing.
        let f = s.fuse(&c, &yo, &yi);
        if plan.parallel_outer {
            s.parallel(&c, &f);
        }
    } else {
        if plan.reorder {
            s.reorder(
                &c,
                &[yo.clone(), xo.clone(), k.clone(), yi.clone(), xi.clone()],
            );
        }
        if plan.parallel_outer {
            s.parallel(&c, &yo);
        }
    }
    if plan.vectorize_inner {
        s.vectorize(&c, &xi);
    }
    lower(&s, &[a, b, c], "mm_prop")
}

fn fresh_args(seed: u64) -> Vec<NDArray> {
    vec![
        NDArray::random(&[N, N], DType::F64, seed, -1.0, 1.0),
        NDArray::random(&[N, N], DType::F64, seed ^ 0x9e37_79b9, -1.0, 1.0),
        NDArray::zeros(&[N, N], DType::F64),
    ]
}

/// Interpret `orig` and `transformed` from identical snapshots and
/// require bit-identical outcomes.
fn assert_same_semantics(orig: &PrimFunc, transformed: &PrimFunc, seed: u64, context: &str) {
    let mut base = fresh_args(seed);
    let mut xformed = fresh_args(seed);
    let r0 = interp::execute(orig, &mut base);
    let r1 = interp::execute(transformed, &mut xformed);
    assert_eq!(r0, r1, "{context}: result/error class diverged");
    for (i, (a, b)) in base.iter().zip(&xformed).enumerate() {
        assert_eq!(a, b, "{context}: arg {i} diverged");
    }
}

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
            assert_same_semantics(&func, &transformed, seed, &format!("{name} / {plan:?}"));
        }
    }

    #[test]
    fn full_pipeline_preserves_matmul_semantics(plan in plan_strategy(), seed in any::<u64>()) {
        let func = scheduled_matmul(&plan);
        let optimized = optimize(&func).expect("default pipeline");
        assert_same_semantics(&func, &optimized, seed, &format!("pipeline / {plan:?}"));
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
            "optimization flipped the safety verdict for {:?}:\nbefore:\n{}\nafter:\n{}",
            &plan,
            before.render_text(),
            after.render_text()
        );
    }
}
