//! Property tests: the simplifier must preserve integer-expression
//! semantics on randomly generated expression trees.

use proptest::prelude::*;
use std::collections::HashMap;
use tvm_te::ops::{cmp, int};
use tvm_te::{BinOp, PrimExpr, Var};
use tvm_tir::analysis::{eval_int, eval_int_with};
use tvm_tir::passes::simplify::simplify_expr;

/// A recipe for building a deterministic expression tree over three
/// variables, as a sequence of stack operations.
#[derive(Debug, Clone)]
enum Op {
    PushConst(i64),
    PushVar(u8),
    Binary(u8),
    Cmp(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-20i64..20).prop_map(Op::PushConst),
        (0u8..3).prop_map(Op::PushVar),
        (0u8..8).prop_map(Op::Binary),
        (0u8..6).prop_map(Op::Cmp),
    ]
}

fn build(ops: &[Op], vars: &[Var; 3]) -> PrimExpr {
    let mut stack: Vec<PrimExpr> = Vec::new();
    for op in ops {
        match op {
            Op::PushConst(v) => stack.push(int(*v)),
            Op::PushVar(i) => stack.push(vars[*i as usize].expr()),
            Op::Binary(which) => {
                if stack.len() >= 2 {
                    let b = stack.pop().expect("len>=2");
                    let a = stack.pop().expect("len>=2");
                    let op = [
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::FloorDiv,
                        BinOp::FloorMod,
                        BinOp::Min,
                        BinOp::Max,
                        BinOp::Add,
                    ][*which as usize % 8];
                    stack.push(PrimExpr::binary(op, a, b));
                }
            }
            Op::Cmp(which) => {
                if stack.len() >= 2 {
                    let b = stack.pop().expect("len>=2");
                    let a = stack.pop().expect("len>=2");
                    // A comparison evaluates to 0 or 1, so it mixes
                    // with integer arithmetic like any other operand.
                    stack.push(match which % 6 {
                        0 => cmp::lt(a, b),
                        1 => cmp::le(a, b),
                        2 => cmp::gt(a, b),
                        3 => cmp::ge(a, b),
                        4 => cmp::eq(a, b),
                        _ => cmp::ne(a, b),
                    });
                }
            }
        }
    }
    stack.pop().unwrap_or_else(|| int(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn simplify_preserves_integer_semantics(
        ops in prop::collection::vec(op_strategy(), 1..40),
        vals in prop::array::uniform3(-50i64..50),
    ) {
        let vars = [Var::index("a"), Var::index("b"), Var::index("c")];
        let expr = build(&ops, &vars);
        let simplified = simplify_expr(&expr);

        let env: HashMap<u64, i64> = vars
            .iter()
            .zip(vals.iter())
            .map(|(v, &x)| (v.id, x))
            .collect();
        let before = eval_int(&expr, &env);
        let after = eval_int(&simplified, &env);
        // Division by zero makes eval return None; simplification must
        // never turn a defined expression into an undefined one or
        // change its value. (It may *define* a previously undefined
        // one only if folding removed a dead division — which our
        // simplifier does not do, so require exact agreement when the
        // original is defined.)
        if before.is_some() {
            prop_assert_eq!(after, before);
        }
    }

    /// The map-free evaluator the analysis samples guards with agrees with
    /// `eval_int` over a `HashMap` filled in slot order — later slots
    /// shadow earlier ones — on unbound variables and on division by zero
    /// (both `None`) as much as on values.
    #[test]
    fn slot_lookup_evaluates_like_a_map(
        ops in prop::collection::vec(op_strategy(), 1..40),
        slots in prop::collection::vec((0u8..3, -50i64..50), 0..6),
    ) {
        let vars = [Var::index("a"), Var::index("b"), Var::index("c")];
        let expr = build(&ops, &vars);
        let slots: Vec<(u64, i64)> = slots
            .into_iter()
            .map(|(v, x)| (vars[v as usize].id, x))
            .collect();
        let map: HashMap<u64, i64> = slots.iter().copied().collect();
        let by_slot = |id| {
            let (_, x) = slots.iter().rev().find(|(v, _)| *v == id)?;
            Some(*x)
        };
        prop_assert_eq!(eval_int_with(&expr, &by_slot), eval_int(&expr, &map));
    }

    #[test]
    fn simplify_is_idempotent(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let vars = [Var::index("a"), Var::index("b"), Var::index("c")];
        let expr = build(&ops, &vars);
        let once = simplify_expr(&expr);
        let twice = simplify_expr(&once);
        prop_assert_eq!(format!("{once}"), format!("{twice}"));
    }

    #[test]
    fn fully_constant_expressions_fold_to_literals(
        ops in prop::collection::vec(
            prop_oneof![
                (-20i64..20).prop_map(Op::PushConst),
                (0u8..3u8).prop_map(Op::Binary), // Add/Sub/Mul only: total
            ],
            1..30,
        ),
    ) {
        let vars = [Var::index("a"), Var::index("b"), Var::index("c")];
        let expr = build(&ops, &vars);
        let simplified = simplify_expr(&expr);
        prop_assert!(
            simplified.is_const(),
            "constant tree must fold completely: {simplified}"
        );
    }
}
