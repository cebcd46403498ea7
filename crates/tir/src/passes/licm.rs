//! Loop-invariant code motion, realized as guard unswitching.
//!
//! Non-divisible `split` factors lower to a guard
//! `if reconstructed_index < original_extent { store }` placed at the
//! innermost position, so the whole conjunction is re-evaluated per
//! element even though parts of it only mention *outer* loop variables.
//! This pass hoists those invariant conjuncts out of the loop:
//!
//! ```text
//! for i { if inv && dep(i) { S } }   ⇒   if inv { for i { if dep(i) { S } } }
//! ```
//!
//! The transformation is exact under two conditions, both enforced:
//!
//! 1. **Every** conjunct of the guard is pure (no division that could
//!    trap, no tensor reads). Hoisting changes how often and in which
//!    short-circuit position conjuncts are evaluated; for pure
//!    expressions that is unobservable, while a trapping conjunct could
//!    otherwise be skipped or duplicated.
//! 2. The hoisted conjuncts do not mention the loop variable (they may
//!    mention any enclosing one — recursion hoists them further).
//!
//! `Parallel` and thread-bound loops are left untouched: the static
//! race analyzer (`crate::analyze`) reasons about the guard structure
//! *inside* such loops, and restructuring them would perturb verdicts
//! for no measurable gain (the guard runs once per chunk, not per lane).

use crate::stmt::{ForKind, Stmt};
use tvm_te::expr::BinOp;
use tvm_te::visitor::walk;
use tvm_te::PrimExpr;

/// True when evaluating `e` can never raise a runtime error: no tensor
/// reads, no residual reductions, and no integer division whose divisor
/// is not a nonzero constant.
pub fn is_pure(e: &PrimExpr) -> bool {
    let mut pure = true;
    walk(e, &mut |node| match node {
        PrimExpr::TensorRead(..) | PrimExpr::Reduce { .. } => pure = false,
        PrimExpr::Binary(BinOp::Div | BinOp::FloorDiv | BinOp::FloorMod, _, b)
            if !node.dtype().is_float() =>
        {
            match b.as_int() {
                Some(c) if c != 0 => {}
                _ => pure = false,
            }
        }
        _ => {}
    });
    pure
}

fn references(e: &PrimExpr, var_id: u64) -> bool {
    let mut found = false;
    walk(e, &mut |node| {
        if matches!(node, PrimExpr::Var(v) if v.id == var_id) {
            found = true;
        }
    });
    found
}

/// Flatten a guard into its `&&`-chain conjuncts, left to right.
fn conjuncts(e: &PrimExpr, out: &mut Vec<PrimExpr>) {
    if let PrimExpr::And(a, b) = e {
        conjuncts(a, out);
        conjuncts(b, out);
    } else {
        out.push(e.clone());
    }
}

fn conjoin(parts: &[PrimExpr]) -> PrimExpr {
    let mut it = parts.iter().cloned();
    let first = it.next().expect("non-empty conjunction");
    it.fold(first, |acc, c| {
        PrimExpr::And(std::sync::Arc::new(acc), std::sync::Arc::new(c))
    })
}

/// Hoist invariant guard conjuncts out of loops, bottom-up (so a fully
/// invariant guard bubbles out of an entire nest).
pub fn hoist_invariant_guards(stmt: &Stmt) -> Stmt {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            let body = hoist_invariant_guards(body);
            let hoistable_kind = matches!(
                kind,
                ForKind::Serial | ForKind::Vectorized | ForKind::Unrolled
            );
            if let (
                true,
                Stmt::IfThenElse {
                    cond,
                    then,
                    else_: None,
                },
            ) = (hoistable_kind, &body)
            {
                let mut parts = Vec::new();
                conjuncts(cond, &mut parts);
                if parts.iter().all(is_pure) {
                    let (inv, dep): (Vec<_>, Vec<_>) =
                        parts.into_iter().partition(|c| !references(c, var.id));
                    if !inv.is_empty() {
                        let inner_body = if dep.is_empty() {
                            (**then).clone()
                        } else {
                            Stmt::IfThenElse {
                                cond: conjoin(&dep),
                                then: then.clone(),
                                else_: None,
                            }
                        };
                        return Stmt::IfThenElse {
                            cond: conjoin(&inv),
                            then: Box::new(Stmt::For {
                                var: var.clone(),
                                min: *min,
                                extent: *extent,
                                kind: *kind,
                                body: Box::new(inner_body),
                            }),
                            else_: None,
                        };
                    }
                }
            }
            Stmt::For {
                var: var.clone(),
                min: *min,
                extent: *extent,
                kind: *kind,
                body: Box::new(body),
            }
        }
        Stmt::IfThenElse { cond, then, else_ } => Stmt::IfThenElse {
            cond: cond.clone(),
            then: Box::new(hoist_invariant_guards(then)),
            else_: else_.as_ref().map(|e| Box::new(hoist_invariant_guards(e))),
        },
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(hoist_invariant_guards).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use tvm_te::ops::cmp;
    use tvm_te::ops::int;
    use tvm_te::{DType, Var};

    fn store(b: &std::sync::Arc<Buffer>, idx: PrimExpr) -> Stmt {
        Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![idx],
            value: int(0),
        }
    }

    fn for_loop(v: &Var, extent: i64, kind: ForKind, body: Stmt) -> Stmt {
        Stmt::For {
            var: v.clone(),
            min: 0,
            extent,
            kind,
            body: Box::new(body),
        }
    }

    #[test]
    fn hoists_outer_only_conjunct_out_of_inner_loop() {
        // for i { for j { if (i < 3 && j < 5) { S } } }
        //   ⇒ for i { if i < 3 { for j { if j < 5 { S } } } }
        let i = Var::index("i");
        let j = Var::index("j");
        let b = Buffer::new("b", [64usize], DType::F64);
        let guard = PrimExpr::And(
            std::sync::Arc::new(cmp::lt(i.expr(), int(3))),
            std::sync::Arc::new(cmp::lt(j.expr(), int(5))),
        );
        let nest = for_loop(
            &i,
            4,
            ForKind::Serial,
            for_loop(
                &j,
                8,
                ForKind::Serial,
                Stmt::IfThenElse {
                    cond: guard,
                    then: Box::new(store(&b, i.expr() * int(8) + j.expr())),
                    else_: None,
                },
            ),
        );
        let out = hoist_invariant_guards(&nest);
        match out {
            Stmt::For { body, .. } => match *body {
                Stmt::IfThenElse { cond, then, .. } => {
                    assert!(!references(&cond, j.id), "hoisted guard mentions j");
                    assert!(references(&cond, i.id));
                    assert!(matches!(*then, Stmt::For { .. }));
                }
                other => panic!("expected hoisted If, got {other:?}"),
            },
            other => panic!("expected For, got {other:?}"),
        }
    }

    #[test]
    fn fully_invariant_guard_exits_the_nest() {
        // A conjunct mentioning neither i nor j climbs out of both loops.
        let i = Var::index("i");
        let j = Var::index("j");
        let k = Var::index("k");
        let b = Buffer::new("b", [64usize], DType::F64);
        let nest = for_loop(
            &k,
            2,
            ForKind::Serial,
            for_loop(
                &i,
                4,
                ForKind::Serial,
                for_loop(
                    &j,
                    8,
                    ForKind::Serial,
                    Stmt::IfThenElse {
                        cond: cmp::lt(k.expr(), int(1)),
                        then: Box::new(store(&b, j.expr())),
                        else_: None,
                    },
                ),
            ),
        );
        let out = hoist_invariant_guards(&nest);
        // Guard must now sit directly under the k loop.
        match out {
            Stmt::For { var, body, .. } => {
                assert_eq!(var.id, k.id);
                assert!(matches!(*body, Stmt::IfThenElse { .. }));
            }
            other => panic!("expected For, got {other:?}"),
        }
    }

    #[test]
    fn parallel_loops_are_left_alone() {
        let i = Var::index("i");
        let j = Var::index("j");
        let b = Buffer::new("b", [64usize], DType::F64);
        let nest = for_loop(
            &i,
            4,
            ForKind::Serial,
            for_loop(
                &j,
                8,
                ForKind::Parallel,
                Stmt::IfThenElse {
                    cond: cmp::lt(i.expr(), int(3)),
                    then: Box::new(store(&b, j.expr())),
                    else_: None,
                },
            ),
        );
        let out = hoist_invariant_guards(&nest);
        match out {
            Stmt::For { body, .. } => {
                assert!(
                    matches!(
                        *body,
                        Stmt::For {
                            kind: ForKind::Parallel,
                            ..
                        }
                    ),
                    "guard must stay inside the parallel loop"
                );
            }
            other => panic!("expected For, got {other:?}"),
        }
    }

    #[test]
    fn failable_conjunct_blocks_hoisting() {
        // floordiv by a variable could trap: the guard must not move.
        let i = Var::index("i");
        let n = Var::index("n");
        let b = Buffer::new("b", [64usize], DType::F64);
        let failable = cmp::lt(tvm_te::ops::floordiv(int(4), n.expr()), int(3));
        let nest = for_loop(
            &n,
            4,
            ForKind::Serial,
            for_loop(
                &i,
                8,
                ForKind::Serial,
                Stmt::IfThenElse {
                    cond: failable,
                    then: Box::new(store(&b, i.expr())),
                    else_: None,
                },
            ),
        );
        let out = hoist_invariant_guards(&nest);
        match out {
            Stmt::For { body, .. } => {
                assert!(matches!(*body, Stmt::For { .. }), "must not unswitch");
            }
            other => panic!("expected For, got {other:?}"),
        }
    }

    #[test]
    fn purity_classifier() {
        let i = Var::index("i");
        assert!(is_pure(&(i.expr() * int(3) + int(1))));
        assert!(is_pure(&tvm_te::ops::floordiv(i.expr(), int(4))));
        assert!(!is_pure(&tvm_te::ops::floordiv(int(4), i.expr())));
        // Float division never traps.
        let x = Var::new("x", DType::F64);
        let div = PrimExpr::binary(BinOp::Div, PrimExpr::from(1.0f64), x.expr());
        assert!(is_pure(&div));
    }
}
