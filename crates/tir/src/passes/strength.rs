//! Strength reduction of per-iteration index arithmetic.
//!
//! `fuse` reconstruction leaves `floordiv(fused, n)` / `floormod(fused, n)`
//! in every index expression of the fused nest, evaluated once per
//! element. When the numerator is affine in the enclosing loop variables
//! and the euclidean remainder is provably confined to `[0, n)`, both
//! operations collapse to plain affine arithmetic
//! ([`Affine::div_rem`](super::affine::Affine::div_rem)) — which the
//! bytecode compiler then hoists or turns into strided pointer bumps.
//!
//! The pass also folds comparisons whose outcome the affine intervals
//! decide (e.g. residual guards on provably in-range indices). Every
//! rewrite replaces a **pure** subexpression with a pure equivalent, so
//! evaluation order, short-circuiting and error behavior are untouched:
//! affine forms contain only variables, constants, `+`, `-`, `*` — no
//! division that could trap, no tensor reads.

use super::affine::{affine_of, VarRanges};
use crate::stmt::Stmt;
use tvm_te::expr::{BinOp, CmpOp};
use tvm_te::visitor::rewrite;
use tvm_te::PrimExpr;

fn cmp_decided(op: CmpOp, (alo, ahi): (i64, i64), (blo, bhi): (i64, i64)) -> Option<bool> {
    match op {
        CmpOp::Lt => {
            if ahi < blo {
                Some(true)
            } else if alo >= bhi {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Le => {
            if ahi <= blo {
                Some(true)
            } else if alo > bhi {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Gt => cmp_decided(CmpOp::Le, (alo, ahi), (blo, bhi)).map(|b| !b),
        CmpOp::Ge => cmp_decided(CmpOp::Lt, (alo, ahi), (blo, bhi)).map(|b| !b),
        CmpOp::Eq => {
            if alo == ahi && blo == bhi && alo == blo {
                Some(true)
            } else if ahi < blo || bhi < alo {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Ne => cmp_decided(CmpOp::Eq, (alo, ahi), (blo, bhi)).map(|b| !b),
    }
}

/// Rewrite one expression bottom-up under the given variable ranges.
pub fn reduce_expr(e: &PrimExpr, ranges: &VarRanges) -> PrimExpr {
    rewrite(e, &mut |node| match node {
        PrimExpr::Binary(op @ (BinOp::FloorDiv | BinOp::FloorMod | BinOp::Div), a, b)
            if !node.dtype().is_float() =>
        {
            let c = b.as_int()?;
            let num = affine_of(a, ranges)?;
            if *op == BinOp::Div {
                // Truncated division: only agrees with floordiv when the
                // numerator is provably non-negative.
                let (lo, _) = num.interval(ranges)?;
                if lo < 0 {
                    return None;
                }
            }
            let (q, r) = num.div_rem(c, ranges)?;
            let reduced = if *op == BinOp::FloorMod { r } else { q };
            Some(reduced.to_expr(a))
        }
        PrimExpr::Cmp(op, a, b) => {
            let ia = affine_of(a, ranges)?.interval(ranges)?;
            let ib = affine_of(b, ranges)?.interval(ranges)?;
            cmp_decided(*op, ia, ib).map(PrimExpr::BoolImm)
        }
        _ => None,
    })
}

fn reduce_stmt(stmt: &Stmt, ranges: &mut VarRanges) -> Stmt {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            // `verify` rejects shadowing and non-positive extents, but be
            // defensive: preserve any outer binding across the recursion.
            let prev = ranges.insert(var.id, (*min, min + (extent - 1).max(0)));
            let new_body = reduce_stmt(body, ranges);
            match prev {
                Some(p) => {
                    ranges.insert(var.id, p);
                }
                None => {
                    ranges.remove(&var.id);
                }
            }
            Stmt::For {
                var: var.clone(),
                min: *min,
                extent: *extent,
                kind: *kind,
                body: Box::new(new_body),
            }
        }
        Stmt::BufferStore {
            buffer,
            indices,
            value,
        } => Stmt::BufferStore {
            buffer: buffer.clone(),
            indices: indices.iter().map(|i| reduce_expr(i, ranges)).collect(),
            value: reduce_expr(value, ranges),
        },
        Stmt::IfThenElse { cond, then, else_ } => Stmt::IfThenElse {
            cond: reduce_expr(cond, ranges),
            then: Box::new(reduce_stmt(then, ranges)),
            else_: else_.as_ref().map(|e| Box::new(reduce_stmt(e, ranges))),
        },
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|s| reduce_stmt(s, ranges)).collect()),
        Stmt::Nop => Stmt::Nop,
    }
}

/// Strength-reduce every expression of a statement tree.
pub fn strength_reduce_stmt(stmt: &Stmt) -> Stmt {
    reduce_stmt(stmt, &mut VarRanges::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::stmt::ForKind;
    use tvm_te::ops::{floordiv, floormod, int};
    use tvm_te::visitor::walk;
    use tvm_te::{DType, Var};

    fn count_in_expr(e: &PrimExpr) -> usize {
        let mut n = 0;
        walk(e, &mut |node| {
            if matches!(
                node,
                PrimExpr::Binary(BinOp::FloorDiv | BinOp::FloorMod, ..)
            ) {
                n += 1;
            }
        });
        n
    }

    fn count_divmod(s: &Stmt) -> usize {
        match s {
            Stmt::BufferStore { indices, value, .. } => {
                indices.iter().map(count_in_expr).sum::<usize>() + count_in_expr(value)
            }
            Stmt::For { body, .. } => count_divmod(body),
            Stmt::IfThenElse { cond, then, else_ } => {
                count_in_expr(cond) + count_divmod(then) + else_.as_deref().map_or(0, count_divmod)
            }
            Stmt::Seq(items) => items.iter().map(count_divmod).sum(),
            _ => 0,
        }
    }

    #[test]
    fn eliminates_fuse_reconstruction() {
        // for f in [0, 12): B[floordiv(f,4), floormod(f,4)] = f
        let f = Var::index("f");
        let b = Buffer::new("b", [3usize, 4], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b,
            indices: vec![
                floordiv(f.expr() * int(1), int(4)),
                floormod(f.expr(), int(4)),
            ],
            value: f.expr(),
        };
        let nest = Stmt::For {
            var: f.clone(),
            min: 0,
            extent: 12,
            kind: ForKind::Serial,
            body: Box::new(store),
        };
        // A lone fused var cannot be decomposed (remainder unbounded)…
        let out = strength_reduce_stmt(&nest);
        assert_eq!(count_divmod(&out), 2);

        // …but the canonical split-then-fuse shape can: f = o*4 + i.
        let o = Var::index("o");
        let i = Var::index("i");
        let fused = o.expr() * int(4) + i.expr();
        let b2 = Buffer::new("b2", [3usize, 4], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b2,
            indices: vec![
                floordiv(fused.clone(), int(4)),
                floormod(fused.clone(), int(4)),
            ],
            value: int(0),
        };
        let nest = Stmt::For {
            var: o.clone(),
            min: 0,
            extent: 3,
            kind: ForKind::Serial,
            body: Box::new(Stmt::For {
                var: i.clone(),
                min: 0,
                extent: 4,
                kind: ForKind::Serial,
                body: Box::new(store),
            }),
        };
        let out = strength_reduce_stmt(&nest);
        assert_eq!(count_divmod(&out), 0, "floordiv/floormod must be gone");
    }

    #[test]
    fn folds_provable_guard() {
        // for i in [0,4): if i < 10 { store } — guard is provably true.
        let i = Var::index("i");
        let b = Buffer::new("b", [4usize], DType::F64);
        let nest = Stmt::For {
            var: i.clone(),
            min: 0,
            extent: 4,
            kind: ForKind::Serial,
            body: Box::new(Stmt::IfThenElse {
                cond: tvm_te::ops::cmp::lt(i.expr(), int(10)),
                then: Box::new(Stmt::BufferStore {
                    buffer: b,
                    indices: vec![i.expr()],
                    value: int(0),
                }),
                else_: None,
            }),
        };
        let out = strength_reduce_stmt(&nest);
        match out {
            Stmt::For { body, .. } => match *body {
                Stmt::IfThenElse { cond, .. } => {
                    assert_eq!(cond, PrimExpr::BoolImm(true));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn leaves_undecidable_guard_alone() {
        // for i in [0,8): if i < 5 — depends on i, must survive.
        let i = Var::index("i");
        let b = Buffer::new("b", [8usize], DType::F64);
        let nest = Stmt::For {
            var: i.clone(),
            min: 0,
            extent: 8,
            kind: ForKind::Serial,
            body: Box::new(Stmt::IfThenElse {
                cond: tvm_te::ops::cmp::lt(i.expr(), int(5)),
                then: Box::new(Stmt::BufferStore {
                    buffer: b,
                    indices: vec![i.expr()],
                    value: int(0),
                }),
                else_: None,
            }),
        };
        let out = strength_reduce_stmt(&nest);
        match out {
            Stmt::For { body, .. } => {
                assert!(matches!(
                    *body,
                    Stmt::IfThenElse {
                        cond: PrimExpr::Cmp(..),
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn float_floordiv_untouched() {
        // floordiv on floats must not be treated as integer arithmetic.
        let x = Var::new("x", DType::F64);
        let e = floordiv(x.expr(), PrimExpr::from(4.0f64));
        let out = reduce_expr(&e, &VarRanges::default());
        assert_eq!(out, e);
    }
}
