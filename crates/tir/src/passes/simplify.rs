//! Algebraic simplification and constant folding.

use crate::passes::subst_stmt;
use crate::stmt::Stmt;
use std::collections::HashMap;
use tvm_te::visitor::rewrite;
use tvm_te::{BinOp, CmpOp, DType, PrimExpr};

fn fold_int(op: BinOp, a: i64, b: i64, t: DType) -> Option<PrimExpr> {
    let v = match op {
        BinOp::Add => a.checked_add(b)?,
        BinOp::Sub => a.checked_sub(b)?,
        BinOp::Mul => a.checked_mul(b)?,
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a / b
        }
        BinOp::FloorDiv => {
            if b == 0 {
                return None;
            }
            a.div_euclid(b)
        }
        BinOp::FloorMod => {
            if b == 0 {
                return None;
            }
            a.rem_euclid(b)
        }
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
    };
    Some(PrimExpr::IntImm(v, t))
}

fn fold_float(op: BinOp, a: f64, b: f64, t: DType) -> PrimExpr {
    let v = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::FloorDiv => (a / b).floor(),
        BinOp::FloorMod => a - (a / b).floor() * b,
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
    };
    PrimExpr::FloatImm(v, t)
}

/// Simplify one expression: constant folding plus the identities
/// `x+0`, `x-0`, `x*1`, `x*0`, `x/1`, `floordiv(x,1)`, `floormod(x,1)`,
/// and comparison folding.
pub fn simplify_expr(e: &PrimExpr) -> PrimExpr {
    rewrite(e, &mut |node| match node {
        PrimExpr::Binary(op, a, b) => {
            let t = node.dtype();
            match (&**a, &**b) {
                (PrimExpr::IntImm(x, _), PrimExpr::IntImm(y, _)) => fold_int(*op, *x, *y, t),
                (PrimExpr::FloatImm(x, _), PrimExpr::FloatImm(y, _)) => {
                    Some(fold_float(*op, *x, *y, t))
                }
                // x + 0, x - 0
                (_, PrimExpr::IntImm(0, _)) if matches!(op, BinOp::Add | BinOp::Sub) => {
                    Some((**a).clone())
                }
                // 0 + x
                (PrimExpr::IntImm(0, _), _) if matches!(op, BinOp::Add) => Some((**b).clone()),
                // x * 1, x / 1, floordiv(x,1)
                (_, PrimExpr::IntImm(1, _))
                    if matches!(op, BinOp::Mul | BinOp::Div | BinOp::FloorDiv) =>
                {
                    Some((**a).clone())
                }
                // 1 * x
                (PrimExpr::IntImm(1, _), _) if matches!(op, BinOp::Mul) => Some((**b).clone()),
                // x * 0, 0 * x (integer only: float 0*inf is NaN)
                (_, PrimExpr::IntImm(0, t0)) if matches!(op, BinOp::Mul) && t0.is_int() => {
                    Some(PrimExpr::IntImm(0, t))
                }
                (PrimExpr::IntImm(0, t0), _) if matches!(op, BinOp::Mul) && t0.is_int() => {
                    Some(PrimExpr::IntImm(0, t))
                }
                // floormod(x, 1) == 0
                (_, PrimExpr::IntImm(1, _)) if matches!(op, BinOp::FloorMod) => {
                    Some(PrimExpr::IntImm(0, t))
                }
                _ => None,
            }
        }
        PrimExpr::Cmp(op, a, b) => match (a.as_int(), b.as_int()) {
            (Some(x), Some(y)) => {
                let v = match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                };
                Some(PrimExpr::BoolImm(v))
            }
            _ => None,
        },
        PrimExpr::And(a, b) => match (&**a, &**b) {
            (PrimExpr::BoolImm(true), x) | (x, PrimExpr::BoolImm(true)) => Some(x.clone()),
            (PrimExpr::BoolImm(false), _) | (_, PrimExpr::BoolImm(false)) => {
                Some(PrimExpr::BoolImm(false))
            }
            _ => None,
        },
        PrimExpr::Or(a, b) => match (&**a, &**b) {
            (PrimExpr::BoolImm(false), x) | (x, PrimExpr::BoolImm(false)) => Some(x.clone()),
            (PrimExpr::BoolImm(true), _) | (_, PrimExpr::BoolImm(true)) => {
                Some(PrimExpr::BoolImm(true))
            }
            _ => None,
        },
        PrimExpr::Not(a) => match &**a {
            PrimExpr::BoolImm(v) => Some(PrimExpr::BoolImm(!v)),
            _ => None,
        },
        _ => None,
    })
}

/// Simplify a statement tree: fold expressions, drop empty loops, inline
/// single-iteration loops, prune constant conditionals, flatten sequences.
pub fn simplify_stmt(stmt: &Stmt) -> Stmt {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            if *extent == 0 {
                return Stmt::Nop;
            }
            let body = simplify_stmt(body);
            if matches!(body, Stmt::Nop) {
                return Stmt::Nop;
            }
            if *extent == 1 {
                let mut map = HashMap::new();
                map.insert(var.id, PrimExpr::from(*min));
                return simplify_stmt(&subst_stmt(&body, &map));
            }
            Stmt::For {
                var: var.clone(),
                min: *min,
                extent: *extent,
                kind: *kind,
                body: Box::new(body),
            }
        }
        Stmt::BufferStore {
            buffer,
            indices,
            value,
        } => Stmt::BufferStore {
            buffer: buffer.clone(),
            indices: indices.iter().map(simplify_expr).collect(),
            value: simplify_expr(value),
        },
        Stmt::IfThenElse { cond, then, else_ } => {
            let cond = simplify_expr(cond);
            match cond {
                PrimExpr::BoolImm(true) => simplify_stmt(then),
                PrimExpr::BoolImm(false) => else_
                    .as_ref()
                    .map(|e| simplify_stmt(e))
                    .unwrap_or(Stmt::Nop),
                cond => Stmt::IfThenElse {
                    cond,
                    then: Box::new(simplify_stmt(then)),
                    else_: else_.as_ref().map(|e| Box::new(simplify_stmt(e))),
                },
            }
        }
        Stmt::Seq(items) => {
            let mut out: Vec<Stmt> = Vec::with_capacity(items.len());
            for s in items {
                match simplify_stmt(s) {
                    Stmt::Nop => {}
                    Stmt::Seq(inner) => out.extend(inner),
                    s => out.push(s),
                }
            }
            match out.len() {
                0 => Stmt::Nop,
                1 => out.pop().expect("len 1"),
                _ => Stmt::Seq(out),
            }
        }
        Stmt::Nop => Stmt::Nop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::stmt::ForKind;
    use tvm_te::ops::{cmp, floordiv, floormod, int};
    use tvm_te::Var;

    #[test]
    fn folds_constants() {
        let e = simplify_expr(&(int(2) * 3 + 4));
        assert_eq!(e.as_int(), Some(10));
        let e = simplify_expr(&floordiv(int(-7), int(2)));
        assert_eq!(e.as_int(), Some(-4), "floor division is euclidean");
        let e = simplify_expr(&floormod(int(-7), int(2)));
        assert_eq!(e.as_int(), Some(1));
    }

    #[test]
    fn identities() {
        let v = Var::index("i");
        assert_eq!(simplify_expr(&(v.expr() + 0)), v.expr());
        assert_eq!(simplify_expr(&(v.expr() * 1)), v.expr());
        assert_eq!(simplify_expr(&(v.expr() * int(0))).as_int(), Some(0));
        assert_eq!(simplify_expr(&(0 + v.expr())), v.expr());
    }

    #[test]
    fn folds_cmp_and_bool() {
        assert_eq!(
            simplify_expr(&cmp::lt(int(1), int(2))),
            PrimExpr::BoolImm(true)
        );
        let v = Var::index("i");
        let e = cmp::and(PrimExpr::BoolImm(true), cmp::lt(v.expr(), int(2)));
        assert!(matches!(simplify_expr(&e), PrimExpr::Cmp(..)));
        let e = cmp::and(PrimExpr::BoolImm(false), cmp::lt(v.expr(), int(2)));
        assert_eq!(simplify_expr(&e), PrimExpr::BoolImm(false));
    }

    #[test]
    fn single_iteration_loop_inlined() {
        let i = Var::index("i");
        let b = Buffer::new("b", [4usize], tvm_te::DType::F64);
        let s = Stmt::For {
            var: i.clone(),
            min: 2,
            extent: 1,
            kind: ForKind::Serial,
            body: Box::new(Stmt::BufferStore {
                buffer: b,
                indices: vec![i.expr()],
                value: i.expr() + 1,
            }),
        };
        match simplify_stmt(&s) {
            Stmt::BufferStore { indices, value, .. } => {
                assert_eq!(indices[0].as_int(), Some(2));
                assert_eq!(value.as_int(), Some(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_loop_removed() {
        let i = Var::index("i");
        let s = Stmt::For {
            var: i,
            min: 0,
            extent: 0,
            kind: ForKind::Serial,
            body: Box::new(Stmt::Nop),
        };
        assert!(matches!(simplify_stmt(&s), Stmt::Nop));
    }

    #[test]
    fn constant_if_pruned() {
        let b = Buffer::new("b", [1usize], DType::F64);
        let s = Stmt::IfThenElse {
            cond: cmp::lt(int(3), int(2)),
            then: Box::new(Stmt::BufferStore {
                buffer: b,
                indices: vec![int(0)],
                value: PrimExpr::FloatImm(1.0, DType::F64),
            }),
            else_: None,
        };
        assert!(matches!(simplify_stmt(&s), Stmt::Nop));
    }

    #[test]
    fn float_zero_mul_not_folded() {
        // 0.0 * x must NOT fold to 0.0 (x could be inf/NaN)
        let v = Var::new("x", tvm_te::DType::F64);
        let e = PrimExpr::binary(BinOp::Mul, PrimExpr::FloatImm(0.0, DType::F64), v.expr());
        assert!(matches!(simplify_expr(&e), PrimExpr::Binary(..)));
    }
}
