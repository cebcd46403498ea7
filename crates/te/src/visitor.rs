//! Expression traversal and rewriting utilities.

use crate::expr::PrimExpr;
use crate::var::Var;
use std::collections::HashMap;
use std::sync::Arc;

/// Pre-order visit of every node in `expr` (including `expr` itself).
pub fn walk(expr: &PrimExpr, f: &mut impl FnMut(&PrimExpr)) {
    f(expr);
    match expr {
        PrimExpr::IntImm(..) | PrimExpr::FloatImm(..) | PrimExpr::BoolImm(_) | PrimExpr::Var(_) => {
        }
        PrimExpr::Binary(_, a, b) | PrimExpr::Cmp(_, a, b) => {
            walk(a, f);
            walk(b, f);
        }
        PrimExpr::And(a, b) | PrimExpr::Or(a, b) => {
            walk(a, f);
            walk(b, f);
        }
        PrimExpr::Not(a) | PrimExpr::Sqrt(a) => walk(a, f),
        PrimExpr::TensorRead(_, idx) => {
            for i in idx {
                walk(i, f);
            }
        }
        PrimExpr::Reduce { source, .. } => walk(source, f),
    }
}

/// Bottom-up rewrite: children are rewritten first, then `f` may replace
/// the rebuilt node (`None` keeps it).
pub fn rewrite(expr: &PrimExpr, f: &mut impl FnMut(&PrimExpr) -> Option<PrimExpr>) -> PrimExpr {
    let rebuilt = match expr {
        PrimExpr::IntImm(..) | PrimExpr::FloatImm(..) | PrimExpr::BoolImm(_) | PrimExpr::Var(_) => {
            expr.clone()
        }
        PrimExpr::Binary(op, a, b) => {
            PrimExpr::Binary(*op, Arc::new(rewrite(a, f)), Arc::new(rewrite(b, f)))
        }
        PrimExpr::Cmp(op, a, b) => {
            PrimExpr::Cmp(*op, Arc::new(rewrite(a, f)), Arc::new(rewrite(b, f)))
        }
        PrimExpr::And(a, b) => PrimExpr::And(Arc::new(rewrite(a, f)), Arc::new(rewrite(b, f))),
        PrimExpr::Or(a, b) => PrimExpr::Or(Arc::new(rewrite(a, f)), Arc::new(rewrite(b, f))),
        PrimExpr::Not(a) => PrimExpr::Not(Arc::new(rewrite(a, f))),
        PrimExpr::Sqrt(a) => PrimExpr::Sqrt(Arc::new(rewrite(a, f))),
        PrimExpr::TensorRead(t, idx) => {
            PrimExpr::TensorRead(t.clone(), idx.iter().map(|i| rewrite(i, f)).collect())
        }
        PrimExpr::Reduce { source, axes } => PrimExpr::Reduce {
            source: Arc::new(rewrite(source, f)),
            axes: axes.clone(),
        },
    };
    f(&rebuilt).unwrap_or(rebuilt)
}

/// Substitute variables by id using `map`.
pub fn substitute(expr: &PrimExpr, map: &HashMap<u64, PrimExpr>) -> PrimExpr {
    rewrite(expr, &mut |e| match e {
        PrimExpr::Var(v) => map.get(&v.id).cloned(),
        _ => None,
    })
}

/// Collect the distinct variables referenced by `expr`, in first-use order.
pub fn free_vars(expr: &PrimExpr) -> Vec<Var> {
    let mut out: Vec<Var> = Vec::new();
    walk(expr, &mut |e| {
        if let PrimExpr::Var(v) = e {
            if !out.iter().any(|o| o.id == v.id) {
                out.push(v.clone());
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::int;

    #[test]
    fn substitute_replaces_vars() {
        let v = Var::index("i");
        let e = v.expr() + 1;
        let mut map = HashMap::new();
        map.insert(v.id, int(41));
        let s = substitute(&e, &map);
        // After substitution every leaf is const; evaluate by pattern.
        match s {
            PrimExpr::Binary(_, a, b) => {
                assert_eq!(a.as_int(), Some(41));
                assert_eq!(b.as_int(), Some(1));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn free_vars_dedup_ordered() {
        let i = Var::index("i");
        let j = Var::index("j");
        let e = (i.expr() + j.expr()) * i.expr();
        let fv = free_vars(&e);
        assert_eq!(fv.len(), 2);
        assert_eq!(fv[0].id, i.id);
        assert_eq!(fv[1].id, j.id);
    }

    #[test]
    fn rewrite_bottom_up_folds() {
        // replace every IntImm with 0 — proves the rewriter reaches leaves
        let v = Var::index("i");
        let e = v.expr() + 7;
        let z = rewrite(&e, &mut |n| match n {
            PrimExpr::IntImm(x, t) if *x != 0 => Some(PrimExpr::IntImm(0, *t)),
            _ => None,
        });
        let mut found_seven = false;
        walk(&z, &mut |n| {
            if n.as_int() == Some(7) {
                found_seven = true;
            }
        });
        assert!(!found_seven);
    }
}
