//! Loop unrolling: expand `ForKind::Unrolled` loops into statement
//! sequences.

use crate::passes::subst_stmt;
use crate::stmt::{ForKind, Stmt};
use std::collections::HashMap;
use tvm_te::PrimExpr;

/// Expand every `Unrolled` loop whose trip count is at most `max_unroll`.
/// Larger unroll-annotated loops are downgraded to `Serial` (mirrors TVM's
/// `auto_max_step` guard against code-size explosion).
pub fn unroll_loops(stmt: &Stmt, max_unroll: i64) -> Stmt {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            let body = unroll_loops(body, max_unroll);
            if *kind == ForKind::Unrolled {
                if *extent <= max_unroll {
                    let mut items = Vec::with_capacity(*extent as usize);
                    for it in 0..*extent {
                        let mut map = HashMap::new();
                        map.insert(var.id, PrimExpr::from(min + it));
                        items.push(subst_stmt(&body, &map));
                    }
                    return match items.len() {
                        0 => Stmt::Nop,
                        1 => items.pop().expect("len 1"),
                        _ => Stmt::Seq(items),
                    };
                }
                return Stmt::For {
                    var: var.clone(),
                    min: *min,
                    extent: *extent,
                    kind: ForKind::Serial,
                    body: Box::new(body),
                };
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
            then: Box::new(unroll_loops(then, max_unroll)),
            else_: else_
                .as_ref()
                .map(|e| Box::new(unroll_loops(e, max_unroll))),
        },
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|s| unroll_loops(s, max_unroll)).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use tvm_te::{DType, Var};

    fn unrolled_loop(extent: i64) -> Stmt {
        let i = Var::index("i");
        let b = Buffer::new("b", [64usize], DType::F64);
        Stmt::For {
            var: i.clone(),
            min: 0,
            extent,
            kind: ForKind::Unrolled,
            body: Box::new(Stmt::BufferStore {
                buffer: b,
                indices: vec![i.expr()],
                value: i.expr(),
            }),
        }
    }

    #[test]
    fn small_loop_expanded() {
        let out = unroll_loops(&unrolled_loop(4), 16);
        assert_eq!(out.store_count(), 4);
        assert_eq!(out.loop_depth(), 0);
        // Each store's index must be the iteration constant.
        let mut consts = Vec::new();
        out.walk(&mut |s| {
            if let Stmt::BufferStore { indices, .. } = s {
                consts.push(indices[0].as_int().expect("const index"));
            }
        });
        assert_eq!(consts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn large_loop_downgraded_to_serial() {
        let out = unroll_loops(&unrolled_loop(64), 16);
        match out {
            Stmt::For { kind, extent, .. } => {
                assert_eq!(kind, ForKind::Serial);
                assert_eq!(extent, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_unroll_both_expand() {
        let i = Var::index("i");
        let b = Buffer::new("b", [16usize], DType::F64);
        let inner = unrolled_loop(2);
        let outer = Stmt::For {
            var: i,
            min: 0,
            extent: 3,
            kind: ForKind::Unrolled,
            body: Box::new(inner),
        };
        let _ = b;
        let out = unroll_loops(&outer, 16);
        assert_eq!(out.store_count(), 6);
    }
}
