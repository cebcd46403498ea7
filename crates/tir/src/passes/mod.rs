//! TIR optimization and verification passes.
//!
//! The default [`crate::lower()`] pipeline runs, in order:
//! [`simplify`] → [`unroll`] → [`simplify`] → [`vectorize`] → [`verify`].
//!
//! The post-lowering optimization pipeline ([`pipeline::optimize`],
//! run by the bytecode engine before compilation) additionally applies
//! [`strength`] reduction and guard-unswitching [`licm`], re-verifying
//! after every pass.

pub mod affine;
pub mod licm;
pub mod pipeline;
pub mod simplify;
pub mod strength;
pub mod unroll;
pub mod vectorize;
pub mod verify;

use crate::stmt::Stmt;
use std::collections::HashMap;
use tvm_te::visitor::substitute;
use tvm_te::PrimExpr;

/// Substitute variables (by id) inside every expression of a statement
/// tree. Loop variables that are *redefined* by an inner `For` shadow the
/// substitution within that loop's body.
pub fn subst_stmt(stmt: &Stmt, map: &HashMap<u64, PrimExpr>) -> Stmt {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            if map.contains_key(&var.id) {
                // Shadowed: strip the binding within this loop.
                let mut inner = map.clone();
                inner.remove(&var.id);
                Stmt::For {
                    var: var.clone(),
                    min: *min,
                    extent: *extent,
                    kind: *kind,
                    body: Box::new(subst_stmt(body, &inner)),
                }
            } else {
                Stmt::For {
                    var: var.clone(),
                    min: *min,
                    extent: *extent,
                    kind: *kind,
                    body: Box::new(subst_stmt(body, map)),
                }
            }
        }
        Stmt::BufferStore {
            buffer,
            indices,
            value,
        } => Stmt::BufferStore {
            buffer: buffer.clone(),
            indices: indices.iter().map(|i| substitute(i, map)).collect(),
            value: substitute(value, map),
        },
        Stmt::IfThenElse { cond, then, else_ } => Stmt::IfThenElse {
            cond: substitute(cond, map),
            then: Box::new(subst_stmt(then, map)),
            else_: else_.as_ref().map(|e| Box::new(subst_stmt(e, map))),
        },
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|s| subst_stmt(s, map)).collect()),
        Stmt::Evaluate(e) => Stmt::Evaluate(substitute(e, map)),
        Stmt::Nop => Stmt::Nop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use tvm_te::ops::int;
    use tvm_te::{DType, Var};

    #[test]
    fn subst_respects_shadowing() {
        let i = Var::index("i");
        let b = Buffer::new("b", [8usize], DType::F64);
        let inner = Stmt::For {
            var: i.clone(),
            min: 0,
            extent: 8,
            kind: crate::stmt::ForKind::Serial,
            body: Box::new(Stmt::BufferStore {
                buffer: b.clone(),
                indices: vec![i.expr()],
                value: i.expr(),
            }),
        };
        let mut map = HashMap::new();
        map.insert(i.id, int(3));
        let out = subst_stmt(&inner, &map);
        // The loop redefines i, so the store must still reference the var.
        match out {
            Stmt::For { body, .. } => match *body {
                Stmt::BufferStore { value, .. } => {
                    assert!(matches!(value, PrimExpr::Var(_)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
