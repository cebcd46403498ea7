//! Vector-loop legalization.
//!
//! A `Vectorized` loop is only meaningful when it is innermost (no nested
//! loops) — otherwise it is downgraded to `Serial`, matching TVM's
//! requirement that `vectorize` applies to the innermost axis.

use crate::stmt::{ForKind, Stmt};

/// Downgrade illegal `Vectorized` loops (any that contain a nested loop)
/// to `Serial`. Legal vector loops are preserved for the interpreter /
/// cost model to exploit.
pub fn legalize_vector_loops(stmt: &Stmt) -> Stmt {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            let body = legalize_vector_loops(body);
            let kind = if *kind == ForKind::Vectorized && body.loop_depth() > 0 {
                ForKind::Serial
            } else {
                *kind
            };
            Stmt::For {
                var: var.clone(),
                min: *min,
                extent: *extent,
                kind,
                body: Box::new(body),
            }
        }
        Stmt::IfThenElse { cond, then, else_ } => Stmt::IfThenElse {
            cond: cond.clone(),
            then: Box::new(legalize_vector_loops(then)),
            else_: else_.as_ref().map(|e| Box::new(legalize_vector_loops(e))),
        },
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(legalize_vector_loops).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use tvm_te::{DType, Var};

    fn store() -> Stmt {
        let b = Buffer::new("b", [8usize], DType::F64);
        Stmt::BufferStore {
            buffer: b,
            indices: vec![tvm_te::ops::int(0)],
            value: tvm_te::ops::int(1),
        }
    }

    #[test]
    fn innermost_vector_loop_kept() {
        let s = Stmt::For {
            var: Var::index("i"),
            min: 0,
            extent: 8,
            kind: ForKind::Vectorized,
            body: Box::new(store()),
        };
        match legalize_vector_loops(&s) {
            Stmt::For { kind, .. } => assert_eq!(kind, ForKind::Vectorized),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn outer_vector_loop_downgraded() {
        let inner = Stmt::For {
            var: Var::index("j"),
            min: 0,
            extent: 4,
            kind: ForKind::Serial,
            body: Box::new(store()),
        };
        let s = Stmt::For {
            var: Var::index("i"),
            min: 0,
            extent: 8,
            kind: ForKind::Vectorized,
            body: Box::new(inner),
        };
        match legalize_vector_loops(&s) {
            Stmt::For { kind, .. } => assert_eq!(kind, ForKind::Serial),
            other => panic!("unexpected {other:?}"),
        }
    }
}
