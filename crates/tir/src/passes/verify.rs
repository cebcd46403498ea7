//! Structural verification of lowered functions.

use crate::stmt::{PrimFunc, Stmt};
use std::collections::HashSet;
use std::fmt;
use tvm_te::visitor::walk;
use tvm_te::PrimExpr;

/// A structural defect found by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An expression references a variable not defined by any enclosing
    /// loop.
    UndefinedVar(String),
    /// A store/read uses the wrong number of indices.
    RankMismatch {
        /// Buffer or tensor name.
        name: String,
        /// Declared rank.
        expected: usize,
        /// Indices supplied.
        got: usize,
    },
    /// A store targets a buffer that is neither a parameter nor an
    /// allocation of the function.
    UnknownBuffer(String),
    /// A tensor read has no backing buffer in the function.
    UnknownTensor(String),
    /// A reduction node survived lowering (must not appear in TIR).
    ResidualReduce,
    /// A loop re-binds a variable already bound by an enclosing loop —
    /// the inner binding would silently shadow the outer one in every
    /// index expression of its body.
    ShadowedVar(String),
    /// A loop declares a zero or negative extent; lowering must emit
    /// such loops as `Nop` (or guard them), never as a `For`.
    NonPositiveExtent {
        /// Loop variable name.
        var: String,
        /// The offending extent.
        extent: i64,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UndefinedVar(n) => write!(f, "undefined variable `{n}`"),
            VerifyError::RankMismatch {
                name,
                expected,
                got,
            } => write!(
                f,
                "rank mismatch on `{name}`: expected {expected}, got {got}"
            ),
            VerifyError::UnknownBuffer(n) => write!(f, "store to unknown buffer `{n}`"),
            VerifyError::UnknownTensor(n) => write!(f, "read of unknown tensor `{n}`"),
            VerifyError::ResidualReduce => write!(f, "Reduce node survived lowering"),
            VerifyError::ShadowedVar(n) => {
                write!(f, "loop variable `{n}` shadows an enclosing binding")
            }
            VerifyError::NonPositiveExtent { var, extent } => {
                write!(f, "loop over `{var}` has non-positive extent {extent}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

fn check_expr(
    e: &PrimExpr,
    defined: &HashSet<u64>,
    known_ops: &HashSet<u64>,
) -> Result<(), VerifyError> {
    let mut err = None;
    walk(e, &mut |node| {
        if err.is_some() {
            return;
        }
        match node {
            PrimExpr::Var(v) if !defined.contains(&v.id) => {
                err = Some(VerifyError::UndefinedVar(v.name.clone()));
            }
            PrimExpr::TensorRead(t, idx) => {
                if idx.len() != t.ndim() {
                    err = Some(VerifyError::RankMismatch {
                        name: t.name().to_string(),
                        expected: t.ndim(),
                        got: idx.len(),
                    });
                } else if !known_ops.contains(&t.op.id) {
                    err = Some(VerifyError::UnknownTensor(t.name().to_string()));
                }
            }
            PrimExpr::Reduce { .. } => err = Some(VerifyError::ResidualReduce),
            _ => {}
        }
    });
    err.map_or(Ok(()), Err)
}

fn check_stmt(
    s: &Stmt,
    defined: &mut HashSet<u64>,
    known_bufs: &HashSet<u64>,
    known_ops: &HashSet<u64>,
) -> Result<(), VerifyError> {
    match s {
        Stmt::For {
            var, extent, body, ..
        } => {
            if *extent <= 0 {
                return Err(VerifyError::NonPositiveExtent {
                    var: var.name.clone(),
                    extent: *extent,
                });
            }
            if !defined.insert(var.id) {
                return Err(VerifyError::ShadowedVar(var.name.clone()));
            }
            let r = check_stmt(body, defined, known_bufs, known_ops);
            defined.remove(&var.id);
            r
        }
        Stmt::BufferStore {
            buffer,
            indices,
            value,
        } => {
            if !known_bufs.contains(&buffer.id) {
                return Err(VerifyError::UnknownBuffer(buffer.name.clone()));
            }
            if indices.len() != buffer.shape.len() {
                return Err(VerifyError::RankMismatch {
                    name: buffer.name.clone(),
                    expected: buffer.shape.len(),
                    got: indices.len(),
                });
            }
            for i in indices {
                check_expr(i, defined, known_ops)?;
            }
            check_expr(value, defined, known_ops)
        }
        Stmt::IfThenElse { cond, then, else_ } => {
            check_expr(cond, defined, known_ops)?;
            check_stmt(then, defined, known_bufs, known_ops)?;
            if let Some(e) = else_ {
                check_stmt(e, defined, known_bufs, known_ops)?;
            }
            Ok(())
        }
        Stmt::Seq(items) => {
            for i in items {
                check_stmt(i, defined, known_bufs, known_ops)?;
            }
            Ok(())
        }
        Stmt::Evaluate(e) => check_expr(e, defined, known_ops),
        Stmt::Nop => Ok(()),
    }
}

/// Verify a lowered function: variable scoping (including shadowing),
/// loop extents, index ranks, buffer bindings, and absence of residual
/// `Reduce` nodes.
pub fn verify(func: &PrimFunc) -> Result<(), VerifyError> {
    let known_bufs: HashSet<u64> = func.all_buffers().iter().map(|b| b.id).collect();
    let known_ops: HashSet<u64> = func
        .all_buffers()
        .iter()
        .map(|b| b.source_op)
        .filter(|&id| id != 0)
        .collect();
    let mut defined = HashSet::new();
    check_stmt(&func.body, &mut defined, &known_bufs, &known_ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::stmt::ForKind;
    use tvm_te::ops::int;
    use tvm_te::{DType, Var};

    fn func_with_body(body: Stmt, bufs: Vec<std::sync::Arc<Buffer>>) -> PrimFunc {
        PrimFunc {
            name: "t".into(),
            params: bufs,
            allocs: vec![],
            body,
        }
    }

    #[test]
    fn detects_undefined_var() {
        let b = Buffer::new("b", [4usize], DType::F64);
        let free = Var::index("ghost");
        let f = func_with_body(
            Stmt::BufferStore {
                buffer: b.clone(),
                indices: vec![int(0)],
                value: free.expr(),
            },
            vec![b],
        );
        assert!(matches!(verify(&f), Err(VerifyError::UndefinedVar(_))));
    }

    #[test]
    fn detects_rank_mismatch() {
        let b = Buffer::new("b", [4usize, 4], DType::F64);
        let f = func_with_body(
            Stmt::BufferStore {
                buffer: b.clone(),
                indices: vec![int(0)],
                value: int(1),
            },
            vec![b],
        );
        assert!(matches!(verify(&f), Err(VerifyError::RankMismatch { .. })));
    }

    #[test]
    fn detects_unknown_buffer() {
        let known = Buffer::new("k", [4usize], DType::F64);
        let unknown = Buffer::new("u", [4usize], DType::F64);
        let f = func_with_body(
            Stmt::BufferStore {
                buffer: unknown,
                indices: vec![int(0)],
                value: int(1),
            },
            vec![known],
        );
        assert!(matches!(verify(&f), Err(VerifyError::UnknownBuffer(_))));
    }

    #[test]
    fn accepts_wellformed_loop() {
        let b = Buffer::new("b", [4usize], DType::F64);
        let i = Var::index("i");
        let f = func_with_body(
            Stmt::For {
                var: i.clone(),
                min: 0,
                extent: 4,
                kind: ForKind::Serial,
                body: Box::new(Stmt::BufferStore {
                    buffer: b.clone(),
                    indices: vec![i.expr()],
                    value: i.expr() + 1,
                }),
            },
            vec![b],
        );
        assert!(verify(&f).is_ok());
    }

    #[test]
    fn detects_shadowed_loop_var() {
        let b = Buffer::new("b", [4usize], DType::F64);
        let i = Var::index("i");
        let inner = Stmt::For {
            var: i.clone(),
            min: 0,
            extent: 4,
            kind: ForKind::Serial,
            body: Box::new(Stmt::BufferStore {
                buffer: b.clone(),
                indices: vec![i.expr()],
                value: int(0),
            }),
        };
        let f = func_with_body(
            Stmt::For {
                var: i.clone(),
                min: 0,
                extent: 4,
                kind: ForKind::Serial,
                body: Box::new(inner),
            },
            vec![b],
        );
        match verify(&f) {
            Err(VerifyError::ShadowedVar(n)) => assert_eq!(n, "i"),
            other => panic!("expected ShadowedVar, got {other:?}"),
        }
    }

    #[test]
    fn distinct_vars_with_same_name_are_not_shadowing() {
        // Two `Var::index("i")` calls mint distinct ids: nesting them is
        // legal — shadowing is an *identity* collision, not a name one.
        let b = Buffer::new("b", [4usize, 4], DType::F64);
        let outer = Var::index("i");
        let inner = Var::index("i");
        let f = func_with_body(
            Stmt::For {
                var: outer.clone(),
                min: 0,
                extent: 4,
                kind: ForKind::Serial,
                body: Box::new(Stmt::For {
                    var: inner.clone(),
                    min: 0,
                    extent: 4,
                    kind: ForKind::Serial,
                    body: Box::new(Stmt::BufferStore {
                        buffer: b.clone(),
                        indices: vec![outer.expr(), inner.expr()],
                        value: int(0),
                    }),
                }),
            },
            vec![b],
        );
        assert!(verify(&f).is_ok());
    }

    #[test]
    fn detects_non_positive_extent() {
        let b = Buffer::new("b", [4usize], DType::F64);
        for bad in [0i64, -3] {
            let i = Var::index("i");
            let f = func_with_body(
                Stmt::For {
                    var: i.clone(),
                    min: 0,
                    extent: bad,
                    kind: ForKind::Serial,
                    body: Box::new(Stmt::Nop),
                },
                vec![b.clone()],
            );
            match verify(&f) {
                Err(VerifyError::NonPositiveExtent { var, extent }) => {
                    assert_eq!(var, "i");
                    assert_eq!(extent, bad);
                }
                other => panic!("extent {bad}: expected NonPositiveExtent, got {other:?}"),
            }
        }
    }

    #[test]
    fn loop_var_scope_ends_with_loop() {
        let b = Buffer::new("b", [4usize], DType::F64);
        let i = Var::index("i");
        let loop_then_use = Stmt::Seq(vec![
            Stmt::For {
                var: i.clone(),
                min: 0,
                extent: 4,
                kind: ForKind::Serial,
                body: Box::new(Stmt::Nop),
            },
            Stmt::BufferStore {
                buffer: b.clone(),
                indices: vec![i.expr()],
                value: int(0),
            },
        ]);
        let f = func_with_body(loop_then_use, vec![b]);
        assert!(matches!(verify(&f), Err(VerifyError::UndefinedVar(_))));
    }
}
