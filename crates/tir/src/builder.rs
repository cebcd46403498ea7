//! Imperative TIR construction.
//!
//! Kernels with loop-carried dependences (PolyBench LU, Cholesky) cannot be
//! written as pure tensor expressions, so their code molds build loop nests
//! directly. The [`FuncBuilder`] registers parameter tensors (reads go
//! through `TensorRead` exactly like lowered TE code, so the interpreter
//! and cost model treat both paths identically) and finalizes into a
//! verified [`PrimFunc`].

use crate::buffer::Buffer;
use crate::stmt::{ForKind, PrimFunc, Stmt};
use std::sync::Arc;
use tvm_te::{PrimExpr, Tensor, Var};

/// Builder for hand-constructed TIR functions.
pub struct FuncBuilder {
    name: String,
    params: Vec<Arc<Buffer>>,
}

impl FuncBuilder {
    /// Start building a function.
    pub fn new(name: impl Into<String>) -> FuncBuilder {
        FuncBuilder {
            name: name.into(),
            params: Vec::new(),
        }
    }

    /// Register a parameter tensor; returns its backing buffer for use in
    /// [`store`]. Parameters appear in registration order.
    pub fn param(&mut self, t: &Tensor) -> Arc<Buffer> {
        let b = Buffer::from_tensor(t);
        self.params.push(b.clone());
        b
    }

    /// Finalize: simplify and verify the body.
    ///
    /// # Panics
    /// If verification fails (scoping/rank/buffer errors).
    pub fn build(self, body: Stmt) -> PrimFunc {
        let body = crate::passes::simplify::simplify_stmt(&body);
        let body = crate::passes::vectorize::legalize_vector_loops(&body);
        let func = PrimFunc {
            name: self.name,
            params: self.params,
            allocs: Vec::new(),
            body,
        };
        crate::passes::verify::verify(&func).expect("built function failed verification");
        func
    }
}

/// A `for` loop with the given kind; the closure receives the loop
/// variable as an expression.
pub fn for_kind(
    name: impl Into<String>,
    extent: i64,
    kind: ForKind,
    f: impl FnOnce(PrimExpr) -> Stmt,
) -> Stmt {
    let var = Var::index(name);
    let body = f(var.expr());
    Stmt::For {
        var,
        min: 0,
        extent,
        kind,
        body: Box::new(body),
    }
}

/// Serial loop `for name in 0..extent`.
pub fn ser(name: impl Into<String>, extent: i64, f: impl FnOnce(PrimExpr) -> Stmt) -> Stmt {
    for_kind(name, extent, ForKind::Serial, f)
}

/// Parallel loop.
pub fn par(name: impl Into<String>, extent: i64, f: impl FnOnce(PrimExpr) -> Stmt) -> Stmt {
    for_kind(name, extent, ForKind::Parallel, f)
}

/// Two nested serial loops; the closure receives `(outer, inner)`.
pub fn ser2(
    n0: impl Into<String>,
    e0: i64,
    n1: impl Into<String>,
    e1: i64,
    f: impl FnOnce(PrimExpr, PrimExpr) -> Stmt,
) -> Stmt {
    let n1 = n1.into();
    ser(n0, e0, move |a| ser(n1, e1, move |b| f(a, b)))
}

/// Store `value` into `buffer[indices]`.
pub fn store(buffer: &Arc<Buffer>, indices: &[PrimExpr], value: PrimExpr) -> Stmt {
    Stmt::BufferStore {
        buffer: buffer.clone(),
        indices: indices.to_vec(),
        value,
    }
}

/// `if cond { then }`.
pub fn when(cond: PrimExpr, then: Stmt) -> Stmt {
    Stmt::IfThenElse {
        cond,
        then: Box::new(then),
        else_: None,
    }
}

/// `if cond { then } else { other }`.
pub fn if_else(cond: PrimExpr, then: Stmt, other: Stmt) -> Stmt {
    Stmt::IfThenElse {
        cond,
        then: Box::new(then),
        else_: Some(Box::new(other)),
    }
}

/// Sequence a list of statements.
pub fn seq(items: impl IntoIterator<Item = Stmt>) -> Stmt {
    items.into_iter().fold(Stmt::Nop, |acc, s| acc.then(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::ops::cmp;
    use tvm_te::{placeholder, DType};

    #[test]
    fn builds_verified_inplace_kernel() {
        // A[i][j] += 1 for j < i  (in-place, guarded)
        let n = 8usize;
        let a = placeholder([n, n], DType::F64, "A");
        let mut fb = FuncBuilder::new("tri_inc");
        let ab = fb.param(&a);
        let body = ser2("i", n as i64, "j", n as i64, |i, j| {
            when(
                cmp::lt(j.clone(), i.clone()),
                store(
                    &ab,
                    &[i.clone(), j.clone()],
                    a.at(&[i, j]) + PrimExpr::FloatImm(1.0, DType::F64),
                ),
            )
        });
        let f = fb.build(body);
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.body.loop_depth(), 2);
        assert_eq!(f.body.store_count(), 1);
    }

    #[test]
    fn seq_drops_nops() {
        let s = seq([Stmt::Nop, Stmt::Nop]);
        assert!(matches!(s, Stmt::Nop));
    }

    #[test]
    #[should_panic(expected = "failed verification")]
    fn build_rejects_unscoped_vars() {
        let n = 4usize;
        let a = placeholder([n], DType::F64, "A");
        let mut fb = FuncBuilder::new("bad");
        let ab = fb.param(&a);
        let ghost = Var::index("ghost");
        let body = store(&ab, &[ghost.expr()], PrimExpr::FloatImm(0.0, DType::F64));
        let _ = fb.build(body);
    }
}
