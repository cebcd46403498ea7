//! TIR statements and functions.

use crate::buffer::Buffer;
use std::sync::Arc;
use tvm_te::{PrimExpr, Var};

/// Execution strategy of a `for` loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForKind {
    /// Ordinary sequential loop.
    Serial,
    /// Iterations may run on separate CPU threads.
    Parallel,
    /// Innermost loop executed as SIMD lanes.
    Vectorized,
    /// Fully unrolled at compile time (by the unroll pass).
    Unrolled,
}

impl ForKind {
    /// Printed keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            ForKind::Serial => "for",
            ForKind::Parallel => "parallel",
            ForKind::Vectorized => "vectorized",
            ForKind::Unrolled => "unrolled",
        }
    }
}

/// A TIR statement.
///
/// Extents are compile-time constants: PolyBench kernels have static
/// control flow, and TVM's lowered TIR for these kernels is likewise
/// static after bind/split substitution.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `for var in [min, min+extent) { body }`
    For {
        /// Loop variable (type `I64`).
        var: Var,
        /// Lower bound.
        min: i64,
        /// Trip count.
        extent: i64,
        /// Execution strategy.
        kind: ForKind,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `buffer[indices...] = value`
    BufferStore {
        /// Destination buffer.
        buffer: Arc<Buffer>,
        /// One index expression per buffer dimension.
        indices: Vec<PrimExpr>,
        /// Stored value.
        value: PrimExpr,
    },
    /// `if cond { then } else { else_ }`
    IfThenElse {
        /// Predicate.
        cond: PrimExpr,
        /// Taken branch.
        then: Box<Stmt>,
        /// Fallthrough branch.
        else_: Option<Box<Stmt>>,
    },
    /// Statement sequence.
    Seq(Vec<Stmt>),
    /// No-op.
    Nop,
}

impl Stmt {
    /// Sequence two statements, flattening nested `Seq`s and dropping
    /// `Nop`s.
    pub fn then(self, next: Stmt) -> Stmt {
        match (self, next) {
            (Stmt::Nop, s) | (s, Stmt::Nop) => s,
            (Stmt::Seq(mut a), Stmt::Seq(b)) => {
                a.extend(b);
                Stmt::Seq(a)
            }
            (Stmt::Seq(mut a), s) => {
                a.push(s);
                Stmt::Seq(a)
            }
            (s, Stmt::Seq(mut b)) => {
                b.insert(0, s);
                Stmt::Seq(b)
            }
            (a, b) => Stmt::Seq(vec![a, b]),
        }
    }

    /// Pre-order walk over all nested statements.
    pub fn walk(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        match self {
            Stmt::For { body, .. } => body.walk(f),
            Stmt::IfThenElse { then, else_, .. } => {
                then.walk(f);
                if let Some(e) = else_ {
                    e.walk(f);
                }
            }
            Stmt::Seq(items) => {
                for s in items {
                    s.walk(f);
                }
            }
            Stmt::BufferStore { .. } | Stmt::Nop => {}
        }
    }

    /// Number of `BufferStore` statements in the tree.
    pub fn store_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |s| {
            if matches!(s, Stmt::BufferStore { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Maximum `For` nesting depth.
    pub fn loop_depth(&self) -> usize {
        match self {
            Stmt::For { body, .. } => 1 + body.loop_depth(),
            Stmt::IfThenElse { then, else_, .. } => then
                .loop_depth()
                .max(else_.as_ref().map(|e| e.loop_depth()).unwrap_or(0)),
            Stmt::Seq(items) => items.iter().map(|s| s.loop_depth()).max().unwrap_or(0),
            _ => 0,
        }
    }
}

/// A lowered function: named loop-nest body over parameter buffers.
#[derive(Debug, Clone)]
pub struct PrimFunc {
    /// Function name.
    pub name: String,
    /// Parameter buffers: inputs first, then outputs (calling convention of
    /// `tvm_runtime::Module::run`).
    pub params: Vec<Arc<Buffer>>,
    /// Buffers allocated internally (intermediate stages).
    pub allocs: Vec<Arc<Buffer>>,
    /// Function body.
    pub body: Stmt,
}

impl PrimFunc {
    /// All buffers the function touches: params then allocs.
    pub fn all_buffers(&self) -> Vec<Arc<Buffer>> {
        let mut v = self.params.clone();
        v.extend(self.allocs.iter().cloned());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::ops::int;
    use tvm_te::DType;

    fn store(name: &str) -> Stmt {
        let b = Buffer::new(name, [1usize], DType::F64);
        Stmt::BufferStore {
            buffer: b,
            indices: vec![int(0)],
            value: int(1),
        }
    }

    #[test]
    fn then_flattens() {
        let s = store("a").then(store("b")).then(Stmt::Nop).then(store("c"));
        match &s {
            Stmt::Seq(items) => assert_eq!(items.len(), 3),
            other => panic!("expected Seq, got {other:?}"),
        }
        assert_eq!(s.store_count(), 3);
    }

    #[test]
    fn loop_depth_counts_nesting() {
        let inner = Stmt::For {
            var: Var::index("j"),
            min: 0,
            extent: 4,
            kind: ForKind::Serial,
            body: Box::new(store("x")),
        };
        let outer = Stmt::For {
            var: Var::index("i"),
            min: 0,
            extent: 4,
            kind: ForKind::Parallel,
            body: Box::new(inner),
        };
        assert_eq!(outer.loop_depth(), 2);
        assert_eq!(outer.store_count(), 1);
    }

    #[test]
    fn forkind_keywords() {
        assert_eq!(ForKind::Serial.keyword(), "for");
        assert_eq!(ForKind::Parallel.keyword(), "parallel");
        assert_eq!(ForKind::Vectorized.keyword(), "vectorized");
    }
}
