//! The scalar expression AST (`PrimExpr`).

use crate::dtype::DType;
use crate::reduce::Combiner;
use crate::tensor::Tensor;
use crate::var::{IterVar, Var};
use std::sync::Arc;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b` (float division or truncated integer division)
    Div,
    /// Floor division on integers (`floordiv`)
    FloorDiv,
    /// Floor modulo on integers (`floormod`)
    FloorMod,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
}

/// Comparison operators (result type `Bool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
}

/// Pure math intrinsics callable from compute bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `sqrt(x)`
    Sqrt,
    /// `exp(x)`
    Exp,
    /// `log(x)` (natural)
    Log,
    /// `|x|`
    Abs,
    /// `sin(x)`
    Sin,
    /// `cos(x)`
    Cos,
    /// `x^y`
    Pow,
}

impl Intrinsic {
    /// Number of arguments the intrinsic takes.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Pow => 2,
            _ => 1,
        }
    }

    /// Name as it appears in printed IR.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Abs => "abs",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Pow => "pow",
        }
    }
}

/// A scalar expression tree.
///
/// Children are held behind [`Arc`], so cloning an expression is O(1) and the
/// lowering passes can freely share subtrees.
#[derive(Debug, Clone, PartialEq)]
pub enum PrimExpr {
    /// Integer literal of the given type.
    IntImm(i64, DType),
    /// Floating-point literal of the given type.
    FloatImm(f64, DType),
    /// Boolean literal.
    BoolImm(bool),
    /// Reference to a scalar variable.
    Var(Var),
    /// Binary arithmetic.
    Binary(BinOp, Arc<PrimExpr>, Arc<PrimExpr>),
    /// Comparison (yields `Bool`).
    Cmp(CmpOp, Arc<PrimExpr>, Arc<PrimExpr>),
    /// Logical and.
    And(Arc<PrimExpr>, Arc<PrimExpr>),
    /// Logical or.
    Or(Arc<PrimExpr>, Arc<PrimExpr>),
    /// Logical not.
    Not(Arc<PrimExpr>),
    /// `if cond { then } else { other }` as a value.
    Select(Arc<PrimExpr>, Arc<PrimExpr>, Arc<PrimExpr>),
    /// Type conversion.
    Cast(DType, Arc<PrimExpr>),
    /// Math intrinsic call.
    Call(Intrinsic, Vec<PrimExpr>),
    /// Element read from a producer tensor: `T[i0, i1, ...]`.
    TensorRead(Tensor, Vec<PrimExpr>),
    /// Commutative reduction of `source` over `axes`
    /// (`te.sum`, `te.max`, ...). Only valid as the root of a compute body.
    Reduce {
        /// Combining function and its identity element.
        combiner: Combiner,
        /// Expression reduced at each point of the reduction domain.
        source: Arc<PrimExpr>,
        /// Reduction axes.
        axes: Vec<IterVar>,
    },
}

impl PrimExpr {
    /// Static result type of the expression.
    pub fn dtype(&self) -> DType {
        match self {
            PrimExpr::IntImm(_, t) | PrimExpr::FloatImm(_, t) => *t,
            PrimExpr::BoolImm(_) => DType::Bool,
            PrimExpr::Var(v) => v.dtype,
            PrimExpr::Binary(_, a, b) => a.dtype().unify(b.dtype()),
            PrimExpr::Cmp(..) | PrimExpr::And(..) | PrimExpr::Or(..) | PrimExpr::Not(_) => {
                DType::Bool
            }
            PrimExpr::Select(_, t, f) => t.dtype().unify(f.dtype()),
            PrimExpr::Cast(t, _) => *t,
            PrimExpr::Call(_, args) => args.first().map(|a| a.dtype()).unwrap_or(DType::F64),
            PrimExpr::TensorRead(t, _) => t.dtype(),
            PrimExpr::Reduce { source, .. } => source.dtype(),
        }
    }

    /// True when the expression is a literal constant.
    pub fn is_const(&self) -> bool {
        matches!(
            self,
            PrimExpr::IntImm(..) | PrimExpr::FloatImm(..) | PrimExpr::BoolImm(_)
        )
    }

    /// Integer value if this is an integer literal.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            PrimExpr::IntImm(v, _) => Some(*v),
            PrimExpr::BoolImm(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Float value if this is a float literal.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            PrimExpr::FloatImm(v, _) => Some(*v),
            _ => None,
        }
    }

    /// True if this expression contains a [`PrimExpr::Reduce`] node.
    pub fn contains_reduce(&self) -> bool {
        let mut found = false;
        crate::visitor::walk(self, &mut |e| {
            if matches!(e, PrimExpr::Reduce { .. }) {
                found = true;
            }
        });
        found
    }

    /// Binary-op helper used by the `ops` module and lowering.
    pub fn binary(op: BinOp, a: PrimExpr, b: PrimExpr) -> PrimExpr {
        PrimExpr::Binary(op, Arc::new(a), Arc::new(b))
    }

    /// Comparison helper.
    pub fn cmp(op: CmpOp, a: PrimExpr, b: PrimExpr) -> PrimExpr {
        PrimExpr::Cmp(op, Arc::new(a), Arc::new(b))
    }
}

impl From<i64> for PrimExpr {
    fn from(v: i64) -> Self {
        PrimExpr::IntImm(v, DType::I64)
    }
}

impl From<i32> for PrimExpr {
    fn from(v: i32) -> Self {
        PrimExpr::IntImm(v as i64, DType::I32)
    }
}

impl From<f64> for PrimExpr {
    fn from(v: f64) -> Self {
        PrimExpr::FloatImm(v, DType::F64)
    }
}

impl From<bool> for PrimExpr {
    fn from(v: bool) -> Self {
        PrimExpr::BoolImm(v)
    }
}

impl From<&Var> for PrimExpr {
    fn from(v: &Var) -> Self {
        PrimExpr::Var(v.clone())
    }
}

impl From<&IterVar> for PrimExpr {
    fn from(v: &IterVar) -> Self {
        PrimExpr::Var(v.var.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::int;

    #[test]
    fn dtype_inference() {
        let e = PrimExpr::binary(BinOp::Add, int(1), PrimExpr::from(2.0f64));
        assert_eq!(e.dtype(), DType::F64);
        let c = PrimExpr::cmp(CmpOp::Lt, int(1), int(2));
        assert_eq!(c.dtype(), DType::Bool);
    }

    #[test]
    fn const_detection() {
        assert!(int(3).is_const());
        assert_eq!(int(3).as_int(), Some(3));
        let v = Var::index("i");
        assert!(!v.expr().is_const());
        assert_eq!(v.expr().as_int(), None);
    }

    #[test]
    fn from_impls() {
        assert_eq!(PrimExpr::from(true).dtype(), DType::Bool);
        assert_eq!(PrimExpr::from(1i32).dtype(), DType::I32);
        assert_eq!(PrimExpr::from(1f64).dtype(), DType::F64);
    }

    #[test]
    fn intrinsic_arity() {
        assert_eq!(Intrinsic::Sqrt.arity(), 1);
        assert_eq!(Intrinsic::Pow.arity(), 2);
        assert_eq!(Intrinsic::Sqrt.name(), "sqrt");
    }
}
