//! Operator overloads and expression builder functions.

use crate::dtype::DType;
use crate::expr::{BinOp, CmpOp, PrimExpr};
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::Arc;

/// `I64` integer literal.
pub fn int(v: i64) -> PrimExpr {
    PrimExpr::IntImm(v, DType::I64)
}

/// `F64` float literal.
pub fn float(v: f64) -> PrimExpr {
    PrimExpr::FloatImm(v, DType::F64)
}

/// Floor division (integer).
pub fn floordiv(a: impl Into<PrimExpr>, b: impl Into<PrimExpr>) -> PrimExpr {
    PrimExpr::binary(BinOp::FloorDiv, a.into(), b.into())
}

/// Floor modulo (integer).
pub fn floormod(a: impl Into<PrimExpr>, b: impl Into<PrimExpr>) -> PrimExpr {
    PrimExpr::binary(BinOp::FloorMod, a.into(), b.into())
}

/// Elementwise minimum.
pub fn min_expr(a: impl Into<PrimExpr>, b: impl Into<PrimExpr>) -> PrimExpr {
    PrimExpr::binary(BinOp::Min, a.into(), b.into())
}

/// Elementwise maximum.
pub fn max_expr(a: impl Into<PrimExpr>, b: impl Into<PrimExpr>) -> PrimExpr {
    PrimExpr::binary(BinOp::Max, a.into(), b.into())
}

/// `sqrt(x)`.
pub fn sqrt(x: impl Into<PrimExpr>) -> PrimExpr {
    PrimExpr::Sqrt(Arc::new(x.into()))
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl $trait for PrimExpr {
            type Output = PrimExpr;
            fn $method(self, rhs: PrimExpr) -> PrimExpr {
                PrimExpr::binary($op, self, rhs)
            }
        }
        impl $trait<&PrimExpr> for PrimExpr {
            type Output = PrimExpr;
            fn $method(self, rhs: &PrimExpr) -> PrimExpr {
                PrimExpr::binary($op, self, rhs.clone())
            }
        }
        impl $trait<PrimExpr> for &PrimExpr {
            type Output = PrimExpr;
            fn $method(self, rhs: PrimExpr) -> PrimExpr {
                PrimExpr::binary($op, self.clone(), rhs)
            }
        }
        impl $trait<&PrimExpr> for &PrimExpr {
            type Output = PrimExpr;
            fn $method(self, rhs: &PrimExpr) -> PrimExpr {
                PrimExpr::binary($op, self.clone(), rhs.clone())
            }
        }
        impl $trait<i64> for PrimExpr {
            type Output = PrimExpr;
            fn $method(self, rhs: i64) -> PrimExpr {
                PrimExpr::binary($op, self, int(rhs))
            }
        }
        impl $trait<PrimExpr> for i64 {
            type Output = PrimExpr;
            fn $method(self, rhs: PrimExpr) -> PrimExpr {
                PrimExpr::binary($op, int(self), rhs)
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);

impl Neg for PrimExpr {
    type Output = PrimExpr;
    fn neg(self) -> PrimExpr {
        match self.dtype() {
            t if t.is_float() => PrimExpr::binary(BinOp::Sub, PrimExpr::FloatImm(0.0, t), self),
            t => PrimExpr::binary(BinOp::Sub, PrimExpr::IntImm(0, t), self),
        }
    }
}

/// Comparison builders (`lt`, `le`, ...) as free functions — Rust's
/// comparison operators cannot return `PrimExpr`.
pub mod cmp {
    use super::*;

    /// `a < b`
    pub fn lt(a: impl Into<PrimExpr>, b: impl Into<PrimExpr>) -> PrimExpr {
        PrimExpr::cmp(CmpOp::Lt, a.into(), b.into())
    }
    /// `a <= b`
    pub fn le(a: impl Into<PrimExpr>, b: impl Into<PrimExpr>) -> PrimExpr {
        PrimExpr::cmp(CmpOp::Le, a.into(), b.into())
    }
    /// `a > b`
    pub fn gt(a: impl Into<PrimExpr>, b: impl Into<PrimExpr>) -> PrimExpr {
        PrimExpr::cmp(CmpOp::Gt, a.into(), b.into())
    }
    /// `a >= b`
    pub fn ge(a: impl Into<PrimExpr>, b: impl Into<PrimExpr>) -> PrimExpr {
        PrimExpr::cmp(CmpOp::Ge, a.into(), b.into())
    }
    /// `a == b`
    pub fn eq(a: impl Into<PrimExpr>, b: impl Into<PrimExpr>) -> PrimExpr {
        PrimExpr::cmp(CmpOp::Eq, a.into(), b.into())
    }
    /// `a != b`
    pub fn ne(a: impl Into<PrimExpr>, b: impl Into<PrimExpr>) -> PrimExpr {
        PrimExpr::cmp(CmpOp::Ne, a.into(), b.into())
    }
    /// `a && b`
    pub fn and(a: impl Into<PrimExpr>, b: impl Into<PrimExpr>) -> PrimExpr {
        PrimExpr::And(Arc::new(a.into()), Arc::new(b.into()))
    }
    /// `a || b`
    pub fn or(a: impl Into<PrimExpr>, b: impl Into<PrimExpr>) -> PrimExpr {
        PrimExpr::Or(Arc::new(a.into()), Arc::new(b.into()))
    }
    /// `!a`
    pub fn not(a: impl Into<PrimExpr>) -> PrimExpr {
        PrimExpr::Not(Arc::new(a.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Var;

    #[test]
    fn overloads_build_trees() {
        let i = Var::index("i");
        let e = i.expr() * 8 + 3;
        match &e {
            PrimExpr::Binary(BinOp::Add, l, r) => {
                assert!(matches!(**l, PrimExpr::Binary(BinOp::Mul, ..)));
                assert_eq!(r.as_int(), Some(3));
            }
            other => panic!("unexpected tree: {other:?}"),
        }
    }

    #[test]
    fn neg_float_and_int() {
        let e = -float(2.0);
        assert!(matches!(e, PrimExpr::Binary(BinOp::Sub, ..)));
        assert!(e.dtype().is_float());
        let e = -int(2);
        assert!(e.dtype().is_int());
    }

    #[test]
    fn ref_overloads() {
        let a = int(1);
        let b = int(2);
        let s = &a + &b;
        assert!(matches!(s, PrimExpr::Binary(BinOp::Add, ..)));
        let s2 = a.clone() + &b;
        let s3 = &a + b.clone();
        assert_eq!(s, s2);
        assert_eq!(s, s3);
    }

    #[test]
    fn cmp_builders() {
        let e = cmp::and(cmp::lt(int(1), int(2)), cmp::ge(int(3), int(3)));
        assert_eq!(e.dtype(), DType::Bool);
    }
}
