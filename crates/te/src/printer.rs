//! Human-readable printing of expressions and operations.

use crate::expr::{BinOp, CmpOp, PrimExpr};
use crate::tensor::{Op, OpKind};
use std::fmt;

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::FloorDiv => "//",
            BinOp::FloorMod => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
        };
        f.write_str(s)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

impl fmt::Display for PrimExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrimExpr::IntImm(v, _) => write!(f, "{v}"),
            PrimExpr::FloatImm(v, _) => write!(f, "{v:?}"),
            PrimExpr::BoolImm(b) => write!(f, "{b}"),
            PrimExpr::Var(v) => write!(f, "{}", v.name),
            PrimExpr::Binary(op @ (BinOp::Min | BinOp::Max), a, b) => {
                write!(f, "{op}({a}, {b})")
            }
            PrimExpr::Binary(op, a, b) => write!(f, "({a} {op} {b})"),
            PrimExpr::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            PrimExpr::And(a, b) => write!(f, "({a} && {b})"),
            PrimExpr::Or(a, b) => write!(f, "({a} || {b})"),
            PrimExpr::Not(a) => write!(f, "!({a})"),
            PrimExpr::Sqrt(a) => write!(f, "sqrt({a})"),
            PrimExpr::TensorRead(t, idx) => {
                write!(f, "{}[", t.name())?;
                for (n, i) in idx.iter().enumerate() {
                    if n > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{i}")?;
                }
                write!(f, "]")
            }
            PrimExpr::Reduce { source, axes } => {
                write!(f, "sum({source}, axis=[")?;
                for (n, a) in axes.iter().enumerate() {
                    if n > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", a.var.name)?;
                }
                write!(f, "])")
            }
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            OpKind::Placeholder => {
                write!(
                    f,
                    "placeholder {}: {:?} {}",
                    self.name, self.shape, self.dtype
                )
            }
            OpKind::Compute { axes, body, .. } => {
                write!(f, "compute {}[", self.name)?;
                for (n, a) in axes.iter().enumerate() {
                    if n > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", a.var.name)?;
                }
                write!(f, "] = {body}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::{int, sqrt};
    use crate::var::Var;

    #[test]
    fn expr_printing() {
        let i = Var::index("i");
        let e = i.expr() * 8 + 1;
        assert_eq!(format!("{e}"), "((i * 8) + 1)");
        let s = sqrt(int(4));
        assert_eq!(format!("{s}"), "sqrt(4)");
    }

    #[test]
    fn op_printing() {
        use crate::{compute, placeholder, DType};
        let a = placeholder([4], DType::F64, "A");
        let b = compute([4], "B", |i| a.at(&[i[0].clone()]) + a.at(&[i[0].clone()]));
        let s = format!("{}", b.op);
        assert!(s.starts_with("compute B[i] = "), "got: {s}");
        assert!(s.contains("A[i]"));
    }
}
