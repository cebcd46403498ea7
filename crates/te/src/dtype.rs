//! Scalar data types carried by expressions and tensors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Scalar element type of a tensor or expression.
///
/// Mirrors the TVM `DataType` surface needed by the paper's kernels (the
/// PolyBench kernels are `float64`; integer types appear in index
/// arithmetic and predicates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// 64-bit IEEE-754 float (`float64`).
    F64,
    /// 32-bit signed integer (`int32`).
    I32,
    /// 64-bit signed integer (`int64`), the type of loop/index variables.
    I64,
    /// Boolean (`bool`), produced by comparisons.
    Bool,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::I32 => 4,
            DType::F64 | DType::I64 => 8,
            DType::Bool => 1,
        }
    }

    /// True for `F64`.
    pub fn is_float(self) -> bool {
        self == DType::F64
    }

    /// True for `I32`/`I64`.
    pub fn is_int(self) -> bool {
        matches!(self, DType::I32 | DType::I64)
    }

    /// TVM-style type name, e.g. `"float64"`.
    pub fn name(self) -> &'static str {
        match self {
            DType::F64 => "float64",
            DType::I32 => "int32",
            DType::I64 => "int64",
            DType::Bool => "bool",
        }
    }

    /// Parse a TVM-style type name.
    pub fn parse(name: &str) -> Option<DType> {
        match name {
            "float64" | "f64" => Some(DType::F64),
            "int32" | "i32" => Some(DType::I32),
            "int64" | "i64" => Some(DType::I64),
            "bool" => Some(DType::Bool),
            _ => None,
        }
    }

    /// Result type when combining two operand types in arithmetic
    /// (float dominates int; wider width dominates narrower).
    pub fn unify(self, other: DType) -> DType {
        use DType::*;
        match (self, other) {
            (a, b) if a == b => a,
            (F64, _) | (_, F64) => F64,
            (I64, _) | (_, I64) => I64,
            (I32, _) | (_, I32) => I32,
            _ => Bool,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DType::F64.size_bytes(), 8);
        assert_eq!(DType::I32.size_bytes(), 4);
        assert_eq!(DType::I64.size_bytes(), 8);
        assert_eq!(DType::Bool.size_bytes(), 1);
    }

    #[test]
    fn parse_roundtrip() {
        for d in [DType::F64, DType::I32, DType::I64, DType::Bool] {
            assert_eq!(DType::parse(d.name()), Some(d));
        }
        assert_eq!(DType::parse("float16"), None);
        assert_eq!(DType::parse("float32"), None);
    }

    #[test]
    fn unify_promotes() {
        assert_eq!(DType::I64.unify(DType::F64), DType::F64);
        assert_eq!(DType::F64.unify(DType::I32), DType::F64);
        assert_eq!(DType::I32.unify(DType::I64), DType::I64);
        assert_eq!(DType::Bool.unify(DType::Bool), DType::Bool);
    }

    #[test]
    fn predicates() {
        assert!(DType::F64.is_float() && !DType::F64.is_int());
        assert!(DType::I64.is_int() && !DType::I64.is_float());
        assert!(!DType::Bool.is_int() && !DType::Bool.is_float());
    }
}
