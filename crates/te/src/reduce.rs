//! Reduction combiners and the `sum` / `max` / `min` / `prod` builders.

use crate::expr::PrimExpr;
use crate::var::IterVar;
use std::sync::Arc;

/// A commutative, associative combining function for reductions, together
/// with its identity element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Combiner {
    /// `acc + x`, identity 0.
    Sum,
    /// `acc * x`, identity 1.
    Prod,
    /// `max(acc, x)`, identity -inf (or `i64::MIN`).
    Max,
    /// `min(acc, x)`, identity +inf (or `i64::MAX`).
    Min,
}

impl Combiner {
    /// Identity element as an `f64` (used by the interpreter; integer
    /// reductions convert).
    pub fn identity_f64(self) -> f64 {
        match self {
            Combiner::Sum => 0.0,
            Combiner::Prod => 1.0,
            Combiner::Max => f64::NEG_INFINITY,
            Combiner::Min => f64::INFINITY,
        }
    }

    /// Apply the combiner to an accumulator and a new value.
    pub fn combine_f64(self, acc: f64, x: f64) -> f64 {
        match self {
            Combiner::Sum => acc + x,
            Combiner::Prod => acc * x,
            Combiner::Max => acc.max(x),
            Combiner::Min => acc.min(x),
        }
    }

    /// Printed name (`sum`, `prod`, `max`, `min`).
    pub fn name(self) -> &'static str {
        match self {
            Combiner::Sum => "sum",
            Combiner::Prod => "prod",
            Combiner::Max => "max",
            Combiner::Min => "min",
        }
    }
}

fn reduce(combiner: Combiner, source: PrimExpr, axes: &[IterVar]) -> PrimExpr {
    assert!(!axes.is_empty(), "reduction needs at least one axis");
    for ax in axes {
        assert!(
            ax.is_reduce(),
            "axis `{}` passed to {} is not a reduce axis (use te::reduce_axis)",
            ax.var.name,
            combiner.name()
        );
    }
    PrimExpr::Reduce {
        combiner,
        source: Arc::new(source),
        axes: axes.to_vec(),
    }
}

/// `te.sum(source, axis=axes)`.
pub fn sum(source: PrimExpr, axes: &[IterVar]) -> PrimExpr {
    reduce(Combiner::Sum, source, axes)
}

/// Product reduction.
pub fn prod(source: PrimExpr, axes: &[IterVar]) -> PrimExpr {
    reduce(Combiner::Prod, source, axes)
}

/// `te.max(source, axis=axes)`.
pub fn max_reduce(source: PrimExpr, axes: &[IterVar]) -> PrimExpr {
    reduce(Combiner::Max, source, axes)
}

/// `te.min(source, axis=axes)`.
pub fn min_reduce(source: PrimExpr, axes: &[IterVar]) -> PrimExpr {
    reduce(Combiner::Min, source, axes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::float;
    use crate::var::reduce_axis;

    #[test]
    fn identities() {
        assert_eq!(Combiner::Sum.identity_f64(), 0.0);
        assert_eq!(Combiner::Prod.identity_f64(), 1.0);
        assert_eq!(Combiner::Max.identity_f64(), f64::NEG_INFINITY);
        assert_eq!(Combiner::Min.identity_f64(), f64::INFINITY);
    }

    #[test]
    fn combine() {
        assert_eq!(Combiner::Sum.combine_f64(1.0, 2.0), 3.0);
        assert_eq!(Combiner::Prod.combine_f64(2.0, 3.0), 6.0);
        assert_eq!(Combiner::Max.combine_f64(1.0, 2.0), 2.0);
        assert_eq!(Combiner::Min.combine_f64(1.0, 2.0), 1.0);
    }

    #[test]
    fn sum_builds_reduce_node() {
        let k = reduce_axis(0, 4, "k");
        let e = sum(float(1.0), std::slice::from_ref(&k));
        match e {
            PrimExpr::Reduce { combiner, axes, .. } => {
                assert_eq!(combiner, Combiner::Sum);
                assert_eq!(axes, vec![k]);
            }
            other => panic!("expected Reduce, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not a reduce axis")]
    fn rejects_data_par_axis() {
        let i = crate::var::IterVar::data_par(4, "i");
        let _ = sum(float(1.0), &[i]);
    }

    #[test]
    #[should_panic(expected = "at least one axis")]
    fn rejects_empty_axes() {
        let _ = sum(float(1.0), &[]);
    }
}
