//! The `sum` reduction builder.

use crate::expr::PrimExpr;
use crate::var::IterVar;
use std::sync::Arc;

/// `te.sum(source, axis=axes)`.
pub fn sum(source: PrimExpr, axes: &[IterVar]) -> PrimExpr {
    assert!(!axes.is_empty(), "reduction needs at least one axis");
    for ax in axes {
        assert!(
            ax.is_reduce(),
            "axis `{}` passed to sum is not a reduce axis (use te::reduce_axis)",
            ax.var.name
        );
    }
    PrimExpr::Reduce {
        source: Arc::new(source),
        axes: axes.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::float;
    use crate::var::reduce_axis;

    #[test]
    fn sum_builds_reduce_node() {
        let k = reduce_axis(0, 4, "k");
        let e = sum(float(1.0), std::slice::from_ref(&k));
        match e {
            PrimExpr::Reduce { axes, .. } => assert_eq!(axes, vec![k]),
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
