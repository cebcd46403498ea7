//! Tensors and the operations (`placeholder`, `compute`) that produce them.

use crate::dtype::DType;
use crate::expr::PrimExpr;
use crate::var::{IterVar, IterVarType};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_OP_ID: AtomicU64 = AtomicU64::new(1);

/// What an [`Op`] computes.
#[derive(Debug)]
pub enum OpKind {
    /// An input tensor bound at runtime (`te.placeholder`).
    Placeholder,
    /// A tensor defined pointwise by an expression over its axes
    /// (`te.compute`). The body may be a single [`PrimExpr::Reduce`].
    Compute {
        /// Output (data-parallel) axes, one per output dimension.
        axes: Vec<IterVar>,
        /// Reduction axes referenced by the body (empty for pointwise ops).
        reduce_axes: Vec<IterVar>,
        /// Body expression, evaluated at each point of the output domain.
        body: PrimExpr,
    },
}

/// An operation node: uniquely identified producer of one output tensor.
#[derive(Debug)]
pub struct Op {
    /// Globally unique id — the basis of op identity/hashing.
    pub id: u64,
    /// Display name, e.g. `"E"` in the paper's 3mm kernel.
    pub name: String,
    /// Output shape.
    pub shape: Vec<usize>,
    /// Output element type.
    pub dtype: DType,
    /// Payload.
    pub kind: OpKind,
}

impl Op {
    /// Input tensors this op reads (dedup'd, in first-use order).
    pub fn input_tensors(&self) -> Vec<Tensor> {
        match &self.kind {
            OpKind::Placeholder => Vec::new(),
            OpKind::Compute { body, .. } => {
                let mut seen: Vec<Tensor> = Vec::new();
                crate::visitor::walk(body, &mut |e| {
                    if let PrimExpr::TensorRead(t, _) = e {
                        if !seen.iter().any(|s| s.same_as(t)) {
                            seen.push(t.clone());
                        }
                    }
                });
                seen
            }
        }
    }

    /// True for placeholder (input) ops.
    pub fn is_placeholder(&self) -> bool {
        matches!(self.kind, OpKind::Placeholder)
    }
}

/// Handle to the output tensor of an [`Op`].
///
/// Cheap to clone (reference-counted); identity follows the producing op.
#[derive(Clone)]
pub struct Tensor {
    /// Producing operation.
    pub op: Arc<Op>,
}

impl Tensor {
    /// Output shape.
    pub fn shape(&self) -> &[usize] {
        &self.op.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.op.shape.len()
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.op.dtype
    }

    /// Tensor name (same as the op name).
    pub fn name(&self) -> &str {
        &self.op.name
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.op.shape.iter().product()
    }

    /// Identity comparison (same producing op).
    pub fn same_as(&self, other: &Tensor) -> bool {
        self.op.id == other.op.id
    }

    /// Element access expression `self[indices...]` for use in compute
    /// bodies of downstream ops.
    ///
    /// # Panics
    /// If the number of indices does not match the tensor rank.
    pub fn at(&self, indices: &[PrimExpr]) -> PrimExpr {
        assert_eq!(
            indices.len(),
            self.ndim(),
            "tensor `{}` has rank {}, got {} indices",
            self.name(),
            self.ndim(),
            indices.len()
        );
        PrimExpr::TensorRead(self.clone(), indices.to_vec())
    }

    /// `i`-th output axis of the producing compute op.
    ///
    /// # Panics
    /// If the producer is a placeholder or `i` is out of range.
    pub fn axis(&self, i: usize) -> IterVar {
        match &self.op.kind {
            OpKind::Compute { axes, .. } => axes[i].clone(),
            OpKind::Placeholder => panic!("placeholder `{}` has no axes", self.name()),
        }
    }

    /// All output axes of the producing compute op.
    pub fn axes(&self) -> Vec<IterVar> {
        match &self.op.kind {
            OpKind::Compute { axes, .. } => axes.clone(),
            OpKind::Placeholder => Vec::new(),
        }
    }

    /// Reduce axes of the producing compute op (empty for pointwise ops
    /// and placeholders).
    pub fn reduce_axes(&self) -> Vec<IterVar> {
        match &self.op.kind {
            OpKind::Compute { reduce_axes, .. } => reduce_axes.clone(),
            OpKind::Placeholder => Vec::new(),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor({}: {:?} {})",
            self.name(),
            self.shape(),
            self.dtype()
        )
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.same_as(other)
    }
}
impl Eq for Tensor {}

impl std::hash::Hash for Tensor {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.op.id.hash(state);
    }
}

/// Declare an input tensor (`te.placeholder`).
pub fn placeholder(shape: impl Into<Vec<usize>>, dtype: DType, name: impl Into<String>) -> Tensor {
    let shape = shape.into();
    assert!(!shape.is_empty(), "placeholder must have rank >= 1");
    Tensor {
        op: Arc::new(Op {
            id: NEXT_OP_ID.fetch_add(1, Ordering::Relaxed),
            name: name.into(),
            shape,
            dtype,
            kind: OpKind::Placeholder,
        }),
    }
}

/// Define a tensor pointwise (`te.compute`).
///
/// `f` receives one index expression per output dimension (the axis
/// variables) and returns the element value; it may return a single
/// [`PrimExpr::Reduce`] for reductions like matmul.
///
/// ```
/// use tvm_te::{compute, placeholder, DType};
/// let a = placeholder([4, 4], DType::F64, "A");
/// let b = compute([4, 4], "B", |i| a.at(&[i[1].clone(), i[0].clone()])); // transpose
/// assert_eq!(b.shape(), &[4, 4]);
/// ```
pub fn compute(
    shape: impl Into<Vec<usize>>,
    name: impl Into<String>,
    f: impl FnOnce(&[PrimExpr]) -> PrimExpr,
) -> Tensor {
    let shape = shape.into();
    let name = name.into();
    let axis_names = ["i", "j", "k", "l", "m", "n"];
    let axes: Vec<IterVar> = shape
        .iter()
        .enumerate()
        .map(|(d, &ext)| {
            let nm = axis_names
                .get(d)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("ax{d}"));
            IterVar::new(
                crate::range::Range::from_extent(ext as i64),
                nm,
                IterVarType::DataPar,
            )
        })
        .collect();
    let idx: Vec<PrimExpr> = axes.iter().map(|a| a.var_expr()).collect();
    let body = f(&idx);
    compute_from_parts(shape, name, axes, body)
}

/// `compute` variant that exposes the created axes to the caller before the
/// body is built — convenient when the body references axes by name.
pub fn compute_multi(
    shape: impl Into<Vec<usize>>,
    name: impl Into<String>,
    f: impl FnOnce(&[IterVar]) -> PrimExpr,
) -> Tensor {
    let shape = shape.into();
    let axes: Vec<IterVar> = shape
        .iter()
        .enumerate()
        .map(|(d, &ext)| IterVar::data_par(ext as i64, format!("ax{d}")))
        .collect();
    let body = f(&axes);
    compute_from_parts(shape, name.into(), axes, body)
}

fn compute_from_parts(
    shape: Vec<usize>,
    name: String,
    axes: Vec<IterVar>,
    body: PrimExpr,
) -> Tensor {
    // A Reduce node is only legal at the root of the body (TVM invariant).
    let mut inner_reduce = false;
    if let PrimExpr::Reduce { source, .. } = &body {
        crate::visitor::walk(source, &mut |e| {
            if matches!(e, PrimExpr::Reduce { .. }) {
                inner_reduce = true;
            }
        });
    } else {
        inner_reduce = body.contains_reduce();
    }
    assert!(
        !inner_reduce,
        "Reduce is only allowed at the root of a compute body (op `{name}`)"
    );

    let reduce_axes = match &body {
        PrimExpr::Reduce { axes, .. } => axes.clone(),
        _ => Vec::new(),
    };
    let dtype = body.dtype();
    Tensor {
        op: Arc::new(Op {
            id: NEXT_OP_ID.fetch_add(1, Ordering::Relaxed),
            name,
            shape,
            dtype,
            kind: OpKind::Compute {
                axes,
                reduce_axes,
                body,
            },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::sum;
    use crate::var::reduce_axis;

    #[test]
    fn placeholder_basics() {
        let a = placeholder([3, 4], DType::F64, "A");
        assert_eq!(a.shape(), &[3, 4]);
        assert_eq!(a.numel(), 12);
        assert!(a.op.is_placeholder());
        assert!(a.op.input_tensors().is_empty());
    }

    #[test]
    fn compute_tracks_inputs_and_axes() {
        let a = placeholder([4, 8], DType::F64, "A");
        let b = placeholder([8, 4], DType::F64, "B");
        let k = reduce_axis(0, 8, "k");
        let c = compute([4, 4], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        assert_eq!(c.dtype(), DType::F64);
        assert_eq!(c.axes().len(), 2);
        assert_eq!(c.reduce_axes(), vec![k]);
        let ins = c.op.input_tensors();
        assert_eq!(ins.len(), 2);
        assert!(ins[0].same_as(&a) && ins[1].same_as(&b));
    }

    #[test]
    fn tensor_identity() {
        let a = placeholder([2], DType::F64, "A");
        let a2 = a.clone();
        let b = placeholder([2], DType::F64, "A");
        assert!(a.same_as(&a2));
        assert!(!a.same_as(&b));
    }

    #[test]
    #[should_panic(expected = "rank 2, got 1 indices")]
    fn at_checks_rank() {
        let a = placeholder([2, 2], DType::F64, "A");
        let _ = a.at(&[crate::ops::int(0)]);
    }

    #[test]
    #[should_panic(expected = "root of a compute body")]
    fn nested_reduce_rejected() {
        let a = placeholder([4], DType::F64, "A");
        let k = reduce_axis(0, 4, "k");
        let _ = compute([4], "B", |_| {
            sum(a.at(&[k.var_expr()]), std::slice::from_ref(&k)) + crate::ops::float(1.0)
        });
    }
}
