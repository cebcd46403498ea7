//! Memory buffers referenced by TIR statements.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tvm_te::{DType, Tensor};

static NEXT_BUF_ID: AtomicU64 = AtomicU64::new(1);

/// A contiguous, row-major buffer backing one tensor.
///
/// Buffers created from a [`Tensor`] reuse the producing op's id as
/// `source_op`, which is how lowered expressions (`TensorRead`) are tied to
/// storage at interpretation time.
#[derive(Debug, Clone)]
pub struct Buffer {
    /// Unique buffer id.
    pub id: u64,
    /// Id of the TE op this buffer stores (0 for free-standing buffers).
    pub source_op: u64,
    /// Display name.
    pub name: String,
    /// Row-major shape.
    pub shape: Vec<usize>,
    /// Element type.
    pub dtype: DType,
}

impl Buffer {
    /// Buffer backing a TE tensor.
    pub fn from_tensor(t: &Tensor) -> Arc<Buffer> {
        Arc::new(Buffer {
            id: NEXT_BUF_ID.fetch_add(1, Ordering::Relaxed),
            source_op: t.op.id,
            name: t.name().to_string(),
            shape: t.shape().to_vec(),
            dtype: t.dtype(),
        })
    }

    /// Free-standing buffer (used by the imperative [`crate::builder`]).
    pub fn new(name: impl Into<String>, shape: impl Into<Vec<usize>>, dtype: DType) -> Arc<Buffer> {
        Arc::new(Buffer {
            id: NEXT_BUF_ID.fetch_add(1, Ordering::Relaxed),
            source_op: 0,
            name: name.into(),
            shape: shape.into(),
            dtype,
        })
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.numel() * self.dtype.size_bytes()
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.shape.len()];
        for d in (0..self.shape.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * self.shape[d + 1];
        }
        strides
    }

    /// Linear offset for a multi-index (debug-checked).
    pub fn offset(&self, idx: &[i64]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let strides = self.strides();
        let mut off = 0usize;
        for (d, &i) in idx.iter().enumerate() {
            debug_assert!(
                i >= 0 && (i as usize) < self.shape[d],
                "index {i} out of bounds for dim {d} of `{}` (shape {:?})",
                self.name,
                self.shape
            );
            off += i as usize * strides[d];
        }
        off
    }
}

impl fmt::Display for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {:?} {}", self.name, self.shape, self.dtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::placeholder;

    #[test]
    fn strides_row_major() {
        let b = Buffer::new("b", [2usize, 3, 4], DType::F64);
        assert_eq!(b.strides(), vec![12, 4, 1]);
        assert_eq!(b.numel(), 24);
        assert_eq!(b.size_bytes(), 192);
    }

    #[test]
    fn offset_computes_linear_index() {
        let b = Buffer::new("b", [2usize, 3, 4], DType::F64);
        assert_eq!(b.offset(&[0, 0, 0]), 0);
        assert_eq!(b.offset(&[1, 2, 3]), 12 + 8 + 3);
    }

    #[test]
    fn from_tensor_links_source_op() {
        let t = placeholder([4, 4], DType::F64, "A");
        let b = Buffer::from_tensor(&t);
        assert_eq!(b.source_op, t.op.id);
        assert_eq!(b.dtype, DType::F64);
        assert_eq!(b.shape, vec![4, 4]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn offset_bounds_checked_in_debug() {
        let b = Buffer::new("b", [2usize, 2], DType::F64);
        let _ = b.offset(&[2, 0]);
    }
}
