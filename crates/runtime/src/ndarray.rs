//! Dense row-major host tensors.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tvm_te::DType;

/// Typed element storage of an [`NDArray`].
#[derive(Debug, Clone, PartialEq)]
pub enum TensorData {
    /// `float32` elements.
    F32(Vec<f32>),
    /// `float64` elements.
    F64(Vec<f64>),
    /// `int32` elements.
    I32(Vec<i32>),
    /// `int64` elements.
    I64(Vec<i64>),
}

impl TensorData {
    fn len(&self) -> usize {
        match self {
            TensorData::F32(v) => v.len(),
            TensorData::F64(v) => v.len(),
            TensorData::I32(v) => v.len(),
            TensorData::I64(v) => v.len(),
        }
    }

    fn dtype(&self) -> DType {
        match self {
            TensorData::F32(_) => DType::F32,
            TensorData::F64(_) => DType::F64,
            TensorData::I32(_) => DType::I32,
            TensorData::I64(_) => DType::I64,
        }
    }
}

/// A dense, row-major, host-resident tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct NDArray {
    shape: Vec<usize>,
    data: TensorData,
}

impl NDArray {
    /// Zero-filled array.
    pub fn zeros(shape: &[usize], dtype: DType) -> NDArray {
        let n: usize = shape.iter().product();
        let data = match dtype {
            DType::F32 => TensorData::F32(vec![0.0; n]),
            DType::F64 => TensorData::F64(vec![0.0; n]),
            DType::I32 => TensorData::I32(vec![0; n]),
            DType::I64 => TensorData::I64(vec![0; n]),
            DType::Bool => panic!("bool tensors are not supported"),
        };
        NDArray {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Array from `f32` values (length must match the shape).
    pub fn from_f32(shape: &[usize], values: &[f32]) -> NDArray {
        assert_eq!(shape.iter().product::<usize>(), values.len());
        NDArray {
            shape: shape.to_vec(),
            data: TensorData::F32(values.to_vec()),
        }
    }

    /// Array from `f64` values.
    pub fn from_f64(shape: &[usize], values: &[f64]) -> NDArray {
        assert_eq!(shape.iter().product::<usize>(), values.len());
        NDArray {
            shape: shape.to_vec(),
            data: TensorData::F64(values.to_vec()),
        }
    }

    /// Deterministic uniform-random array in `[lo, hi)`.
    pub fn random(shape: &[usize], dtype: DType, seed: u64, lo: f64, hi: f64) -> NDArray {
        let n: usize = shape.iter().product();
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = match dtype {
            DType::F32 => TensorData::F32((0..n).map(|_| rng.gen_range(lo..hi) as f32).collect()),
            DType::F64 => TensorData::F64((0..n).map(|_| rng.gen_range(lo..hi)).collect()),
            DType::I32 => TensorData::I32(
                (0..n)
                    .map(|_| rng.gen_range(lo as i32..hi.max(lo + 1.0) as i32))
                    .collect(),
            ),
            DType::I64 => TensorData::I64(
                (0..n)
                    .map(|_| rng.gen_range(lo as i64..hi.max(lo + 1.0) as i64))
                    .collect(),
            ),
            DType::Bool => panic!("bool tensors are not supported"),
        };
        NDArray {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Build an array by evaluating `f` at every multi-index (row-major
    /// order) — the PolyBench initialization pattern.
    pub fn from_fn(shape: &[usize], dtype: DType, mut f: impl FnMut(&[usize]) -> f64) -> NDArray {
        let mut a = NDArray::zeros(shape, dtype);
        let mut idx = vec![0usize; shape.len()];
        for lin in 0..a.numel() {
            a.set_f64_linear(lin, f(&idx));
            // Odometer step to the next row-major index: bump the last
            // dimension and carry (the final step wraps to all zeros).
            for d in (0..shape.len()).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        a
    }

    /// Shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Overwrite every element with `other`'s, in place (no allocation).
    ///
    /// # Panics
    /// If the two arrays differ in shape or dtype.
    pub fn copy_from(&mut self, other: &NDArray) {
        assert_eq!(self.shape, other.shape, "copy_from: shapes differ");
        match (&mut self.data, &other.data) {
            (TensorData::F32(d), TensorData::F32(s)) => d.copy_from_slice(s),
            (TensorData::F64(d), TensorData::F64(s)) => d.copy_from_slice(s),
            (TensorData::I32(d), TensorData::I32(s)) => d.copy_from_slice(s),
            (TensorData::I64(d), TensorData::I64(s)) => d.copy_from_slice(s),
            _ => panic!("copy_from: dtypes differ"),
        }
    }

    /// Read element at a linear offset, widened to `f64`.
    #[inline]
    pub fn get_f64_linear(&self, off: usize) -> f64 {
        match &self.data {
            TensorData::F32(v) => v[off] as f64,
            TensorData::F64(v) => v[off],
            TensorData::I32(v) => v[off] as f64,
            TensorData::I64(v) => v[off] as f64,
        }
    }

    /// Write element at a linear offset, narrowing from `f64`.
    #[inline]
    pub fn set_f64_linear(&mut self, off: usize, val: f64) {
        match &mut self.data {
            TensorData::F32(v) => v[off] = val as f32,
            TensorData::F64(v) => v[off] = val,
            TensorData::I32(v) => v[off] = val as i32,
            TensorData::I64(v) => v[off] = val as i64,
        }
    }

    /// Row-major strides in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.shape.len()];
        for d in (0..self.shape.len().saturating_sub(1)).rev() {
            s[d] = s[d + 1] * self.shape[d + 1];
        }
        s
    }

    /// Linear offset of a multi-index.
    pub fn offset(&self, idx: &[usize]) -> usize {
        let strides = self.strides();
        idx.iter().zip(&strides).map(|(i, s)| i * s).sum()
    }

    /// Read by multi-index.
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.get_f64_linear(self.offset(idx))
    }

    /// Write by multi-index.
    pub fn set(&mut self, idx: &[usize], val: f64) {
        let off = self.offset(idx);
        self.set_f64_linear(off, val);
    }

    /// All elements widened to `f64`, row-major.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        (0..self.numel()).map(|i| self.get_f64_linear(i)).collect()
    }

    /// Borrow `f32` storage (panics for other dtypes).
    pub fn as_f32(&self) -> &[f32] {
        match &self.data {
            TensorData::F32(v) => v,
            other => panic!("expected f32 storage, found {:?}", other.dtype()),
        }
    }

    /// Borrow `f32` storage mutably.
    pub fn as_f32_mut(&mut self) -> &mut [f32] {
        match &mut self.data {
            TensorData::F32(v) => v,
            other => panic!("expected f32 storage, found {:?}", other.dtype()),
        }
    }

    /// Borrow `f64` storage (panics for other dtypes).
    pub fn as_f64(&self) -> &[f64] {
        match &self.data {
            TensorData::F64(v) => v,
            other => panic!("expected f64 storage, found {:?}", other.dtype()),
        }
    }

    /// Borrow `f64` storage mutably.
    pub fn as_f64_mut(&mut self) -> &mut [f64] {
        match &mut self.data {
            TensorData::F64(v) => v,
            other => panic!("expected f64 storage, found {:?}", other.dtype()),
        }
    }

    /// Raw base pointer of the element storage, for the JIT slot table.
    /// Valid until the array is dropped or its storage resized; the VM
    /// never resizes storage while a compiled function executes.
    pub(crate) fn base_ptr_mut(&mut self) -> *mut u8 {
        match &mut self.data {
            TensorData::F32(v) => v.as_mut_ptr().cast(),
            TensorData::F64(v) => v.as_mut_ptr().cast(),
            TensorData::I32(v) => v.as_mut_ptr().cast(),
            TensorData::I64(v) => v.as_mut_ptr().cast(),
        }
    }

    /// Elementwise approximate equality with mixed absolute/relative
    /// tolerance: `|a-b| <= atol + rtol * |b|`.
    pub fn allclose(&self, other: &NDArray, rtol: f64, atol: f64) -> bool {
        if self.shape != other.shape {
            return false;
        }
        (0..self.numel()).all(|i| {
            let a = self.get_f64_linear(i);
            let b = other.get_f64_linear(i);
            if a.is_nan() || b.is_nan() {
                return false;
            }
            (a - b).abs() <= atol + rtol * b.abs()
        })
    }

    /// Maximum absolute elementwise difference (∞ on shape mismatch).
    pub fn max_abs_diff(&self, other: &NDArray) -> f64 {
        if self.shape != other.shape {
            return f64::INFINITY;
        }
        (0..self.numel())
            .map(|i| (self.get_f64_linear(i) - other.get_f64_linear(i)).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let a = NDArray::zeros(&[2, 3], DType::F32);
        assert_eq!(a.numel(), 6);
        assert_eq!(a.shape(), &[2, 3]);
        assert!(a.to_f64_vec().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn multi_index_roundtrip() {
        let mut a = NDArray::zeros(&[3, 4], DType::F64);
        a.set(&[2, 1], 42.0);
        assert_eq!(a.get(&[2, 1]), 42.0);
        assert_eq!(a.get_f64_linear(2 * 4 + 1), 42.0);
    }

    #[test]
    fn random_is_deterministic() {
        let a = NDArray::random(&[16], DType::F32, 7, -1.0, 1.0);
        let b = NDArray::random(&[16], DType::F32, 7, -1.0, 1.0);
        let c = NDArray::random(&[16], DType::F32, 8, -1.0, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.to_f64_vec().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn from_fn_row_major() {
        let a = NDArray::from_fn(&[2, 2], DType::F64, |idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(a.to_f64_vec(), vec![0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn from_fn_indices_match_div_mod() {
        // Every index `from_fn` hands out, against recomputing it from
        // the linear offset by `%` and `/` per dimension.
        let shapes: [&[usize]; 7] = [&[], &[5], &[2, 3, 4], &[1, 1, 1], &[0], &[3, 0, 2], &[4, 1]];
        for shape in shapes {
            for dtype in [DType::F32, DType::F64] {
                let mut seen: Vec<Vec<usize>> = Vec::new();
                let a = NDArray::from_fn(shape, dtype, |idx| {
                    seen.push(idx.to_vec());
                    idx.iter().fold(0.7, |acc, &i| acc * 1.3 + i as f64)
                });
                let mut want = NDArray::zeros(shape, dtype);
                assert_eq!(seen.len(), want.numel(), "{shape:?}");
                for (lin, idx) in seen.iter().enumerate() {
                    let mut rem = lin;
                    let mut by_div = vec![0usize; shape.len()];
                    for d in (0..shape.len()).rev() {
                        by_div[d] = rem % shape[d];
                        rem /= shape[d];
                    }
                    assert_eq!(idx, &by_div, "{shape:?} at {lin}");
                    let v = by_div.iter().fold(0.7, |acc, &i| acc * 1.3 + i as f64);
                    want.set_f64_linear(lin, v);
                }
                assert_eq!(a, want, "{shape:?} {dtype:?}");
            }
        }
    }

    #[test]
    fn allclose_tolerances() {
        let a = NDArray::from_f64(&[2], &[1.0, 100.0]);
        let b = NDArray::from_f64(&[2], &[1.0 + 1e-9, 100.0 + 1e-5]);
        assert!(a.allclose(&b, 1e-6, 1e-8));
        let c = NDArray::from_f64(&[2], &[1.1, 100.0]);
        assert!(!a.allclose(&c, 1e-6, 1e-8));
        assert!((a.max_abs_diff(&c) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn allclose_rejects_nan_and_shape_mismatch() {
        let a = NDArray::from_f64(&[1], &[f64::NAN]);
        assert!(!a.allclose(&a.clone(), 1e-6, 1e-6));
        let b = NDArray::zeros(&[2], DType::F64);
        let c = NDArray::zeros(&[3], DType::F64);
        assert!(!b.allclose(&c, 1e-6, 1e-6));
    }

    #[test]
    fn f32_rounding_on_store() {
        let mut a = NDArray::zeros(&[1], DType::F32);
        a.set_f64_linear(0, 1.0 + 1e-12);
        assert_eq!(a.get_f64_linear(0), 1.0, "f32 storage rounds");
    }
}
