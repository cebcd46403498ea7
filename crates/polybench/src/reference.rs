//! Plain-Rust reference implementations (the PolyBench C algorithms),
//! used to verify every mold configuration numerically.
//!
//! Sequential, row by row: matmuls walk the output rows, the
//! factorizations the trailing update of each elimination step of the
//! right-looking algorithms.

use tvm_runtime::NDArray;
use tvm_te::DType;

/// `C = A · B` for row-major `f64` matrices.
pub fn matmul(a: &NDArray, b: &NDArray) -> NDArray {
    let (n, ka) = (a.shape()[0], a.shape()[1]);
    let (kb, m) = (b.shape()[0], b.shape()[1]);
    assert_eq!(ka, kb, "inner dimensions must agree");
    let av = a.to_f64_vec();
    let bv = b.to_f64_vec();
    let mut cv = vec![0.0f64; n * m];
    cv.chunks_mut(m).enumerate().for_each(|(i, row)| {
        for k in 0..ka {
            let aik = av[i * ka + k];
            let brow = &bv[k * m..(k + 1) * m];
            for (j, r) in row.iter_mut().enumerate() {
                *r += aik * brow[j];
            }
        }
    });
    NDArray::from_f64(&[n, m], &cv)
}

/// PolyBench `3mm`: `G = (A·B) · (C·D)`.
pub fn mm3(a: &NDArray, b: &NDArray, c: &NDArray, d: &NDArray) -> NDArray {
    let e = matmul(a, b);
    let f = matmul(c, d);
    matmul(&e, &f)
}

/// PolyBench `gemm`: `C' = alpha·A·B + beta·C`.
pub fn gemm(alpha: f64, a: &NDArray, b: &NDArray, beta: f64, c: &NDArray) -> NDArray {
    let ab = matmul(a, b);
    let mut out = c.clone();
    for i in 0..out.numel() {
        out.set_f64_linear(i, alpha * ab.get_f64_linear(i) + beta * c.get_f64_linear(i));
    }
    out
}

/// PolyBench `2mm`: `D' = alpha·(A·B)·C + beta·D`.
pub fn mm2(alpha: f64, a: &NDArray, b: &NDArray, c: &NDArray, beta: f64, d: &NDArray) -> NDArray {
    let abc = matmul(&matmul(a, b), c);
    let mut out = d.clone();
    for i in 0..out.numel() {
        out.set_f64_linear(
            i,
            alpha * abc.get_f64_linear(i) + beta * d.get_f64_linear(i),
        );
    }
    out
}

/// PolyBench `syrk`: `C' = α·A·Aᵀ + β·C` on the lower triangle
/// (strict upper triangle untouched).
pub fn syrk(alpha: f64, beta: f64, a: &NDArray, c: &NDArray) -> NDArray {
    let (n, m) = (a.shape()[0], a.shape()[1]);
    assert_eq!(c.shape(), &[n, n]);
    let av = a.to_f64_vec();
    let mut out = c.clone();
    for i in 0..n {
        for j in 0..=i {
            let mut acc = beta * c.get(&[i, j]);
            for k in 0..m {
                acc += alpha * av[i * m + k] * av[j * m + k];
            }
            out.set(&[i, j], acc);
        }
    }
    out
}

/// PolyBench `trmm`: `B' = α·A·B` with `A` unit lower triangular
/// (`B[i][j] += Σ_{k>i} A[k][i]·B[k][j]`, then scale by α; rows ascending,
/// so the reads see original values).
pub fn trmm(alpha: f64, a: &NDArray, b: &NDArray) -> NDArray {
    let (m, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(a.shape(), &[m, m]);
    let av = a.to_f64_vec();
    let mut v = b.to_f64_vec();
    for i in 0..m {
        for j in 0..n {
            let mut acc = v[i * n + j];
            for k in i + 1..m {
                acc += av[k * m + i] * v[k * n + j];
            }
            v[i * n + j] = alpha * acc;
        }
    }
    NDArray::from_f64(&[m, n], &v)
}

/// In-place LU decomposition without pivoting (right-looking); returns the
/// packed `L\U` matrix (unit diagonal of `L` implicit).
pub fn lu(a: &NDArray) -> NDArray {
    let n = a.shape()[0];
    assert_eq!(a.shape(), &[n, n]);
    let mut v = a.to_f64_vec();
    for k in 0..n {
        let pivot = v[k * n + k];
        assert!(
            pivot.abs() > 1e-300,
            "zero pivot at step {k}: LU without pivoting needs a strongly regular matrix"
        );
        for i in k + 1..n {
            v[i * n + k] /= pivot;
        }
        let (top, rest) = v.split_at_mut((k + 1) * n);
        let urow = &top[k * n..];
        rest.chunks_mut(n).for_each(|row| {
            let lik = row[k];
            for j in k + 1..n {
                row[j] -= lik * urow[j];
            }
        });
    }
    NDArray::from_f64(&[n, n], &v)
}

/// In-place Cholesky factorization of an SPD matrix; the lower triangle
/// (including diagonal) receives `L` with `A = L·Lᵀ`; the strict upper
/// triangle is left untouched (PolyBench semantics).
pub fn cholesky(a: &NDArray) -> NDArray {
    let n = a.shape()[0];
    assert_eq!(a.shape(), &[n, n]);
    let mut v = a.to_f64_vec();
    for k in 0..n {
        let dkk = v[k * n + k];
        assert!(
            dkk > 0.0,
            "non-positive diagonal at step {k}: matrix is not SPD"
        );
        let lkk = dkk.sqrt();
        v[k * n + k] = lkk;
        for i in k + 1..n {
            v[i * n + k] /= lkk;
        }
        // Trailing symmetric rank-1 update on the lower triangle. Rows
        // read column k of *other* rows, so gather that column first.
        let col_k: Vec<f64> = (0..n).map(|i| v[i * n + k]).collect();
        let base = k + 1;
        v[base * n..]
            .chunks_mut(n)
            .enumerate()
            .for_each(|(off, row)| {
                let i = base + off;
                let lik = col_k[i];
                for (j, ljk) in col_k.iter().enumerate().take(i + 1).skip(base) {
                    row[j] -= lik * ljk;
                }
            });
    }
    NDArray::from_f64(&[n, n], &v)
}

/// Deterministic SPD (and diagonally dominant) test matrix:
/// `A[i][j] = 1/(i+j+1) + 2N·[i==j]` — a Hilbert matrix plus a strong
/// diagonal. SPD ⇒ Cholesky exists; diagonal dominance ⇒ LU without
/// pivoting is stable. (PolyBench builds its SPD input as `B·Bᵀ`, an
/// O(N³) initialization; this O(N²) surrogate keeps the same properties.)
pub fn spd_matrix(n: usize, dtype: DType) -> NDArray {
    NDArray::from_fn(&[n, n], dtype, |idx| {
        let base = 1.0 / (idx[0] + idx[1] + 1) as f64;
        if idx[0] == idx[1] {
            base + 2.0 * n as f64
        } else {
            base
        }
    })
}

/// PolyBench `3mm` input initialization (the C benchmark's `init_array`).
pub fn mm3_inputs(d: &crate::datasets::Mm3Dims, dtype: DType) -> [NDArray; 4] {
    let (n, l, m, o, p) = (d.n, d.l, d.m, d.o, d.p);
    let a = NDArray::from_fn(&[n, l], dtype, |i| {
        ((i[0] * i[1] + 1) % n) as f64 / (5.0 * n as f64)
    });
    let b = NDArray::from_fn(&[l, m], dtype, |i| {
        ((i[0] * (i[1] + 1) + 2) % l) as f64 / (5.0 * l as f64)
    });
    let c = NDArray::from_fn(&[m, o], dtype, |i| {
        (i[0] * (i[1] + 3) % m) as f64 / (5.0 * m as f64)
    });
    let dd = NDArray::from_fn(&[o, p], dtype, |i| {
        ((i[0] * (i[1] + 2) + 2) % o) as f64 / (5.0 * o as f64)
    });
    [a, b, c, dd]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let n = 8;
        let i = NDArray::from_fn(&[n, n], DType::F64, |idx| (idx[0] == idx[1]) as i64 as f64);
        let a = NDArray::random(&[n, n], DType::F64, 1, -1.0, 1.0);
        assert!(matmul(&a, &i).allclose(&a, 1e-12, 1e-12));
        assert!(matmul(&i, &a).allclose(&a, 1e-12, 1e-12));
    }

    #[test]
    fn matmul_associativity() {
        let a = NDArray::random(&[6, 7], DType::F64, 1, -1.0, 1.0);
        let b = NDArray::random(&[7, 8], DType::F64, 2, -1.0, 1.0);
        let c = NDArray::random(&[8, 5], DType::F64, 3, -1.0, 1.0);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(left.allclose(&right, 1e-10, 1e-12));
    }

    #[test]
    fn lu_reconstructs() {
        let n = 24;
        let a = spd_matrix(n, DType::F64);
        let f = lu(&a);
        // Reconstruct A = L*U from the packed factor.
        let mut recon = NDArray::zeros(&[n, n], DType::F64);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    let lik = if k == i { 1.0 } else { f.get(&[i, k]) };
                    s += lik * f.get(&[k, j]);
                }
                recon.set(&[i, j], s);
            }
        }
        assert!(
            recon.allclose(&a, 1e-8, 1e-8),
            "max diff {}",
            recon.max_abs_diff(&a)
        );
    }

    #[test]
    fn cholesky_reconstructs() {
        let n = 24;
        let a = spd_matrix(n, DType::F64);
        let f = cholesky(&a);
        // A = L·Lᵀ over the lower triangle.
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..=j {
                    s += f.get(&[i, k]) * f.get(&[j, k]);
                }
                let diff = (s - a.get(&[i, j])).abs();
                assert!(diff < 1e-8, "entry ({i},{j}) off by {diff}");
            }
        }
        // Upper triangle untouched.
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(f.get(&[i, j]), a.get(&[i, j]));
            }
        }
    }

    #[test]
    fn cholesky_consistent_with_lu_diagonal() {
        // For SPD A, LU's U diagonal equals L_chol diagonal squared.
        let n = 12;
        let a = spd_matrix(n, DType::F64);
        let l = cholesky(&a);
        let f = lu(&a);
        for i in 0..n {
            let d_lu = f.get(&[i, i]);
            let d_ch = l.get(&[i, i]);
            assert!((d_lu - d_ch * d_ch).abs() < 1e-6, "i={i}");
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = NDArray::random(&[4, 5], DType::F64, 1, -1.0, 1.0);
        let b = NDArray::random(&[5, 6], DType::F64, 2, -1.0, 1.0);
        let c = NDArray::random(&[4, 6], DType::F64, 3, -1.0, 1.0);
        let out = gemm(2.0, &a, &b, 0.5, &c);
        let ab = matmul(&a, &b);
        for i in 0..out.numel() {
            let expect = 2.0 * ab.get_f64_linear(i) + 0.5 * c.get_f64_linear(i);
            assert!((out.get_f64_linear(i) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn mm3_equals_composed_matmuls() {
        let d = crate::datasets::mm3_dims(crate::datasets::ProblemSize::Mini);
        let [a, b, c, dd] = mm3_inputs(&d, DType::F64);
        let g = mm3(&a, &b, &c, &dd);
        assert_eq!(g.shape(), &[d.n, d.p]);
        let g2 = matmul(&matmul(&a, &b), &matmul(&c, &dd));
        assert!(g.allclose(&g2, 1e-12, 1e-12));
    }

    #[test]
    #[should_panic(expected = "not SPD")]
    fn cholesky_rejects_indefinite() {
        let a = NDArray::from_f64(&[2, 2], &[1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        let _ = cholesky(&a);
    }

    #[test]
    fn spd_matrix_is_symmetric() {
        let a = spd_matrix(16, DType::F64);
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(a.get(&[i, j]), a.get(&[j, i]));
            }
        }
    }
}
