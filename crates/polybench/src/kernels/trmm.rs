//! PolyBench `trmm` (`B = α·A·B`, `A` unit lower triangular) — extension
//! kernel with an *anti*-dependence: element `(i, j)` reads rows `k > i`
//! of `B` before they are overwritten.
//!
//! ```text
//! for io, jo, ii, ji (i tiled by P0, j tiled by P1):
//!   for k in i+1..M:  B[i,j] += A[k,i] * B[k,j]
//!   B[i,j] *= alpha
//! ```
//!
//! Row-major block order processes `(i, j)` before any `(k, j)` with
//! `k > i`, so the reads see the original values — valid for any tiling
//! (verified in tests).

use super::{Kernel, DTYPE};
use crate::datasets::{trmm_dims, ProblemSize};
use tvm_runtime::NDArray;
use tvm_te::ops::cmp;
use tvm_te::{placeholder, PrimExpr};
use tvm_tir::builder::{seq, ser, store, when, FuncBuilder};
use tvm_tir::PrimFunc;

/// PolyBench's `alpha`.
pub const ALPHA: f64 = 1.5;

/// The trmm table of the code mold.
pub(crate) const KERNEL: Kernel = Kernel {
    name: "trmm",
    prelint: super::tile_prelint,
    instantiate: |size, config| {
        let (m, n) = trmm_dims(size);
        build_trmm(m, n, config.int("P0"), config.int("P1"))
    },
    init_args,
    reference_args: |size| {
        let args = init_args(size);
        let b = crate::reference::trmm(ALPHA, &args[0], &args[1]);
        vec![None, Some(b)]
    },
};

fn imm(v: f64) -> PrimExpr {
    PrimExpr::FloatImm(v, DTYPE)
}

/// Build tiled trmm for `A: m×m`, `B: m×n` with tiles `(ty, tx)`.
pub fn build_trmm(m: usize, n: usize, ty: i64, tx: i64) -> PrimFunc {
    assert!(ty >= 1 && tx >= 1);
    let (m_i, n_i) = (m as i64, n as i64);
    let a = placeholder([m, m], DTYPE, "A");
    let b = placeholder([m, n], DTYPE, "B");
    let mut fb = FuncBuilder::new("trmm");
    let _ab = fb.param(&a);
    let bb = fb.param(&b);

    let tiles_y = m_i.div_euclid(ty) + i64::from(m_i % ty != 0);
    let tiles_x = n_i.div_euclid(tx) + i64::from(n_i % tx != 0);

    let body = ser("io", tiles_y, |io| {
        let (a, b, bb) = (a.clone(), b.clone(), bb.clone());
        ser("jo", tiles_x, move |jo| {
            let (a, b, bb) = (a.clone(), b.clone(), bb.clone());
            let io = io.clone();
            ser("ii", ty, move |ii| {
                let (a, b, bb) = (a.clone(), b.clone(), bb.clone());
                let (io, jo) = (io.clone(), jo.clone());
                ser("ji", tx, move |ji| {
                    let i = io * ty + ii.clone();
                    let j = jo * tx + ji;
                    let in_bounds = cmp::and(
                        cmp::lt(i.clone(), PrimExpr::from(m_i)),
                        cmp::lt(j.clone(), PrimExpr::from(n_i)),
                    );
                    let (ic, jc) = (i.clone(), j.clone());
                    let (a1, b1, bb1) = (a.clone(), b.clone(), bb.clone());
                    let accumulate = ser("k", m_i, move |k| {
                        when(
                            cmp::gt(k.clone(), ic.clone()),
                            store(
                                &bb1,
                                &[ic.clone(), jc.clone()],
                                b1.at(&[ic.clone(), jc.clone()])
                                    + a1.at(&[k.clone(), ic.clone()]) * b1.at(&[k, jc.clone()]),
                            ),
                        )
                    });
                    let scale = store(
                        &bb,
                        &[i.clone(), j.clone()],
                        b.at(&[i.clone(), j.clone()]) * imm(ALPHA),
                    );
                    when(in_bounds, seq([accumulate, scale]))
                })
            })
        })
    });
    fb.build(body)
}

fn init_args(size: ProblemSize) -> Vec<NDArray> {
    let (m, n) = trmm_dims(size);
    let a = NDArray::from_fn(&[m, m], DTYPE, |i| {
        if i[1] < i[0] {
            ((i[0] + i[1]) % m) as f64 / m as f64
        } else if i[0] == i[1] {
            1.0
        } else {
            0.0
        }
    });
    let b = NDArray::from_fn(&[m, n], DTYPE, |i| {
        ((n + i[0] - i[1]) % n) as f64 / n as f64
    });
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molds::mold_for;
    use crate::{KernelName, ProblemSize};
    use tvm_runtime::interp::execute;

    fn check(ty: i64, tx: i64) {
        let mold = mold_for(KernelName::Trmm, ProblemSize::Mini);
        let (m, n) = trmm_dims(ProblemSize::Mini);
        let f = build_trmm(m, n, ty, tx);
        let mut args = mold.init_args();
        execute(&f, &mut args).expect("run");
        let expect = mold.reference_args()[1].clone().expect("B");
        assert!(
            args[1].allclose(&expect, 1e-9, 1e-9),
            "tiles ({ty},{tx}): max diff {}",
            args[1].max_abs_diff(&expect)
        );
    }

    #[test]
    fn untiled_matches_reference() {
        check(1, 1);
    }

    #[test]
    fn tiled_matches_reference() {
        check(4, 6);
    }

    #[test]
    fn nondivisible_tiles_match_reference() {
        check(3, 7);
    }

    #[test]
    fn full_tile_matches_reference() {
        let (m, n) = trmm_dims(ProblemSize::Mini);
        check(m as i64, n as i64);
    }
}
