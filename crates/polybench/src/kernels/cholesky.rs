//! Cholesky decomposition as a tiled PolyBench code mold.
//!
//! Same construction as [`crate::kernels::lu`]: the C benchmark's
//! `(i, j, k)` loop structure with the reduction innermost, tiled on
//! `i`/`j` by the paper's two parameters:
//!
//! ```text
//! for io, jo, ii, ji (i tiled by P0, j tiled by P1):
//!   if j < i:                       # off-diagonal of L
//!     for k in 0..j:  A[i,j] -= A[i,k] * A[j,k]
//!     A[i,j] /= A[j,j]
//!   else if j == i:                 # diagonal
//!     for k in 0..i:  A[i,i] -= A[i,k] * A[i,k]
//!     A[i,i] = sqrt(A[i,i])
//! ```
//!
//! Element `(i, j)` depends only on componentwise-smaller elements, so
//! block-row-major execution is valid for any tiling (verified against
//! the reference in this module's tests). The strict upper triangle is
//! untouched, as in PolyBench.

use super::{Kernel, DTYPE};
use crate::datasets::factorization_n;
use crate::reference::spd_matrix;
use tvm_te::ops::{cmp, sqrt};
use tvm_te::{placeholder, PrimExpr};
use tvm_tir::builder::{if_else, seq, ser, store, when, FuncBuilder};
use tvm_tir::PrimFunc;

/// The Cholesky table of the code mold, built like [`crate::kernels::lu`]'s.
pub(crate) const KERNEL: Kernel = Kernel {
    name: "cholesky",
    prelint: super::tile_prelint,
    instantiate: |size, config| {
        build_cholesky(factorization_n(size), config.int("P0"), config.int("P1"))
    },
    init_args: |size| vec![spd_matrix(factorization_n(size), DTYPE)],
    reference_args: |size| {
        let a = spd_matrix(factorization_n(size), DTYPE);
        vec![Some(crate::reference::cholesky(&a))]
    },
};

/// Build the tiled PolyBench Cholesky function for order `n` with tile
/// sizes `(ty, tx)` on the `i`/`j` loops.
pub fn build_cholesky(n: usize, ty: i64, tx: i64) -> PrimFunc {
    assert!(ty >= 1 && tx >= 1);
    let n_i = n as i64;
    let a = placeholder([n, n], DTYPE, "A");
    let mut fb = FuncBuilder::new("cholesky");
    let ab = fb.param(&a);

    let tiles_y = n_i.div_euclid(ty) + i64::from(n_i % ty != 0);
    let tiles_x = n_i.div_euclid(tx) + i64::from(n_i % tx != 0);

    let body = ser("io", tiles_y, |io| {
        let (a, ab) = (a.clone(), ab.clone());
        ser("jo", tiles_x, move |jo| {
            let (a, ab) = (a.clone(), ab.clone());
            let io = io.clone();
            ser("ii", ty, move |ii| {
                let (a, ab) = (a.clone(), ab.clone());
                let (io, jo) = (io.clone(), jo.clone());
                ser("ji", tx, move |ji| {
                    let i = io * ty + ii.clone();
                    let j = jo * tx + ji;
                    let in_bounds = cmp::and(
                        cmp::lt(i.clone(), PrimExpr::from(n_i)),
                        cmp::lt(j.clone(), PrimExpr::from(n_i)),
                    );
                    // Off-diagonal of L (j < i).
                    let (ic, jc) = (i.clone(), j.clone());
                    let (a1, ab1) = (a.clone(), ab.clone());
                    let off_reduce = ser("k", n_i, move |k| {
                        when(
                            cmp::lt(k.clone(), jc.clone()),
                            store(
                                &ab1,
                                &[ic.clone(), jc.clone()],
                                a1.at(&[ic.clone(), jc.clone()])
                                    - a1.at(&[ic.clone(), k.clone()]) * a1.at(&[jc.clone(), k]),
                            ),
                        )
                    });
                    let off_div = store(
                        &ab,
                        &[i.clone(), j.clone()],
                        a.at(&[i.clone(), j.clone()]) / a.at(&[j.clone(), j.clone()]),
                    );
                    // Diagonal (j == i).
                    let ic = i.clone();
                    let (a2, ab2) = (a.clone(), ab.clone());
                    let diag_reduce = ser("k", n_i, move |k| {
                        when(
                            cmp::lt(k.clone(), ic.clone()),
                            store(
                                &ab2,
                                &[ic.clone(), ic.clone()],
                                a2.at(&[ic.clone(), ic.clone()])
                                    - a2.at(&[ic.clone(), k.clone()])
                                        * a2.at(&[ic.clone(), k.clone()]),
                            ),
                        )
                    });
                    let diag_sqrt = store(
                        &ab,
                        &[i.clone(), i.clone()],
                        sqrt(a.at(&[i.clone(), i.clone()])),
                    );
                    when(
                        in_bounds,
                        if_else(
                            cmp::lt(j.clone(), i.clone()),
                            seq([off_reduce, off_div]),
                            when(cmp::eq(j, i), seq([diag_reduce, diag_sqrt])),
                        ),
                    )
                })
            })
        })
    });
    fb.build(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molds::mold_for;
    use crate::{KernelName, ProblemSize};
    use tvm_runtime::interp::execute;

    fn check_tiles(ty: i64, tx: i64) {
        let mold = mold_for(KernelName::Cholesky, ProblemSize::Mini); // n = 40
        let f = build_cholesky(factorization_n(ProblemSize::Mini), ty, tx);
        let mut args = mold.init_args();
        execute(&f, &mut args).expect("run");
        let expect = mold.reference_args()[0].clone().expect("A");
        assert!(
            args[0].allclose(&expect, 1e-9, 1e-9),
            "tiles ({ty},{tx}): max diff {}",
            args[0].max_abs_diff(&expect)
        );
    }

    #[test]
    fn untiled_matches_reference() {
        check_tiles(1, 1);
    }

    #[test]
    fn divisible_tiles_match_reference() {
        check_tiles(10, 4);
    }

    #[test]
    fn nondivisible_tiles_match_reference() {
        check_tiles(9, 7);
    }

    #[test]
    fn lower_triangle_factor_upper_untouched() {
        let mold = mold_for(KernelName::Cholesky, ProblemSize::Mini);
        let f = build_cholesky(factorization_n(ProblemSize::Mini), 5, 5);
        let input = mold.init_args()[0].clone();
        let mut args = mold.init_args();
        execute(&f, &mut args).expect("run");
        let n = factorization_n(ProblemSize::Mini);
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(
                    args[0].get(&[i, j]),
                    input.get(&[i, j]),
                    "upper entry ({i},{j}) must be untouched"
                );
            }
        }
    }

    #[test]
    fn mold_space_matches_table1() {
        assert_eq!(
            mold_for(KernelName::Cholesky, ProblemSize::Large)
                .space()
                .size(),
            Some(400)
        );
        assert_eq!(
            mold_for(KernelName::Cholesky, ProblemSize::ExtraLarge)
                .space()
                .size(),
            Some(576)
        );
    }
}
