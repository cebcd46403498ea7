//! LU decomposition without pivoting, as a tiled PolyBench (Doolittle)
//! code mold.
//!
//! PolyBench's `lu` has loop-carried dependences that pure tensor
//! expressions cannot express, so the mold builds TIR directly (the same
//! IR the TE pipeline lowers to), keeping the C benchmark's `(i, j, k)`
//! loop structure with the reduction innermost and the paper's two tile
//! parameters on `i` and `j`:
//!
//! ```text
//! for io, jo, ii, ji (i tiled by P0, j tiled by P1):
//!   if j < i:                       # L part
//!     for k in 0..j:  A[i,j] -= A[i,k] * A[k,j]
//!     A[i,j] /= A[j,j]
//!   else:                           # U part
//!     for k in 0..i:  A[i,j] -= A[i,k] * A[k,j]
//! ```
//!
//! Block-row-major execution is valid for any `(P0, P1)`: element
//! `(i, j)` depends only on elements `(i', j')` with `i' ≤ i` and
//! `j' ≤ j`, an order the tiled nest refines (every tiled configuration
//! is verified against the reference factorization in this module's
//! tests).

use super::{Kernel, DTYPE};
use crate::datasets::factorization_n;
use crate::reference::spd_matrix;
use tvm_te::ops::cmp;
use tvm_te::{placeholder, PrimExpr};
use tvm_tir::builder::{if_else, seq, ser, store, when, FuncBuilder};
use tvm_tir::PrimFunc;

/// The LU table of the code mold. Non-divisor tails of the aggressive
/// tile lists are guarded by the builder; tile 0 is the prelint's.
pub(crate) const KERNEL: Kernel = Kernel {
    name: "lu",
    prelint: super::tile_prelint,
    instantiate: |size, config| build_lu(factorization_n(size), config.int("P0"), config.int("P1")),
    init_args: |size| vec![spd_matrix(factorization_n(size), DTYPE)],
    reference_args: |size| {
        let a = spd_matrix(factorization_n(size), DTYPE);
        vec![Some(crate::reference::lu(&a))]
    },
};

/// Build the tiled PolyBench LU function for order `n` with tile sizes
/// `(ty, tx)` on the `i`/`j` loops.
pub fn build_lu(n: usize, ty: i64, tx: i64) -> PrimFunc {
    assert!(ty >= 1 && tx >= 1);
    let n_i = n as i64;
    let a = placeholder([n, n], DTYPE, "A");
    let mut fb = FuncBuilder::new("lu");
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
                    // L part (j < i): partial dot product then divide.
                    let (ic, jc) = (i.clone(), j.clone());
                    let (a1, ab1) = (a.clone(), ab.clone());
                    let l_reduce = ser("k", n_i, move |k| {
                        when(
                            cmp::lt(k.clone(), jc.clone()),
                            store(
                                &ab1,
                                &[ic.clone(), jc.clone()],
                                a1.at(&[ic.clone(), jc.clone()])
                                    - a1.at(&[ic.clone(), k.clone()]) * a1.at(&[k, jc.clone()]),
                            ),
                        )
                    });
                    let l_div = store(
                        &ab,
                        &[i.clone(), j.clone()],
                        a.at(&[i.clone(), j.clone()]) / a.at(&[j.clone(), j.clone()]),
                    );
                    // U part (j >= i): partial dot product only.
                    let (ic, jc) = (i.clone(), j.clone());
                    let (a2, ab2) = (a.clone(), ab.clone());
                    let u_reduce = ser("k", n_i, move |k| {
                        when(
                            cmp::lt(k.clone(), ic.clone()),
                            store(
                                &ab2,
                                &[ic.clone(), jc.clone()],
                                a2.at(&[ic.clone(), jc.clone()])
                                    - a2.at(&[ic.clone(), k.clone()]) * a2.at(&[k, jc.clone()]),
                            ),
                        )
                    });
                    when(
                        in_bounds,
                        if_else(
                            cmp::lt(j.clone(), i.clone()),
                            seq([l_reduce, l_div]),
                            u_reduce,
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
    use configspace::Configuration;
    use tvm_runtime::interp::execute;

    fn check_tiles(ty: i64, tx: i64) {
        let mold = mold_for(KernelName::Lu, ProblemSize::Mini); // n = 40
        let f = build_lu(factorization_n(ProblemSize::Mini), ty, tx);
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
        check_tiles(8, 5); // 8 | 40, 5 | 40
    }

    #[test]
    fn nondivisible_tiles_match_reference() {
        check_tiles(7, 3); // guards handle ragged edges
    }

    #[test]
    fn full_matrix_tile_matches_reference() {
        check_tiles(40, 40);
    }

    #[test]
    fn mold_space_matches_table1() {
        assert_eq!(
            mold_for(KernelName::Lu, ProblemSize::Large).space().size(),
            Some(400)
        );
        assert_eq!(
            mold_for(KernelName::Lu, ProblemSize::ExtraLarge)
                .space()
                .size(),
            Some(576)
        );
    }

    #[test]
    fn instantiate_via_configuration() {
        let mold = mold_for(KernelName::Lu, ProblemSize::Mini);
        let cfg = Configuration::new(
            vec!["P0".into(), "P1".into()],
            vec![
                configspace::ParamValue::Int(8),
                configspace::ParamValue::Int(5),
            ],
        );
        let f = mold.instantiate(&cfg);
        assert_eq!(f.params.len(), 1, "LU factors in place");
        assert_eq!(f.body.loop_depth(), 5); // io, jo, ii, ji, k
    }
}
