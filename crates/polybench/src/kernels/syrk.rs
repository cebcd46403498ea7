//! PolyBench `syrk` (`C = α·A·Aᵀ + β·C`, lower triangle) — extension
//! kernel with a triangular output domain.
//!
//! ```text
//! for io, jo, ii, ji (i tiled by P0, j tiled by P1):
//!   if j <= i:
//!     C[i,j] *= beta
//!     for k in 0..M:  C[i,j] += alpha * A[i,k] * A[j,k]
//! ```
//!
//! Every `(i, j)` element is independent, so any tiling is valid; only
//! the lower triangle (including the diagonal) is written.

use super::{Kernel, DTYPE};
use crate::datasets::{syrk_dims, ProblemSize};
use tvm_runtime::NDArray;
use tvm_te::ops::cmp;
use tvm_te::{placeholder, PrimExpr};
use tvm_tir::builder::{par, seq, ser, store, when, FuncBuilder};
use tvm_tir::PrimFunc;

/// PolyBench's `alpha`.
pub const ALPHA: f64 = 1.5;
/// PolyBench's `beta`.
pub const BETA: f64 = 1.2;

/// The syrk table of the code mold. The aggressive space adds the `PAR`
/// knob, whose value 2 parallelizes the `k` reduction: a race the
/// analyzer denies.
pub(crate) const KERNEL: Kernel = Kernel {
    name: "syrk",
    prelint: super::tile_prelint,
    instantiate: |size, config| {
        let (m, n) = syrk_dims(size);
        let par_mode = config.get("PAR").and_then(|v| v.as_int()).unwrap_or(0);
        build_syrk_par(m, n, config.int("P0"), config.int("P1"), par_mode)
    },
    init_args,
    reference_args: |size| {
        let args = init_args(size);
        let c = crate::reference::syrk(ALPHA, BETA, &args[0], &args[1]);
        vec![None, Some(c)]
    },
};

fn imm(v: f64) -> PrimExpr {
    PrimExpr::FloatImm(v, DTYPE)
}

/// A loop that is parallel or serial depending on the `PAR` knob.
fn knob_loop(
    parallel: bool,
    name: &str,
    extent: i64,
    f: impl FnOnce(PrimExpr) -> tvm_tir::Stmt,
) -> tvm_tir::Stmt {
    if parallel {
        par(name, extent, f)
    } else {
        ser(name, extent, f)
    }
}

/// Build tiled syrk with a parallelization choice: `par_mode` 0 runs the
/// outer row-tile loop parallel (race-free — the paper schedule), 1 runs
/// everything serial, and 2 parallelizes the `k` reduction instead — a
/// write-write race on `C[i,j]` that the dependence analyzer must deny.
pub(crate) fn build_syrk_par(m: usize, n: usize, ty: i64, tx: i64, par_mode: i64) -> PrimFunc {
    assert!(ty >= 1 && tx >= 1);
    let n_i = n as i64;
    let a = placeholder([n, m], DTYPE, "A");
    let c = placeholder([n, n], DTYPE, "C");
    let mut fb = FuncBuilder::new("syrk");
    let ab = fb.param(&a);
    let cb = fb.param(&c);
    let _ = &ab; // A is read-only; registered for the calling convention.

    let tiles_y = n_i.div_euclid(ty) + i64::from(n_i % ty != 0);
    let tiles_x = n_i.div_euclid(tx) + i64::from(n_i % tx != 0);

    // Row tiles write disjoint C rows (i = io·ty + ii never leaves its
    // tile), so the outer tile loop is parallel under par_mode 0; the
    // dependence analyzer re-proves this per configuration before any
    // pool dispatch.
    let body = knob_loop(par_mode == 0, "io", tiles_y, |io| {
        let (a, c, cb) = (a.clone(), c.clone(), cb.clone());
        ser("jo", tiles_x, move |jo| {
            let (a, c, cb) = (a.clone(), c.clone(), cb.clone());
            let io = io.clone();
            ser("ii", ty, move |ii| {
                let (a, c, cb) = (a.clone(), c.clone(), cb.clone());
                let (io, jo) = (io.clone(), jo.clone());
                ser("ji", tx, move |ji| {
                    let i = io * ty + ii.clone();
                    let j = jo * tx + ji;
                    let active = cmp::and(
                        cmp::and(
                            cmp::lt(i.clone(), PrimExpr::from(n_i)),
                            cmp::lt(j.clone(), PrimExpr::from(n_i)),
                        ),
                        cmp::le(j.clone(), i.clone()),
                    );
                    let scale = store(
                        &cb,
                        &[i.clone(), j.clone()],
                        c.at(&[i.clone(), j.clone()]) * imm(BETA),
                    );
                    let (ic, jc) = (i, j);
                    let (a1, c1, cb1) = (a.clone(), c.clone(), cb.clone());
                    let update = knob_loop(par_mode == 2, "k", m as i64, move |k| {
                        store(
                            &cb1,
                            &[ic.clone(), jc.clone()],
                            c1.at(&[ic.clone(), jc.clone()])
                                + imm(ALPHA)
                                    * a1.at(&[ic.clone(), k.clone()])
                                    * a1.at(&[jc.clone(), k]),
                        )
                    });
                    when(active, seq([scale, update]))
                })
            })
        })
    });
    fb.build(body)
}

fn init_args(size: ProblemSize) -> Vec<NDArray> {
    let (m, n) = syrk_dims(size);
    let a = NDArray::from_fn(&[n, m], DTYPE, |i| {
        ((i[0] * i[1] + 1) % n) as f64 / n as f64
    });
    let c = NDArray::from_fn(&[n, n], DTYPE, |i| {
        ((i[0] * i[1] + 2) % m) as f64 / m as f64
    });
    vec![a, c]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molds::{mold_for, mold_for_mode};
    use crate::{KernelName, ProblemSize, SpaceMode};
    use tvm_runtime::interp::execute;

    #[test]
    fn untiled_matches_reference() {
        check_par(1, 1, 0);
    }

    #[test]
    fn tiled_matches_reference() {
        check_par(6, 5, 0);
    }

    #[test]
    fn nondivisible_tiles_match_reference() {
        check_par(7, 11, 0);
    }

    fn check_par(ty: i64, tx: i64, par_mode: i64) {
        let mold = mold_for(KernelName::Syrk, ProblemSize::Mini);
        let (m, n) = syrk_dims(ProblemSize::Mini);
        let f = build_syrk_par(m, n, ty, tx, par_mode);
        let mut args = mold.init_args();
        execute(&f, &mut args).expect("run");
        let expect = mold.reference_args()[1].clone().expect("C");
        assert!(
            args[1].allclose(&expect, 1e-9, 1e-9),
            "tiles ({ty},{tx}) par {par_mode}: max diff {}",
            args[1].max_abs_diff(&expect)
        );
    }

    #[test]
    fn degenerate_aggressive_tiles_match_reference() {
        // tile == extent, tile > extent (n = 20 at mini).
        check_par(20, 30, 0);
        check_par(40, 19, 1);
    }

    #[test]
    fn parallel_reduction_is_denied_by_analyzer() {
        let mold = mold_for_mode(KernelName::Syrk, ProblemSize::Mini, SpaceMode::Aggressive);
        let (m, n) = syrk_dims(ProblemSize::Mini);
        let f = build_syrk_par(m, n, 5, 5, 2);
        let races = tvm_tir::analyze::deps::races(&f);
        let witness = races
            .iter()
            .find(|(d, _)| d.severity == tvm_tir::analyze::Severity::Deny)
            .and_then(|(_, w)| w.as_ref())
            .expect("parallel k-reduction must trip the race analysis, with a witness");
        assert!(
            tvm_tir::analyze::oracle::confirm_race(&f, witness),
            "the witness must hold on the function"
        );
        // The mold-level prelint alone does not catch races — that is the
        // analyzer's job — but the widened space must contain the knob.
        assert!(mold.space().get("PAR").is_some());
    }

    #[test]
    fn upper_triangle_untouched() {
        let mold = mold_for(KernelName::Syrk, ProblemSize::Mini);
        let (m, n) = syrk_dims(ProblemSize::Mini);
        let f = build_syrk_par(m, n, 5, 6, 0);
        let input = mold.init_args()[1].clone();
        let mut args = mold.init_args();
        execute(&f, &mut args).expect("run");
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(args[1].get(&[i, j]), input.get(&[i, j]));
            }
        }
    }
}
