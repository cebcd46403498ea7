//! PolyBench `gemm` (`C' = α·A·B + β·C`) — extension kernel showing the
//! mold machinery generalizes beyond the paper's three benchmarks.

use super::{Kernel, MatmulKnobs, DTYPE};
use crate::datasets::{gemm_dims, ProblemSize};
use configspace::Configuration;
use tvm_runtime::NDArray;
use tvm_te::{compute, placeholder, reduce_axis, sum, PrimExpr, Schedule};
use tvm_tir::analyze::prelint::Prelint;
use tvm_tir::lower::lower;
use tvm_tir::PrimFunc;

/// PolyBench's `alpha`.
pub const ALPHA: f64 = 1.5;
/// PolyBench's `beta`.
pub const BETA: f64 = 1.2;

/// The gemm table of the code mold.
pub(crate) const KERNEL: Kernel = Kernel {
    name: "gemm",
    prelint: |config| {
        let mut p = Prelint::new();
        let kn = MatmulKnobs::from_config(config);
        super::matmul_stage_prelint(&mut p, config.int("P0"), config.int("P1"), &kn);
        p.finish()
    },
    instantiate,
    init_args,
    reference_args: |size| {
        let args = init_args(size);
        let out = crate::reference::gemm(ALPHA, &args[0], &args[1], BETA, &args[2]);
        vec![None, None, None, Some(out)]
    },
};

/// Build gemm with tiles `(P0, P1)` and the scheduling knobs on the
/// multiplication stage.
fn instantiate(size: ProblemSize, config: &Configuration) -> PrimFunc {
    let (ni, nj, nk) = gemm_dims(size);
    let a = placeholder([ni, nk], DTYPE, "A");
    let b = placeholder([nk, nj], DTYPE, "B");
    let c = placeholder([ni, nj], DTYPE, "C");
    let k = reduce_axis(0, nk as i64, "k");
    let t = compute([ni, nj], "T", |i| {
        sum(
            a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    let out = compute([ni, nj], "Out", |i| {
        PrimExpr::FloatImm(ALPHA, DTYPE) * t.at(&[i[0].clone(), i[1].clone()])
            + PrimExpr::FloatImm(BETA, DTYPE) * c.at(&[i[0].clone(), i[1].clone()])
    });
    let mut s = Schedule::create(std::slice::from_ref(&out));
    let tt = s.stages[0].tensor.clone();
    let (ty, tx) = (config.int("P0"), config.int("P1"));
    let kn = MatmulKnobs::from_config(config);
    super::tile_matmul_stage_aggressive(&mut s, &tt, &k, ty, tx, &kn);
    lower(&s, &[a, b, c, out], "gemm")
}

fn init_args(size: ProblemSize) -> Vec<NDArray> {
    let (ni, nj, nk) = gemm_dims(size);
    let a = NDArray::from_fn(&[ni, nk], DTYPE, |i| {
        (i[0] * i[1] + 1) as f64 % ni as f64 / ni as f64
    });
    let b = NDArray::from_fn(&[nk, nj], DTYPE, |i| {
        (i[0] * (i[1] + 1)) as f64 % nj as f64 / nj as f64
    });
    let c = NDArray::from_fn(&[ni, nj], DTYPE, |i| {
        (i[0] * (i[1] + 2)) as f64 % nj as f64 / nj as f64
    });
    let out = NDArray::zeros(&[ni, nj], DTYPE);
    vec![a, b, c, out]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molds::{mold_for, mold_for_mode};
    use crate::{KernelName, ProblemSize, SpaceMode};
    use tvm_runtime::interp::execute;

    #[test]
    fn gemm_matches_reference() {
        let mold = mold_for(KernelName::Gemm, ProblemSize::Mini);
        let cfg = mold.baseline_configuration();
        let f = mold.instantiate(&cfg);
        let mut args = mold.init_args();
        execute(&f, &mut args).expect("run");
        let expect = mold.reference_args()[3].clone().expect("out");
        assert!(
            args[3].allclose(&expect, 1e-9, 1e-9),
            "max diff {}",
            args[3].max_abs_diff(&expect)
        );
    }

    #[test]
    fn space_uses_divisors_of_output_dims() {
        let mold = mold_for(KernelName::Gemm, ProblemSize::Mini); // (20, 25, 30)
        assert_eq!(mold.space().get("P0").unwrap().cardinality(), 6); // div(20)
        assert_eq!(mold.space().get("P1").unwrap().cardinality(), 3); // div(25)
    }

    /// Run one aggressive config against the reference output.
    fn check_aggressive(ty: i64, tx: i64, knobs: [i64; 5]) {
        check_aggressive_at(ProblemSize::Mini, ty, tx, knobs);
    }

    fn check_aggressive_at(size: ProblemSize, ty: i64, tx: i64, knobs: [i64; 5]) {
        let mold = mold_for_mode(KernelName::Gemm, size, SpaceMode::Aggressive);
        let cfg = Configuration::new(
            vec![
                "P0".into(),
                "P1".into(),
                "ORDER".into(),
                "FUSE".into(),
                "VEC".into(),
                "PAR".into(),
                "UNROLL".into(),
            ],
            [ty, tx, knobs[0], knobs[1], knobs[2], knobs[3], knobs[4]]
                .iter()
                .map(|&v| configspace::ParamValue::Int(v))
                .collect(),
        );
        assert!(mold.space().validate(&cfg), "({ty},{tx},{knobs:?}) invalid");
        assert!(
            mold.prelint(&cfg).is_empty(),
            "({ty},{tx},{knobs:?}) prelint-denied"
        );
        let f = mold.instantiate(&cfg);
        let mut args = mold.init_args();
        execute(&f, &mut args).expect("run");
        let expect = mold.reference_args()[3].clone().expect("out");
        assert!(
            args[3].allclose(&expect, 1e-9, 1e-9),
            "({ty},{tx},{knobs:?}): max diff {}",
            args[3].max_abs_diff(&expect)
        );
    }

    #[test]
    fn nondivisor_tiles_match_reference() {
        // ni = 20, nj = 25: 16 ∤ 20, 8 ∤ 25 — guarded tails both axes.
        check_aggressive(16, 8, [0, 0, 0, 0, 0]);
    }

    #[test]
    fn tile_equals_extent_matches_reference() {
        check_aggressive(20, 25, [0, 0, 0, 0, 0]);
    }

    #[test]
    fn tile_exceeds_extent_matches_reference() {
        // 2n tiles: a single guarded mega-tile on each axis.
        check_aggressive(40, 50, [0, 0, 0, 0, 0]);
    }

    #[test]
    fn small_size_aggressive_tiles_match_reference() {
        // Small dims (60, 70, 80): 16 ∤ 60 and 32 ∤ 70 — guarded tails
        // on both axes at the larger extents...
        check_aggressive_at(ProblemSize::Small, 16, 32, [0; 5]);
        // ...and tile == extent / tile > extent survive at small, too.
        check_aggressive_at(ProblemSize::Small, 60, 128, [0; 5]);
    }

    #[test]
    fn knobbed_schedules_match_reference() {
        // Reordered + vectorized + unrolled, serial.
        check_aggressive(5, 8, [1, 0, 4, 1, 1]);
        // Reduction innermost; vectorized axis is demoted to serial.
        check_aggressive(4, 5, [2, 0, 2, 0, 0]);
        // Legal fuse of the two outermost tile loops.
        check_aggressive(5, 5, [0, 1, 0, 0, 0]);
        // Legal fuse of yo with k under ORDER == 1 — runs serial because
        // the fused axis carries the reduction.
        check_aggressive(4, 8, [1, 2, 0, 1, 0]);
    }

    #[test]
    fn prelint_denies_illegal_gemm_schedules() {
        use tvm_tir::analyze::codes;
        let mold = mold_for_mode(KernelName::Gemm, ProblemSize::Mini, SpaceMode::Aggressive);
        let cfg = |p0: i64, p1: i64, knobs: [i64; 5]| {
            Configuration::new(
                vec![
                    "P0".into(),
                    "P1".into(),
                    "ORDER".into(),
                    "FUSE".into(),
                    "VEC".into(),
                    "PAR".into(),
                    "UNROLL".into(),
                ],
                [p0, p1, knobs[0], knobs[1], knobs[2], knobs[3], knobs[4]]
                    .iter()
                    .map(|&v| configspace::ParamValue::Int(v))
                    .collect(),
            )
        };
        let codes_of = |c: &Configuration| -> Vec<&'static str> {
            mold.prelint(c).iter().map(|d| d.code).collect()
        };
        assert_eq!(codes_of(&cfg(0, 5, [0; 5])), vec![codes::TRIP_ZERO]);
        assert_eq!(
            codes_of(&cfg(4, 5, [0, 0, 64, 0, 0])),
            vec![codes::VEC_OVER]
        );
        assert_eq!(
            codes_of(&cfg(4, 5, [0, 2, 0, 0, 0])),
            vec![codes::FUSE_ILLEGAL],
            "fuse(yo, k) is non-adjacent under ORDER == 0"
        );
        assert!(
            codes_of(&cfg(4, 5, [1, 2, 0, 0, 0])).is_empty(),
            "fuse(yo, k) is adjacent under ORDER == 1"
        );
        // `TIR-VEC-OVER` exactly where lowering keeps the masked lanes:
        // the vector loop survives only with no loop inside it.
        for order in 0..3 {
            for unroll in 0..2 {
                for ty in [1, 4] {
                    let c = cfg(ty, 5, [order, 0, 64, 0, unroll]);
                    let denied = codes_of(&c) == vec![codes::VEC_OVER];
                    let masked =
                        tvm_tir::analyze::oracle::confirm_masked_vector(&mold.instantiate(&c));
                    assert_eq!(denied, masked, "{c}");
                    assert!(denied || codes_of(&c).is_empty(), "{c}");
                }
            }
        }
    }
}
