//! PolyBench `gemm` (`C' = α·A·B + β·C`) — extension kernel showing the
//! mold machinery generalizes beyond the paper's three benchmarks.

use crate::datasets::{gemm_dims, ProblemSize};
use crate::molds::CodeMold;
use crate::spaces::{space_for_mode, SpaceMode};
use configspace::{ConfigSpace, Configuration};
use tvm_runtime::NDArray;
use tvm_te::{compute, placeholder, reduce_axis, sum, DType, PrimExpr, Schedule};
use tvm_tir::analyze::{prelint::Prelint, Diagnostic};
use tvm_tir::lower::lower;
use tvm_tir::PrimFunc;

use super::MatmulKnobs;

/// Element type (`DATA_TYPE double`).
pub const DTYPE: DType = DType::F64;
/// PolyBench's `alpha`.
pub const ALPHA: f64 = 1.5;
/// PolyBench's `beta`.
pub const BETA: f64 = 1.2;

/// Build gemm with tiles `(ty, tx)` and scheduling knobs `kn` on the
/// multiplication stage.
pub(crate) fn build_gemm_knobbed(
    ni: usize,
    nj: usize,
    nk: usize,
    ty: i64,
    tx: i64,
    kn: &MatmulKnobs,
) -> PrimFunc {
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
    super::tile_matmul_stage_aggressive(&mut s, &tt, &k, ty, tx, kn);
    lower(&s, &[a, b, c, out], "gemm")
}

/// The gemm code mold.
pub struct GemmMold {
    size: ProblemSize,
    mode: SpaceMode,
    dims: (usize, usize, usize),
    space: ConfigSpace,
}

impl GemmMold {
    /// Paper-space mold for a problem-size class.
    pub fn new(size: ProblemSize) -> GemmMold {
        GemmMold::with_mode(size, SpaceMode::Paper)
    }

    /// Mold for a problem-size class under a space mode.
    pub fn with_mode(size: ProblemSize, mode: SpaceMode) -> GemmMold {
        GemmMold {
            size,
            mode,
            dims: gemm_dims(size),
            space: space_for_mode(crate::datasets::KernelName::Gemm, size, mode),
        }
    }
}

impl CodeMold for GemmMold {
    fn name(&self) -> &str {
        "gemm"
    }

    fn size(&self) -> ProblemSize {
        self.size
    }

    fn mode(&self) -> SpaceMode {
        self.mode
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn prelint(&self, config: &Configuration) -> Vec<Diagnostic> {
        let mut p = Prelint::new();
        let kn = MatmulKnobs::from_config(config);
        super::matmul_stage_prelint(&mut p, config.int("P0"), config.int("P1"), &kn);
        p.finish()
    }

    fn instantiate(&self, config: &Configuration) -> PrimFunc {
        assert!(
            self.space.validate(config),
            "configuration {config} is not in the gemm space"
        );
        let (ni, nj, nk) = self.dims;
        let kn = MatmulKnobs::from_config(config);
        build_gemm_knobbed(ni, nj, nk, config.int("P0"), config.int("P1"), &kn)
    }

    fn init_args(&self) -> Vec<NDArray> {
        let (ni, nj, nk) = self.dims;
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

    fn reference_args(&self) -> Vec<Option<NDArray>> {
        let args = self.init_args();
        let out = crate::reference::gemm(ALPHA, &args[0], &args[1], BETA, &args[2]);
        vec![None, None, None, Some(out)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_runtime::interp::execute;

    #[test]
    fn gemm_matches_reference() {
        let mold = GemmMold::new(ProblemSize::Mini);
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
        let mold = GemmMold::new(ProblemSize::Mini); // (20, 25, 30)
        assert_eq!(mold.space().get("P0").unwrap().cardinality(), Some(6)); // div(20)
        assert_eq!(mold.space().get("P1").unwrap().cardinality(), Some(3)); // div(25)
    }

    /// Run one aggressive config against the reference output.
    fn check_aggressive(ty: i64, tx: i64, knobs: [i64; 5]) {
        check_aggressive_at(ProblemSize::Mini, ty, tx, knobs);
    }

    fn check_aggressive_at(size: ProblemSize, ty: i64, tx: i64, knobs: [i64; 5]) {
        let mold = GemmMold::with_mode(size, SpaceMode::Aggressive);
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
        let mold = GemmMold::with_mode(ProblemSize::Mini, SpaceMode::Aggressive);
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
    }
}
