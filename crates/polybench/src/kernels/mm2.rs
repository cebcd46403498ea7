//! PolyBench `2mm` (`D' = α·(A·B)·C + β·D`) — extension kernel with four
//! tile parameters (two matmul stages).

use crate::datasets::{mm2_dims, ProblemSize};
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

/// Build 2mm with tiles `(t0, t1)` on stage `E = A·B`, `(t2, t3)` on
/// stage `F = E·C`, and scheduling knobs `kn` on stage `F`.
pub(crate) fn build_2mm_knobbed(
    ni: usize,
    nj: usize,
    nk: usize,
    nl: usize,
    tiles: [i64; 4],
    kn: &MatmulKnobs,
) -> PrimFunc {
    let a = placeholder([ni, nk], DTYPE, "A");
    let b = placeholder([nk, nj], DTYPE, "B");
    let c = placeholder([nj, nl], DTYPE, "C");
    let d = placeholder([ni, nl], DTYPE, "D");
    let k = reduce_axis(0, nk as i64, "k");
    let e = compute([ni, nj], "E", |i| {
        sum(
            a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    let j = reduce_axis(0, nj as i64, "j");
    let f = compute([ni, nl], "F", |i| {
        sum(
            e.at(&[i[0].clone(), j.var_expr()]) * c.at(&[j.var_expr(), i[1].clone()]),
            std::slice::from_ref(&j),
        )
    });
    let out = compute([ni, nl], "Out", |i| {
        PrimExpr::FloatImm(ALPHA, DTYPE) * f.at(&[i[0].clone(), i[1].clone()])
            + PrimExpr::FloatImm(BETA, DTYPE) * d.at(&[i[0].clone(), i[1].clone()])
    });
    let mut s = Schedule::create(std::slice::from_ref(&out));
    let et = s.stages[0].tensor.clone();
    let ft = s.stages[1].tensor.clone();
    super::tile_matmul_stage(&mut s, &et, &k, tiles[0], tiles[1]);
    super::tile_matmul_stage_aggressive(&mut s, &ft, &j, tiles[2], tiles[3], kn);
    lower(&s, &[a, b, c, d, out], "mm2")
}

/// The 2mm code mold.
pub struct Mm2Mold {
    size: ProblemSize,
    mode: SpaceMode,
    dims: (usize, usize, usize, usize),
    space: ConfigSpace,
}

impl Mm2Mold {
    /// Paper-space mold for a problem-size class.
    pub fn new(size: ProblemSize) -> Mm2Mold {
        Mm2Mold::with_mode(size, SpaceMode::Paper)
    }

    /// Mold for a problem-size class under a space mode.
    pub fn with_mode(size: ProblemSize, mode: SpaceMode) -> Mm2Mold {
        Mm2Mold {
            size,
            mode,
            dims: mm2_dims(size),
            space: space_for_mode(crate::datasets::KernelName::Mm2, size, mode),
        }
    }
}

impl CodeMold for Mm2Mold {
    fn name(&self) -> &str {
        "2mm"
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
        // Stage E is always scheduled with the plain (knob-free) pattern.
        p.split("y", config.int("P0")).split("x", config.int("P1"));
        super::matmul_stage_prelint(&mut p, config.int("P2"), config.int("P3"), &kn);
        p.finish()
    }

    fn instantiate(&self, config: &Configuration) -> PrimFunc {
        assert!(
            self.space.validate(config),
            "configuration {config} is not in the 2mm space"
        );
        let (ni, nj, nk, nl) = self.dims;
        let tiles = [
            config.int("P0"),
            config.int("P1"),
            config.int("P2"),
            config.int("P3"),
        ];
        let kn = MatmulKnobs::from_config(config);
        build_2mm_knobbed(ni, nj, nk, nl, tiles, &kn)
    }

    fn init_args(&self) -> Vec<NDArray> {
        let (ni, nj, nk, nl) = self.dims;
        let a = NDArray::from_fn(&[ni, nk], DTYPE, |i| {
            ((i[0] * i[1] + 1) % ni) as f64 / ni as f64
        });
        let b = NDArray::from_fn(&[nk, nj], DTYPE, |i| {
            ((i[0] * (i[1] + 1)) % nj) as f64 / nj as f64
        });
        let c = NDArray::from_fn(&[nj, nl], DTYPE, |i| {
            ((i[0] * (i[1] + 3) + 1) % nl) as f64 / nl as f64
        });
        let d = NDArray::from_fn(&[ni, nl], DTYPE, |i| {
            (i[0] * (i[1] + 2) % nk) as f64 / nk as f64
        });
        let out = NDArray::zeros(&[ni, nl], DTYPE);
        vec![a, b, c, d, out]
    }

    fn reference_args(&self) -> Vec<Option<NDArray>> {
        let args = self.init_args();
        let out = crate::reference::mm2(ALPHA, &args[0], &args[1], &args[2], BETA, &args[3]);
        vec![None, None, None, None, Some(out)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_runtime::interp::execute;

    #[test]
    fn mm2_matches_reference() {
        let mold = Mm2Mold::new(ProblemSize::Mini);
        let f = mold.instantiate(&mold.baseline_configuration());
        let mut args = mold.init_args();
        execute(&f, &mut args).expect("run");
        let expect = mold.reference_args()[4].clone().expect("out");
        assert!(
            args[4].allclose(&expect, 1e-9, 1e-9),
            "max diff {}",
            args[4].max_abs_diff(&expect)
        );
    }

    #[test]
    fn four_tile_parameters() {
        let mold = Mm2Mold::new(ProblemSize::Mini);
        assert_eq!(mold.space().len(), 4);
    }

    /// Run an aggressive tile pick (neutral knobs) against the reference.
    fn check_aggressive_tiles(tiles: [i64; 4]) {
        check_aggressive_tiles_at(ProblemSize::Mini, tiles);
    }

    fn check_aggressive_tiles_at(size: ProblemSize, tiles: [i64; 4]) {
        let mold = Mm2Mold::with_mode(size, SpaceMode::Aggressive);
        let mut names: Vec<String> = (0..4).map(|i| format!("P{i}")).collect();
        names.extend(crate::spaces::KNOB_NAMES.iter().map(|s| s.to_string()));
        let mut vals: Vec<configspace::ParamValue> = tiles
            .iter()
            .map(|&v| configspace::ParamValue::Int(v))
            .collect();
        vals.extend(std::iter::repeat_n(configspace::ParamValue::Int(0), 5));
        let cfg = Configuration::new(names, vals);
        assert!(mold.space().validate(&cfg), "{tiles:?} invalid");
        assert!(mold.prelint(&cfg).is_empty(), "{tiles:?} prelint-denied");
        let f = mold.instantiate(&cfg);
        let mut args = mold.init_args();
        execute(&f, &mut args).expect("run");
        let expect = mold.reference_args()[4].clone().expect("out");
        assert!(
            args[4].allclose(&expect, 1e-9, 1e-9),
            "{tiles:?}: max diff {}",
            args[4].max_abs_diff(&expect)
        );
    }

    #[test]
    fn nondivisor_tiles_match_reference() {
        // Mini dims (16, 18, 22, 24): 15 ∤ 16, 4 ∤ 18, 16 ∤ 24.
        check_aggressive_tiles([15, 4, 8, 16]);
    }

    #[test]
    fn degenerate_tiles_match_reference() {
        // tile == extent on P0, tile > extent on P2.
        check_aggressive_tiles([16, 9, 32, 12]);
    }

    #[test]
    fn small_size_aggressive_tiles_match_reference() {
        // Small dims (40, 50, 70, 80): every pick is a non-divisor of
        // its loop extent — guarded tails on all four split axes.
        check_aggressive_tiles_at(ProblemSize::Small, [16, 16, 32, 32]);
        // tile == extent (P0), tile > extent (P1, P2), extent − 1 (P3).
        check_aggressive_tiles_at(ProblemSize::Small, [40, 64, 80, 79]);
    }
}
