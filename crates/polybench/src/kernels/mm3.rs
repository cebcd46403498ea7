//! The `3mm` kernel: `E = A·B; F = C·D; G = E·F` through the full
//! TE → schedule → lower pipeline, with the paper's six split parameters.

use crate::datasets::{mm3_dims, Mm3Dims, ProblemSize};
use crate::molds::CodeMold;
use crate::spaces::{space_for_mode, SpaceMode};
use configspace::{ConfigSpace, Configuration};
use tvm_runtime::NDArray;
use tvm_te::{compute, placeholder, reduce_axis, sum, DType, Schedule, Tensor};
use tvm_tir::analyze::{prelint::Prelint, Diagnostic};
use tvm_tir::lower::lower;
use tvm_tir::PrimFunc;

use super::MatmulKnobs;

/// Element type of the PolyBench kernels (`DATA_TYPE double`).
pub const DTYPE: DType = DType::F64;

/// Build the 3mm TE graph; returns `(args, G, reduce axes of E/F/G)`.
fn build_graph(d: &Mm3Dims) -> ([Tensor; 4], Tensor, [tvm_te::IterVar; 3]) {
    let a = placeholder([d.n, d.l], DTYPE, "A");
    let b = placeholder([d.l, d.m], DTYPE, "B");
    let c = placeholder([d.m, d.o], DTYPE, "C");
    let dd = placeholder([d.o, d.p], DTYPE, "D");
    let k = reduce_axis(0, d.l as i64, "k");
    let e = compute([d.n, d.m], "E", |i| {
        sum(
            a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    let l = reduce_axis(0, d.o as i64, "l");
    let f = compute([d.m, d.p], "F", |i| {
        sum(
            c.at(&[i[0].clone(), l.var_expr()]) * dd.at(&[l.var_expr(), i[1].clone()]),
            std::slice::from_ref(&l),
        )
    });
    let m = reduce_axis(0, d.m as i64, "m");
    let g = compute([d.n, d.p], "G", |i| {
        sum(
            e.at(&[i[0].clone(), m.var_expr()]) * f.at(&[m.var_expr(), i[1].clone()]),
            std::slice::from_ref(&m),
        )
    });
    ([a, b, c, dd], g, [k, l, m])
}

/// Lower 3mm with the six tile factors `(P0..P5)` and scheduling knobs
/// `kn` on the output stage `G`.
pub(crate) fn build_3mm_knobbed(d: &Mm3Dims, tiles: [i64; 6], kn: &MatmulKnobs) -> PrimFunc {
    let (args, g, [k, l, m]) = build_graph(d);
    let mut s = Schedule::create(std::slice::from_ref(&g));
    // Stage tensors: E and F are the first two stages.
    let e = s.stages[0].tensor.clone();
    let f = s.stages[1].tensor.clone();
    super::tile_matmul_stage(&mut s, &e, &k, tiles[0], tiles[1]);
    super::tile_matmul_stage(&mut s, &f, &l, tiles[2], tiles[3]);
    super::tile_matmul_stage_aggressive(&mut s, &g, &m, tiles[4], tiles[5], kn);
    let [a, b, c, dd] = args;
    lower(&s, &[a, b, c, dd, g], "mm3")
}

/// Lower 3mm with the six tile factors `(P0..P5)` of the paper's mold:
/// `P0/P1` tile stage `E`, `P2/P3` stage `F`, `P4/P5` stage `G`.
pub fn build_3mm(d: &Mm3Dims, tiles: [i64; 6]) -> PrimFunc {
    build_3mm_knobbed(d, tiles, &MatmulKnobs::neutral())
}

/// The 3mm code mold.
pub struct Mm3Mold {
    size: ProblemSize,
    mode: SpaceMode,
    dims: Mm3Dims,
    space: ConfigSpace,
}

impl Mm3Mold {
    /// Paper-space mold for a problem-size class.
    pub fn new(size: ProblemSize) -> Mm3Mold {
        Mm3Mold::with_mode(size, SpaceMode::Paper)
    }

    /// Mold for a problem-size class under a space mode.
    pub fn with_mode(size: ProblemSize, mode: SpaceMode) -> Mm3Mold {
        Mm3Mold {
            size,
            mode,
            dims: mm3_dims(size),
            space: space_for_mode(crate::datasets::KernelName::Mm3, size, mode),
        }
    }

    /// Kernel dimensions.
    pub fn dims(&self) -> &Mm3Dims {
        &self.dims
    }
}

impl CodeMold for Mm3Mold {
    fn name(&self) -> &str {
        "3mm"
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
        // Stages E and F use the plain (knob-free) pattern.
        p.split("y", config.int("P0")).split("x", config.int("P1"));
        p.split("y", config.int("P2")).split("x", config.int("P3"));
        super::matmul_stage_prelint(&mut p, config.int("P4"), config.int("P5"), &kn);
        p.finish()
    }

    fn instantiate(&self, config: &Configuration) -> PrimFunc {
        assert!(
            self.space.validate(config),
            "configuration {config} is not in the 3mm space"
        );
        let tiles = [
            config.int("P0"),
            config.int("P1"),
            config.int("P2"),
            config.int("P3"),
            config.int("P4"),
            config.int("P5"),
        ];
        let kn = MatmulKnobs::from_config(config);
        build_3mm_knobbed(&self.dims, tiles, &kn)
    }

    fn init_args(&self) -> Vec<NDArray> {
        let [a, b, c, d] = crate::reference::mm3_inputs(&self.dims, DTYPE);
        let g = NDArray::zeros(&[self.dims.n, self.dims.p], DTYPE);
        vec![a, b, c, d, g]
    }

    fn reference_args(&self) -> Vec<Option<NDArray>> {
        let [a, b, c, d] = crate::reference::mm3_inputs(&self.dims, DTYPE);
        let g = crate::reference::mm3(&a, &b, &c, &d);
        vec![None, None, None, None, Some(g)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_runtime::interp::execute;

    #[test]
    fn graph_shapes() {
        let d = mm3_dims(ProblemSize::Mini);
        let (_, g, _) = build_graph(&d);
        assert_eq!(g.shape(), &[d.n, d.p]);
    }

    #[test]
    fn untiled_equals_reference() {
        let mold = Mm3Mold::new(ProblemSize::Mini);
        let cfg = Configuration::new(
            (0..6).map(|i| format!("P{i}")).collect(),
            vec![configspace::ParamValue::Int(1); 6],
        );
        let f = mold.instantiate(&cfg);
        let mut args = mold.init_args();
        execute(&f, &mut args).expect("run");
        let expect = mold.reference_args();
        let g = expect[4].as_ref().expect("G");
        assert!(
            args[4].allclose(g, 1e-9, 1e-9),
            "max diff {}",
            args[4].max_abs_diff(g)
        );
    }

    #[test]
    fn tiled_equals_reference() {
        let mold = Mm3Mold::new(ProblemSize::Mini);
        // Valid divisor picks for mini dims (m=20, n=16, p=24).
        let cfg = Configuration::new(
            (0..6).map(|i| format!("P{i}")).collect(),
            [4i64, 8, 6, 5, 12, 2]
                .iter()
                .map(|&v| configspace::ParamValue::Int(v))
                .collect(),
        );
        assert!(mold.space().validate(&cfg), "pick valid divisors");
        let f = mold.instantiate(&cfg);
        let mut args = mold.init_args();
        execute(&f, &mut args).expect("run");
        let expect = mold.reference_args();
        let g = expect[4].as_ref().expect("G");
        assert!(
            args[4].allclose(g, 1e-9, 1e-9),
            "max diff {}",
            args[4].max_abs_diff(g)
        );
    }

    #[test]
    fn lowered_structure_has_three_update_nests() {
        let mold = Mm3Mold::new(ProblemSize::Mini);
        let f = mold.instantiate(&mold.baseline_configuration());
        // 3 init stores + 3 update stores.
        assert_eq!(f.body.store_count(), 6);
        // E and F are internal allocations; params are A,B,C,D,G.
        assert_eq!(f.params.len(), 5);
        assert_eq!(f.allocs.len(), 2);
    }

    /// Run an aggressive config (tiles + knobs on stage G) against the
    /// reference output.
    fn check_aggressive(tiles: [i64; 6], knobs: [i64; 5]) {
        check_aggressive_at(ProblemSize::Mini, tiles, knobs);
    }

    fn check_aggressive_at(size: ProblemSize, tiles: [i64; 6], knobs: [i64; 5]) {
        let mold = Mm3Mold::with_mode(size, SpaceMode::Aggressive);
        let mut names: Vec<String> = (0..6).map(|i| format!("P{i}")).collect();
        names.extend(crate::spaces::KNOB_NAMES.iter().map(|s| s.to_string()));
        let vals: Vec<configspace::ParamValue> = tiles
            .iter()
            .chain(knobs.iter())
            .map(|&v| configspace::ParamValue::Int(v))
            .collect();
        let cfg = Configuration::new(names, vals);
        assert!(mold.space().validate(&cfg), "{tiles:?}/{knobs:?} invalid");
        assert!(
            mold.prelint(&cfg).is_empty(),
            "{tiles:?}/{knobs:?} prelint-denied"
        );
        let f = mold.instantiate(&cfg);
        let mut args = mold.init_args();
        execute(&f, &mut args).expect("run");
        let expect = mold.reference_args();
        let g = expect[4].as_ref().expect("G");
        assert!(
            args[4].allclose(g, 1e-9, 1e-9),
            "{tiles:?}/{knobs:?}: max diff {}",
            args[4].max_abs_diff(g)
        );
    }

    #[test]
    fn nondivisor_and_overshooting_tiles_match_reference() {
        // Mini dims n=16, l=18, m=20, o=22, p=24. Every pick is either a
        // non-divisor of its loop extent or exceeds it outright.
        check_aggressive([19, 15, 23, 16, 32, 15], [0; 5]);
    }

    #[test]
    fn small_size_aggressive_tiles_match_reference() {
        // Small dims n=40, l=50, m=60, o=70, p=80: overshooting tiles on
        // P0/P2 (64 > 60, 128 > 80), non-divisors everywhere else.
        check_aggressive_at(ProblemSize::Small, [64, 39, 128, 59, 79, 16], [0; 5]);
    }

    #[test]
    fn knobbed_output_stage_matches_reference() {
        // Reorder + vectorize + unroll on stage G, serial execution.
        check_aggressive([4, 8, 6, 5, 12, 8], [1, 0, 4, 1, 1]);
        // Reduction innermost on G with a legal outer fuse.
        check_aggressive([4, 8, 6, 5, 12, 2], [2, 1, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "not in the 3mm space")]
    fn foreign_config_rejected() {
        let mold = Mm3Mold::new(ProblemSize::Mini);
        let cfg = Configuration::new(
            (0..6).map(|i| format!("P{i}")).collect(),
            vec![configspace::ParamValue::Int(7); 6], // 7 divides nothing here
        );
        let _ = mold.instantiate(&cfg);
    }
}
