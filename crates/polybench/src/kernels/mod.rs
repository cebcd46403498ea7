//! Kernel implementations, one module per PolyBench kernel.
//!
//! A module holds only what is its kernel's own: its TE/TIR build
//! function, its prelint, its input arrays and its reference outputs. It
//! exports them as one [`Kernel`] table, `KERNEL`, which
//! [`crate::molds::mold_for_mode`] wraps with a problem size, a space mode
//! and the tuning space into the one code mold.

pub mod cholesky;
pub mod gemm;
pub mod lu;
pub mod mm2;
pub mod mm3;
pub mod syrk;
pub mod trmm;

use crate::datasets::ProblemSize;
use configspace::Configuration;
use tvm_runtime::NDArray;
use tvm_te::schedule::Schedule;
use tvm_te::{DType, IterVar, Tensor};
use tvm_tir::analyze::{prelint::Prelint, Diagnostic};
use tvm_tir::PrimFunc;

/// Element type of the PolyBench kernels (`DATA_TYPE double`).
pub const DTYPE: DType = DType::F64;

/// One kernel's part of a code mold, as functions of the problem size:
/// what [`crate::molds::CodeMold`] asks of a kernel beyond its space.
pub(crate) struct Kernel {
    /// Kernel name (e.g. `"3mm"`).
    pub name: &'static str,
    /// The declared-schedule check ([`crate::molds::CodeMold::prelint`]).
    pub prelint: fn(&Configuration) -> Vec<Diagnostic>,
    /// Fill the holes with a configuration and lower to TIR.
    pub instantiate: fn(ProblemSize, &Configuration) -> PrimFunc,
    /// The argument arrays, inputs followed by outputs.
    pub init_args: fn(ProblemSize) -> Vec<NDArray>,
    /// The reference outputs for `init_args`, `None` for pure inputs.
    pub reference_args: fn(ProblemSize) -> Vec<Option<NDArray>>,
}

/// Apply the paper's standard two-factor tile pattern to a matmul-like
/// stage: `yo, yi = split(y, ty); xo, xi = split(x, tx);
/// reorder(yo, xo, k, yi, xi)`.
pub(crate) fn tile_matmul_stage(s: &mut Schedule, t: &Tensor, k: &IterVar, ty: i64, tx: i64) {
    let (y, x) = (t.axis(0), t.axis(1));
    let (yo, yi) = s.split(t, &y, ty);
    let (xo, xi) = s.split(t, &x, tx);
    s.reorder(t, &[yo.clone(), xo, k.clone(), yi, xi]);
    // Distinct yo tiles write disjoint output rows, so the outer tile
    // loop is parallel; the dependence analyzer re-proves race freedom
    // per configuration before the VM dispatches it to the worker pool.
    s.parallel(t, &yo);
}

/// The aggressive-mode scheduling knobs shared by the TE matmul kernels
/// (`gemm`, `2mm`, `3mm`). Value 0 of every knob reproduces the paper
/// schedule; see `spaces::matmul_knobs` for the full semantics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatmulKnobs {
    /// Loop order: 0 `yo,xo,k,yi,xi`, 1 `xo,yo,k,xi,yi`, 2 `yo,xo,yi,xi,k`.
    pub order: i64,
    /// 0 none, 1 fuse the two outermost tile loops, 2 fuse `yo` with `k`.
    pub fuse: i64,
    /// Vector lanes on the innermost column axis (0 disables).
    pub vec: i64,
    /// 0 parallel outermost, 1 serial, 2 parallel the reduction axis.
    pub par: i64,
    /// 0 none, 1 unroll the inner row loop.
    pub unroll: i64,
}

impl MatmulKnobs {
    /// Read the knobs from a configuration; absent parameters (paper
    /// spaces) fall back to the neutral value 0.
    pub fn from_config(config: &Configuration) -> MatmulKnobs {
        let knob = |name: &str| config.get(name).and_then(|v| v.as_int()).unwrap_or(0);
        MatmulKnobs {
            order: knob("ORDER"),
            fuse: knob("FUSE"),
            vec: knob("VEC"),
            par: knob("PAR"),
            unroll: knob("UNROLL"),
        }
    }

    /// True when every knob reproduces the paper schedule.
    pub fn is_neutral(&self) -> bool {
        self.order == 0 && self.fuse == 0 && self.vec == 0 && self.par == 0 && self.unroll == 0
    }
}

/// Declare the schedule facts of [`tile_matmul_stage_aggressive`] to a
/// prelint: the two tile splits, the vectorize of the column tile when
/// its vector loop survives lowering, and the fuse adjacency (fusing
/// `yo` with the reduction axis is only adjacent under `ORDER == 1`).
/// Callers accumulate facts for every scheduled stage into one `Prelint`.
///
/// `legalize_vector_loops` demotes a vector loop with a loop inside it
/// to serial, and a serial loop has no lanes to mask. The vector loop is
/// innermost under `ORDER == 0`; under `ORDER == 1` the row loop sits
/// inside it unless the row tile is 1 or the unroll pass expands it;
/// under `ORDER == 2` the reduction always does.
pub(crate) fn matmul_stage_prelint(p: &mut Prelint, ty: i64, tx: i64, kn: &MatmulKnobs) {
    p.split("y", ty).split("x", tx);
    let row_loop_gone = ty == 1 || (kn.unroll == 1 && ty <= tvm_tir::lower::MAX_UNROLL);
    let vector_loop_survives = kn.order == 0 || (kn.order == 1 && row_loop_gone);
    if kn.vec > 0 && tx >= 1 && vector_loop_survives {
        p.vectorize("x.inner", tx, kn.vec);
    }
    if kn.fuse == 2 {
        p.fuse("y.outer", "k", kn.order == 1);
    }
}

/// The prelint of the four tile-only kernels: the plain (knob-free) tile
/// pattern on `P0` × `P1`.
pub(crate) fn tile_prelint(config: &Configuration) -> Vec<Diagnostic> {
    let mut p = Prelint::new();
    p.split("y", config.int("P0")).split("x", config.int("P1"));
    p.finish()
}

/// Aggressive variant of [`tile_matmul_stage`]: same two tile splits,
/// then the knobbed reorder/vectorize/fuse/parallel/unroll choices.
/// With neutral knobs this is exactly the paper schedule.
///
/// # Panics
/// On schedule facts [`matmul_stage_prelint`] denies: zero/negative tile
/// factors and non-adjacent fuses. (An over-wide vectorize instantiates,
/// and lowering masks the lanes past the column tile. The prelint denies
/// `VEC > tx` only where that vector loop survives lowering, so it never
/// denies lanes the lowered function does not have: a policy choice, not
/// a panic this function would raise.)
pub(crate) fn tile_matmul_stage_aggressive(
    s: &mut Schedule,
    t: &Tensor,
    k: &IterVar,
    ty: i64,
    tx: i64,
    kn: &MatmulKnobs,
) {
    if kn.is_neutral() {
        tile_matmul_stage(s, t, k, ty, tx);
        return;
    }
    let (y, x) = (t.axis(0), t.axis(1));
    let (yo, yi) = s.split(t, &y, ty);
    let (xo, xi) = s.split(t, &x, tx);
    let order: Vec<IterVar> = match kn.order {
        1 => vec![xo.clone(), yo.clone(), k.clone(), xi.clone(), yi.clone()],
        2 => vec![yo.clone(), xo.clone(), yi.clone(), xi.clone(), k.clone()],
        _ => vec![yo.clone(), xo.clone(), k.clone(), yi.clone(), xi.clone()],
    };
    s.reorder(t, &order);
    if kn.vec > 0 {
        let (_xio, xii) = s.split(t, &xi, kn.vec);
        // Under ORDER == 2 the reduction sits inside the vector loop;
        // `legalize_vector_loops` demotes that to serial at lowering.
        s.vectorize(t, &xii);
    }
    let fused = match kn.fuse {
        1 => Some(s.fuse(t, &order[0].clone(), &order[1].clone())),
        2 => Some(s.fuse(t, &yo, k)), // panics unless adjacent (ORDER == 1)
        _ => None,
    };
    match kn.par {
        1 => {}
        2 => {
            // Parallelize the reduction-carrying axis: a write-write race
            // the dependence analyzer must deny (or, when the reduction
            // was fused into a space axis, fail to prove race-free so the
            // VM falls back to sequential execution).
            let target = if kn.fuse == 2 {
                fused.clone().expect("fuse == 2 produced a fused axis")
            } else {
                k.clone()
            };
            s.parallel(t, &target);
        }
        _ => {
            let outermost = match &fused {
                Some(f) if kn.fuse == 1 => f.clone(),
                _ => order[0].clone(),
            };
            s.parallel(t, &outermost);
        }
    }
    if kn.unroll == 1 {
        s.unroll(t, &yi);
    }
}
