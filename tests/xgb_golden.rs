//! Golden trajectories of the AutoTVM-XGB tuner on both proposal paths.
//!
//! 3mm-mini (57 600 points, the `service-mixed` tenant's space) is under the
//! grid limit, so every model-based refill ranks the whole grid; the runs of
//! neighbouring configurations in its pins are tied predictions kept in grid
//! order. 2mm-extralarge (571 536 points) anneals instead; its second refill
//! finds nothing predicted within 5 % of the best, so the tuner stops at 27.
//!
//! Recorded at 52999d7, the parent of the encoded-space proposer:
//! `tune_parallel` over `XgbTuner::new(space, 9)` on
//! `SimDevice::new(GpuSpec::a100())`, 40 evaluations in batches of 4,
//! printed as (configuration key, runtime `f64` bits or `None` for a
//! reject). The values are `tests/pins/xgb_golden.{grid,anneal}.txt`,
//! moved there verbatim from this file's constants.

mod common;

use common::pins;
use tvm_autotune::prelude::*;

fn run(kernel: KernelName, size: ProblemSize) -> String {
    let ev = MoldEvaluator::simulated(mold_for(kernel, size), SimDevice::new(GpuSpec::a100()));
    let opts = TuneOptions {
        max_evals: 40,
        batch: 4,
        max_process_s: None,
    };
    let result = tune_parallel(&mut XgbTuner::new(ev.space().clone(), 9), &ev, opts);
    pins::trajectory(&result)
}

#[test]
fn the_grid_path_follows_the_recorded_run() {
    pins::check("xgb_golden.grid", &run(KernelName::Mm3, ProblemSize::Mini));
}

#[test]
fn the_anneal_path_follows_the_recorded_run() {
    pins::check(
        "xgb_golden.anneal",
        &run(KernelName::Mm2, ProblemSize::ExtraLarge),
    );
}
