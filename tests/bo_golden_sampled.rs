//! Golden trajectories of the BO search on its *sampled* path.
//!
//! `tests/bo_golden.rs` pins lu-large, a 400-point space the optimizer
//! ranks exhaustively. 3mm-extralarge has 228 614 400 points, so every
//! model-based ask there draws 1 024 distinct samples plus 64 neighbours
//! of the incumbent: the RNG draw order, the dedupe decisions, the
//! constant-liar batch and the first-minimum tie-break all show in which
//! configuration comes next. (Until the race analysis learned guards and
//! per-dimension strides, about a third of these trials were false
//! `TIR-RACE-WW` rejects; the analyzer now admits the whole paper space,
//! so none is.)
//!
//! Recorded at commit d93c262 (the parent of the encoded-space ask), and
//! re-recorded when the rejects went, the way `bo_golden`'s were: a
//! throw-away test there ran
//! `tune` / `tune_parallel` over `YtoptTuner::new(space, 9)` on
//! `MoldEvaluator::simulated(3mm-extralarge, swing_cpu_core())` for 40
//! trials (`batch` 1 and 4) and printed (configuration key, runtime `f64`
//! bits or `None` for a reject), linked against the `rand` stand-in of
//! `benchmark/standins/` like every offline build of this repository.
//! The values are `tests/pins/bo_golden_sampled.{tune,tune_parallel}.txt`,
//! moved there verbatim from this file's constants.
//!
//! With no false denial left, neither run reaches `tell`'s penalty for a
//! static reject. `bo_golden_sampled.aggressive` does: 3mm-mini over the
//! aggressive space, where the prelint and the analyzer deny what they
//! should (zero tiles, overshooting splits), and the search goes on
//! measuring after the first reject.

mod common;

use common::pins;
use tvm_autotune::prelude::*;

fn run(batch: usize) -> TuningResult {
    let ev = MoldEvaluator::simulated(
        mold_for(KernelName::Mm3, ProblemSize::ExtraLarge),
        SimDevice::new(GpuSpec::swing_cpu_core()),
    );
    let opts = TuneOptions {
        max_evals: 40,
        batch,
        max_process_s: None,
    };
    let mut tuner = YtoptTuner::new(ev.space().clone(), 9);
    if batch == 1 {
        tune(&mut tuner, &ev, opts)
    } else {
        tune_parallel(&mut tuner, &ev, opts)
    }
}

#[test]
fn tune_follows_the_recorded_sampled_run() {
    pins::check("bo_golden_sampled.tune", &pins::trajectory(&run(1)));
}

#[test]
fn tune_parallel_follows_the_recorded_constant_liar_run() {
    pins::check(
        "bo_golden_sampled.tune_parallel",
        &pins::trajectory(&run(4)),
    );
}

#[test]
fn tune_follows_the_recorded_run_through_static_rejects() {
    let ev = MoldEvaluator::simulated(
        mold_for_mode(KernelName::Mm3, ProblemSize::Mini, SpaceMode::Aggressive),
        SimDevice::new(GpuSpec::swing_cpu_core()),
    );
    let opts = TuneOptions {
        max_evals: 40,
        batch: 1,
        max_process_s: None,
    };
    let mut tuner = YtoptTuner::new(ev.space().clone(), 9);
    let result = tune(&mut tuner, &ev, opts);
    let trials = &result.trials;
    let first = trials.iter().position(|t| t.runtime_s.is_none());
    let first = first.expect("a static reject");
    let measured_after = trials[first..].iter().any(|t| t.runtime_s.is_some());
    assert!(measured_after, "nothing measured after trial {first}");
    pins::check("bo_golden_sampled.aggressive", &pins::trajectory(&result));
}
