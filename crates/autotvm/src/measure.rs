//! Evaluation interface and measurement accounting.
//!
//! Failures are classified into the structured taxonomy the journal
//! persists ([`MeasureError`]); [`Evaluator`] is the one measurement
//! interface every tuner, the fault-tolerance harness
//! ([`crate::harness`]) and the trial loop ([`crate::driver`]) share.

use configspace::{ConfigSpace, Configuration};
pub use ytopt_bo::fault::MeasureError;
pub use ytopt_bo::problem::{
    CacheStats, JitStats, ParStats, PruneStats, SimdStats, StaticCheckStats,
};

/// Outcome of measuring one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureResult {
    /// Kernel runtime in seconds (`None` on failure).
    pub runtime_s: Option<f64>,
    /// Wall-clock the evaluation consumed: build + data transfer +
    /// `repeats` timed runs. This is what accumulates into the paper's
    /// "autotuning process time".
    pub process_s: f64,
    /// Structured failure, if any.
    pub error: Option<MeasureError>,
}

impl MeasureResult {
    /// Successful measurement.
    pub fn ok(runtime_s: f64, process_s: f64) -> MeasureResult {
        MeasureResult {
            runtime_s: Some(runtime_s),
            process_s,
            error: None,
        }
    }

    /// Failed measurement (still charges its process time). Accepts a
    /// [`MeasureError`] directly or any string-ish message (classified
    /// into the taxonomy).
    pub fn fail(error: impl Into<MeasureError>, process_s: f64) -> MeasureResult {
        MeasureResult {
            runtime_s: None,
            process_s,
            error: Some(error.into()),
        }
    }

    /// True when the measurement produced a runtime.
    pub fn is_ok(&self) -> bool {
        self.runtime_s.is_some()
    }
}

/// Anything that can score configurations of a space.
///
/// Tuners are generic over this: the production implementation
/// (`tvm_autotune::MoldEvaluator`) compiles a PolyBench code mold and
/// measures it on a device; tests use synthetic functions.
pub trait Evaluator {
    /// The space being tuned.
    fn space(&self) -> &ConfigSpace;

    /// Measure one configuration.
    fn evaluate(&self, config: &Configuration) -> MeasureResult;

    /// Counters of this evaluator's lowering/compilation memo cache, if
    /// it keeps one (`None` for cacheless evaluators). Snapshotted into
    /// [`crate::driver::TuningResult::cache`] at the end of a run.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Accept/reject counters of this evaluator's static schedule-safety
    /// analyzer, if it runs one (`None` for unanalyzed evaluators).
    /// Snapshotted into [`crate::driver::TuningResult::static_checks`]
    /// at the end of a run.
    fn static_check_stats(&self) -> Option<StaticCheckStats> {
        None
    }

    /// Fingerprint of the compilation/optimization pipeline behind this
    /// evaluator's measurements (`None` when measurements do not depend
    /// on a compiler). Stamped into every journal record so a resumed
    /// run refuses to replay costs measured under a different pipeline.
    fn pipeline_fingerprint(&self) -> Option<String> {
        None
    }

    /// Native-codegen compile counters of this evaluator's device, if it
    /// runs a JIT rung (`None` otherwise). Snapshotted into
    /// [`crate::driver::TuningResult::jit`] at the end of a run.
    fn jit_stats(&self) -> Option<JitStats> {
        None
    }

    /// Multicore-dispatch counters of this evaluator's device, if it
    /// runs `Parallel` loops on a worker pool (`None` otherwise).
    /// Snapshotted into [`crate::driver::TuningResult::par`] at the end
    /// of a run.
    fn par_stats(&self) -> Option<ParStats> {
        None
    }

    /// Packed-SIMD emission counters of this evaluator's device, if it
    /// runs a vectorizing codegen rung (`None` otherwise). Snapshotted
    /// into [`crate::driver::TuningResult::simd`] at the end of a run.
    fn simd_stats(&self) -> Option<SimdStats> {
        None
    }

    /// Statically filter a batch of candidates before measurement, if
    /// this evaluator runs an analyzer pipeline (`None` otherwise). The
    /// mask has one slot per candidate: `None` admits it to measurement,
    /// `Some(message)` is the `static_reject` error the tuner records
    /// without compiling or measuring — byte-identical to the message
    /// `evaluate` would have produced, so journaled trial streams do not
    /// depend on whether a batch was pre-filtered.
    fn prune_batch(&self, _batch: &[Configuration]) -> Option<Vec<Option<String>>> {
        None
    }

    /// Batch static-pruning counters of this evaluator's analyzer
    /// pipeline, if it has one (`None` otherwise). Snapshotted into
    /// [`crate::driver::TuningResult::prune`] at the end of a run.
    fn prune_stats(&self) -> Option<PruneStats> {
        None
    }
}

/// A closure-backed evaluator for tests and custom problems.
pub struct FnEvaluator<F: Fn(&Configuration) -> MeasureResult> {
    space: ConfigSpace,
    f: F,
}

impl<F: Fn(&Configuration) -> MeasureResult> FnEvaluator<F> {
    /// Wrap a closure over a space.
    pub fn new(space: ConfigSpace, f: F) -> Self {
        FnEvaluator { space, f }
    }
}

impl<F: Fn(&Configuration) -> MeasureResult> Evaluator for FnEvaluator<F> {
    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn evaluate(&self, config: &Configuration) -> MeasureResult {
        (self.f)(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use configspace::Hyperparameter;

    #[test]
    fn result_constructors() {
        let ok = MeasureResult::ok(1.5, 2.0);
        assert!(ok.is_ok());
        assert_eq!(ok.runtime_s, Some(1.5));
        let bad = MeasureResult::fail("boom", 0.5);
        assert!(!bad.is_ok());
        assert_eq!(bad.error.as_ref().map(|e| e.message()), Some("boom"));
        assert_eq!(bad.error.as_ref().map(|e| e.kind()), Some("runtime_crash"));
        assert_eq!(bad.process_s, 0.5);
        let typed = MeasureResult::fail(MeasureError::BuildFailed("no codegen".into()), 0.2);
        assert_eq!(typed.error.as_ref().map(|e| e.kind()), Some("build_failed"));
    }

    #[test]
    fn fn_evaluator_works() {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("P0", &[1, 2, 4]));
        let ev = FnEvaluator::new(cs, |c| MeasureResult::ok(c.int("P0") as f64, 1.0));
        let cfg = ev.space().at(2);
        assert_eq!(ev.evaluate(&cfg).runtime_s, Some(4.0));
    }
}
