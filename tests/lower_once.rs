//! Lower-once accounting: a configuration is instantiated (and prelinted)
//! exactly once on its way through `prune` → `evaluate`, whichever driver
//! runs the session.
//!
//! The drivers statically filter every batch and then evaluate what was
//! admitted. The filter has to lower a configuration to analyze it; the
//! evaluation that follows takes that function over instead of lowering
//! (and charging the lowering to process time) again. A counting
//! `CodeMold` decorator observes it from outside: one `instantiate` per
//! admitted and per analyzer-denied configuration, none for a prelint
//! denial, none for a memo-cache hit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tvm_autotune::autotvm::XgbTuner;
use tvm_autotune::bo::problem::{CacheStats, PruneStats, StaticCheckStats};
use tvm_autotune::prelude::*;
use tvm_autotune::tir::analyze::Diagnostic;
use tvm_autotune::tir::PrimFunc;

#[derive(Default)]
struct Calls {
    prelint: AtomicU64,
    instantiate: AtomicU64,
}

impl Calls {
    fn prelints(&self) -> u64 {
        self.prelint.load(Ordering::Relaxed)
    }

    fn instantiations(&self) -> u64 {
        self.instantiate.load(Ordering::Relaxed)
    }
}

struct CountingMold {
    inner: Box<dyn CodeMold>,
    calls: Arc<Calls>,
}

impl CodeMold for CountingMold {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn size(&self) -> ProblemSize {
        self.inner.size()
    }

    fn mode(&self) -> SpaceMode {
        self.inner.mode()
    }

    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn prelint(&self, config: &Configuration) -> Vec<Diagnostic> {
        self.calls.prelint.fetch_add(1, Ordering::Relaxed);
        self.inner.prelint(config)
    }

    fn instantiate(&self, config: &Configuration) -> PrimFunc {
        self.calls.instantiate.fetch_add(1, Ordering::Relaxed);
        self.inner.instantiate(config)
    }

    fn init_args(&self) -> Vec<NDArray> {
        self.inner.init_args()
    }

    fn reference_args(&self) -> Vec<Option<NDArray>> {
        self.inner.reference_args()
    }

    fn baseline_configuration(&self) -> Configuration {
        self.inner.baseline_configuration()
    }
}

/// A simulated 3mm-mini evaluator (three repeats, as AutoTVM measures)
/// over a counting mold. The paper space of 3mm holds schedules the
/// analyzer denies (`TIR-RACE-WW`); the aggressive space adds prelint
/// denials (zero tiles).
fn counted(mode: SpaceMode) -> (MoldEvaluator, Arc<Calls>) {
    let calls = Arc::new(Calls::default());
    let mold = CountingMold {
        inner: mold_for_mode(KernelName::Mm3, ProblemSize::Mini, mode),
        calls: Arc::clone(&calls),
    };
    let ev = MoldEvaluator::simulated(Box::new(mold), SimDevice::new(GpuSpec::swing_cpu_core()))
        .with_repeats(3);
    (ev, calls)
}

const OPTS: TuneOptions = TuneOptions {
    max_evals: 48,
    batch: 8,
    max_process_s: None,
};

/// What a session's trial stream says the counters must be, next to what
/// the mold saw. `errors` is each trial's error kind (`None` = measured).
fn assert_lowered_once(
    label: &str,
    errors: &[Option<&'static str>],
    calls: &Calls,
    cache: CacheStats,
    checks: StaticCheckStats,
    prune: &PruneStats,
) {
    let measured = errors.iter().filter(|e| e.is_none()).count() as u64;
    let rejected = errors
        .iter()
        .filter(|e| **e == Some("static_reject"))
        .count() as u64;
    assert_eq!(
        measured + rejected,
        errors.len() as u64,
        "{label}: the simulated device fails no trial"
    );
    // The counters are per distinct configuration (a re-proposal is a
    // cache hit), so they bound the trial counts from below.
    assert!(checks.accepted <= measured && checks.rejected <= rejected);
    assert_eq!(cache.misses, checks.accepted + checks.rejected, "{label}");
    assert_eq!(prune.admitted, checks.accepted, "{label}");
    assert_eq!(
        prune.prelint_denied + prune.analyzer_denied,
        checks.rejected,
        "{label}"
    );
    assert_eq!(
        calls.instantiations(),
        prune.admitted + prune.analyzer_denied,
        "{label}: one instantiate per admitted and per analyzer-denied configuration"
    );
    assert_eq!(
        calls.prelints(),
        cache.misses,
        "{label}: one prelint per distinct configuration"
    );
}

fn kinds(result: &TuningResult) -> Vec<Option<&'static str>> {
    result
        .trials
        .iter()
        .map(|t| t.error.as_ref().map(|e| e.kind()))
        .collect()
}

fn tuners(space: &ConfigSpace, seed: u64) -> Vec<Box<dyn Tuner>> {
    vec![
        Box::new(RandomTuner::new(space.clone(), seed)) as Box<dyn Tuner>,
        Box::new(GridSearchTuner::new(space.clone())),
        Box::new(GaTuner::new(space.clone(), seed)),
        Box::new(XgbTuner::new(space.clone(), seed)),
        Box::new(YtoptTuner::new(space.clone(), seed)),
    ]
}

#[test]
fn sequential_tune_lowers_each_configuration_once() {
    let space = counted(SpaceMode::Paper).0.space().clone();
    let mut denied = 0;
    for (mut tuner, mut again) in tuners(&space, 7).into_iter().zip(tuners(&space, 7)) {
        let (ev, calls) = counted(SpaceMode::Paper);
        let result = tune(tuner.as_mut(), &ev, OPTS);
        let label = format!("tune/{}", result.tuner);
        assert!(!result.trials.is_empty(), "{label}");
        let prune = result.prune.clone().expect("prune stats");
        assert_lowered_once(
            &label,
            &kinds(&result),
            &calls,
            result.cache.expect("cache stats"),
            result.static_checks.expect("static check stats"),
            &prune,
        );
        assert_eq!(prune.prelint_denied, 0, "the paper space is prelint-clean");
        denied += prune.analyzer_denied;

        // The same proposals again: every one is a memo-cache hit, and a
        // hit lowers nothing.
        let lowered = (calls.prelints(), calls.instantiations());
        let replay = tune(again.as_mut(), &ev, OPTS);
        assert_eq!(kinds(&replay), kinds(&result), "{label}");
        assert_eq!(
            (calls.prelints(), calls.instantiations()),
            lowered,
            "{label}"
        );
        assert_eq!(
            replay.cache.expect("cache stats").misses,
            result.cache.expect("cache stats").misses,
            "{label}"
        );
    }
    assert!(denied > 0, "3mm's paper space must exercise TIR-RACE-WW");
}

#[test]
fn random_tuner_counts_are_the_trial_counts() {
    // Without re-proposals the per-configuration counters are exactly the
    // trial stream: every trial a miss, none a hit.
    let (ev, calls) = counted(SpaceMode::Paper);
    let mut tuner = RandomTuner::new(ev.space().clone(), 11);
    let result = tune(&mut tuner, &ev, OPTS);
    let errors = kinds(&result);
    let rejected = errors.iter().filter(|e| e.is_some()).count() as u64;
    let cache = result.cache.expect("cache stats");
    assert_eq!((cache.hits, cache.misses), (0, OPTS.max_evals as u64));
    let checks = result.static_checks.expect("static check stats");
    assert_eq!(checks.accepted, OPTS.max_evals as u64 - rejected);
    assert_eq!(checks.rejected, rejected);
    let prune = result.prune.expect("prune stats");
    assert!(
        prune
            .denied_by_code
            .contains(&("TIR-RACE-WW".to_string(), rejected)),
        "every denial of this space is a write-write race: {:?}",
        prune.denied_by_code
    );
    assert_eq!(calls.instantiations(), OPTS.max_evals as u64);
}

#[test]
fn prelint_denials_are_never_instantiated() {
    let (ev, calls) = counted(SpaceMode::Aggressive);
    let mut tuner = RandomTuner::new(ev.space().clone(), 3);
    let result = tune(&mut tuner, &ev, OPTS);
    let prune = result.prune.clone().expect("prune stats");
    assert!(prune.prelint_denied > 0, "aggressive 3mm has illegal tiles");
    assert!(prune.admitted > 0, "and legal ones");
    assert_lowered_once(
        "tune/aggressive",
        &kinds(&result),
        &calls,
        result.cache.expect("cache stats"),
        result.static_checks.expect("static check stats"),
        &prune,
    );
    assert_eq!(
        calls.instantiations(),
        OPTS.max_evals as u64 - prune.prelint_denied
    );
}

#[test]
fn parallel_tune_lowers_each_configuration_once() {
    let (ev, calls) = counted(SpaceMode::Paper);
    let mut tuner = RandomTuner::new(ev.space().clone(), 5);
    let result = tune_parallel(&mut tuner, &ev, OPTS);
    assert_eq!(result.trials.len(), OPTS.max_evals);
    assert_lowered_once(
        "tune_parallel/random",
        &kinds(&result),
        &calls,
        result.cache.expect("cache stats"),
        result.static_checks.expect("static check stats"),
        &result.prune.clone().expect("prune stats"),
    );
    assert_eq!(calls.instantiations(), OPTS.max_evals as u64);
}
