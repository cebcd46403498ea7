//! Fault-tolerant measurement harness.
//!
//! Real measurement backends fail: builds error out, kernels hang, the
//! evaluation process panics, infrastructure flakes. TVM's measure
//! pipeline survives all of these; this module is our equivalent, shared
//! by all five tuners because [`HarnessedEvaluator`] is itself an
//! [`Evaluator`] and the one trial loop takes any evaluator.
//!
//! Three layers:
//!
//! * **Panic isolation** — every evaluation runs under `catch_unwind`; a
//!   panicking evaluator becomes a failed measurement
//!   ([`MeasureError::RuntimeCrash`]) instead of killing the tuning run.
//! * **Wall-clock timeout** — with [`HarnessOptions::timeout_s`] set, the
//!   evaluation runs on a worker thread while the caller waits on a
//!   watchdog channel; on expiry the trial is abandoned as
//!   [`MeasureError::Timeout`] (the worker is detached, like TVM's RPC
//!   runner killing a timed-out session).
//! * **Bounded retry with backoff** — [`MeasureError::Transient`]
//!   failures are retried up to [`RetryPolicy::max_attempts`] with
//!   exponential backoff. All attempts' process time **plus** the backoff
//!   waits are charged to the trial, so the paper's "autotuning process
//!   time" metric honestly reflects the cost of flaky infrastructure.
//!
//! [`FaultInjector`] is the test-side counterpart: a deterministic,
//! seeded chaos wrapper with per-class failure rates and latency spikes,
//! so every tuner can be exercised under realistic failure loads (the
//! CATBench argument: autotuning benchmarks must model invalid and
//! failed configurations).

use crate::measure::{Evaluator, MeasureResult};
use configspace::{ConfigSpace, Configuration};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use ytopt_bo::fault::{panic_message, MeasureError};

/// Retry policy for [`MeasureError::Transient`] failures.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per configuration (1 = no retry).
    pub max_attempts: usize,
    /// Backoff before the first retry, seconds.
    pub backoff_s: f64,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_mult: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_s: 0.05,
            backoff_mult: 2.0,
        }
    }
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_s: 0.0,
            backoff_mult: 1.0,
        }
    }
}

/// Harness knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct HarnessOptions {
    /// Wall-clock limit per evaluation attempt, seconds. `None` disables
    /// the watchdog (evaluations then run on the caller's thread).
    pub timeout_s: Option<f64>,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// When true, backoff waits really sleep; when false (default, for
    /// simulated evaluators) they are only *charged* to process time.
    pub sleep_on_backoff: bool,
}

/// Fault-tolerance wrapper around any evaluator — one harness for all
/// five tuners.
pub struct HarnessedEvaluator<E> {
    inner: Arc<E>,
    opts: HarnessOptions,
}

impl<E> HarnessedEvaluator<E> {
    /// Wrap `inner` with default options (panic isolation + transient
    /// retry, no timeout).
    pub fn new(inner: E) -> HarnessedEvaluator<E> {
        HarnessedEvaluator {
            inner: Arc::new(inner),
            opts: HarnessOptions::default(),
        }
    }

    /// Builder: replace every option at once.
    pub fn with_options(mut self, opts: HarnessOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Builder: per-attempt wall-clock limit, seconds.
    pub fn with_timeout(mut self, timeout_s: f64) -> Self {
        self.opts.timeout_s = Some(timeout_s);
        self
    }

    /// Builder: retry policy for transient failures.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.opts.retry = retry;
        self
    }

    /// The active options.
    pub fn options(&self) -> &HarnessOptions {
        &self.opts
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: Evaluator + Send + Sync + 'static> HarnessedEvaluator<E> {
    /// One guarded attempt: panic isolation always, watchdog timeout when
    /// configured.
    fn one_attempt(&self, config: &Configuration) -> MeasureResult {
        match self.opts.timeout_s {
            None => match catch_unwind(AssertUnwindSafe(|| self.inner.evaluate(config))) {
                Ok(res) => res,
                Err(payload) => MeasureResult::fail(
                    MeasureError::RuntimeCrash(format!(
                        "evaluation panicked: {}",
                        panic_message(payload.as_ref())
                    )),
                    0.0,
                ),
            },
            Some(limit_s) => {
                let (tx, rx) = mpsc::channel();
                let inner = Arc::clone(&self.inner);
                let config = config.clone();
                let t0 = Instant::now();
                std::thread::Builder::new()
                    .name("harnessed-evaluation".into())
                    .spawn(move || {
                        let out = catch_unwind(AssertUnwindSafe(|| inner.evaluate(&config)));
                        // The receiver may have given up on us; ignore.
                        let _ = tx.send(out);
                    })
                    .expect("spawn evaluation worker");
                match rx.recv_timeout(Duration::from_secs_f64(limit_s)) {
                    Ok(Ok(res)) => res,
                    Ok(Err(payload)) => MeasureResult::fail(
                        MeasureError::RuntimeCrash(format!(
                            "evaluation panicked: {}",
                            panic_message(payload.as_ref())
                        )),
                        t0.elapsed().as_secs_f64(),
                    ),
                    // Timed out: abandon the worker (it is detached and
                    // will be dropped when it eventually finishes) and
                    // charge the full limit to process time.
                    Err(_) => MeasureResult::fail(
                        MeasureError::Timeout {
                            limit_s,
                            message: None,
                        },
                        limit_s,
                    ),
                }
            }
        }
    }
}

impl<E: Evaluator + Send + Sync + 'static> Evaluator for HarnessedEvaluator<E> {
    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    /// Attempts plus retry/backoff accounting: the result's `process_s`
    /// is the sum over every attempt plus backoffs — the wall time a real
    /// measurement pipeline would have burned.
    fn evaluate(&self, config: &Configuration) -> MeasureResult {
        let attempts = self.opts.retry.max_attempts.max(1);
        let mut charged = 0.0f64;
        let mut backoff = self.opts.retry.backoff_s;
        for attempt in 0..attempts {
            let mut res = self.one_attempt(config);
            charged += res.process_s;
            let retryable = res
                .error
                .as_ref()
                .map(|e| e.is_transient())
                .unwrap_or(false);
            if !retryable || attempt + 1 == attempts {
                res.process_s = charged;
                return res;
            }
            charged += backoff;
            if self.opts.sleep_on_backoff && backoff > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(backoff));
            }
            backoff *= self.opts.retry.backoff_mult;
        }
        unreachable!("retry loop always returns")
    }

    fn cache_stats(&self) -> Option<ytopt_bo::problem::CacheStats> {
        Evaluator::cache_stats(&*self.inner)
    }

    fn static_check_stats(&self) -> Option<ytopt_bo::problem::StaticCheckStats> {
        Evaluator::static_check_stats(&*self.inner)
    }

    fn pipeline_fingerprint(&self) -> Option<String> {
        Evaluator::pipeline_fingerprint(&*self.inner)
    }

    fn jit_stats(&self) -> Option<ytopt_bo::problem::JitStats> {
        Evaluator::jit_stats(&*self.inner)
    }

    fn par_stats(&self) -> Option<ytopt_bo::problem::ParStats> {
        Evaluator::par_stats(&*self.inner)
    }

    fn simd_stats(&self) -> Option<ytopt_bo::problem::SimdStats> {
        Evaluator::simd_stats(&*self.inner)
    }

    fn prune_batch(&self, batch: &[Configuration]) -> Option<Vec<Option<String>>> {
        Evaluator::prune_batch(&*self.inner, batch)
    }

    fn prune_stats(&self) -> Option<ytopt_bo::problem::PruneStats> {
        Evaluator::prune_stats(&*self.inner)
    }
}

/// Per-class injected failure rates (each in `[0, 1]`; they are tried in
/// field order against one uniform draw, so their sum must stay ≤ 1).
///
/// Serializable so chaos plans can ride inside persisted service job
/// specs and be reconstructed identically after a server restart.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability of an injected [`MeasureError::StaticReject`]. Drawn
    /// once per *configuration* (never per attempt): a static verdict is
    /// deterministic, so retries must see the same rejection. Charged
    /// only [`STATIC_REJECT_COST_S`] of process time — analysis is cheap.
    pub static_reject: f64,
    /// Probability of an injected [`MeasureError::BuildFailed`].
    pub build_failed: f64,
    /// Probability of an injected [`MeasureError::InvalidSchedule`].
    pub invalid_schedule: f64,
    /// Probability of an injected [`MeasureError::Timeout`].
    pub timeout: f64,
    /// Probability of an injected crash ([`MeasureError::RuntimeCrash`],
    /// or a real `panic!` when [`FaultPlan::panic_on_crash`] is set).
    pub runtime_crash: f64,
    /// Probability of an injected [`MeasureError::NumericMismatch`].
    pub numeric_mismatch: f64,
    /// Probability of an injected [`MeasureError::Transient`] (the class
    /// the harness retries — per *attempt*, so retries can succeed).
    pub transient: f64,
    /// Probability of a latency spike on an otherwise-successful
    /// evaluation.
    pub latency_spike: f64,
    /// Extra process seconds added by a latency spike.
    pub spike_s: f64,
    /// Process seconds charged by an injected failure (a failed build or
    /// crashed run still burns wall-clock).
    pub fail_process_s: f64,
    /// Deliver injected crashes as real panics (exercises the harness's
    /// `catch_unwind` and the parallel driver's worker isolation).
    pub panic_on_crash: bool,
    /// Seed for the deterministic per-(configuration, attempt) draws.
    pub seed: u64,
}

impl FaultPlan {
    /// No injected faults at all.
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            static_reject: 0.0,
            build_failed: 0.0,
            invalid_schedule: 0.0,
            timeout: 0.0,
            runtime_crash: 0.0,
            numeric_mismatch: 0.0,
            transient: 0.0,
            latency_spike: 0.0,
            spike_s: 0.0,
            fail_process_s: 0.05,
            panic_on_crash: false,
            seed,
        }
    }

    /// Total failure probability `rate`, split uniformly across the five
    /// non-panic error classes (build, schedule, timeout, numeric,
    /// transient), plus a 5 % latency-spike chance.
    pub fn uniform(rate: f64, seed: u64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        let p = rate / 5.0;
        FaultPlan {
            static_reject: 0.0,
            build_failed: p,
            invalid_schedule: p,
            timeout: p,
            runtime_crash: 0.0,
            numeric_mismatch: p,
            transient: p,
            latency_spike: 0.05,
            spike_s: 0.5,
            fail_process_s: 0.05,
            panic_on_crash: false,
            seed,
        }
    }

    /// Sum of the per-class failure rates.
    pub fn total_failure_rate(&self) -> f64 {
        self.static_reject
            + self.build_failed
            + self.invalid_schedule
            + self.timeout
            + self.runtime_crash
            + self.numeric_mismatch
            + self.transient
    }
}

/// Process seconds charged by an injected [`MeasureError::StaticReject`]
/// — the analyzer's verdict costs microseconds, not a build.
pub const STATIC_REJECT_COST_S: f64 = 1e-4;

/// Deterministic, seeded chaos wrapper around any evaluator.
///
/// Failures are decided by hashing `(configuration key, seed, attempt)`,
/// **not** by a stateful RNG — so the injected fault for a given
/// configuration does not depend on evaluation order. This is what makes
/// chaos runs reproducible and journal-resumable: a replayed run skips
/// the journaled trials entirely, and the live remainder sees the exact
/// same faults it would have seen uninterrupted.
pub struct FaultInjector<E> {
    inner: E,
    plan: FaultPlan,
    /// Per-configuration attempt counters (retries re-roll the fault).
    attempts: Mutex<HashMap<String, u64>>,
}

impl<E> FaultInjector<E> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: E, plan: FaultPlan) -> FaultInjector<E> {
        FaultInjector {
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Uniform draw in `[0, 1)` keyed on (config, seed, attempt, salt).
    fn draw(&self, key: &str, attempt: u64, salt: u64) -> f64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.plan.seed.hash(&mut h);
        attempt.hash(&mut h);
        salt.hash(&mut h);
        ((h.finish() >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// Decide this attempt's fate: `Err(fault)` or `Ok(extra latency)`.
    fn inject(&self, config: &Configuration) -> Result<f64, MeasureError> {
        let key = config.key();
        // Entered even if a holder panicked: an injected crash must not
        // poison the injector, and each update is one counter bump.
        let mut attempts = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
        let counter = attempts.entry(key.clone()).or_insert(0);
        // Static rejection is keyed on the configuration alone (attempt
        // pinned to 0): the verdict of a deterministic analyzer cannot
        // change on retry. The entry above still consumes this attempt's
        // slot so later classes keep their per-attempt draws aligned with
        // unrejected runs.
        if self.plan.static_reject > 0.0 && self.draw(&key, 0, 2) < self.plan.static_reject {
            return Err(MeasureError::StaticReject(format!(
                "injected static rejection for {key} (TIR-OOB)"
            )));
        }
        let attempt = *counter;
        *counter += 1;
        drop(attempts);
        let u = self.draw(&key, attempt, 0);
        let p = &self.plan;
        let mut acc = p.build_failed;
        if u < acc {
            return Err(MeasureError::BuildFailed(format!(
                "injected build failure for {key}"
            )));
        }
        acc += p.invalid_schedule;
        if u < acc {
            return Err(MeasureError::InvalidSchedule(format!(
                "injected invalid schedule for {key}"
            )));
        }
        acc += p.timeout;
        if u < acc {
            return Err(MeasureError::Timeout {
                limit_s: p.fail_process_s,
                message: None,
            });
        }
        acc += p.runtime_crash;
        if u < acc {
            return Err(MeasureError::RuntimeCrash(format!(
                "injected runtime crash for {key}"
            )));
        }
        acc += p.numeric_mismatch;
        if u < acc {
            return Err(MeasureError::NumericMismatch(format!(
                "injected numeric mismatch for {key}"
            )));
        }
        acc += p.transient;
        if u < acc {
            return Err(MeasureError::Transient(format!(
                "injected transient fault for {key} (attempt {attempt})"
            )));
        }
        let extra = if p.latency_spike > 0.0 && self.draw(&key, attempt, 1) < p.latency_spike {
            p.spike_s
        } else {
            0.0
        };
        Ok(extra)
    }

    fn fault_to_result(&self, fault: MeasureError) -> MeasureResult {
        if self.plan.panic_on_crash {
            if let MeasureError::RuntimeCrash(msg) = &fault {
                panic!("{msg}");
            }
        }
        // A static rejection happens before any build or run: it burns
        // analysis time only, not the plan's failure wall-clock.
        let process_s = if matches!(fault, MeasureError::StaticReject(_)) {
            STATIC_REJECT_COST_S
        } else {
            self.plan.fail_process_s
        };
        MeasureResult::fail(fault, process_s)
    }
}

impl<E: Evaluator> Evaluator for FaultInjector<E> {
    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn evaluate(&self, config: &Configuration) -> MeasureResult {
        match self.inject(config) {
            Err(fault) => self.fault_to_result(fault),
            Ok(extra) => {
                let mut res = self.inner.evaluate(config);
                res.process_s += extra;
                res
            }
        }
    }

    fn cache_stats(&self) -> Option<ytopt_bo::problem::CacheStats> {
        Evaluator::cache_stats(&self.inner)
    }

    fn static_check_stats(&self) -> Option<ytopt_bo::problem::StaticCheckStats> {
        Evaluator::static_check_stats(&self.inner)
    }

    fn pipeline_fingerprint(&self) -> Option<String> {
        Evaluator::pipeline_fingerprint(&self.inner)
    }

    fn jit_stats(&self) -> Option<ytopt_bo::problem::JitStats> {
        Evaluator::jit_stats(&self.inner)
    }

    fn par_stats(&self) -> Option<ytopt_bo::problem::ParStats> {
        Evaluator::par_stats(&self.inner)
    }

    fn simd_stats(&self) -> Option<ytopt_bo::problem::SimdStats> {
        Evaluator::simd_stats(&self.inner)
    }

    fn prune_batch(&self, batch: &[Configuration]) -> Option<Vec<Option<String>>> {
        // The injector's faults are drawn at evaluation time, so the
        // pre-filter mask is exactly the inner analyzer's verdicts.
        Evaluator::prune_batch(&self.inner, batch)
    }

    fn prune_stats(&self) -> Option<ytopt_bo::problem::PruneStats> {
        Evaluator::prune_stats(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::FnEvaluator;
    use configspace::Hyperparameter;

    fn space() -> ConfigSpace {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints(
            "P0",
            &(1..=50).collect::<Vec<i64>>(),
        ));
        cs
    }

    fn ok_evaluator() -> FnEvaluator<impl Fn(&Configuration) -> MeasureResult> {
        FnEvaluator::new(space(), |c| MeasureResult::ok(c.int("P0") as f64, 1.0))
    }

    #[test]
    fn harness_passes_success_through() {
        let h = HarnessedEvaluator::new(ok_evaluator());
        let cfg = Evaluator::space(&h).at(4);
        let r = Evaluator::evaluate(&h, &cfg);
        assert_eq!(r.runtime_s, Some(5.0));
        assert_eq!(r.process_s, 1.0);
    }

    #[test]
    fn harness_catches_panics() {
        let h = HarnessedEvaluator::new(FnEvaluator::new(space(), |c| {
            if c.int("P0") == 3 {
                panic!("kernel exploded");
            }
            MeasureResult::ok(1.0, 1.0)
        }));
        let boom = Evaluator::space(&h).at(2);
        let r = Evaluator::evaluate(&h, &boom);
        assert!(!r.is_ok());
        let err = r.error.expect("error");
        assert_eq!(err.kind(), "runtime_crash");
        assert!(err.message().contains("kernel exploded"));
        // And the harness is still usable afterwards.
        let fine = Evaluator::space(&h).at(3);
        assert!(Evaluator::evaluate(&h, &fine).is_ok());
    }

    #[test]
    fn harness_enforces_timeout() {
        let h = HarnessedEvaluator::new(FnEvaluator::new(space(), |c| {
            if c.int("P0") == 1 {
                std::thread::sleep(Duration::from_millis(400));
            }
            MeasureResult::ok(1.0, 1.0)
        }))
        .with_timeout(0.05)
        .with_retry(RetryPolicy::none());
        let slow = Evaluator::space(&h).at(0);
        let t0 = Instant::now();
        let r = Evaluator::evaluate(&h, &slow);
        assert!(
            t0.elapsed() < Duration::from_millis(350),
            "must not wait out the sleep"
        );
        assert!(!r.is_ok());
        assert_eq!(r.error.as_ref().map(|e| e.kind()), Some("timeout"));
        // The abandoned trial is charged its full limit.
        assert!((r.process_s - 0.05).abs() < 1e-9);
        // Fast evaluations pass under the same watchdog.
        let fast = Evaluator::space(&h).at(5);
        assert!(Evaluator::evaluate(&h, &fast).is_ok());
    }

    #[test]
    fn transient_failures_retry_and_charge_backoff() {
        // Fails with a transient error on the first attempt only.
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let h = HarnessedEvaluator::new(FnEvaluator::new(space(), move |_| {
            if calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                MeasureResult::fail(MeasureError::Transient("flaky node".into()), 0.3)
            } else {
                MeasureResult::ok(2.0, 1.0)
            }
        }))
        .with_retry(RetryPolicy {
            max_attempts: 3,
            backoff_s: 0.25,
            backoff_mult: 2.0,
        });
        let cfg = Evaluator::space(&h).at(0);
        let r = Evaluator::evaluate(&h, &cfg);
        assert_eq!(r.runtime_s, Some(2.0));
        // Charged: failed attempt (0.3) + backoff (0.25) + success (1.0).
        assert!((r.process_s - 1.55).abs() < 1e-9, "got {}", r.process_s);
    }

    #[test]
    fn persistent_transient_exhausts_retries() {
        let h = HarnessedEvaluator::new(FnEvaluator::new(space(), |_| {
            MeasureResult::fail(MeasureError::Transient("always down".into()), 0.1)
        }))
        .with_retry(RetryPolicy {
            max_attempts: 3,
            backoff_s: 0.5,
            backoff_mult: 1.0,
        });
        let cfg = Evaluator::space(&h).at(0);
        let r = Evaluator::evaluate(&h, &cfg);
        assert!(!r.is_ok());
        assert_eq!(r.error.as_ref().map(|e| e.kind()), Some("transient"));
        // 3 × 0.1 attempts + 2 × 0.5 backoffs.
        assert!((r.process_s - 1.3).abs() < 1e-9, "got {}", r.process_s);
    }

    #[test]
    fn deterministic_failures_are_not_retried() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let h = HarnessedEvaluator::new(FnEvaluator::new(space(), move |_| {
            calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            MeasureResult::fail(MeasureError::BuildFailed("no codegen".into()), 0.1)
        }));
        let cfg = Evaluator::space(&h).at(0);
        let r = Evaluator::evaluate(&h, &cfg);
        assert_eq!(r.error.as_ref().map(|e| e.kind()), Some("build_failed"));
        assert!((r.process_s - 0.1).abs() < 1e-9, "single attempt only");
    }

    #[test]
    fn injector_is_deterministic_and_seeded() {
        let run = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(ok_evaluator(), FaultPlan::uniform(0.4, seed));
            (0..50)
                .map(|i| inj.evaluate(&Evaluator::space(&inj).at(i)).is_ok())
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same faults");
        assert_ne!(run(7), run(8), "different seed, different faults");
        let fails = run(7).iter().filter(|ok| !**ok).count();
        assert!(
            (5..=30).contains(&fails),
            "~40% of 50 evals should fail, got {fails}"
        );
    }

    #[test]
    fn injector_reroll_lets_harness_retry_succeed() {
        // Transient-only plan at a high rate: the harness's retries
        // re-roll per attempt, so most configurations eventually succeed.
        let mut plan = FaultPlan::none(3);
        plan.transient = 0.6;
        let h = HarnessedEvaluator::new(FaultInjector::new(ok_evaluator(), plan)).with_retry(
            RetryPolicy {
                max_attempts: 5,
                backoff_s: 0.01,
                backoff_mult: 1.0,
            },
        );
        let ok = (0..40)
            .filter(|&i| Evaluator::evaluate(&h, &Evaluator::space(&h).at(i)).is_ok())
            .count();
        assert!(ok >= 30, "retries should recover most transients, got {ok}");
    }

    #[test]
    fn injector_panic_on_crash_is_caught_by_harness() {
        let mut plan = FaultPlan::none(1);
        plan.runtime_crash = 1.0;
        plan.panic_on_crash = true;
        let h = HarnessedEvaluator::new(FaultInjector::new(ok_evaluator(), plan));
        let cfg = Evaluator::space(&h).at(0);
        let r = Evaluator::evaluate(&h, &cfg);
        assert!(!r.is_ok());
        assert_eq!(r.error.as_ref().map(|e| e.kind()), Some("runtime_crash"));
    }

    #[test]
    fn injector_rates_partition_into_classes() {
        let inj = FaultInjector::new(ok_evaluator(), FaultPlan::uniform(1.0, 11));
        assert!((inj.plan().total_failure_rate() - 1.0).abs() < 1e-9);
        let mut kinds = std::collections::HashSet::new();
        for i in 0..50 {
            let r = inj.evaluate(&Evaluator::space(&inj).at(i));
            assert!(!r.is_ok(), "rate 1.0 fails everything");
            kinds.insert(r.error.expect("error").kind());
        }
        assert!(kinds.len() >= 4, "all classes get exercised: {kinds:?}");
    }

    #[test]
    fn wrappers_forward_pipeline_fingerprint() {
        struct Fp(ConfigSpace);
        impl Evaluator for Fp {
            fn space(&self) -> &ConfigSpace {
                &self.0
            }
            fn evaluate(&self, _c: &Configuration) -> MeasureResult {
                MeasureResult::ok(1.0, 1.0)
            }
            fn pipeline_fingerprint(&self) -> Option<String> {
                Some("vm/fp-test".into())
            }
        }
        let h = HarnessedEvaluator::new(FaultInjector::new(Fp(space()), FaultPlan::none(0)));
        assert_eq!(
            Evaluator::pipeline_fingerprint(&h),
            Some("vm/fp-test".to_string()),
            "journaled chaos runs must keep the engine stamp through both wrappers"
        );
    }

    #[test]
    fn latency_spike_charges_process_time() {
        let mut plan = FaultPlan::none(5);
        plan.latency_spike = 1.0;
        plan.spike_s = 2.5;
        let inj = FaultInjector::new(ok_evaluator(), plan);
        let r = inj.evaluate(&Evaluator::space(&inj).at(0));
        assert!(r.is_ok());
        assert!((r.process_s - 3.5).abs() < 1e-9, "1.0 base + 2.5 spike");
    }
}
