//! Graceful degradation: the engine ladder.
//!
//! A session that keeps failing on its measurement engine should not
//! fail the tenant — it should fall back to a slower but safer engine.
//! The ladder holds one evaluator per *rung*, ordered fastest/most
//! optimized first; after [`EngineLadder::demote_after`] consecutive
//! engine-level failures (failed builds, numeric divergence against the
//! oracle, runtime crashes) at the current rung the session demotes one
//! rung and keeps tuning. For real CPU execution the ladder is:
//! native JIT → optimized VM → scalar VM → reference interpreter (the
//! oracle, which has no compile pipeline left to fail). The JIT rung
//! already falls back *per function* to the optimized VM when the
//! backend declines a kernel; ladder demotion is the coarser response
//! to an engine that keeps failing outright.
//!
//! The ladder is the [`Evaluator`] a session hands to the one trial loop
//! (`autotvm::driver::run_rounds`): `evaluate`, `pipeline_fingerprint` and
//! the counters answer for the rung it is on, and it does not prune in
//! batch. Its position lives in `Cell`s because the loop holds it shared
//! while the session's per-trial callback moves it.
//!
//! Demotion interacts with crash recovery through the journal's
//! `pipeline` stamps: each record carries the fingerprint of the rung
//! that measured it. Replay feeds every record's outcome back through
//! [`EngineLadder::observe`], so the ladder demotes at exactly the same
//! trial indices as the original run — and the loop checks every record's
//! stamp against the fingerprint of the reconstructed rung, turning any
//! drift into a hard `InvalidData` error instead of silently mixing
//! engines.

use crate::job::{EngineKind, JobSpec};
use autotvm::harness::{FaultInjector, HarnessOptions, HarnessedEvaluator};
use autotvm::measure::{Evaluator, MeasureResult};
use configspace::{ConfigSpace, Configuration};
use gpu_sim::{GpuSpec, SimDevice};
use polybench::molds::mold_for_mode;
use std::cell::Cell;
use std::sync::Arc;
use tvm_autotune::{MemoCache, MoldEvaluator};
use tvm_runtime::CpuDevice;
use ytopt_bo::problem::{CacheStats, JitStats, ParStats, PruneStats, SimdStats, StaticCheckStats};

/// One engine level: a display name plus the (harnessed) evaluator.
pub struct Rung {
    /// Display name (`"jit"`, `"optimized-vm"`, `"scalar-vm"`,
    /// `"interpreter"`, `"sim-a100"`).
    pub name: String,
    /// The evaluator measuring on this engine.
    pub evaluator: Box<dyn Evaluator + Send + Sync>,
}

/// Error kinds that demote a session down the ladder: the engine (not
/// the configuration) is the suspect after a streak of these.
fn is_engine_failure(kind: &str) -> bool {
    matches!(kind, "build_failed" | "numeric_mismatch" | "runtime_crash")
}

/// Fastest-first stack of engines with automatic demotion.
pub struct EngineLadder {
    rungs: Vec<Rung>,
    level: Cell<usize>,
    streak: Cell<u32>,
    demote_after: u32,
    demotions: Cell<u32>,
}

impl EngineLadder {
    /// Ladder over `rungs` (fastest first; must be non-empty), demoting
    /// after `demote_after` consecutive engine failures.
    pub fn new(rungs: Vec<Rung>, demote_after: u32) -> EngineLadder {
        assert!(!rungs.is_empty(), "ladder needs at least one rung");
        EngineLadder {
            rungs,
            level: Cell::new(0),
            streak: Cell::new(0),
            demote_after: demote_after.max(1),
            demotions: Cell::new(0),
        }
    }

    /// Current rung index (0 = fastest).
    pub fn level(&self) -> usize {
        self.level.get()
    }

    /// Current rung's display name.
    pub fn rung_name(&self) -> &str {
        &self.rungs[self.level()].name
    }

    /// Times this ladder has demoted.
    pub fn demotions(&self) -> u32 {
        self.demotions.get()
    }

    fn current(&self) -> &dyn Evaluator {
        &*self.rungs[self.level()].evaluator
    }

    /// Feed one trial's outcome (live or replayed) into the demotion
    /// state machine. Returns `true` when this observation demoted the
    /// ladder. Success resets the streak; engine-failure kinds extend
    /// it; configuration-level failures leave it unchanged.
    pub fn observe(&self, error_kind: Option<&str>) -> bool {
        match error_kind {
            None => {
                self.streak.set(0);
                false
            }
            Some(kind) if is_engine_failure(kind) => {
                self.streak.set(self.streak.get() + 1);
                if self.streak.get() >= self.demote_after && self.level() + 1 < self.rungs.len() {
                    self.level.set(self.level() + 1);
                    self.streak.set(0);
                    self.demotions.set(self.demotions() + 1);
                    true
                } else {
                    false
                }
            }
            Some(_) => false,
        }
    }
}

/// One `Option` of counters merged over every rung that reports them.
fn merged<S: Default>(
    rungs: &[Rung],
    stats: impl Fn(&dyn Evaluator) -> Option<S>,
    merge: impl Fn(&mut S, &S),
) -> Option<S> {
    let mut out: Option<S> = None;
    for s in rungs.iter().filter_map(|r| stats(&*r.evaluator)) {
        merge(out.get_or_insert_with(S::default), &s);
    }
    out
}

impl Evaluator for EngineLadder {
    /// The tuning space (identical across rungs — same mold).
    fn space(&self) -> &ConfigSpace {
        self.rungs[0].evaluator.space()
    }

    /// Measure `config` on the current rung.
    fn evaluate(&self, config: &Configuration) -> MeasureResult {
        self.current().evaluate(config)
    }

    /// The current rung's pipeline fingerprint (stamped into journal
    /// records, checked against them on replay).
    fn pipeline_fingerprint(&self) -> Option<String> {
        self.current().pipeline_fingerprint()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.current().cache_stats()
    }

    fn static_check_stats(&self) -> Option<StaticCheckStats> {
        self.current().static_check_stats()
    }

    /// The JIT rung's native-codegen counters, regardless of the rung the
    /// ladder is currently on (`None` when no rung runs a JIT device) —
    /// after a demotion the compile work done *before* stepping down is
    /// still part of the session's story.
    fn jit_stats(&self) -> Option<JitStats> {
        self.rungs.iter().find_map(|r| r.evaluator.jit_stats())
    }

    // The three below merge over every rung instead of taking the first
    // hit: both the JIT rung and the optimized-VM rung dispatch to the
    // pool, vectorize and prune, and after a demotion both have a story
    // to tell.

    fn par_stats(&self) -> Option<ParStats> {
        merged(&self.rungs, |e| e.par_stats(), ParStats::merge)
    }

    fn simd_stats(&self) -> Option<SimdStats> {
        merged(&self.rungs, |e| e.simd_stats(), SimdStats::merge)
    }

    fn prune_stats(&self) -> Option<PruneStats> {
        merged(&self.rungs, |e| e.prune_stats(), PruneStats::merge)
    }
}

/// Build the ladder for one job: rungs per the spec's engine, every rung
/// sharing the process-wide memo cache, each wrapped in the fault
/// harness (and, when the spec carries a chaos plan, the deterministic
/// fault injector *inside* the harness, so injected transients are
/// retried exactly like real ones).
pub fn build_ladder(
    spec: &JobSpec,
    cache: &Arc<MemoCache>,
    harness: HarnessOptions,
    demote_after: u32,
) -> Result<EngineLadder, String> {
    let (kernel, size) = spec.workload()?;
    let mode = spec.space.mode();
    let mold = || mold_for_mode(kernel, size, mode);
    let wrap = |ev: MoldEvaluator| -> Box<dyn Evaluator + Send + Sync> {
        match spec.fault {
            Some(plan) => Box::new(
                HarnessedEvaluator::new(FaultInjector::new(ev, plan)).with_options(harness),
            ),
            None => Box::new(HarnessedEvaluator::new(ev).with_options(harness)),
        }
    };
    let rungs = match spec.engine {
        EngineKind::Simulated => vec![Rung {
            name: "sim-a100".into(),
            evaluator: wrap(
                MoldEvaluator::simulated(mold(), SimDevice::new(GpuSpec::a100()))
                    .with_cache(Arc::clone(cache)),
            ),
        }],
        EngineKind::Real => vec![
            Rung {
                name: "jit".into(),
                evaluator: wrap(
                    MoldEvaluator::real(mold(), CpuDevice::jit()).with_cache(Arc::clone(cache)),
                ),
            },
            Rung {
                name: "optimized-vm".into(),
                evaluator: wrap(
                    MoldEvaluator::real(mold(), CpuDevice::new()).with_cache(Arc::clone(cache)),
                ),
            },
            Rung {
                name: "scalar-vm".into(),
                evaluator: wrap(
                    MoldEvaluator::real(mold(), CpuDevice::scalar_vm())
                        .with_cache(Arc::clone(cache)),
                ),
            },
            Rung {
                name: "interpreter".into(),
                evaluator: wrap(
                    MoldEvaluator::real(mold(), CpuDevice::interpreter())
                        .with_cache(Arc::clone(cache)),
                ),
            },
        ],
    };
    Ok(EngineLadder::new(rungs, demote_after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotvm::measure::FnEvaluator;
    use configspace::Hyperparameter;

    fn space() -> ConfigSpace {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("P0", &[1, 2, 3, 4]));
        cs
    }

    fn rung(name: &str, fp: &str) -> Rung {
        let fp = fp.to_string();
        struct Stamped<F: Fn(&Configuration) -> MeasureResult> {
            inner: FnEvaluator<F>,
            fp: String,
        }
        impl<F: Fn(&Configuration) -> MeasureResult> Evaluator for Stamped<F> {
            fn space(&self) -> &ConfigSpace {
                self.inner.space()
            }
            fn evaluate(&self, c: &Configuration) -> MeasureResult {
                self.inner.evaluate(c)
            }
            fn pipeline_fingerprint(&self) -> Option<String> {
                Some(self.fp.clone())
            }
        }
        Rung {
            name: name.into(),
            evaluator: Box::new(Stamped {
                inner: FnEvaluator::new(space(), |c| MeasureResult::ok(c.int("P0") as f64, 0.1)),
                fp,
            }),
        }
    }

    fn two_rung_ladder() -> EngineLadder {
        EngineLadder::new(vec![rung("fast", "fast/v1"), rung("slow", "slow/v1")], 2)
    }

    #[test]
    fn engine_failures_demote_after_streak() {
        let l = two_rung_ladder();
        assert_eq!(l.rung_name(), "fast");
        assert!(!l.observe(Some("build_failed")));
        assert!(l.observe(Some("build_failed")), "second in a row demotes");
        assert_eq!(l.rung_name(), "slow");
        assert_eq!(l.level(), 1);
        assert_eq!(l.demotions(), 1);
        assert_eq!(l.pipeline_fingerprint(), Some("slow/v1".into()));
    }

    #[test]
    fn success_resets_and_config_failures_do_not_count() {
        let l = two_rung_ladder();
        l.observe(Some("runtime_crash"));
        l.observe(None); // success resets
        l.observe(Some("numeric_mismatch"));
        l.observe(Some("static_reject")); // config-level: no effect
        l.observe(Some("invalid_schedule"));
        assert_eq!(l.level(), 0, "streak never reached 2 in a row");
        l.observe(Some("numeric_mismatch"));
        assert_eq!(l.level(), 1);
    }

    #[test]
    fn bottom_rung_absorbs_failures() {
        let l = two_rung_ladder();
        for _ in 0..10 {
            l.observe(Some("build_failed"));
        }
        assert_eq!(l.level(), 1, "cannot demote past the last rung");
        assert_eq!(l.demotions(), 1);
    }

    #[test]
    fn real_ladder_has_four_distinct_rungs() {
        let cache = Arc::new(MemoCache::new());
        let mut spec = JobSpec::new("t", "lu", "mini");
        spec.engine = EngineKind::Real;
        let l = build_ladder(&spec, &cache, HarnessOptions::default(), 3).expect("ladder");
        assert_eq!(l.level(), 0);
        assert_eq!(l.rung_name(), "jit", "native codegen tops the ladder");
        let mut fps = Vec::new();
        loop {
            fps.push(l.pipeline_fingerprint());
            if l.level() + 1 >= 4 {
                break;
            }
            // Force a demotion.
            for _ in 0..3 {
                l.observe(Some("build_failed"));
            }
        }
        assert_eq!(fps.len(), 4);
        assert!(
            fps.iter().collect::<std::collections::HashSet<_>>().len() == 4,
            "each rung has a distinct fingerprint: {fps:?}"
        );
        assert_eq!(fps[3], Some("interp/v1".into()), "oracle at the bottom");
    }

    #[test]
    fn simulated_ladder_is_single_rung() {
        let cache = Arc::new(MemoCache::new());
        let spec = JobSpec::new("t", "lu", "mini");
        let l = build_ladder(&spec, &cache, HarnessOptions::default(), 3).expect("ladder");
        assert_eq!(l.rung_name(), "sim-a100");
        assert_eq!(
            l.pipeline_fingerprint(),
            None,
            "analytical device: no pipeline"
        );
    }
}
