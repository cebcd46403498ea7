//! The tuning driver: the one trial loop. It runs any [`Tuner`] — the four
//! AutoTVM strategies and the ytopt Bayesian optimizer alike — against an
//! evaluator and records the trial history with process-time accounting.
//!
//! Four entry points share one round loop, [`run_rounds`] (ask → replay the
//! journaled prefix → prune the live suffix → measure → journal → tell),
//! and differ only in how a wave of live configurations is measured: [`tune`]
//! (in-memory only), [`tune_journaled`] (every completed trial written to
//! an append-only JSONL journal, durable before the tuner is told) and
//! [`resume_from_journal`] (replay a journal's completed trials through
//! the tuner — re-feeding `update` without re-measuring anything — then
//! continue live until the budget is reached) measure one configuration
//! at a time on the caller's thread;
//! [`tune_parallel`] measures the whole round concurrently. Every tuner is
//! a deterministic function of (seed, observed history), so a
//! killed-and-resumed run follows the identical remaining trajectory as
//! an uninterrupted one. The tuning service's supervised session is a fifth
//! caller of the same loop, through the three seams [`run_rounds`] documents.

use crate::measure::{
    CacheStats, Evaluator, JitStats, MeasureResult, ParStats, PruneStats, SimdStats,
    StaticCheckStats,
};
use crate::tuner::Tuner;
use configspace::Configuration;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;
use tvm_runtime::pool;
use ytopt_bo::fault::{panic_message, MeasureError};
use ytopt_bo::journal::{divergence_error, pipeline_mismatch_error, TrialJournal, TrialRecord};

/// Budget and batching options (the paper: `max_evals = 100`).
#[derive(Debug, Clone, Copy)]
pub struct TuneOptions {
    /// Maximum number of measured configurations.
    pub max_evals: usize,
    /// Configurations requested from the tuner per round (AutoTVM's
    /// measure batch).
    pub batch: usize,
    /// Optional cap on accumulated process time, seconds.
    pub max_process_s: Option<f64>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            max_evals: 100,
            batch: 8,
            max_process_s: None,
        }
    }
}

/// One measured trial.
#[derive(Debug, Clone)]
pub struct Trial {
    /// 0-based evaluation index.
    pub index: usize,
    /// The measured configuration.
    pub config: Configuration,
    /// Kernel runtime, seconds (`None` on failure).
    pub runtime_s: Option<f64>,
    /// Failure class when the measurement produced no runtime.
    pub error: Option<MeasureError>,
    /// Process time this evaluation consumed.
    pub eval_process_s: f64,
    /// Cumulative process time (tuner think time + evaluations) when this
    /// trial finished — the x-axis of the paper's Figures 4/6/8/10/12.
    pub elapsed_s: f64,
}

impl Trial {
    fn new(index: usize, config: &Configuration, res: &MeasureResult, elapsed_s: f64) -> Trial {
        Trial {
            index,
            config: config.clone(),
            runtime_s: res.runtime_s,
            error: res.error.clone(),
            eval_process_s: res.process_s,
            elapsed_s,
        }
    }
}

/// Complete history of one tuning run.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// Tuner display name.
    pub tuner: String,
    /// Trials in measurement order.
    pub trials: Vec<Trial>,
    /// Total autotuning process time (the paper's bar-chart metric).
    pub total_process_s: f64,
    /// Wall-clock the tuner itself spent proposing/updating.
    pub think_s: f64,
    /// How many trials were replayed from a journal rather than measured
    /// live (0 for fresh runs).
    pub replayed: usize,
    /// Hit/miss counters of the evaluator's lowering/compilation memo
    /// cache, when it keeps one.
    pub cache: Option<CacheStats>,
    /// Accept/reject counters of the evaluator's static schedule-safety
    /// analyzer, when it runs one.
    pub static_checks: Option<StaticCheckStats>,
    /// Native-codegen compile counters of the evaluator's device, when
    /// it runs a JIT rung (functions jitted, bytes emitted, fallbacks
    /// with reasons).
    pub jit: Option<JitStats>,
    /// Multicore-dispatch counters of the evaluator's device, when it
    /// runs parallel loops on a worker pool (loops proven race-free,
    /// dispatches, sequential fallbacks with reasons).
    pub par: Option<ParStats>,
    /// Packed-SIMD emission counters of the evaluator's device, when it
    /// runs a vectorizing codegen rung (vector sites packed vs scalar,
    /// with per-reason fallbacks and lane widths).
    pub simd: Option<SimdStats>,
    /// Batch static-pruning counters of the evaluator's analyzer
    /// pipeline, when it filters candidate batches before measurement
    /// (admitted / denied by stage, with per-code counts).
    pub prune: Option<PruneStats>,
}

impl TuningResult {
    /// The successful trial with the smallest runtime.
    pub fn best(&self) -> Option<&Trial> {
        self.trials
            .iter()
            .filter(|t| t.runtime_s.is_some())
            .min_by(|a, b| {
                a.runtime_s
                    .partial_cmp(&b.runtime_s)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Number of evaluations performed.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// True when no trial ran.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// Number of failed trials.
    pub fn failed(&self) -> usize {
        self.trials.iter().filter(|t| t.runtime_s.is_none()).count()
    }

    /// Running minimum runtime after each trial (convergence curve).
    pub fn incumbent_curve(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.trials
            .iter()
            .map(|t| {
                if let Some(r) = t.runtime_s {
                    best = best.min(r);
                }
                best
            })
            .collect()
    }
}

/// Run `tuner` against `evaluator` until the budget is exhausted or the
/// tuner gives up (the paper's Step 1–5 loop).
///
/// Process-time accounting: the tuner's *real* `next_batch`/`update` time
/// is measured with a wall clock and added to the evaluations' (possibly
/// simulated) process seconds — so a model-based tuner that spends real
/// CPU time training is charged for it, exactly as in the paper's
/// "overall autotuning process time".
pub fn tune(tuner: &mut dyn Tuner, evaluator: &dyn Evaluator, opts: TuneOptions) -> TuningResult {
    run_in_place(tuner, evaluator, opts, None).expect("journal-free tuning cannot do I/O")
}

/// Like [`tune`], but write every completed trial to a crash-consistent
/// journal at `path` (truncating any previous journal there). See
/// `ytopt_bo::journal` for the format and durability guarantees.
pub fn tune_journaled(
    tuner: &mut dyn Tuner,
    evaluator: &dyn Evaluator,
    opts: TuneOptions,
    path: impl AsRef<Path>,
) -> std::io::Result<TuningResult> {
    let mut journal = TrialJournal::create(path)?;
    run_in_place(tuner, evaluator, opts, Some((&mut journal, Vec::new())))
}

/// Resume a (possibly interrupted) journaled run: replay every completed
/// trial from the journal at `path` through the tuner's normal
/// propose/update cycle — without re-measuring anything — then continue
/// live until the budget is reached, appending new trials to the same
/// journal.
///
/// Requires the same tuner construction (seed included), options and
/// evaluator as the original run; a mismatch is detected when the tuner's
/// proposals diverge from the journal and reported as `InvalidData`.
pub fn resume_from_journal(
    tuner: &mut dyn Tuner,
    evaluator: &dyn Evaluator,
    opts: TuneOptions,
    path: impl AsRef<Path>,
) -> std::io::Result<TuningResult> {
    let (mut journal, replay) = TrialJournal::open_resume(path)?;
    run_in_place(tuner, evaluator, opts, Some((&mut journal, replay)))
}

/// Like [`tune`], but measure each round's batch **concurrently** on
/// `tvm_runtime::pool` (the evaluator must be `Sync`): up to
/// `pool::num_threads()` threads claim its configurations one at a time.
/// A measurement runs in the pool's serial scope, so a kernel's own
/// `Parallel` loops run sequentially under a concurrent measurement
/// instead of oversubscribing the machine.
///
/// Process-time accounting charges the *maximum* evaluation time of each
/// batch — the wall-clock a `batch`-wide worker pool would observe — plus
/// the tuner's own think time. Each worker's retries and backoff waits
/// are inside its own `process_s`, so overlapping backoffs are never
/// charged serially (the sequential [`tune`] charges them end to end,
/// which is correct for one worker).
///
/// A panicking measurement worker does **not** abort the run: the panic
/// is caught and becomes a failed trial ([`MeasureError::RuntimeCrash`]).
pub fn tune_parallel<E: Evaluator + Sync>(
    tuner: &mut dyn Tuner,
    evaluator: &E,
    opts: TuneOptions,
) -> TuningResult {
    // Each measurement catches its own panic so one crashed configuration
    // cannot kill the batch.
    let measure_one = |cfg: &Configuration| -> MeasureResult {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| evaluator.evaluate(cfg)))
            .unwrap_or_else(|payload| {
                MeasureResult::fail(
                    MeasureError::RuntimeCrash(format!(
                        "measurement worker panicked: {}",
                        panic_message(payload.as_ref())
                    )),
                    0.0,
                )
            })
    };
    let mut measure = |wave: &[&Configuration]| -> Vec<MeasureResult> {
        // One slot per configuration: results come back in the wave's
        // order whichever thread measured them.
        let slots: Vec<OnceLock<MeasureResult>> = wave.iter().map(|_| OnceLock::new()).collect();
        pool::run_claims(wave.len(), &|claims| {
            for i in claims {
                let _ = slots[i].set(measure_one(wave[i]));
            }
        });
        let filled = slots.into_iter().map(OnceLock::into_inner);
        filled
            .map(|r| r.expect("every configuration was claimed"))
            .collect()
    };
    let (think, width) = (Think::Charged, usize::MAX);
    run_rounds(tuner, evaluator, opts, None, think, width, &mut measure)
        .expect("journal-free tuning cannot do I/O")
}

/// The loop as the three sequential entry points run it: think time
/// charged, each wave one configuration measured on the caller's thread.
fn run_in_place(
    tuner: &mut dyn Tuner,
    evaluator: &dyn Evaluator,
    opts: TuneOptions,
    journal: Option<(&mut TrialJournal, Vec<TrialRecord>)>,
) -> std::io::Result<TuningResult> {
    let mut measure = |wave: &[&Configuration]| -> Vec<MeasureResult> {
        wave.iter().map(|cfg| evaluator.evaluate(cfg)).collect()
    };
    run_rounds(
        tuner,
        evaluator,
        opts,
        journal,
        Think::Charged,
        1,
        &mut measure,
    )
}

/// Seam 1 of [`run_rounds`]: whether the wall clock of the tuner's
/// `next_batch` / `update` and the evaluator's `prune_batch` is charged to
/// `elapsed_s`. The four `tune*` entry points charge it (the paper's
/// "overall autotuning process time"); a service session does not — its
/// `elapsed_s` steps by exactly `eval_process_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Think {
    /// Think time is part of the process time.
    Charged,
    /// Only evaluations are charged.
    Free,
}

/// The caller's side of [`run_rounds`]: seams 2 and 3. Any
/// `FnMut(&[&Configuration]) -> Vec<MeasureResult>` is a caller that
/// measures every wave and ignores the per-trial callback.
pub trait Waves {
    /// Measure one wave of live configurations, one result per
    /// configuration in order — or decline it with `None`: nothing of that
    /// wave is measured, journaled or told to the tuner, what is already
    /// staged is committed, and the loop returns the history so far.
    fn measure(&mut self, wave: &[&Configuration]) -> Option<Vec<MeasureResult>>;

    /// Called once after each trial is recorded — replayed from the tape
    /// or measured live and staged — before the next trial's pipeline
    /// stamp is read, so the caller may switch engines here.
    fn recorded(&mut self, _trial: &Trial, _replayed: bool) {}
}

impl<F: FnMut(&[&Configuration]) -> Vec<MeasureResult>> Waves for F {
    fn measure(&mut self, wave: &[&Configuration]) -> Option<Vec<MeasureResult>> {
        Some(self(wave))
    }
}

/// The round loop. Each round asks the tuner for a batch, satisfies its
/// prefix from the journal's replayed records while any remain,
/// statically prunes the live suffix, measures it in waves of up to
/// `width` configurations through `caller`, journals every live trial,
/// and tells the tuner.
///
/// A wave is the unit of charging: the process is charged the *slowest*
/// member of a wave (for `width` 1 that is the trial itself). A round is
/// the unit of durability: the journal is written after each trial and
/// durable before the tuner is told — one sync per round, immediately
/// before `update`, and one on the way out if a wave was declined.
///
/// The evaluator's pipeline fingerprint is read per trial, not per run:
/// a live record is stamped with the fingerprint at the moment it is
/// staged, a replayed record's stamp is checked against the fingerprint
/// at that index, and [`Waves::recorded`] runs after either — an evaluator
/// that changes engines there is replayed through the same changes.
pub fn run_rounds(
    tuner: &mut dyn Tuner,
    evaluator: &dyn Evaluator,
    opts: TuneOptions,
    journal: Option<(&mut TrialJournal, Vec<TrialRecord>)>,
    think_time: Think,
    width: usize,
    caller: &mut dyn Waves,
) -> std::io::Result<TuningResult> {
    let (mut journal, replay) = journal.unzip();
    let replay = replay.unwrap_or_default();
    let charged = think_time == Think::Charged;
    let mut trials: Vec<Trial> = Vec::with_capacity(opts.max_evals);
    let mut elapsed = 0.0f64;
    let mut think = 0.0f64;
    let replay_total = replay.len();
    let mut replay = replay.into_iter();

    'rounds: while trials.len() < opts.max_evals && tuner.has_next() {
        // While replaying, `elapsed` is restored from the journal rather
        // than accumulated live, so the resume process's own think time
        // does not distort the trajectory — and the cap must not fire at
        // a different trial than in the uninterrupted run.
        let replaying = trials.len() < replay_total;
        if !replaying && opts.max_process_s.is_some_and(|cap| elapsed >= cap) {
            break;
        }
        let want = opts.batch.min(opts.max_evals - trials.len());
        let t0 = Instant::now();
        let batch = tuner.next_batch(want);
        let dt = t0.elapsed().as_secs_f64();
        think += dt;
        if charged && !replaying {
            elapsed += dt;
        }
        if batch.is_empty() {
            break;
        }

        // Replayed trials carry their journaled verdicts and costs: they
        // are neither re-analyzed nor re-measured.
        let mut results: Vec<MeasureResult> = Vec::with_capacity(batch.len());
        for (config, rec) in batch.iter().zip(replay.by_ref()) {
            // A record out of place (a journal missing its head) would
            // replay shifted costs even where the keys happen to agree.
            if rec.index != trials.len() {
                return Err(divergence_error(
                    trials.len(),
                    &format!("record {}", rec.index),
                    &config.key(),
                ));
            }
            if rec.config.key() != config.key() {
                return Err(divergence_error(
                    trials.len(),
                    &rec.config.key(),
                    &config.key(),
                ));
            }
            let pipeline = evaluator.pipeline_fingerprint();
            if rec.pipeline != pipeline {
                return Err(pipeline_mismatch_error(
                    trials.len(),
                    &rec.pipeline,
                    &pipeline,
                ));
            }
            elapsed = rec.elapsed_s;
            let res = MeasureResult {
                runtime_s: rec.runtime_s,
                process_s: rec.eval_process_s,
                error: rec.error,
            };
            let trial = Trial::new(trials.len(), config, &res, elapsed);
            caller.recorded(&trial, true);
            trials.push(trial);
            results.push(res);
        }

        let live = &batch[results.len()..];
        if !live.is_empty() {
            // Static batch filter before anything is measured: denied
            // configs become zero-cost `static_reject` trials without
            // compiling or occupying a measurement slot. Static filtering
            // is real work the process did.
            let t0 = Instant::now();
            let mut verdicts = evaluator.prune_batch(live).unwrap_or_default();
            if charged {
                elapsed += t0.elapsed().as_secs_f64();
            }
            verdicts.resize(live.len(), None);

            for (wave, denied) in live.chunks(width).zip(verdicts.chunks(width)) {
                let admitted: Vec<&Configuration> = wave
                    .iter()
                    .zip(denied)
                    .filter_map(|(config, denied)| denied.is_none().then_some(config))
                    .collect();
                let Some(measured) = caller.measure(&admitted) else {
                    break 'rounds;
                };
                let mut measured = measured.into_iter();
                let wave_results: Vec<MeasureResult> = denied
                    .iter()
                    .map(|denied| match denied {
                        Some(msg) => {
                            MeasureResult::fail(MeasureError::StaticReject(msg.clone()), 0.0)
                        }
                        None => measured.next().expect("one result per admitted config"),
                    })
                    .collect();
                // A wave finishes when its slowest member does.
                elapsed += wave_results
                    .iter()
                    .map(|r| r.process_s)
                    .fold(0.0f64, f64::max);

                for (config, res) in wave.iter().zip(wave_results) {
                    let trial = Trial::new(trials.len(), config, &res, elapsed);
                    if let Some(journal) = journal.as_mut() {
                        journal.stage(&TrialRecord {
                            index: trial.index,
                            config: trial.config.clone(),
                            runtime_s: trial.runtime_s,
                            error: trial.error.clone(),
                            eval_process_s: trial.eval_process_s,
                            elapsed_s: trial.elapsed_s,
                            pipeline: evaluator.pipeline_fingerprint(),
                        })?;
                    }
                    caller.recorded(&trial, false);
                    trials.push(trial);
                    results.push(res);
                }
            }
        }

        let any_live = !live.is_empty();
        if let Some(journal) = journal.as_mut() {
            journal.commit()?;
        }
        let feedback: Vec<(Configuration, MeasureResult)> =
            batch.into_iter().zip(results).collect();
        let t1 = Instant::now();
        tuner.update(&feedback);
        let dt = t1.elapsed().as_secs_f64();
        think += dt;
        if charged && any_live {
            elapsed += dt;
        }
    }
    // A declined wave leaves the round's earlier waves staged: the file
    // and the returned history never disagree.
    if let Some(journal) = journal {
        journal.commit()?;
    }

    Ok(TuningResult {
        tuner: tuner.name().to_string(),
        trials,
        total_process_s: elapsed,
        think_s: think,
        replayed: replay_total - replay.len(),
        cache: evaluator.cache_stats(),
        static_checks: evaluator.static_check_stats(),
        jit: evaluator.jit_stats(),
        par: evaluator.par_stats(),
        simd: evaluator.simd_stats(),
        prune: evaluator.prune_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::FnEvaluator;
    use crate::tuner::gridsearch::GridSearchTuner;
    use crate::tuner::random::RandomTuner;
    use crate::tuner::ytopt::YtoptTuner;
    use configspace::{ConfigSpace, Hyperparameter};

    fn space() -> ConfigSpace {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints(
            "P0",
            &(1..=10).collect::<Vec<i64>>(),
        ));
        cs.add(Hyperparameter::ordinal_ints(
            "P1",
            &(1..=10).collect::<Vec<i64>>(),
        ));
        cs
    }

    fn evaluator() -> FnEvaluator<impl Fn(&Configuration) -> MeasureResult> {
        FnEvaluator::new(space(), |c| {
            let r = (c.int("P0") - 7).pow(2) as f64 + (c.int("P1") - 3).pow(2) as f64 + 1.0;
            MeasureResult::ok(r, r + 0.8)
        })
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("autotvm-driver-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    #[test]
    fn respects_budget() {
        let ev = evaluator();
        let mut t = RandomTuner::new(space(), 1);
        let res = tune(&mut t, &ev, TuneOptions::default());
        assert_eq!(res.len(), 100);
        assert_eq!(res.trials.last().expect("trials").index, 99);
        assert_eq!(res.replayed, 0);
    }

    #[test]
    fn elapsed_is_monotone_and_includes_eval_cost() {
        let ev = evaluator();
        let mut t = GridSearchTuner::new(space());
        let res = tune(
            &mut t,
            &ev,
            TuneOptions {
                max_evals: 20,
                batch: 4,
                max_process_s: None,
            },
        );
        assert!(res
            .trials
            .windows(2)
            .all(|w| w[0].elapsed_s < w[1].elapsed_s));
        let eval_sum: f64 = res.trials.iter().map(|t| t.eval_process_s).sum();
        assert!(res.total_process_s >= eval_sum);
        assert!(res.think_s >= 0.0);
    }

    #[test]
    fn best_finds_minimum_on_full_grid() {
        let ev = evaluator();
        let mut t = GridSearchTuner::new(space());
        let res = tune(
            &mut t,
            &ev,
            TuneOptions {
                max_evals: 100,
                batch: 10,
                max_process_s: None,
            },
        );
        let best = res.best().expect("has best");
        assert_eq!(best.runtime_s, Some(1.0));
        assert_eq!(best.config.int("P0"), 7);
        assert_eq!(best.config.int("P1"), 3);
    }

    #[test]
    fn incumbent_curve_is_nonincreasing() {
        let ev = evaluator();
        let mut t = RandomTuner::new(space(), 5);
        let res = tune(&mut t, &ev, TuneOptions::default());
        let curve = res.incumbent_curve();
        assert_eq!(curve.len(), res.len());
        assert!(curve.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn process_cap_stops_early() {
        let ev = evaluator();
        let mut t = RandomTuner::new(space(), 2);
        let res = tune(
            &mut t,
            &ev,
            TuneOptions {
                max_evals: 100,
                batch: 5,
                max_process_s: Some(30.0),
            },
        );
        assert!(res.len() < 100);
    }

    #[test]
    fn stops_when_tuner_exhausted() {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("P0", &[1, 2, 3]));
        let ev = FnEvaluator::new(cs.clone(), |_| MeasureResult::ok(1.0, 1.0));
        let mut t = GridSearchTuner::new(cs);
        let res = tune(&mut t, &ev, TuneOptions::default());
        assert_eq!(res.len(), 3);
    }

    #[test]
    fn failed_trials_carry_their_error() {
        let ev = FnEvaluator::new(space(), |c| {
            if c.int("P0") % 2 == 0 {
                MeasureResult::fail(MeasureError::BuildFailed("even P0".into()), 0.2)
            } else {
                MeasureResult::ok(1.0, 1.0)
            }
        });
        let mut t = GridSearchTuner::new(space());
        let res = tune(
            &mut t,
            &ev,
            TuneOptions {
                max_evals: 20,
                batch: 5,
                max_process_s: None,
            },
        );
        assert!(res.failed() > 0);
        for t in &res.trials {
            match t.runtime_s {
                Some(_) => assert!(t.error.is_none()),
                None => {
                    assert_eq!(t.error.as_ref().map(|e| e.kind()), Some("build_failed"));
                }
            }
        }
        assert!(res.best().expect("best").error.is_none());
    }

    #[test]
    fn parallel_tuning_matches_sequential_trajectory() {
        let ev = evaluator();
        let opts = TuneOptions {
            max_evals: 40,
            batch: 8,
            max_process_s: None,
        };
        let mut t_seq = GridSearchTuner::new(space());
        let seq = tune(&mut t_seq, &ev, opts);
        let mut t_par = GridSearchTuner::new(space());
        let par = tune_parallel(&mut t_par, &ev, opts);
        let keys =
            |r: &TuningResult| -> Vec<String> { r.trials.iter().map(|t| t.config.key()).collect() };
        assert_eq!(keys(&seq), keys(&par), "same proposals, same order");
        assert_eq!(
            seq.best().expect("best").config.key(),
            par.best().expect("best").config.key()
        );
        // Same per-trial measurements, cheaper batch accounting.
        for (a, b) in seq.trials.iter().zip(&par.trials) {
            assert_eq!(a.runtime_s, b.runtime_s);
            assert_eq!(a.eval_process_s, b.eval_process_s);
        }
        assert!(par.total_process_s < seq.total_process_s);
    }

    #[test]
    fn parallel_tuning_charges_batch_max_not_sum() {
        // Every measurement burns 0.5 s of charged process time (think:
        // retries + backoff under the harness). Five overlapping workers
        // must be charged max(0.5) per round, not 5 × 0.5.
        let ev = FnEvaluator::new(space(), |c| MeasureResult::ok(c.int("P0") as f64, 0.5));
        let mut t = GridSearchTuner::new(space());
        let res = tune_parallel(
            &mut t,
            &ev,
            TuneOptions {
                max_evals: 20,
                batch: 5,
                max_process_s: None,
            },
        );
        assert_eq!(res.len(), 20);
        assert!(res.trials.iter().all(|t| t.eval_process_s == 0.5));
        // 4 rounds × 0.5 s batch wall (+ think ε), far below the 10 s a
        // serial charge would accumulate.
        assert!(
            res.total_process_s < 3.0,
            "expected ~2 s, got {}",
            res.total_process_s
        );
        assert!(res.total_process_s >= 2.0);
    }

    #[test]
    fn parallel_tuning_survives_worker_panics() {
        let ev = FnEvaluator::new(space(), |c| {
            if c.int("P0") == c.int("P1") {
                panic!("measurement exploded on the diagonal");
            }
            MeasureResult::ok(1.0, 0.1)
        });
        let mut t = GridSearchTuner::new(space());
        let res = tune_parallel(
            &mut t,
            &ev,
            TuneOptions {
                max_evals: 50,
                batch: 10,
                max_process_s: None,
            },
        );
        assert_eq!(res.len(), 50);
        assert_eq!(res.failed(), 5, "five diagonal cells in the first half");
        for t in res.trials.iter().filter(|t| t.runtime_s.is_none()) {
            let err = t.error.as_ref().expect("crash recorded");
            assert_eq!(err.kind(), "runtime_crash");
            assert!(err.message().contains("measurement exploded"));
        }
    }

    #[test]
    fn parallel_tuning_runs_measurements_as_pool_chunks() {
        // A measurement is a claim of `tvm_runtime::pool`: a kernel's own
        // `Parallel` loop under it must not dispatch, and on a one-thread
        // budget every claim stays on the caller (no worker spawned or
        // woken).
        let caller = std::thread::current().id();
        let (counters, plain) = (pool::ParCounters::new(), evaluator());
        let ev = FnEvaluator::new(space(), |c| {
            assert!(!pool::begin_parallel(true, 8, Some(&counters)));
            assert_eq!(std::thread::current().id(), caller);
            plain.evaluate(c)
        });
        let opts = TuneOptions {
            max_evals: 24,
            batch: 8,
            max_process_s: None,
        };
        // The only test in this crate that moves the process-global
        // budget (`pool::test_threads_lock` is private to the runtime);
        // the others hold at any budget, so it only has to put it back.
        let budget = pool::num_threads();
        pool::set_num_threads(1);
        let par = tune_parallel(&mut YtoptTuner::new(space(), 3), &ev, opts);
        pool::set_num_threads(budget);
        assert_eq!(par.failed(), 0, "an assertion above became a crashed trial");
        let serial_context = ("serial-context".to_string(), 24);
        assert_eq!(counters.snapshot().fallback_reasons, vec![serial_context]);

        let seq = tune(&mut YtoptTuner::new(space(), 3), &plain, opts);
        let keys = |r: &TuningResult| r.trials.iter().map(|t| t.config.key()).collect::<Vec<_>>();
        assert_eq!(keys(&par), keys(&seq), "the sequential trajectory");
    }

    #[test]
    fn journaled_run_resumes_identically() {
        let path = tmp("driver-resume.jsonl");
        let _ = std::fs::remove_file(&path);
        let ev = evaluator();
        let opts = TuneOptions {
            max_evals: 40,
            batch: 8,
            max_process_s: None,
        };

        // Reference: uninterrupted run.
        let mut t_full = RandomTuner::new(space(), 42);
        let full = tune(&mut t_full, &ev, opts);

        // Interrupted: journal 16 trials, then resume with a *fresh*
        // identically-seeded tuner (as a restarted process would).
        let mut t_part = RandomTuner::new(space(), 42);
        let partial = tune_journaled(
            &mut t_part,
            &ev,
            TuneOptions {
                max_evals: 16,
                ..opts
            },
            &path,
        )
        .expect("journaled run");
        assert_eq!(partial.len(), 16);

        let mut t_res = RandomTuner::new(space(), 42);
        let resumed = resume_from_journal(&mut t_res, &ev, opts, &path).expect("resume");
        assert_eq!(resumed.len(), 40);
        assert_eq!(resumed.replayed, 16);
        assert_eq!(TrialJournal::load(&path).expect("load").len(), 40);

        let keys =
            |r: &TuningResult| -> Vec<String> { r.trials.iter().map(|t| t.config.key()).collect() };
        assert_eq!(keys(&full), keys(&resumed), "identical trajectory");
        assert_eq!(
            full.best().expect("best").config.key(),
            resumed.best().expect("best").config.key()
        );
        let _ = std::fs::remove_file(&path);
    }

    /// What [`tune_journaled`] / [`resume_from_journal`] run, over a
    /// journal the test keeps: `(records written, syncs issued)`.
    fn journal_counts(
        journal: (TrialJournal, Vec<TrialRecord>),
        max_evals: usize,
        batch: usize,
    ) -> (usize, usize) {
        let ev = evaluator();
        let opts = TuneOptions {
            max_evals,
            batch,
            max_process_s: None,
        };
        let (mut journal, replay) = journal;
        let mut t = RandomTuner::new(space(), 42);
        let tape = Some((&mut journal, replay));
        let res = run_in_place(&mut t, &ev, opts, tape).expect("journaled run");
        assert_eq!(res.len(), max_evals);
        (journal.written(), journal.syncs())
    }

    #[test]
    fn journal_is_synced_once_per_round_not_per_trial() {
        let path = tmp("driver-syncs.jsonl");
        let fresh = || (TrialJournal::create(&path).expect("create"), Vec::new());
        assert_eq!(journal_counts(fresh(), 40, 4), (40, 10));
        assert_eq!(journal_counts(fresh(), 40, 1), (40, 40));
        assert_eq!(journal_counts(fresh(), 10, 4), (10, 3), "4 + 4 + 2");

        // A round that is part replayed, part live stages only its live
        // suffix: after 6 journaled trials, 2 + 8 x 4 are left to measure.
        assert_eq!(journal_counts(fresh(), 6, 4), (6, 2));
        let resumed = TrialJournal::open_resume(&path).expect("resume");
        assert_eq!(resumed.1.len(), 6);
        assert_eq!(journal_counts(resumed, 40, 4), (34, 9));
        assert_eq!(TrialJournal::load(&path).expect("load").len(), 40);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_with_wrong_seed_reports_divergence() {
        let path = tmp("driver-diverge.jsonl");
        let _ = std::fs::remove_file(&path);
        let ev = evaluator();
        let opts = TuneOptions {
            max_evals: 10,
            batch: 5,
            max_process_s: None,
        };
        let mut t = RandomTuner::new(space(), 1);
        tune_journaled(&mut t, &ev, opts, &path).expect("journaled run");
        let mut wrong = RandomTuner::new(space(), 2);
        let err = resume_from_journal(
            &mut wrong,
            &ev,
            TuneOptions {
                max_evals: 20,
                ..opts
            },
            &path,
        )
        .expect_err("must diverge");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_journal_missing_its_first_records_is_refused() {
        let path = tmp("driver-headless.jsonl");
        let ev = evaluator();
        let opts = TuneOptions {
            max_evals: 8,
            batch: 4,
            max_process_s: None,
        };
        tune_journaled(&mut RandomTuner::new(space(), 42), &ev, opts, &path).expect("run");
        let records = TrialJournal::load(&path).expect("load");
        // Verbatim records 3.., and the same tail relabelled with the
        // head's configurations, so only the index is out of place.
        let mut relabelled = records[3..].to_vec();
        for (r, head) in relabelled.iter_mut().zip(&records) {
            r.config = head.config.clone();
        }
        for tail in [records[3..].to_vec(), relabelled] {
            let mut j = TrialJournal::create(&path).expect("create");
            for r in &tail {
                j.append(r).expect("append");
            }
            drop(j);
            let err = resume_from_journal(&mut RandomTuner::new(space(), 42), &ev, opts, &path)
                .expect_err("a headless journal must not replay");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("diverges at trial 0"), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_under_changed_pipeline_is_refused() {
        struct Versioned {
            space: ConfigSpace,
            version: &'static str,
        }
        impl Evaluator for Versioned {
            fn space(&self) -> &ConfigSpace {
                &self.space
            }
            fn evaluate(&self, c: &Configuration) -> MeasureResult {
                MeasureResult::ok(c.int("P0") as f64, 0.1)
            }
            fn pipeline_fingerprint(&self) -> Option<String> {
                Some(self.version.to_string())
            }
        }
        let on = |version| Versioned {
            space: space(),
            version,
        };
        let path = tmp("driver-pipeline.jsonl");
        let _ = std::fs::remove_file(&path);
        let opts = TuneOptions {
            max_evals: 4,
            batch: 1,
            max_process_s: None,
        };
        let longer = TuneOptions {
            max_evals: 8,
            ..opts
        };
        tune_journaled(
            &mut YtoptTuner::new(space(), 3),
            &on("tir-opt/v1"),
            opts,
            &path,
        )
        .expect("journaled run");
        // Same seed and options, but the engine changed: the stale costs
        // must not be replayed.
        let err = resume_from_journal(
            &mut YtoptTuner::new(space(), 3),
            &on("tir-opt/v2"),
            longer,
            &path,
        )
        .expect_err("pipeline change must refuse resume");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("pipeline"), "{err}");
        // The unchanged pipeline still resumes cleanly.
        let resumed = resume_from_journal(
            &mut YtoptTuner::new(space(), 3),
            &on("tir-opt/v1"),
            longer,
            &path,
        )
        .expect("same pipeline resumes");
        assert_eq!((resumed.len(), resumed.replayed), (8, 4));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_pipeline_stamp_is_read_per_trial() {
        /// An engine that is swapped from the per-trial callback after
        /// trial number `swap_after` — what a demoting ladder does.
        struct Swapping {
            space: ConfigSpace,
            version: std::cell::Cell<&'static str>,
            swap_after: usize,
        }
        impl Evaluator for Swapping {
            fn space(&self) -> &ConfigSpace {
                &self.space
            }
            fn evaluate(&self, c: &Configuration) -> MeasureResult {
                MeasureResult::ok(c.int("P0") as f64, 0.5)
            }
            fn pipeline_fingerprint(&self) -> Option<String> {
                Some(self.version.get().to_string())
            }
        }
        impl Waves for &Swapping {
            fn measure(&mut self, wave: &[&Configuration]) -> Option<Vec<MeasureResult>> {
                Some(wave.iter().map(|c| self.evaluate(c)).collect())
            }
            fn recorded(&mut self, trial: &Trial, _replayed: bool) {
                if trial.index + 1 == self.swap_after {
                    self.version.set("engine/v2");
                }
            }
        }
        let path = tmp("driver-stamps.jsonl");
        let run = |swap_after: usize, max_evals: usize, resume: bool| {
            let ev = &Swapping {
                space: space(),
                version: std::cell::Cell::new("engine/v1"),
                swap_after,
            };
            let opts = TuneOptions {
                max_evals,
                batch: 3,
                max_process_s: None,
            };
            let (mut journal, tape) = if resume {
                TrialJournal::open_resume(&path).expect("resume")
            } else {
                (TrialJournal::create(&path).expect("create"), Vec::new())
            };
            let tape = Some((&mut journal, tape));
            let mut t = RandomTuner::new(space(), 7);
            run_rounds(&mut t, ev, opts, tape, Think::Charged, 1, &mut &*ev)
        };
        let stamps = || -> Vec<String> {
            let rows = TrialJournal::load(&path).expect("load");
            rows.into_iter()
                .map(|r| r.pipeline.expect("stamped"))
                .collect()
        };

        // Swapped after trial 5, in the middle of the second round: rows
        // 0..5 carry the old stamp, the rest the new one.
        assert_eq!(run(5, 8, false).expect("live").len(), 8);
        assert_eq!(stamps()[..5], ["engine/v1"; 5]);
        assert_eq!(stamps()[5..], ["engine/v2"; 3]);
        // Replay walks the evaluator through the same swap and goes on.
        let resumed = run(5, 12, true).expect("same swap resumes");
        assert_eq!((resumed.len(), resumed.replayed), (12, 8));
        assert_eq!(stamps()[5..], ["engine/v2"; 7]);
        // An evaluator that swaps one trial early disagrees with the tape
        // at exactly that index; one that never swaps, at the first new stamp.
        for (swap_after, index) in [(4, 4), (usize::MAX, 5)] {
            let err = run(swap_after, 12, true).expect_err("stamp disagrees");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let at = format!("journal record {index} was measured under pipeline");
            assert!(err.to_string().contains(&at), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_declined_wave_commits_what_is_staged_and_ends_the_run() {
        /// Measures `left` configurations, then declines every wave.
        struct Declining<'a, E: Evaluator>(&'a E, usize);
        impl<E: Evaluator> Waves for Declining<'_, E> {
            fn measure(&mut self, wave: &[&Configuration]) -> Option<Vec<MeasureResult>> {
                self.1 = self.1.checked_sub(wave.len())?;
                Some(wave.iter().map(|c| self.0.evaluate(c)).collect())
            }
        }
        let path = tmp("driver-declined.jsonl");
        let ev = evaluator();
        let opts = TuneOptions {
            max_evals: 20,
            batch: 4,
            max_process_s: None,
        };
        let mut journal = TrialJournal::create(&path).expect("create");
        let mut t = RandomTuner::new(space(), 42);
        let fresh = Some((&mut journal, Vec::new()));
        let caller = &mut Declining(&ev, 6);
        let cut = run_rounds(&mut t, &ev, opts, fresh, Think::Charged, 1, caller).expect("run");
        // One whole round and two trials of the next: six rows, two syncs.
        assert_eq!(cut.len(), 6);
        assert_eq!((journal.written(), journal.syncs()), (6, 2));
        assert_eq!(TrialJournal::load(&path).expect("load").len(), 6);
        // The file is what a resume needs to finish the uninterrupted run.
        drop(journal);
        let full = tune(&mut RandomTuner::new(space(), 42), &ev, opts);
        let resumed = resume_from_journal(&mut RandomTuner::new(space(), 42), &ev, opts, &path)
            .expect("resume");
        assert_eq!(resumed.replayed, 6);
        let keys = |r: &TuningResult| r.trials.iter().map(|t| t.config.key()).collect::<Vec<_>>();
        assert_eq!(keys(&cut), keys(&full)[..6]);
        assert_eq!(keys(&resumed), keys(&full));
        let _ = std::fs::remove_file(&path);
    }
}
