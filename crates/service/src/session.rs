//! One supervised tuning session: the driver loop of `autotvm::tune`,
//! extended with the service's control plane — kill/cancel flags,
//! wall-clock deadlines, per-kernel circuit breakers, engine-ladder
//! demotion, and journal-backed replay so a killed session resumes with
//! results identical to an uninterrupted run.
//!
//! The replay contract is the driver's, plus one obligation: every
//! journal record's `pipeline` stamp is verified against the rung the
//! reconstructed [`EngineLadder`] is on, and every record's outcome is
//! fed back through [`EngineLadder::observe`] — so demotions happen at
//! identical trial indices across kill/restart boundaries.

use crate::breaker::{is_infra_failure, Admission, CircuitBreaker};
use crate::ladder::EngineLadder;
use autotvm::measure::MeasureResult;
use autotvm::Tuner;
use configspace::Configuration;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};
use ytopt_bo::fault::MeasureError;
use ytopt_bo::journal::{divergence_error, TrialJournal, TrialRecord};
use ytopt_bo::problem::{CacheStats, JitStats, ParStats, PruneStats, SimdStats};

/// Milliseconds since the UNIX epoch (deadline arithmetic survives
/// process restarts, unlike `Instant`).
pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Budget and deadline of one session.
#[derive(Debug, Clone, Copy)]
pub struct SessionOptions {
    /// Maximum measured configurations.
    pub max_evals: usize,
    /// Proposals per measure round.
    pub batch: usize,
    /// Absolute wall-clock deadline (ms since epoch). Anchored at the
    /// *submission* timestamp, so downtime between crash and restart
    /// counts against the tenant's deadline.
    pub deadline_unix_ms: Option<u64>,
}

/// Shared control flags for a running session.
#[derive(Clone)]
pub struct SessionCtl {
    /// Tenant-requested cancellation (graceful: session stops before its
    /// next live evaluation and reports `Cancelled`).
    pub cancel: Arc<AtomicBool>,
    /// Server kill (abrupt: session stops between trials *without*
    /// updating anything in memory — exactly what a `kill -9` leaves
    /// behind, since the journal is written after each trial and durable
    /// before the tuner is told).
    pub kill: Arc<AtomicBool>,
    /// This kernel's circuit breaker, if the service runs one.
    pub breaker: Option<Arc<CircuitBreaker>>,
}

impl SessionCtl {
    /// Control block with fresh flags and no breaker.
    pub fn new() -> SessionCtl {
        SessionCtl {
            cancel: Arc::new(AtomicBool::new(false)),
            kill: Arc::new(AtomicBool::new(false)),
            breaker: None,
        }
    }
}

impl Default for SessionCtl {
    fn default() -> Self {
        SessionCtl::new()
    }
}

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionEnd {
    /// Budget exhausted (or tuner gave up) — the normal outcome.
    Completed,
    /// The wall-clock deadline passed; the report carries the partial
    /// history measured so far.
    DeadlineExceeded,
    /// The tenant cancelled.
    Cancelled,
    /// The server was killed; the session is resumable from its journal.
    Interrupted,
}

/// One trial as seen by the service (superset of the driver's `Trial`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionTrial {
    /// 0-based evaluation index.
    pub index: usize,
    /// The measured configuration.
    pub config: Configuration,
    /// Kernel runtime, seconds (`None` on failure).
    pub runtime_s: Option<f64>,
    /// Failure class, if the trial failed.
    pub error: Option<MeasureError>,
    /// Charged process time.
    pub eval_process_s: f64,
    /// Cumulative process time when this trial finished.
    pub elapsed_s: f64,
    /// Ladder rung that measured this trial.
    pub engine: String,
    /// Replayed from the journal (true) or measured live (false).
    pub replayed: bool,
    /// Real wall-clock seconds of the live evaluation (0 for replayed
    /// trials) — the source of the benchmark's
    /// `service.session.trial_wall_us_p50`.
    pub wall_s: f64,
}

/// Complete outcome of one session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionReport {
    /// Tuner display name.
    pub tuner: String,
    /// Terminal state.
    pub end: SessionEnd,
    /// Trials in measurement order (replayed + live).
    pub trials: Vec<SessionTrial>,
    /// How many trials were replayed from the journal.
    pub replayed: usize,
    /// Total charged process time.
    pub total_process_s: f64,
    /// Ladder demotions over the session's full history.
    pub demotions: u32,
    /// Rung the session ended on.
    pub final_engine: String,
    /// Memo-cache counters at session end (aggregate when shared).
    pub cache: Option<CacheStats>,
    /// Native-codegen compile counters of the JIT rung at session end
    /// (`None` for ladders without one). Survives demotion: the compile
    /// work done before stepping down is still reported.
    pub jit: Option<JitStats>,
    /// Multicore-dispatch counters merged over the ladder's
    /// parallel-capable rungs at session end (`None` when no rung runs
    /// loops on the worker pool).
    pub par: Option<ParStats>,
    /// Packed-SIMD emission counters of the ladder's vectorizing rungs
    /// at session end (`None` when no rung runs a packed-capable
    /// codegen). Defaulted on deserialize so journals written before
    /// the packed tier load cleanly.
    #[serde(default)]
    pub simd: Option<SimdStats>,
    /// Static-pruning counters merged over the ladder's analyzed rungs
    /// at session end (`None` when no rung runs the analyzer pipeline).
    /// Per-code denial counts tell a tenant *why* an aggressive space
    /// kept rejecting candidates.
    #[serde(default)]
    pub prune: Option<PruneStats>,
}

impl SessionReport {
    /// Best successful runtime, if any trial succeeded.
    pub fn best_runtime_s(&self) -> Option<f64> {
        self.trials
            .iter()
            .filter_map(|t| t.runtime_s)
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }
}

/// Why the measure loop stopped before the budget.
enum Stop {
    Killed,
    Cancelled,
    Deadline,
}

fn control_check(ctl: &SessionCtl, opts: &SessionOptions, live: bool) -> Option<Stop> {
    if ctl.kill.load(Ordering::Relaxed) {
        return Some(Stop::Killed);
    }
    if !live {
        // Replay is cheap and must run to completion so the in-memory
        // state (tuner, ladder) is fully reconstructed before any
        // graceful exit is journaled.
        return None;
    }
    if ctl.cancel.load(Ordering::Relaxed) {
        return Some(Stop::Cancelled);
    }
    if let Some(deadline) = opts.deadline_unix_ms {
        if now_unix_ms() >= deadline {
            return Some(Stop::Deadline);
        }
    }
    None
}

/// Wait out an open breaker without going deaf to the control plane.
/// Returns the admission verdict, or a stop if one fired while waiting.
fn acquire_breaker(
    breaker: &CircuitBreaker,
    ctl: &SessionCtl,
    opts: &SessionOptions,
) -> Result<bool, Stop> {
    loop {
        match breaker.try_acquire() {
            Admission::Proceed => return Ok(false),
            Admission::Probe => return Ok(true),
            Admission::Wait(d) => {
                if let Some(stop) = control_check(ctl, opts, true) {
                    return Err(stop);
                }
                std::thread::sleep(d.min(Duration::from_millis(5)));
            }
        }
    }
}

/// Run (or resume) one session to a terminal state.
///
/// `replay` is the journal's existing tape (empty for fresh sessions);
/// `journal` receives every *live* trial: written after each trial,
/// durable before the tuner is told — one sync per wave, and one on every
/// exit that returns a report, so `trials` and the file never disagree.
/// On `SessionEnd::Interrupted` the returned report reflects the work
/// done so far and the journal on disk is exactly what a restarted server
/// needs to finish the session.
pub fn run_session(
    tuner: &mut dyn Tuner,
    ladder: &mut EngineLadder,
    journal: &mut TrialJournal,
    replay: Vec<TrialRecord>,
    opts: SessionOptions,
    ctl: &SessionCtl,
) -> std::io::Result<SessionReport> {
    let mut trials: Vec<SessionTrial> = Vec::with_capacity(opts.max_evals);
    let mut elapsed = 0.0f64;
    let mut replay = replay.into_iter();
    let mut replayed = 0usize;
    let mut end = SessionEnd::Completed;

    'rounds: while trials.len() < opts.max_evals && tuner.has_next() {
        let want = opts.batch.min(opts.max_evals - trials.len());
        let batch = tuner.next_batch(want);
        if batch.is_empty() {
            break;
        }
        let mut results: Vec<(Configuration, MeasureResult)> = Vec::with_capacity(batch.len());
        for config in batch {
            let (res, live) = match replay.next() {
                Some(rec) => {
                    if rec.config.key() != config.key() {
                        return Err(divergence_error(
                            trials.len(),
                            &rec.config.key(),
                            &config.key(),
                        ));
                    }
                    ladder
                        .verify_replay(&rec.pipeline)
                        .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidData, msg))?;
                    if let Some(stop) = control_check(ctl, &opts, false) {
                        end = stop_to_end(stop);
                        break 'rounds;
                    }
                    replayed += 1;
                    elapsed = rec.elapsed_s;
                    (
                        MeasureResult {
                            runtime_s: rec.runtime_s,
                            process_s: rec.eval_process_s,
                            error: rec.error,
                        },
                        false,
                    )
                }
                None => {
                    if let Some(stop) = control_check(ctl, &opts, true) {
                        end = stop_to_end(stop);
                        break 'rounds;
                    }
                    let probe = match ctl.breaker.as_deref() {
                        Some(b) => match acquire_breaker(b, ctl, &opts) {
                            Ok(probe) => probe,
                            Err(stop) => {
                                end = stop_to_end(stop);
                                break 'rounds;
                            }
                        },
                        None => false,
                    };
                    let t0 = Instant::now();
                    let res = ladder.evaluate(&config);
                    let wall = t0.elapsed().as_secs_f64();
                    if let Some(b) = ctl.breaker.as_deref() {
                        let infra = res
                            .error
                            .as_ref()
                            .map(|e| is_infra_failure(e.kind()))
                            .unwrap_or(false);
                        b.record(infra, probe);
                    }
                    elapsed += res.process_s;
                    // Write before reacting: the journal line carries
                    // the rung that measured it, then the ladder may
                    // demote for the *next* trial.
                    journal.stage(&TrialRecord {
                        index: trials.len(),
                        config: config.clone(),
                        runtime_s: res.runtime_s,
                        error: res.error.clone(),
                        eval_process_s: res.process_s,
                        elapsed_s: elapsed,
                        pipeline: ladder.fingerprint(),
                    })?;
                    trials.push(SessionTrial {
                        index: trials.len(),
                        config: config.clone(),
                        runtime_s: res.runtime_s,
                        error: res.error.clone(),
                        eval_process_s: res.process_s,
                        elapsed_s: elapsed,
                        engine: ladder.rung_name().to_string(),
                        replayed: false,
                        wall_s: wall,
                    });
                    ladder.observe(res.error.as_ref().map(|e| e.kind()));
                    results.push((config, res));
                    continue;
                }
            };
            debug_assert!(!live);
            trials.push(SessionTrial {
                index: trials.len(),
                config: config.clone(),
                runtime_s: res.runtime_s,
                error: res.error.clone(),
                eval_process_s: res.process_s,
                elapsed_s: elapsed,
                engine: ladder.rung_name().to_string(),
                replayed: true,
                wall_s: 0.0,
            });
            ladder.observe(res.error.as_ref().map(|e| e.kind()));
            results.push((config, res));
        }
        journal.commit()?;
        tuner.update(&results);
    }
    // A wave cut short (kill, cancel, deadline) is still in the report.
    journal.commit()?;

    Ok(SessionReport {
        tuner: tuner.name().to_string(),
        end,
        replayed,
        total_process_s: elapsed,
        demotions: ladder.demotions(),
        final_engine: ladder.rung_name().to_string(),
        cache: ladder.cache_stats(),
        jit: ladder.jit_stats(),
        par: ladder.par_stats(),
        simd: ladder.simd_stats(),
        prune: ladder.prune_stats(),
        trials,
    })
}

fn stop_to_end(stop: Stop) -> SessionEnd {
    match stop {
        Stop::Killed => SessionEnd::Interrupted,
        Stop::Cancelled => SessionEnd::Cancelled,
        Stop::Deadline => SessionEnd::DeadlineExceeded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::ladder::Rung;
    use autotvm::measure::{Evaluator, FnEvaluator};
    use autotvm::RandomTuner;
    use configspace::{ConfigSpace, Hyperparameter};
    use std::path::PathBuf;

    fn space() -> ConfigSpace {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints(
            "P0",
            &(1..=30).collect::<Vec<i64>>(),
        ));
        cs
    }

    fn ok_ladder() -> EngineLadder {
        EngineLadder::new(
            vec![Rung {
                name: "toy".into(),
                evaluator: Box::new(FnEvaluator::new(space(), |c| {
                    MeasureResult::ok(c.int("P0") as f64, 0.5)
                })),
            }],
            3,
        )
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tvm-service-session-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    fn opts(max_evals: usize) -> SessionOptions {
        SessionOptions {
            max_evals,
            batch: 4,
            deadline_unix_ms: None,
        }
    }

    #[test]
    fn completes_and_matches_the_driver_trajectory() {
        let path = tmp("complete.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut tuner = RandomTuner::new(space(), 9);
        let mut ladder = ok_ladder();
        let mut journal = TrialJournal::create(&path).expect("journal");
        let ctl = SessionCtl::new();
        let report = run_session(
            &mut tuner,
            &mut ladder,
            &mut journal,
            Vec::new(),
            opts(12),
            &ctl,
        )
        .expect("session");
        assert_eq!(report.end, SessionEnd::Completed);
        assert_eq!(report.trials.len(), 12);
        assert_eq!(report.replayed, 0);

        // The driver over the same seed/evaluator proposes identically.
        let ev = FnEvaluator::new(space(), |c| MeasureResult::ok(c.int("P0") as f64, 0.5));
        let mut reference = RandomTuner::new(space(), 9);
        let expected = autotvm::tune(
            &mut reference,
            &ev,
            autotvm::TuneOptions {
                max_evals: 12,
                batch: 4,
                max_process_s: None,
            },
        );
        let keys: Vec<String> = report.trials.iter().map(|t| t.config.key()).collect();
        let want: Vec<String> = expected.trials.iter().map(|t| t.config.key()).collect();
        assert_eq!(keys, want);
        assert_eq!(TrialJournal::load(&path).expect("load").len(), 12);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_interrupts_and_resume_reproduces_uninterrupted_run() {
        let path = tmp("kill-resume.jsonl");
        let _ = std::fs::remove_file(&path);

        // Reference: uninterrupted 20-trial session.
        let mut t_ref = RandomTuner::new(space(), 4);
        let mut l_ref = ok_ladder();
        let ref_path = tmp("kill-resume-ref.jsonl");
        let _ = std::fs::remove_file(&ref_path);
        let mut j_ref = TrialJournal::create(&ref_path).expect("journal");
        let full = run_session(
            &mut t_ref,
            &mut l_ref,
            &mut j_ref,
            Vec::new(),
            opts(20),
            &SessionCtl::new(),
        )
        .expect("reference");

        // Interrupted: the kill flag flips after the 7th live evaluation.
        let ctl = SessionCtl::new();
        let kill = Arc::clone(&ctl.kill);
        let count = std::sync::atomic::AtomicUsize::new(0);
        let ladder_killed = EngineLadder::new(
            vec![Rung {
                name: "toy".into(),
                evaluator: Box::new(FnEvaluator::new(space(), move |c| {
                    if count.fetch_add(1, Ordering::SeqCst) + 1 >= 7 {
                        kill.store(true, Ordering::Relaxed);
                    }
                    MeasureResult::ok(c.int("P0") as f64, 0.5)
                })),
            }],
            3,
        );
        let mut ladder_killed = ladder_killed;
        let mut t_killed = RandomTuner::new(space(), 4);
        let mut journal = TrialJournal::create(&path).expect("journal");
        let partial = run_session(
            &mut t_killed,
            &mut ladder_killed,
            &mut journal,
            Vec::new(),
            opts(20),
            &ctl,
        )
        .expect("interrupted session");
        assert_eq!(partial.end, SessionEnd::Interrupted);
        assert!(partial.trials.len() >= 7 && partial.trials.len() < 20);
        drop(journal);

        // Restarted process: fresh tuner/ladder, replay + finish.
        let (mut journal, tape) = TrialJournal::open_resume(&path).expect("resume");
        let mut t_res = RandomTuner::new(space(), 4);
        let mut l_res = ok_ladder();
        let resumed = run_session(
            &mut t_res,
            &mut l_res,
            &mut journal,
            tape,
            opts(20),
            &SessionCtl::new(),
        )
        .expect("resumed session");
        assert_eq!(resumed.end, SessionEnd::Completed);
        assert_eq!(resumed.trials.len(), 20);
        assert_eq!(resumed.replayed, partial.trials.len());

        let keys = |r: &SessionReport| -> Vec<(String, Option<f64>)> {
            r.trials
                .iter()
                .map(|t| (t.config.key(), t.runtime_s))
                .collect()
        };
        assert_eq!(keys(&full), keys(&resumed), "identical results after kill");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ref_path);
    }

    #[test]
    fn expired_deadline_ends_gracefully_with_partial_history() {
        let path = tmp("deadline.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut tuner = RandomTuner::new(space(), 2);
        let mut ladder = ok_ladder();
        let mut journal = TrialJournal::create(&path).expect("journal");
        let o = SessionOptions {
            max_evals: 50,
            batch: 4,
            deadline_unix_ms: Some(now_unix_ms().saturating_sub(1)),
        };
        let report = run_session(
            &mut tuner,
            &mut ladder,
            &mut journal,
            Vec::new(),
            o,
            &SessionCtl::new(),
        )
        .expect("session");
        assert_eq!(report.end, SessionEnd::DeadlineExceeded);
        assert!(report.trials.is_empty(), "deadline was already gone");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cancel_stops_before_next_live_trial() {
        let path = tmp("cancel.jsonl");
        let _ = std::fs::remove_file(&path);
        let ctl = SessionCtl::new();
        ctl.cancel.store(true, Ordering::Relaxed);
        let mut tuner = RandomTuner::new(space(), 2);
        let mut ladder = ok_ladder();
        let mut journal = TrialJournal::create(&path).expect("journal");
        let report = run_session(
            &mut tuner,
            &mut ladder,
            &mut journal,
            Vec::new(),
            opts(10),
            &ctl,
        )
        .expect("session");
        assert_eq!(report.end, SessionEnd::Cancelled);
        assert!(report.trials.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn breaker_storm_opens_and_session_still_finishes() {
        let path = tmp("breaker.jsonl");
        let _ = std::fs::remove_file(&path);
        let ladder = EngineLadder::new(
            vec![Rung {
                name: "crashy".into(),
                evaluator: Box::new(FnEvaluator::new(space(), |_| {
                    MeasureResult::fail(MeasureError::RuntimeCrash("dead node".into()), 0.01)
                })),
            }],
            // Demotion can't happen (single rung); the breaker is the
            // mechanism under test.
            100,
        );
        let mut ladder = ladder;
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_s: 0.01,
            cooldown_mult: 2.0,
            max_cooldown_s: 0.05,
            half_open_probes: 1,
        }));
        let ctl = SessionCtl {
            breaker: Some(Arc::clone(&breaker)),
            ..SessionCtl::new()
        };
        let mut tuner = RandomTuner::new(space(), 3);
        let mut journal = TrialJournal::create(&path).expect("journal");
        let report = run_session(
            &mut tuner,
            &mut ladder,
            &mut journal,
            Vec::new(),
            opts(10),
            &ctl,
        )
        .expect("session");
        assert_eq!(report.end, SessionEnd::Completed);
        assert_eq!(report.trials.len(), 10, "breaker throttles, never starves");
        assert!(breaker.trips() >= 2, "storm must keep re-opening");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn demotion_survives_kill_and_resume() {
        // Rung "fast" crashes every trial; rung "slow" succeeds. With
        // demote_after=2 the session demotes at trial 2 and the journal
        // carries mixed pipeline stamps across the kill boundary.
        let make_ladder = || {
            EngineLadder::new(
                vec![
                    Rung {
                        name: "fast".into(),
                        evaluator: Box::new({
                            struct Crashy(ConfigSpace);
                            impl Evaluator for Crashy {
                                fn space(&self) -> &ConfigSpace {
                                    &self.0
                                }
                                fn evaluate(&self, _c: &Configuration) -> MeasureResult {
                                    MeasureResult::fail(
                                        MeasureError::RuntimeCrash("fast engine broken".into()),
                                        0.01,
                                    )
                                }
                                fn pipeline_fingerprint(&self) -> Option<String> {
                                    Some("fast/v1".into())
                                }
                            }
                            Crashy(space())
                        }),
                    },
                    Rung {
                        name: "slow".into(),
                        evaluator: Box::new({
                            struct Slow(ConfigSpace);
                            impl Evaluator for Slow {
                                fn space(&self) -> &ConfigSpace {
                                    &self.0
                                }
                                fn evaluate(&self, c: &Configuration) -> MeasureResult {
                                    MeasureResult::ok(c.int("P0") as f64, 0.2)
                                }
                                fn pipeline_fingerprint(&self) -> Option<String> {
                                    Some("slow/v1".into())
                                }
                            }
                            Slow(space())
                        }),
                    },
                ],
                2,
            )
        };

        let path = tmp("demote-resume.jsonl");
        let _ = std::fs::remove_file(&path);

        // Reference run, uninterrupted.
        let ref_path = tmp("demote-resume-ref.jsonl");
        let _ = std::fs::remove_file(&ref_path);
        let mut j = TrialJournal::create(&ref_path).expect("journal");
        let mut t = RandomTuner::new(space(), 77);
        let mut l = make_ladder();
        let full = run_session(
            &mut t,
            &mut l,
            &mut j,
            Vec::new(),
            opts(10),
            &SessionCtl::new(),
        )
        .expect("reference");
        assert_eq!(full.demotions, 1);
        assert_eq!(full.final_engine, "slow");

        // Stop after 5 trials (i.e. after the demotion already happened)
        // — the journal left behind is what a kill at that point leaves.
        let mut t = RandomTuner::new(space(), 77);
        let mut l = make_ladder();
        let mut j = TrialJournal::create(&path).expect("journal");
        let o = SessionOptions {
            max_evals: 5,
            batch: 4,
            deadline_unix_ms: None,
        };
        let partial = run_session(&mut t, &mut l, &mut j, Vec::new(), o, &SessionCtl::new())
            .expect("partial");
        assert_eq!(partial.trials.len(), 5);
        assert_eq!(partial.demotions, 1, "demotion happened before the kill");
        drop(j);

        // Resume with fresh state; replay must reconstruct the demotion.
        let (mut j, tape) = TrialJournal::open_resume(&path).expect("resume");
        assert_eq!(tape.len(), partial.trials.len());
        let mut t = RandomTuner::new(space(), 77);
        let mut l = make_ladder();
        let resumed = run_session(&mut t, &mut l, &mut j, tape, opts(10), &SessionCtl::new())
            .expect("resumed");
        assert_eq!(resumed.end, SessionEnd::Completed);
        assert_eq!(resumed.demotions, 1, "replay reconstructed the demotion");
        assert_eq!(resumed.final_engine, "slow");
        let pairs = |r: &SessionReport| -> Vec<(String, Option<f64>, String)> {
            r.trials
                .iter()
                .map(|t| (t.config.key(), t.runtime_s, t.engine.clone()))
                .collect()
        };
        assert_eq!(pairs(&full), pairs(&resumed), "identical incl. engines");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ref_path);
    }
}
