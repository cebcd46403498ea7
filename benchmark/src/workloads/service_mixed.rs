//! `service-mixed`: many small sessions through the multi-tenant service.
//!
//! An in-process `TuningService` with `min(nproc, 2)` workers takes all
//! tenants as one burst and the client then waits for each (a closed loop
//! bounded by the workers). Seven kernels × five tuners run on
//! `EngineKind::Simulated` and about a quarter of the tenants run `mini` and
//! `small` kernels on `EngineKind::Real` with the random and grid tuners, 40
//! evaluations in batches of 4, journaled. Every tenant is submitted twice:
//! its twin proposes the same configurations later, so the shared `MemoCache`
//! serves it hits. Per-trial work is tiny, so admission, the queue, ladder
//! and harness, journal appends, done markers, serde and cache lookups under
//! two workers dominate — the read side of the memo cache and the only
//! multi-session contention in the benchmark.
//!
//! Determinism under two workers: within one kernel every tenant uses its own
//! problem size, so only a tenant and its twin share memo keys, and all twins
//! are queued after all originals — a twin can never race its original for a
//! miss, and hit and miss counts repeat exactly.

use super::{
    add_count, mix, reject_code, tuner_label, Round, Sample, Scale, SessionOutcome, Workload,
    KERNELS, TUNERS,
};
use crate::trace::{TracedDevice, TracedEvaluator, TracedMold, TracedTuner, Tracer};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tvm_autotune::autotvm::{Evaluator, HarnessedEvaluator, MeasureError};
use tvm_autotune::bo::TrialJournal;
use tvm_autotune::polybench::{mold_for_mode, KernelName, SpaceMode};
use tvm_autotune::runtime::CpuDevice;
use tvm_autotune::sim::{GpuSpec, SimDevice};
use tvm_autotune::{MemoCache, MoldEvaluator};
use tvm_service::{
    run_session, EngineKind, EngineLadder, JobSpec, JobState, Rung, ServiceConfig, SessionCtl,
    SessionEnd, SessionOptions, SessionReport, TunerKind, TuningService,
};

const EVALS: usize = 40;
const BATCH: usize = 4;
/// Times each tenant is submitted (the original and its twins).
const COPIES: usize = 2;
const SIZES: [&str; 5] = ["mini", "small", "medium", "large", "extralarge"];
/// Real-engine kernels that also run at `small` (a run takes under 2 ms).
const REAL_SMALL: [KernelName; 3] = [KernelName::Gemm, KernelName::Mm2, KernelName::Syrk];

/// Longest a single session may take before it counts as lost.
const WAIT_LIMIT: Duration = Duration::from_secs(120);

pub struct ServiceMixed {
    tenants: Vec<JobSpec>,
    warm_up: Vec<JobSpec>,
    workers: usize,
    state_root: PathBuf,
    next_dir: AtomicU64,
}

/// Everything the service keeps on disk lives under the benchmark's own
/// `out/` directory, inside the checkout.
pub fn state_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("state")
        .join(std::process::id().to_string())
}

pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn tenant(
    kernel: KernelName,
    size: &str,
    tuner: TunerKind,
    engine: EngineKind,
    seed: u64,
) -> JobSpec {
    let mut spec = JobSpec::new(
        format!("{kernel}-{size}-{}", tuner_label(tuner)),
        &kernel.to_string(),
        size,
    );
    spec.tuner = tuner;
    spec.seed = seed;
    spec.max_evals = EVALS;
    spec.batch = BATCH;
    spec.engine = engine;
    spec
}

impl ServiceMixed {
    pub fn setup(seed: u64, scale: Scale) -> ServiceMixed {
        let mut originals = Vec::new();
        for (k, kernel) in KERNELS.into_iter().enumerate() {
            for (t, tuner) in TUNERS.into_iter().enumerate() {
                // A different size per tuner of one kernel: no two simulated
                // tenants share a memo key.
                let size = SIZES[(k + t) % SIZES.len()];
                let s = mix(seed, (k * TUNERS.len() + t) as u64);
                originals.push(tenant(kernel, size, tuner, EngineKind::Simulated, s));
            }
        }
        for (k, kernel) in KERNELS.into_iter().enumerate() {
            let (a, b) = if k % 2 == 0 {
                (TunerKind::Random, TunerKind::GridSearch)
            } else {
                (TunerKind::GridSearch, TunerKind::Random)
            };
            let s = mix(seed, 1000 + k as u64);
            originals.push(tenant(kernel, "mini", a, EngineKind::Real, s));
            if REAL_SMALL.contains(&kernel) {
                originals.push(tenant(kernel, "small", b, EngineKind::Real, s));
            }
        }
        if scale == Scale::Smoke {
            // One simulated tenant per tuner and two real ones.
            let keep: Vec<JobSpec> = originals
                .iter()
                .enumerate()
                .filter(|(i, s)| match s.engine {
                    EngineKind::Simulated => i % 7 == 0,
                    EngineKind::Real => s.kernel == "gemm",
                })
                .map(|(_, s)| {
                    let mut s = s.clone();
                    s.max_evals = 12;
                    s
                })
                .collect();
            originals = keep;
        }

        let mut tenants = Vec::new();
        for copy in 0..COPIES {
            for spec in &originals {
                let mut spec = spec.clone();
                spec.tenant = format!("{}-copy{copy}", spec.tenant);
                tenants.push(spec);
            }
        }
        // Warm-up: every third simulated tenant (all five tuners) and every
        // real tenant once.
        let warm_up: Vec<JobSpec> = originals
            .iter()
            .enumerate()
            .filter(|(i, s)| s.engine == EngineKind::Real || i % 3 == 0)
            .map(|(_, s)| s.clone())
            .collect();
        ServiceMixed {
            tenants,
            warm_up,
            workers: workers(),
            state_root: state_root(),
            next_dir: AtomicU64::new(0),
        }
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn tenants(&self) -> &[JobSpec] {
        &self.tenants
    }

    pub fn config(&self, tenants: usize) -> ServiceConfig {
        ServiceConfig {
            workers: self.workers,
            queue_capacity: tenants.max(8),
            poll_ms: 1,
            ..ServiceConfig::default()
        }
    }

    pub fn fresh_dir(&self) -> PathBuf {
        let dir = self.state_root.join(format!(
            "svc-{}",
            self.next_dir.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Burst-submit `tenants` to a fresh service, wait for each in submission
    /// order, and check every outcome.
    fn serve(&self, tenants: &[JobSpec]) -> Round {
        let mut round = Round::default();
        let dir = self.fresh_dir();
        let (svc, _) = match TuningService::open(&dir, self.config(tenants.len())) {
            Ok(opened) => opened,
            Err(e) => {
                round
                    .errors
                    .push(format!("cannot open service in {}: {e}", dir.display()));
                return round;
            }
        };
        let spawned_before = tvm_autotune::runtime::pool::threads_spawned();

        let t0 = Instant::now();
        let mut submitted = Vec::with_capacity(tenants.len());
        for spec in tenants {
            match svc.submit(spec.clone()) {
                Ok(id) => submitted.push((id, Instant::now())),
                Err(reason) => round.errors.push(format!(
                    "tenant {} refused at admission: {reason}",
                    spec.tenant
                )),
            }
        }
        let mut outcomes = Vec::with_capacity(submitted.len());
        for (id, at) in &submitted {
            let outcome = svc.wait(*id, WAIT_LIMIT);
            outcomes.push((outcome, at.elapsed().as_secs_f64()));
        }
        round.wall_s = t0.elapsed().as_secs_f64();

        let status = svc.status();
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        let mut seen_ids = std::collections::BTreeSet::new();
        for ((outcome, wall_s), spec) in outcomes.into_iter().zip(tenants) {
            let Some(outcome) = outcome else {
                round.errors.push(format!(
                    "session of {} lost: no terminal state",
                    spec.tenant
                ));
                continue;
            };
            if !seen_ids.insert(outcome.id) {
                round
                    .errors
                    .push(format!("session id {} reported twice", outcome.id));
            }
            if outcome.tenant != spec.tenant {
                round.errors.push(format!(
                    "job {} answered for tenant {} instead of {}",
                    outcome.id, outcome.tenant, spec.tenant
                ));
            }
            let report = match (outcome.state, outcome.report) {
                (JobState::Completed, Some(report)) => report,
                (state, _) => {
                    round.errors.push(format!(
                        "session of {} ended {state:?}: {:?}",
                        spec.tenant, outcome.message
                    ));
                    continue;
                }
            };
            check_report(spec, &report, &mut round);
            let outcome = summarize(&report, wall_s, &mut round);
            round.sessions.push(outcome);
            round.samples.extend(first_admitted(spec, &report));
        }

        let c = &mut round.counts;
        c.insert("sessions".into(), tenants.len() as u64);
        c.insert("cache.hits".into(), status.cache.hits);
        c.insert("cache.misses".into(), status.cache.misses);
        c.insert("jit.functions_jitted".into(), status.jit.functions_jitted);
        c.insert("jit.nests_compiled".into(), status.jit.nests_compiled);
        c.insert("jit.bytes_emitted".into(), status.jit.bytes_emitted);
        c.insert("jit.fallbacks".into(), status.jit.fallbacks);
        c.insert("simd.packed_sites".into(), status.simd.packed_loops);
        c.insert("simd.scalar_sites".into(), status.simd.scalar_loops);
        c.insert("pool.dispatches".into(), status.par.dispatches);
        c.insert("pool.fallbacks".into(), status.par.fallbacks);
        c.insert("service.completed".into(), status.completed as u64);
        c.insert("service.worker_restarts".into(), status.worker_restarts);
        c.insert(
            "pool.threads_spawned_in_round".into(),
            tvm_autotune::runtime::pool::threads_spawned() - spawned_before,
        );
        round.queue_high_water = Some(status.queue_high_water as u64);
        round
    }

    /// The traced round: the same tenants, run by `workers` benchmark
    /// threads that each take the next tenant from a shared list and drive
    /// `tvm_service::run_session` — the public session loop the service's
    /// own workers call — over a ladder, tuner and journal built the way
    /// the service builds them, with the span decorators in between. The
    /// service's admission path is timed by the staged replay instead.
    fn serve_traced(&self, tracer: &Arc<Tracer>) -> Round {
        let mut round = Round::default();
        let dir = self.fresh_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            round
                .errors
                .push(format!("cannot create {}: {e}", dir.display()));
            return round;
        }
        let cache = Arc::new(MemoCache::new());
        let queue: Mutex<VecDeque<(usize, &JobSpec)>> =
            Mutex::new(self.tenants.iter().enumerate().collect());
        let done: Mutex<Vec<Finished>> = Mutex::new(Vec::new());

        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| {
                    // This worker's share of the round; what its sessions do
                    // not cover is the time spent taking the next tenant.
                    let _root = tracer.span("bench.round");
                    loop {
                        let next = queue.lock().expect("tenant list lock").pop_front();
                        let Some((i, spec)) = next else { break };
                        let report = traced_session(spec, i as u64 + 1, &dir, &cache, tracer);
                        // Like the service, a session's time runs from the burst.
                        let wall_s = t0.elapsed().as_secs_f64();
                        done.lock().expect("result list lock").push(Finished {
                            tenant: i,
                            report,
                            wall_s,
                        });
                    }
                });
            }
        });
        round.wall_s = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);

        let mut done = done.into_inner().expect("result list lock");
        done.sort_by_key(|f| f.tenant);
        for Finished {
            tenant,
            report,
            wall_s,
        } in done
        {
            let spec = &self.tenants[tenant];
            match report {
                Ok(report) => {
                    check_report(spec, &report, &mut round);
                    let outcome = summarize(&report, wall_s, &mut round);
                    round.sessions.push(outcome);
                }
                Err(e) => round
                    .errors
                    .push(format!("traced session of {}: {e}", spec.tenant)),
            }
        }
        let stats = cache.stats();
        round
            .counts
            .insert("sessions".into(), self.tenants.len() as u64);
        round.counts.insert("cache.hits".into(), stats.hits);
        round.counts.insert("cache.misses".into(), stats.misses);
        round
    }
}

/// One traced session as a worker thread hands it back.
struct Finished {
    /// Index into the tenant table.
    tenant: usize,
    report: Result<SessionReport, String>,
    wall_s: f64,
}

/// Trial count, order and end state of one report against its spec.
fn check_report(spec: &JobSpec, report: &SessionReport, round: &mut Round) {
    if report.end != SessionEnd::Completed {
        round
            .errors
            .push(format!("session of {} ended {:?}", spec.tenant, report.end));
    }
    let n = report.trials.len();
    // Random and grid propose until the budget or the space runs out; the
    // model-based tuners may stop earlier by design (XGB does).
    let exact = matches!(spec.tuner, TunerKind::Random | TunerKind::GridSearch);
    let space_size = spec
        .workload()
        .ok()
        .and_then(|(k, s)| mold_for_mode(k, s, spec.space.mode()).space().size())
        .unwrap_or(u128::MAX);
    let budget = (spec.max_evals as u128).min(space_size) as usize;
    if n == 0 || n > spec.max_evals || (exact && n != budget) {
        round.errors.push(format!(
            "session of {} has {n} trials, budget {budget}",
            spec.tenant
        ));
    }
    if report.trials.iter().enumerate().any(|(i, t)| t.index != i) {
        round.errors.push(format!(
            "session of {} has a gap or a duplicate trial",
            spec.tenant
        ));
    }
    if report.replayed != 0 || report.demotions != 0 {
        round.errors.push(format!(
            "session of {} replayed {} trials and demoted {} times; a fresh healthy run does neither",
            spec.tenant, report.replayed, report.demotions
        ));
    }
}

/// Fold one report into the round's counters and return its session row.
fn summarize(report: &SessionReport, wall_s: f64, round: &mut Round) -> SessionOutcome {
    let mut failed = 0;
    for t in &report.trials {
        round.trial_walls_s.push(t.wall_s);
        match &t.error {
            None => {}
            Some(MeasureError::StaticReject(msg)) => add_count(
                &mut round.counts,
                &format!("static_reject.{}", reject_code(msg)),
                1,
            ),
            Some(_) => failed += 1,
        }
    }
    add_count(&mut round.counts, "trials", report.trials.len() as u64);
    SessionOutcome {
        wall_s,
        trials: report.trials.len() as u64,
        failed,
        best_runtime_s: report.best_runtime_s(),
    }
}

fn first_admitted(spec: &JobSpec, report: &SessionReport) -> Option<Sample> {
    let (kernel, size) = spec.workload().ok()?;
    let trial = report.trials.iter().find(|t| t.error.is_none())?;
    Some(Sample {
        kernel,
        size,
        mode: spec.space.mode(),
        config: trial.config.clone(),
    })
}

/// The rungs `tvm_service::build_ladder` builds for `spec`, with the span
/// decorators around mold, device, evaluator and harness.
fn rungs_for(
    spec: &JobSpec,
    cache: &Arc<MemoCache>,
    tracer: &Arc<Tracer>,
) -> Result<Vec<Rung>, String> {
    let (kernel, size) = spec.workload()?;
    let mode: SpaceMode = spec.space.mode();
    let harness = ServiceConfig::default().harness;
    let mold = || {
        Box::new(TracedMold::new(
            mold_for_mode(kernel, size, mode),
            Arc::clone(tracer),
        ))
    };
    let wrap = |ev: MoldEvaluator| -> Box<dyn Evaluator + Send + Sync> {
        let inner = TracedEvaluator::new(ev, "tvm-autotune.evaluator", Arc::clone(tracer));
        Box::new(TracedEvaluator::new(
            HarnessedEvaluator::new(inner).with_options(harness),
            "autotvm.harness",
            Arc::clone(tracer),
        ))
    };
    let cpu = |device: CpuDevice| TracedDevice::new(device, "runtime", Arc::clone(tracer));
    let rung = |name: &str, ev: MoldEvaluator| Rung {
        name: name.into(),
        evaluator: wrap(ev.with_cache(Arc::clone(cache))),
    };
    Ok(match spec.engine {
        EngineKind::Simulated => vec![rung(
            "sim-a100",
            MoldEvaluator::simulated(
                mold(),
                TracedDevice::new(
                    SimDevice::new(GpuSpec::a100()),
                    "gpu-sim",
                    Arc::clone(tracer),
                ),
            ),
        )],
        EngineKind::Real => vec![
            rung("jit", MoldEvaluator::real(mold(), cpu(CpuDevice::jit()))),
            rung(
                "optimized-vm",
                MoldEvaluator::real(mold(), cpu(CpuDevice::new())),
            ),
            rung(
                "scalar-vm",
                MoldEvaluator::real(mold(), cpu(CpuDevice::scalar_vm())),
            ),
            rung(
                "interpreter",
                MoldEvaluator::real(mold(), cpu(CpuDevice::interpreter())),
            ),
        ],
    })
}

fn traced_session(
    spec: &JobSpec,
    session_id: u64,
    dir: &Path,
    cache: &Arc<MemoCache>,
    tracer: &Arc<Tracer>,
) -> Result<SessionReport, String> {
    let _session = tracer.session_span("service.session.run_session", session_id);
    let mut ladder = EngineLadder::new(
        rungs_for(spec, cache, tracer)?,
        ServiceConfig::default().demote_after,
    );
    let mut tuner = TracedTuner::new(
        spec.tuner.build(ladder.space().clone(), spec.seed),
        tuner_label(spec.tuner),
        Arc::clone(tracer),
    );
    let mut journal = TrialJournal::create(dir.join(format!("{session_id}.jsonl")))
        .map_err(|e| format!("journal: {e}"))?;
    let opts = SessionOptions {
        max_evals: spec.max_evals,
        batch: spec.batch,
        deadline_unix_ms: None,
    };
    run_session(
        &mut tuner,
        &mut ladder,
        &mut journal,
        Vec::new(),
        opts,
        &SessionCtl::new(),
    )
    .map_err(|e| format!("run_session: {e}"))
}

impl Workload for ServiceMixed {
    fn describe(&self) -> String {
        let real = self
            .tenants
            .iter()
            .filter(|s| s.engine == EngineKind::Real)
            .count();
        format!(
            "{} tenants/round ({} simulated, {} real), {} evals, batch {}, {} workers, state in {}",
            self.tenants.len(),
            self.tenants.len() - real,
            real,
            self.tenants[0].max_evals,
            BATCH,
            self.workers,
            self.state_root.display()
        )
    }

    fn service(&self) -> Option<&ServiceMixed> {
        Some(self)
    }

    fn round(&self, tracer: Option<&Arc<Tracer>>) -> Round {
        match tracer {
            None => self.serve(&self.tenants),
            Some(tracer) => self.serve_traced(tracer),
        }
    }

    fn warm_up(&self) -> Round {
        self.serve(&self.warm_up)
    }

    fn verify(&self) -> Vec<String> {
        // Lost, duplicated and unfinished sessions are found while each round
        // is collected; what is left is the state directory itself.
        let _ = std::fs::remove_dir_all(&self.state_root);
        Vec::new()
    }

    fn nominal_round_s(&self) -> f64 {
        2.3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_twins_share_a_kernel_and_size() {
        let w = ServiceMixed::setup(2023, Scale::Full);
        let half = w.tenants.len() / COPIES;
        let key = |s: &JobSpec| {
            (
                s.kernel.clone(),
                s.size.clone(),
                s.engine == EngineKind::Real,
            )
        };
        for (i, a) in w.tenants[..half].iter().enumerate() {
            for b in &w.tenants[i + 1..half] {
                assert_ne!(
                    key(a),
                    key(b),
                    "{} and {} would share memo keys",
                    a.tenant,
                    b.tenant
                );
            }
            let twin = &w.tenants[half + i];
            assert_eq!(key(a), key(twin));
            assert_eq!((a.seed, a.tuner), (twin.seed, twin.tuner));
        }
        let real = w
            .tenants
            .iter()
            .filter(|s| s.engine == EngineKind::Real)
            .count();
        let share = real as f64 / w.tenants.len() as f64;
        assert!((0.2..=0.3).contains(&share), "real share {share}");
    }
}
