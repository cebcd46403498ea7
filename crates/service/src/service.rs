//! The multi-tenant tuning service: bounded admission, a supervised
//! worker pool, per-kernel circuit breakers, and crash-recoverable
//! sessions.
//!
//! # Persistence layout
//!
//! ```text
//! <dir>/jobs/<id>.json       accepted job spec + submission timestamp
//! <dir>/journals/<id>.jsonl  the session's trial journal
//! <dir>/done/<id>.json       terminal outcome (absence ⇒ in flight)
//! ```
//!
//! Every file is fsync'd before it becomes load-bearing, and the job file
//! is persisted *before* the job enters the admission queue — so at any
//! kill point the disk state is one of: (a) no job file → the submit was
//! rejected or never acknowledged, (b) job file without done marker → the
//! job is adopted on restart and resumed from its journal, (c) done
//! marker → the outcome is final. There is no window where an
//! acknowledged job can be lost.
//!
//! # Supervision
//!
//! A fixed pool of worker threads pops jobs from the bounded queue; a
//! supervisor thread respawns any worker that dies (panics unwind out of
//! the job runner only for service bugs — tenant-visible failures are
//! caught and journaled as `Failed` outcomes). Circuit breakers and the
//! lowering memo-cache are process-wide and shared across all workers.

use crate::breaker::{BreakerBoard, BreakerConfig, BreakerStatus};
use crate::job::{JobSpec, RejectReason};
use crate::ladder::build_ladder;
use crate::lock;
use crate::queue::JobQueue;
use crate::session::{
    now_unix_ms, run_session, SessionCtl, SessionEnd, SessionOptions, SessionReport,
};
use autotvm::{Evaluator, HarnessOptions};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;
use tvm_autotune::MemoCache;
use ytopt_bo::journal::TrialJournal;
use ytopt_bo::problem::{CacheStats, JitStats, ParStats, PruneStats, SimdStats};

/// Sentinel id that makes a worker panic *outside* the job runner's
/// panic guard — a test hook proving the supervisor respawns workers.
const POISON_JOB_ID: u64 = u64::MAX;

/// Service-wide tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads running sessions.
    pub workers: usize,
    /// Bound on the admission queue (see [`JobQueue`]).
    pub queue_capacity: usize,
    /// Per-kernel circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Consecutive engine failures before a session demotes one rung.
    pub demote_after: u32,
    /// Harness policy (timeout/retry) applied to real-engine rungs.
    pub harness: HarnessOptions,
    /// Worker queue-poll period, milliseconds.
    pub poll_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            breaker: BreakerConfig::default(),
            demote_after: 3,
            harness: HarnessOptions::default(),
            poll_ms: 10,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running (or replaying) the session.
    Running,
    /// Terminal: the session finished its budget.
    Completed,
    /// Terminal: the wall-clock deadline passed.
    DeadlineExceeded,
    /// Terminal: the tenant cancelled.
    Cancelled,
    /// Terminal: the session failed (journal divergence, panic, I/O).
    Failed,
}

impl JobState {
    /// True for states that will never change again.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// Terminal outcome of a job, persisted as `done/<id>.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobOutcome {
    /// The job id.
    pub id: u64,
    /// Tenant the job belonged to.
    pub tenant: String,
    /// Terminal state (never `Queued`/`Running`).
    pub state: JobState,
    /// Full session report, when a session ran to a graceful end.
    pub report: Option<SessionReport>,
    /// Failure detail for `Failed` outcomes.
    pub message: Option<String>,
}

/// What `TuningService::open` found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// In-flight jobs re-adopted into the queue.
    pub adopted: usize,
    /// Jobs whose done marker already existed.
    pub already_done: usize,
}

/// Aggregate service health, serializable for the status endpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceStatus {
    /// Jobs waiting for a worker.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Terminal counts by state.
    pub completed: usize,
    /// Deadline-exceeded terminal count.
    pub deadline_exceeded: usize,
    /// Cancelled terminal count.
    pub cancelled: usize,
    /// Failed terminal count.
    pub failed: usize,
    /// Current admission-queue depth.
    pub queue_depth: usize,
    /// Admission bound.
    pub queue_capacity: usize,
    /// Highest queue depth ever reached.
    pub queue_high_water: usize,
    /// Aggregate lowering/compilation memo-cache counters (shared across
    /// every evaluator and session in the process).
    pub cache: CacheStats,
    /// Aggregate native-codegen compile counters over every terminal
    /// session report (JIT rungs only; all-zero when no real-engine job
    /// has finished).
    pub jit: JitStats,
    /// Aggregate multicore-dispatch counters over every terminal session
    /// report (parallel-capable rungs only; all-zero when no real-engine
    /// job has finished).
    pub par: ParStats,
    /// Aggregate packed-SIMD emission counters over every terminal
    /// session report (vectorizing rungs only; all-zero until a JIT job
    /// has finished). Defaulted on deserialize for status files written
    /// before the packed tier.
    #[serde(default)]
    pub simd: SimdStats,
    /// Aggregate static-pruning counters over every terminal session
    /// report (analyzed rungs only; all-zero until an analyzed job has
    /// finished). The per-code denial counts answer "what is the
    /// aggressive space rejecting, and why" at the fleet level.
    #[serde(default)]
    pub prune: PruneStats,
    /// Per-kernel breaker states.
    pub breakers: Vec<BreakerStatus>,
    /// Workers respawned by the supervisor after a crash.
    pub worker_restarts: u64,
    /// Configured worker count.
    pub workers: usize,
}

/// The on-disk form of an accepted job.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PersistedJob {
    spec: JobSpec,
    submitted_unix_ms: u64,
}

struct JobEntry {
    spec: JobSpec,
    submitted_unix_ms: u64,
    state: JobState,
    cancel: Arc<AtomicBool>,
    outcome: Option<JobOutcome>,
}

struct Inner {
    dir: PathBuf,
    cfg: ServiceConfig,
    queue: JobQueue,
    breakers: BreakerBoard,
    cache: Arc<MemoCache>,
    jobs: Mutex<HashMap<u64, JobEntry>>,
    state_changed: Condvar,
    next_id: AtomicU64,
    /// Graceful: stop admitting, stop popping; running sessions finish.
    shutdown: Arc<AtomicBool>,
    /// Abrupt: sessions stop between trials without finalizing anything —
    /// the in-process stand-in for `kill -9` (journals are written after
    /// each trial, so disk state is identical).
    kill: Arc<AtomicBool>,
    worker_restarts: AtomicU64,
}

/// Handle to a running service instance. Dropping it kills the instance
/// abruptly (the crash-recovery path makes that safe by construction).
pub struct TuningService {
    inner: Arc<Inner>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    supervisor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TuningService {
    /// Open (or re-open) a service rooted at `dir`, adopting any job that
    /// was in flight when a previous instance died.
    pub fn open(
        dir: impl AsRef<Path>,
        cfg: ServiceConfig,
    ) -> std::io::Result<(TuningService, RecoveryReport)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(dir.join("jobs"))?;
        std::fs::create_dir_all(dir.join("journals"))?;
        std::fs::create_dir_all(dir.join("done"))?;

        let mut jobs: HashMap<u64, JobEntry> = HashMap::new();
        let mut recovered: Vec<u64> = Vec::new();
        let mut report = RecoveryReport::default();
        let mut max_id = 0u64;
        for entry in std::fs::read_dir(dir.join("jobs"))? {
            let path = entry?.path();
            let Some(id) = job_id_from_path(&path) else {
                continue;
            };
            let Ok(raw) = std::fs::read_to_string(&path) else {
                continue;
            };
            let Ok(persisted) = serde_json::from_str::<PersistedJob>(&raw) else {
                // A torn job file can only exist for a submit that was
                // never acknowledged; it is not a job.
                continue;
            };
            max_id = max_id.max(id);
            let done_path = dir.join("done").join(format!("{id}.json"));
            let (state, outcome) = match std::fs::read_to_string(&done_path)
                .ok()
                .and_then(|raw| serde_json::from_str::<JobOutcome>(&raw).ok())
            {
                Some(outcome) => {
                    report.already_done += 1;
                    (outcome.state, Some(outcome))
                }
                None => {
                    report.adopted += 1;
                    recovered.push(id);
                    (JobState::Queued, None)
                }
            };
            jobs.insert(
                id,
                JobEntry {
                    spec: persisted.spec,
                    submitted_unix_ms: persisted.submitted_unix_ms,
                    state,
                    cancel: Arc::new(AtomicBool::new(false)),
                    outcome,
                },
            );
        }
        recovered.sort_unstable();

        let inner = Arc::new(Inner {
            queue: JobQueue::new(cfg.queue_capacity),
            breakers: BreakerBoard::new(cfg.breaker),
            cache: Arc::new(MemoCache::new()),
            jobs: Mutex::new(jobs),
            state_changed: Condvar::new(),
            next_id: AtomicU64::new(max_id + 1),
            shutdown: Arc::new(AtomicBool::new(false)),
            kill: Arc::new(AtomicBool::new(false)),
            worker_restarts: AtomicU64::new(0),
            dir,
            cfg,
        });
        for id in recovered {
            inner.queue.push_recovered(id);
        }

        let workers = Arc::new(Mutex::new(
            (0..cfg.workers.max(1))
                .map(|_| spawn_worker(Arc::clone(&inner)))
                .collect::<Vec<_>>(),
        ));
        let supervisor = spawn_supervisor(Arc::clone(&inner), Arc::clone(&workers));
        Ok((
            TuningService {
                inner,
                workers,
                supervisor: Mutex::new(Some(supervisor)),
            },
            report,
        ))
    }

    /// Submit a job. `Ok(id)` means the job is durably admitted: it will
    /// reach a terminal state even across server crashes.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, RejectReason> {
        if self.inner.shutdown.load(Ordering::Relaxed) || self.inner.kill.load(Ordering::Relaxed) {
            return Err(RejectReason::ShuttingDown);
        }
        if let Err(message) = spec.validate() {
            return Err(RejectReason::InvalidSpec { message });
        }
        if let Some(retry_in_s) = self.inner.breakers.submission_block(&spec.kernel) {
            return Err(RejectReason::CircuitOpen {
                kernel: spec.kernel.clone(),
                retry_in_s,
            });
        }

        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let submitted_unix_ms = now_unix_ms();
        let path = self.inner.dir.join("jobs").join(format!("{id}.json"));
        let persisted = PersistedJob {
            spec: spec.clone(),
            submitted_unix_ms,
        };
        if let Err(e) = write_json_durable(&path, &persisted) {
            return Err(RejectReason::InvalidSpec {
                message: format!("failed to persist job: {e}"),
            });
        }

        {
            let mut jobs = lock(&self.inner.jobs);
            jobs.insert(
                id,
                JobEntry {
                    spec,
                    submitted_unix_ms,
                    state: JobState::Queued,
                    cancel: Arc::new(AtomicBool::new(false)),
                    outcome: None,
                },
            );
        }
        if let Err((depth, capacity)) = self.inner.queue.try_push(id) {
            // Roll the admission back completely before rejecting.
            let _ = std::fs::remove_file(&path);
            lock(&self.inner.jobs).remove(&id);
            return Err(RejectReason::QueueFull { depth, capacity });
        }
        Ok(id)
    }

    /// Current lifecycle state of a job.
    pub fn state(&self, id: u64) -> Option<JobState> {
        lock(&self.inner.jobs).get(&id).map(|e| e.state)
    }

    /// Terminal outcome, if the job has reached one.
    pub fn outcome(&self, id: u64) -> Option<JobOutcome> {
        lock(&self.inner.jobs)
            .get(&id)
            .and_then(|e| e.outcome.clone())
    }

    /// Block until `id` reaches a terminal state, up to `timeout`.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobOutcome> {
        let deadline = std::time::Instant::now() + timeout;
        let mut jobs = lock(&self.inner.jobs);
        loop {
            match jobs.get(&id) {
                None => return None,
                Some(e) if e.outcome.is_some() => return e.outcome.clone(),
                Some(_) => {}
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            (jobs, _) = self
                .inner
                .state_changed
                .wait_timeout(jobs, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Request cancellation. Best-effort and in-memory: a job cancelled
    /// here stops before its next live trial; if the server dies first,
    /// the restarted server runs the job to completion instead (the
    /// cancel was never durable, and re-running is always safe).
    pub fn cancel(&self, id: u64) -> bool {
        let jobs = lock(&self.inner.jobs);
        match jobs.get(&id) {
            Some(e) if !e.state.is_terminal() => {
                e.cancel.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Aggregate health snapshot.
    pub fn status(&self) -> ServiceStatus {
        let jobs = lock(&self.inner.jobs);
        let count = |s: JobState| jobs.values().filter(|e| e.state == s).count();
        let mut jit = JitStats::default();
        let mut par = ParStats::default();
        let mut simd = SimdStats::default();
        let mut prune = PruneStats::default();
        for entry in jobs.values() {
            let report = entry.outcome.as_ref().and_then(|o| o.report.as_ref());
            if let Some(s) = report.and_then(|r| r.jit.as_ref()) {
                jit.merge(s);
            }
            if let Some(s) = report.and_then(|r| r.par.as_ref()) {
                par.merge(s);
            }
            if let Some(s) = report.and_then(|r| r.simd.as_ref()) {
                simd.merge(s);
            }
            if let Some(s) = report.and_then(|r| r.prune.as_ref()) {
                prune.merge(s);
            }
        }
        ServiceStatus {
            queued: count(JobState::Queued),
            running: count(JobState::Running),
            completed: count(JobState::Completed),
            deadline_exceeded: count(JobState::DeadlineExceeded),
            cancelled: count(JobState::Cancelled),
            failed: count(JobState::Failed),
            queue_depth: self.inner.queue.len(),
            queue_capacity: self.inner.queue.capacity(),
            queue_high_water: self.inner.queue.high_water(),
            cache: self.inner.cache.stats(),
            jit,
            par,
            simd,
            prune,
            breakers: self.inner.breakers.snapshot(),
            worker_restarts: self.inner.worker_restarts.load(Ordering::Relaxed),
            workers: self.inner.cfg.workers.max(1),
        }
    }

    /// Kill the instance abruptly: sessions stop between trials, nothing
    /// is finalized, and in-flight jobs are left for the next `open` to
    /// adopt. This is the in-process equivalent of `kill -9` — the journal
    /// is written after each trial and durable before the tuner is told,
    /// so the file holds exactly the trials measured either way.
    pub fn kill(&self) {
        self.inner.kill.store(true, Ordering::Relaxed);
        self.inner.queue.wake_all();
        self.join_threads();
    }

    /// Stop gracefully: no new admissions, no new sessions; running
    /// sessions finish and persist their outcomes. Queued jobs stay on
    /// disk for the next instance.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.queue.wake_all();
        self.join_threads();
    }

    /// Test hook: make one worker panic outside the job runner's panic
    /// guard, so the supervisor's respawn path can be exercised.
    pub fn debug_crash_worker(&self) {
        self.inner.queue.push_recovered(POISON_JOB_ID);
    }

    fn join_threads(&self) {
        if let Some(sup) = lock(&self.supervisor).take() {
            let _ = sup.join();
        }
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for TuningService {
    fn drop(&mut self) {
        self.inner.kill.store(true, Ordering::Relaxed);
        self.inner.queue.wake_all();
        self.join_threads();
    }
}

fn job_id_from_path(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Write `value` as JSON with crash-safe visibility: temp file, fsync,
/// atomic rename. A crash at any point leaves either no file or the
/// complete file — never a torn one under the final name.
fn write_json_durable<T: Serialize + 'static>(path: &Path, value: &T) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(serde_json::to_string_pretty(value)?.as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(d) = std::fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn spawn_worker(inner: Arc<Inner>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("tvm-service-worker".into())
        .spawn(move || worker_loop(inner))
        .expect("spawn worker thread")
}

fn spawn_supervisor(
    inner: Arc<Inner>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("tvm-service-supervisor".into())
        .spawn(move || supervisor_loop(inner, workers))
        .expect("spawn supervisor thread")
}

/// Respawn any worker whose thread has died. Runs until kill/shutdown.
fn supervisor_loop(inner: Arc<Inner>, workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>) {
    loop {
        if inner.kill.load(Ordering::Relaxed) || inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        {
            let mut pool = lock(&workers);
            for slot in pool.iter_mut() {
                if slot.is_finished() {
                    let fresh = spawn_worker(Arc::clone(&inner));
                    let dead = std::mem::replace(slot, fresh);
                    let _ = dead.join();
                    inner.worker_restarts.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(inner.cfg.poll_ms.max(1)));
    }
}

fn worker_loop(inner: Arc<Inner>) {
    loop {
        if inner.kill.load(Ordering::Relaxed) || inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let Some(id) = inner
            .queue
            .pop_timeout(Duration::from_millis(inner.cfg.poll_ms.max(1)))
        else {
            continue;
        };
        if inner.kill.load(Ordering::Relaxed) {
            // Popped with the kill flag up: drop the id on the floor —
            // the job file has no done marker, so the next instance
            // re-adopts it.
            return;
        }
        if id == POISON_JOB_ID {
            panic!("poison job: deliberate worker crash (test hook)");
        }
        set_state(&inner, id, JobState::Running);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(&inner, id)));
        match outcome {
            Ok(Ok(None)) => {
                // Interrupted by kill: leave no trace, the journal and
                // job file carry the session forward.
            }
            Ok(Ok(Some(outcome))) => finalize(&inner, id, outcome),
            Ok(Err(e)) => finalize_failed(&inner, id, format!("session error: {e}")),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("unknown panic");
                finalize_failed(&inner, id, format!("session panicked: {msg}"));
            }
        }
    }
}

/// Run one session to a terminal state (or to a kill interruption).
/// Returns `None` when killed — the caller must not finalize anything.
fn run_job(inner: &Inner, id: u64) -> std::io::Result<Option<JobOutcome>> {
    let (spec, submitted_unix_ms, cancel) = {
        let jobs = lock(&inner.jobs);
        let Some(entry) = jobs.get(&id) else {
            return Ok(None);
        };
        (
            entry.spec.clone(),
            entry.submitted_unix_ms,
            Arc::clone(&entry.cancel),
        )
    };

    let mut ladder = build_ladder(
        &spec,
        &inner.cache,
        inner.cfg.harness,
        inner.cfg.demote_after,
    )
    .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))?;
    let mut tuner = spec.tuner.build(ladder.space().clone(), spec.seed);

    let journal_path = inner.dir.join("journals").join(format!("{id}.jsonl"));
    let (mut journal, replay) = if journal_path.exists() {
        TrialJournal::open_resume(&journal_path)?
    } else {
        (TrialJournal::create(&journal_path)?, vec![])
    };

    let ctl = SessionCtl {
        cancel,
        kill: Arc::clone(&inner.kill),
        breaker: Some(inner.breakers.breaker(&spec.kernel)),
    };
    let opts = SessionOptions {
        max_evals: spec.max_evals,
        batch: spec.batch,
        deadline_unix_ms: spec
            .deadline_s
            .map(|d| submitted_unix_ms + (d * 1000.0) as u64),
    };
    let report = run_session(
        tuner.as_mut(),
        &mut ladder,
        &mut journal,
        replay,
        opts,
        &ctl,
    )?;

    let state = match report.end {
        SessionEnd::Interrupted => return Ok(None),
        SessionEnd::Completed => JobState::Completed,
        SessionEnd::DeadlineExceeded => JobState::DeadlineExceeded,
        SessionEnd::Cancelled => JobState::Cancelled,
    };
    Ok(Some(JobOutcome {
        id,
        tenant: spec.tenant,
        state,
        report: Some(report),
        message: None,
    }))
}

fn set_state(inner: &Inner, id: u64, state: JobState) {
    let mut jobs = lock(&inner.jobs);
    if let Some(e) = jobs.get_mut(&id) {
        e.state = state;
    }
    drop(jobs);
    inner.state_changed.notify_all();
}

fn finalize(inner: &Inner, id: u64, outcome: JobOutcome) {
    let done = inner.dir.join("done").join(format!("{id}.json"));
    if let Err(e) = write_json_durable(&done, &outcome) {
        // Without a durable marker the job would be re-run on restart;
        // surface the problem as a failure rather than pretend success.
        finalize_failed(inner, id, format!("failed to persist outcome: {e}"));
        return;
    }
    let mut jobs = lock(&inner.jobs);
    if let Some(e) = jobs.get_mut(&id) {
        e.state = outcome.state;
        e.outcome = Some(outcome);
    }
    drop(jobs);
    inner.state_changed.notify_all();
}

fn finalize_failed(inner: &Inner, id: u64, message: String) {
    let tenant = lock(&inner.jobs)
        .get(&id)
        .map(|e| e.spec.tenant.clone())
        .unwrap_or_default();
    let outcome = JobOutcome {
        id,
        tenant,
        state: JobState::Failed,
        report: None,
        message: Some(message),
    };
    let done = inner.dir.join("done").join(format!("{id}.json"));
    let _ = write_json_durable(&done, &outcome);
    let mut jobs = lock(&inner.jobs);
    if let Some(e) = jobs.get_mut(&id) {
        e.state = JobState::Failed;
        e.outcome = Some(outcome);
    }
    drop(jobs);
    inner.state_changed.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{EngineKind, TunerKind};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("tvm-service-service-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn quick_spec(tenant: &str, seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(tenant, "lu", "mini");
        spec.seed = seed;
        spec.max_evals = 6;
        spec.batch = 2;
        spec.engine = EngineKind::Simulated;
        spec.tuner = TunerKind::Random;
        spec
    }

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            poll_ms: 2,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn submit_runs_to_completion_and_persists_outcome() {
        let dir = tmpdir("complete");
        let (svc, rec) = TuningService::open(&dir, small_cfg()).expect("open");
        assert_eq!(rec, RecoveryReport::default());
        let id = svc.submit(quick_spec("t0", 1)).expect("admit");
        let outcome = svc.wait(id, Duration::from_secs(30)).expect("finish");
        assert_eq!(outcome.state, JobState::Completed);
        let report = outcome.report.expect("report");
        assert_eq!(report.trials.len(), 6);
        assert!(dir.join("done").join(format!("{id}.json")).exists());
        assert!(dir.join("jobs").join(format!("{id}.json")).exists());
        svc.shutdown();
    }

    #[test]
    fn a_done_marker_in_the_legacy_report_shape_still_loads() {
        // A finished JIT job as the service wrote it while the packed-SIMD
        // counters still carried `f32_lanes`. Its outcome is final: were
        // the marker unreadable, the job would be adopted and run again.
        let job = r#"{"spec":{"tenant":"legacy","kernel":"lu","size":"mini","tuner":"Random",
            "seed":1,"max_evals":2,"batch":1,"engine":"Real","deadline_s":null,"fault":null,
            "space":"Paper"},"submitted_unix_ms":1792094419382}"#;
        let done = r#"{"id":1,"tenant":"legacy","state":"Completed","report":{
            "tuner":"AutoTVM-Random","end":"Completed","trials":[
            {"index":0,"config":{"names":["P0","P1"],"values":[5,2]},"runtime_s":4.1366e-05,
             "error":null,"eval_process_s":0.000324166,"elapsed_s":0.000324166,"engine":"jit",
             "replayed":false,"wall_s":0.000339673},
            {"index":1,"config":{"names":["P0","P1"],"values":[40,10]},"runtime_s":3.997e-05,
             "error":null,"eval_process_s":0.000331916,"elapsed_s":0.0006560820000000001,
             "engine":"jit","replayed":false,"wall_s":0.000345455}],
            "replayed":0,"total_process_s":0.0006560820000000001,"demotions":0,
            "final_engine":"jit","cache":{"hits":0,"misses":2},
            "jit":{"functions_jitted":2,"nests_compiled":2,"bytes_emitted":1811,"fallbacks":0,
                   "fallback_reasons":[]},
            "par":{"loops_proven":0,"loops_unproven":0,"dispatches":0,"fallbacks":0,
                   "fallback_reasons":[],"pool_threads":2,"threads_spawned":0},
            "simd":{"packed_loops":0,"tiled_loops":0,"scalar_loops":4,"f64_lanes":4,
                    "f32_lanes":0,"scalar_reasons":[["dynamic-extent",4]]},
            "prune":{"admitted":2,"prelint_denied":0,"analyzer_denied":0,"denied_by_code":[]}},
            "message":null}"#;
        let dir = tmpdir("legacy-done");
        for (sub, raw) in [("jobs", job), ("done", done)] {
            std::fs::create_dir_all(dir.join(sub)).expect("mkdir");
            std::fs::write(dir.join(sub).join("1.json"), raw).expect("write");
        }
        let (svc, rec) = TuningService::open(&dir, small_cfg()).expect("open");
        let expected = RecoveryReport {
            adopted: 0,
            already_done: 1,
        };
        assert_eq!(rec, expected);
        let out = svc.outcome(1).expect("the stored outcome");
        assert_eq!((out.id, out.state), (1, JobState::Completed));
        let report = out.report.expect("report");
        assert_eq!(report.trials.len(), 2);
        assert_eq!(report.trials[1].runtime_s, Some(3.997e-05));
        let simd = report.simd.expect("simd counters");
        assert_eq!((simd.scalar_loops, simd.f64_lanes), (4, 4));
        svc.shutdown();
    }

    #[test]
    fn invalid_specs_and_full_queues_are_rejected_with_reasons() {
        let dir = tmpdir("reject");
        let cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            poll_ms: 200, // keep the single worker asleep long enough
            ..ServiceConfig::default()
        };
        let (svc, _) = TuningService::open(&dir, cfg).expect("open");
        let bad = svc.submit(JobSpec::new("t", "nope", "mini"));
        assert!(matches!(bad, Err(RejectReason::InvalidSpec { .. })));

        // Saturate: worker polls every 200ms, so pushes 1..N stack up.
        let mut admitted = 0;
        let mut rejected = false;
        for i in 0..8 {
            match svc.submit(quick_spec("t", i)) {
                Ok(_) => admitted += 1,
                Err(RejectReason::QueueFull { capacity, .. }) => {
                    assert_eq!(capacity, 1);
                    rejected = true;
                    break;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert!(rejected, "bounded queue must eventually refuse");
        assert!(admitted >= 1);
        assert!(svc.status().queue_high_water <= 1);
        svc.kill();
    }

    #[test]
    fn kill_and_reopen_adopts_and_finishes_jobs_identically() {
        let dir = tmpdir("kill-reopen");
        // Reference outcomes from an undisturbed service.
        let ref_dir = tmpdir("kill-reopen-ref");
        let (svc, _) = TuningService::open(&ref_dir, small_cfg()).expect("open ref");
        let mut expected = Vec::new();
        for seed in 0..4u64 {
            let id = svc
                .submit(quick_spec(&format!("t{seed}"), seed))
                .expect("admit");
            expected.push((seed, id));
        }
        let mut want = HashMap::new();
        for (seed, id) in &expected {
            let out = svc.wait(*id, Duration::from_secs(30)).expect("finish");
            let keys: Vec<String> = out
                .report
                .expect("report")
                .trials
                .iter()
                .map(|t| format!("{}|{:?}", t.config.key(), t.runtime_s))
                .collect();
            want.insert(*seed, keys);
        }
        svc.shutdown();

        // Same jobs on a killable service.
        let (svc, _) = TuningService::open(&dir, small_cfg()).expect("open");
        let mut ids = HashMap::new();
        for seed in 0..4u64 {
            let id = svc
                .submit(quick_spec(&format!("t{seed}"), seed))
                .expect("admit");
            ids.insert(seed, id);
        }
        // Let some work happen, then pull the plug.
        std::thread::sleep(Duration::from_millis(30));
        svc.kill();
        drop(svc);

        let (svc, rec) = TuningService::open(&dir, small_cfg()).expect("reopen");
        assert_eq!(rec.adopted + rec.already_done, 4, "every job accounted for");
        for (seed, id) in &ids {
            let out = svc
                .wait(*id, Duration::from_secs(30))
                .expect("finish after reopen");
            assert_eq!(out.state, JobState::Completed);
            let keys: Vec<String> = out
                .report
                .expect("report")
                .trials
                .iter()
                .map(|t| format!("{}|{:?}", t.config.key(), t.runtime_s))
                .collect();
            assert_eq!(&keys, want.get(seed).expect("reference"), "seed {seed}");
        }
        svc.shutdown();
    }

    #[test]
    fn supervisor_respawns_crashed_workers() {
        let dir = tmpdir("respawn");
        let (svc, _) = TuningService::open(&dir, small_cfg()).expect("open");
        svc.debug_crash_worker();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while svc.status().worker_restarts == 0 {
            assert!(std::time::Instant::now() < deadline, "no respawn observed");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The pool still works after the crash.
        let id = svc.submit(quick_spec("t", 3)).expect("admit");
        let out = svc.wait(id, Duration::from_secs(30)).expect("finish");
        assert_eq!(out.state, JobState::Completed);
        svc.shutdown();
    }

    #[test]
    fn shared_cache_reports_aggregate_hits_across_sessions() {
        let dir = tmpdir("cache");
        let (svc, _) = TuningService::open(&dir, small_cfg()).expect("open");
        // Same kernel+seed twice: the second session's lowerings all hit.
        let a = svc.submit(quick_spec("a", 5)).expect("admit");
        svc.wait(a, Duration::from_secs(30)).expect("finish a");
        let before = svc.status().cache;
        let b = svc.submit(quick_spec("b", 5)).expect("admit");
        svc.wait(b, Duration::from_secs(30)).expect("finish b");
        let after = svc.status().cache;
        assert!(
            after.hits > before.hits,
            "second identical session must hit the shared cache ({before:?} -> {after:?})"
        );
        svc.shutdown();
    }

    #[test]
    fn aggressive_space_job_reports_prune_counters() {
        let dir = tmpdir("prune");
        let (svc, _) = TuningService::open(&dir, small_cfg()).expect("open");
        let mut spec = quick_spec("t", 11);
        spec.kernel = "gemm".into();
        spec.space = crate::job::SpaceKind::Aggressive;
        let id = svc.submit(spec).expect("admit");
        let out = svc.wait(id, Duration::from_secs(30)).expect("finish");
        assert_eq!(out.state, JobState::Completed);
        let prune = out
            .report
            .expect("report")
            .prune
            .expect("analyzed rungs report prune counters");
        assert!(
            prune.total() > 0,
            "every live trial lands in a prune counter: {prune:?}"
        );
        let status = svc.status();
        assert_eq!(
            status.prune.total(),
            prune.total(),
            "status aggregates terminal reports"
        );
        svc.shutdown();
    }

    #[test]
    fn cancel_marks_job_cancelled() {
        let dir = tmpdir("cancel");
        let cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            poll_ms: 2,
            ..ServiceConfig::default()
        };
        let (svc, _) = TuningService::open(&dir, cfg).expect("open");
        // A budget far too large to finish before the cancel lands.
        let mut spec = quick_spec("t", 7);
        spec.max_evals = 200_000;
        let id = svc.submit(spec).expect("admit");
        assert!(svc.cancel(id));
        let out = svc.wait(id, Duration::from_secs(30)).expect("terminal");
        assert_eq!(out.state, JobState::Cancelled);
        assert!(dir.join("done").join(format!("{id}.json")).exists());
        svc.shutdown();
    }

    #[test]
    fn deadline_is_anchored_at_submission() {
        let dir = tmpdir("deadline");
        let cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            poll_ms: 2,
            ..ServiceConfig::default()
        };
        let (svc, _) = TuningService::open(&dir, cfg).expect("open");
        let mut spec = quick_spec("t", 9);
        // Budget far beyond what 1 ms of wall clock can measure, so the
        // deadline (anchored at submission) must fire first.
        spec.max_evals = 200_000;
        spec.deadline_s = Some(0.001);
        let id = svc.submit(spec).expect("admit");
        let out = svc.wait(id, Duration::from_secs(30)).expect("terminal");
        assert_eq!(out.state, JobState::DeadlineExceeded);
        svc.shutdown();
    }
}
