//! Persistent worker pool for `Parallel`-annotated loops.
//!
//! One process-wide pool, spawned lazily on the first parallel dispatch
//! and reused for every trial afterwards — the steady state performs
//! **zero thread spawns per trial** ([`threads_spawned`] is monotonic
//! and observable, so benches can assert pool reuse). Workers are plain
//! `std::thread`s parked on a condvar.
//!
//! # Dispatch model
//!
//! [`run_claims`] hands out the indices of a job one at a time from a
//! shared atomic cursor. The caller and at most `budget − 1` woken
//! workers take part; each calls the job's closure once, at its first
//! claim, and keeps claiming until the cursor runs out, so an idle thread
//! always takes the next index and a costly or late one holds up nothing
//! but itself. Consecutive claims go round-robin over one contiguous lane
//! of indices per participant, so the indices that run at the same time
//! are a lane apart, not neighbours. A parallel loop claims single
//! iterations: which thread runs an iteration, and in what order, never
//! changes what it computes. Combined with the analyzer's race-freedom
//! proof (no element is touched by two distinct iterations with a write
//! involved), parallel execution is bit-identical to sequential execution
//! at every thread count.
//!
//! # Arbitration
//!
//! One rule keeps the pool from oversubscribing the machine: **no nested
//! dispatch.** A participant runs inside a thread-local serial scope; a
//! proven-parallel loop reached from inside a dispatch executes
//! sequentially (counted as `serial-context`), instead of deadlocking or
//! exploding the pool. `autotvm::tune_parallel` measures a wave of trials
//! as the claims of one job, so a kernel's own `Parallel` loops under a
//! concurrent measurement fall under the same rule — fanning out *inside*
//! each measurement would multiply thread counts and wreck timing
//! fidelity.

use crate::stats::{count_reason, ParStats};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Version tag of the parallel execution layer, folded into
/// [`crate::optimize::engine_fingerprint`] (and therefore into memo
/// keys and journal stamps): parallel dispatch changes *how* results
/// are produced, so cached measurements must not cross this boundary.
pub const PAR_VERSION: &str = "par/v2";

/// Why a parallel loop executed sequentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerialReason {
    /// No race-freedom proof from the analyzer.
    Unproven,
    /// The pool is configured for a single thread.
    SingleThread,
    /// Fewer than two iterations — nothing to split.
    TrivialExtent,
    /// Already inside a dispatch: a nested parallel loop, or a kernel
    /// measured as one claim of a `tune_parallel` wave.
    SerialContext,
}

impl SerialReason {
    /// Every reason; `reason as usize` indexes [`ParCounters`]' fallbacks.
    const ALL: [SerialReason; 4] = [
        SerialReason::Unproven,
        SerialReason::SingleThread,
        SerialReason::TrivialExtent,
        SerialReason::SerialContext,
    ];

    fn label(self) -> &'static str {
        match self {
            SerialReason::Unproven => "unproven-race",
            SerialReason::SingleThread => "single-thread",
            SerialReason::TrivialExtent => "trivial-extent",
            SerialReason::SerialContext => "serial-context",
        }
    }
}

/// Lock-free parallel-execution counters of one device, snapshotted as
/// [`ParStats`]: the census of the functions it prepares, and the
/// dispatches and fallbacks of the runs it executes. A
/// [`crate::CompiledFunc`] holds none, so a function prepared by one
/// device and run by another counts on the one that runs it.
/// Execution-time increments are relaxed atomics: they happen on every
/// parallel-loop entry, where a lock would sit on the execute path.
#[derive(Debug, Default)]
pub struct ParCounters {
    loops_proven: AtomicU64,
    loops_unproven: AtomicU64,
    dispatches: AtomicU64,
    sequential: [AtomicU64; SerialReason::ALL.len()],
}

impl ParCounters {
    /// Fresh zeroed counters.
    pub fn new() -> ParCounters {
        ParCounters::default()
    }

    /// Record the static parallel-loop census of a prepared function.
    pub fn record_prepared(&self, proven: u64, unproven: u64) {
        self.loops_proven.fetch_add(proven, Ordering::Relaxed);
        self.loops_unproven.fetch_add(unproven, Ordering::Relaxed);
    }

    /// Record one worker-pool dispatch.
    pub fn record_dispatch(&self) {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one sequential fallback with its reason.
    pub fn record_fallback(&self, reason: SerialReason) {
        self.sequential[reason as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent snapshot (reasons sorted, zero-count reasons elided),
    /// including the global pool facts.
    pub fn snapshot(&self) -> ParStats {
        let mut fallback_reasons = Vec::new();
        for (reason, c) in SerialReason::ALL.iter().zip(&self.sequential) {
            match c.load(Ordering::Relaxed) {
                0 => {}
                n => count_reason(&mut fallback_reasons, reason.label(), n),
            }
        }
        ParStats {
            loops_proven: self.loops_proven.load(Ordering::Relaxed),
            loops_unproven: self.loops_unproven.load(Ordering::Relaxed),
            dispatches: self.dispatches.load(Ordering::Relaxed),
            fallbacks: fallback_reasons.iter().map(|(_, n)| n).sum(),
            fallback_reasons,
            pool_threads: num_threads() as u64,
            threads_spawned: threads_spawned(),
        }
    }
}

// ---------------------------------------------------------------------
// Thread budget
// ---------------------------------------------------------------------

/// Configured thread budget; 0 = not yet resolved.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Thread budget for parallel loops: `set_num_threads` wins, then the
/// `TVM_NUM_THREADS` environment variable, then the host parallelism.
/// Always at least 1.
pub fn num_threads() -> usize {
    let n = THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let resolved = std::env::var("TVM_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    // First resolution wins; a concurrent set_num_threads overwrites.
    let _ = THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    THREADS.load(Ordering::Relaxed)
}

/// Override the thread budget (clamped to ≥ 1). Takes effect on the
/// next dispatch; already-running jobs are unaffected. Process-global —
/// safe only because results are bit-identical at every thread count.
pub fn set_num_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Threads the process-wide pool has ever spawned (monotonic).
pub fn threads_spawned() -> u64 {
    pool().spawned.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Serial scope (nested-dispatch prevention)
// ---------------------------------------------------------------------

thread_local! {
    static SERIAL_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Run `f` with parallel dispatch disabled on this thread (used for
/// dispatch participants; exposed for tests and for callers that need strictly
/// sequential execution).
pub fn run_sequential<T>(f: impl FnOnce() -> T) -> T {
    SERIAL_DEPTH.with(|d| d.set(d.get() + 1));
    let guard = SerialGuard;
    let out = f();
    drop(guard);
    out
}

struct SerialGuard;
impl Drop for SerialGuard {
    fn drop(&mut self) {
        SERIAL_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

fn in_serial_scope() -> bool {
    SERIAL_DEPTH.with(|d| d.get() > 0)
}

// ---------------------------------------------------------------------
// Eligibility
// ---------------------------------------------------------------------

/// Decide whether a proven-parallel loop of `extent` iterations should
/// dispatch on the pool, recording the dispatch or the fallback reason
/// in `counters`. `false` means sequential execution.
pub fn begin_parallel(proven: bool, extent: i64, counters: Option<&ParCounters>) -> bool {
    let reason = if !proven {
        Some(SerialReason::Unproven)
    } else if extent < 2 {
        Some(SerialReason::TrivialExtent)
    } else if in_serial_scope() {
        Some(SerialReason::SerialContext)
    } else if num_threads() < 2 {
        Some(SerialReason::SingleThread)
    } else {
        None
    };
    match (reason, counters) {
        (Some(r), Some(c)) => c.record_fallback(r),
        (None, Some(c)) => c.record_dispatch(),
        (_, None) => {}
    }
    reason.is_none()
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

/// Enter `m` even if a holder panicked. Participant panics are caught
/// before any pool lock is taken, and every critical section here is a
/// single queue or flag update, so the data is valid whatever a panic
/// left behind.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The indices one participant of [`run_claims`] takes from the job's
/// shared cursor: the one it was started with, then one more per
/// `next` until all are claimed. No index is claimed twice.
pub struct Claims<'a> {
    first: Option<usize>,
    job: &'a Job,
}

impl Iterator for Claims<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.first.take().or_else(|| self.job.claim())
    }
}

/// A participant's body, borrowed for `'f`.
type Task<'f> = dyn for<'c> Fn(Claims<'c>) + Sync + 'f;

struct Job {
    /// Type-erased participant body. Points at the caller's closure; the
    /// caller does not return from `run_claims` until every participant
    /// has finished, which keeps the borrow alive for as long as any
    /// worker can call it.
    task: TaskPtr,
    n: usize,
    /// The participants the job may have (at least one).
    lanes: usize,
    /// Claims made so far (relaxed: a claim publishes no data).
    cursor: AtomicUsize,
    /// Workers that took a seat and have not finished. Incremented under
    /// the queue lock, so once the job has left the queue it only falls.
    active: Mutex<usize>,
    done_cv: Condvar,
    /// First captured panic payload, rethrown on the calling thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Job {
    /// The index of the next claim. Claims go round-robin over `lanes`
    /// contiguous runs of indices, so the ones that run at the same time
    /// are a lane apart: two threads working on neighbouring row tiles at
    /// once would write the cache line at their boundary in turn (gemm
    /// and 2mm configurations ran up to ×1.4 slower in ascending order).
    fn claim(&self) -> Option<usize> {
        let len = self.n.div_ceil(self.lanes);
        loop {
            let k = self.cursor.fetch_add(1, Ordering::Relaxed);
            if k >= self.lanes * len {
                return None;
            }
            let i = k % self.lanes * len + k / self.lanes;
            if i < self.n {
                return Some(i);
            }
        }
    }

    /// Claim a first index and, if there was one, run the task over this
    /// participant's claims in a serial scope (so nested proven-parallel
    /// loops stay sequential), keeping the first panic.
    fn participate(&self) {
        let Some(first) = self.claim() else { return };
        // SAFETY: `task` outlives every participant (see `TaskPtr`).
        let f = unsafe { &*self.task.0 };
        let claims = Claims {
            first: Some(first),
            job: self,
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_sequential(|| f(claims))
        }));
        if let Err(payload) = result {
            lock(&self.panic).get_or_insert(payload);
        }
    }
}

struct TaskPtr(*const Task<'static>);
// SAFETY: the pointee is `Sync` (shared calls from many threads are
// fine), and `run_claims` blocks until no worker is active, so the
// pointer is never dereferenced after the closure it borrows is gone.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

struct Pool {
    /// Queued jobs, each with the worker seats it has left.
    queue: Mutex<VecDeque<(Arc<Job>, usize)>>,
    work_cv: Condvar,
    /// Workers ever spawned (monotonic).
    spawned: AtomicU64,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        work_cv: Condvar::new(),
        spawned: AtomicU64::new(0),
    })
}

/// Ensure at least `n` workers exist (lazily, once — steady state
/// spawns nothing).
fn ensure_workers(n: usize) {
    let p = pool();
    loop {
        let have = p.spawned.load(Ordering::Relaxed);
        if have as usize >= n {
            return;
        }
        if p.spawned
            .compare_exchange(have, have + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            continue; // someone else spawned; re-check
        }
        std::thread::Builder::new()
            .name(format!("tvm-par-{have}"))
            .spawn(worker_loop)
            .expect("spawn pool worker");
    }
}

fn worker_loop() {
    let p = pool();
    loop {
        let job = {
            let q = p.work_cv.wait_while(lock(&p.queue), |q| q.is_empty());
            let mut q = q.unwrap_or_else(PoisonError::into_inner);
            let (job, seats) = q.front_mut().expect("woken to a queued job");
            let job = Arc::clone(job);
            *lock(&job.active) += 1;
            *seats -= 1;
            if *seats == 0 {
                q.pop_front();
            }
            job
        };
        job.participate();
        let mut active = lock(&job.active);
        *active -= 1;
        if *active == 0 {
            job.done_cv.notify_all();
        }
    }
}

/// Run `f` over the indices `0..n` on the calling thread and at most
/// `min(budget, n) − 1` pool workers. Each participant that claims an
/// index calls `f` once with its [`Claims`], so per-thread state is built
/// once per participant, and an idle participant always takes the next
/// claim. Returns when every participant has finished; a panic in any of
/// them is rethrown here (first panic wins).
pub fn run_claims(n: usize, f: &Task<'_>) {
    // The transmute erases the borrow's lifetime so the job can sit in
    // the pool's 'static queue; `run_claims` blocks until no worker is
    // active below, so no worker touches `f` after we return (see
    // `TaskPtr`'s safety comment). An `as` cast can't do this: raw
    // trait-object pointees default to 'static, which the borrowed `f`
    // can't meet.
    #[allow(clippy::useless_transmute, clippy::transmutes_expressible_as_ptr_casts)]
    let task = TaskPtr(unsafe { std::mem::transmute::<&Task<'_>, *const Task<'static>>(f) });
    let lanes = num_threads().min(n).max(1);
    let job = Arc::new(Job {
        task,
        n,
        lanes,
        cursor: AtomicUsize::new(0),
        active: Mutex::new(0),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    // With nothing to share the caller claims every index, and no worker
    // is spawned or woken (`tune_parallel` under a one-thread budget).
    let (p, seats) = (pool(), lanes - 1);
    if seats > 0 {
        ensure_workers(seats);
        lock(&p.queue).push_back((Arc::clone(&job), seats));
        (0..seats).for_each(|_| p.work_cv.notify_one());
    }
    job.participate();
    // The cursor has run out: no worker may take a seat from now on, and
    // the caller waits for those that did.
    lock(&p.queue).retain(|(j, _)| !Arc::ptr_eq(j, &job));
    let idle = job
        .done_cv
        .wait_while(lock(&job.active), |active| *active != 0);
    drop(idle.unwrap_or_else(PoisonError::into_inner));
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Serializes the unit tests that touch the process-wide pool: whatever
/// sets the thread budget (`set_num_threads`) or dispatches on it
/// (`run_claims`, a kernel with a proven-parallel loop). Spawn and
/// dispatch counts would race otherwise; outputs would not — they are
/// identical at every thread count.
#[cfg(test)]
pub(crate) fn test_threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    #[test]
    fn run_claims_visits_every_index_once() {
        // Every budget against extents below, at and above it: the lanes
        // come out ragged or empty, and no index is lost or run twice.
        let _guard = test_threads_lock();
        for threads in 1..=8 {
            set_num_threads(threads);
            for n in [0, 1, 2, 3, 5, 7, 13, 64] {
                let hits: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(0)).collect();
                run_claims(n, &|claims| {
                    for c in claims {
                        hits[c].fetch_add(1, Ordering::Relaxed);
                    }
                });
                for (c, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "{threads} threads, {n}: {c}");
                }
            }
        }
    }

    #[test]
    fn pool_is_reused_across_jobs() {
        let _guard = test_threads_lock();
        set_num_threads(4);
        let dispatch = || {
            assert!(
                begin_parallel(true, 64, None),
                "four threads, 64 iterations"
            );
            run_claims(64, &|claims| claims.for_each(drop));
        };
        dispatch();
        let after_first = threads_spawned();
        for _ in 0..50 {
            dispatch();
        }
        assert_eq!(
            threads_spawned(),
            after_first,
            "steady-state jobs must not spawn threads"
        );
    }

    #[test]
    fn a_dispatch_at_budget_two_visits_every_iteration_once_on_one_worker() {
        // `A[i] = A[i] + 1` from zeros: a skipped iteration leaves 0, one
        // run twice leaves 2. Two threads take part: the caller and at
        // most one worker, however many iterations there are to claim.
        use crate::{optimize::compile_optimized, vm::execute_counted, NDArray};
        use tvm_te::{placeholder, DType, PrimExpr};
        use tvm_tir::builder::{par, store, FuncBuilder};
        let _guard = test_threads_lock();
        set_num_threads(2);
        let a = placeholder([64], DType::F64, "A");
        let mut fb = FuncBuilder::new("inc");
        let ab = fb.param(&a);
        let f = fb.build(par("i", 64, |i| {
            let at = [i];
            store(&ab, &at, a.at(&at) + PrimExpr::from(1.0f64))
        }));
        let cf = compile_optimized(&f).expect("compile_optimized");
        let (counters, before) = (ParCounters::new(), threads_spawned());
        let mut args = [NDArray::zeros(&[64], DType::F64)];
        execute_counted(&cf, &mut args, Some(&counters)).expect("runs");
        assert_eq!(args[0].as_f64(), vec![1.0; 64]);
        assert_eq!(counters.snapshot().dispatches, 1);
        assert_eq!(
            threads_spawned(),
            before.max(1),
            "budget 2 needs one worker"
        );
    }

    #[test]
    fn claim_panics_propagate_to_the_caller() {
        let _guard = test_threads_lock();
        let result = std::panic::catch_unwind(|| {
            run_claims(4, &|claims| {
                for c in claims {
                    if c == 2 {
                        panic!("boom");
                    }
                }
            });
        });
        assert!(result.is_err());
        // The pool must survive a panicking job.
        run_claims(4, &|claims| claims.for_each(drop));
    }

    #[test]
    fn nested_dispatch_is_serialized() {
        // Inside a dispatch, begin_parallel must refuse (serial-context).
        let _guard = test_threads_lock();
        let refused = AtomicUsize::new(0);
        run_claims(2, &|claims| {
            for _ in claims {
                if !begin_parallel(true, 8, None) {
                    refused.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(refused.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn fallback_reasons_are_counted() {
        let c = ParCounters::new();
        assert!(!begin_parallel(false, 8, Some(&c)));
        assert!(!begin_parallel(true, 1, Some(&c)));
        let stats = c.snapshot();
        assert_eq!(stats.fallbacks, 2);
        assert!(stats
            .fallback_reasons
            .iter()
            .any(|(r, n)| r == "unproven-race" && *n == 1));
        assert!(stats
            .fallback_reasons
            .iter()
            .any(|(r, n)| r == "trivial-extent" && *n == 1));
    }
}
