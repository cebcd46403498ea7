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
//! [`run_chunks`] splits a job into `n_chunks` indexed chunks and lets
//! the caller *and* the workers race to claim chunk indices from a
//! shared atomic cursor. Chunk *boundaries* are a pure function of
//! `(extent, n_chunks)` — see [`chunk_range`] — so which thread runs a
//! chunk never changes what the chunk computes. Combined with the
//! analyzer's race-freedom proof (no element is touched by two distinct
//! iterations with a write involved), parallel execution is
//! bit-identical to sequential execution at every thread count.
//!
//! # Arbitration
//!
//! One rule keeps the pool from oversubscribing the machine: **no nested
//! dispatch.** Chunk bodies run inside a thread-local serial scope; a
//! proven-parallel loop reached from inside a dispatched chunk executes
//! sequentially (counted as `serial-context`), instead of deadlocking or
//! exploding the pool. `autotvm::tune_parallel` measures a wave of trials
//! as chunks of this pool, so a kernel's own `Parallel` loops under a
//! concurrent measurement fall under the same rule — fanning out *inside*
//! each measurement would multiply thread counts and wreck timing
//! fidelity.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Version tag of the parallel execution layer, folded into
/// [`crate::optimize::engine_fingerprint`] (and therefore into memo
/// keys and journal stamps): parallel dispatch changes *how* results
/// are produced, so cached measurements must not cross this boundary.
pub const PAR_VERSION: &str = "par/v1";

/// Runtime-side snapshot of parallel-execution counters (the
/// serializable mirror lives in `ytopt_bo::ParStats`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Parallel loops carrying a race-freedom proof, over every
    /// function prepared against these counters.
    pub loops_proven: u64,
    /// Parallel loops without a proof (always sequential).
    pub loops_unproven: u64,
    /// Worker-pool dispatches of proven loops at execution time.
    pub dispatches: u64,
    /// Sequential executions that a proven (or unproven) parallel loop
    /// fell back to, with per-reason counts.
    pub fallbacks: u64,
    /// `(reason, count)` pairs, sorted by reason.
    pub fallback_reasons: Vec<(String, u64)>,
    /// Thread budget the pool is configured for.
    pub pool_threads: u64,
    /// Threads the process-wide pool has ever spawned (monotonic;
    /// steady-state trials must not move it).
    pub threads_spawned: u64,
}

/// Why a parallel loop executed sequentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerialReason {
    /// No race-freedom proof from the analyzer.
    Unproven,
    /// The pool is configured for a single thread.
    SingleThread,
    /// Fewer than two iterations — nothing to split.
    TrivialExtent,
    /// Already inside a dispatched chunk: a nested parallel loop, or a
    /// kernel measured as one chunk of a `tune_parallel` wave.
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

/// Lock-free parallel-execution counters, shared `Arc`-style between a
/// device and every [`crate::CompiledFunc`] it prepares (mirroring
/// [`crate::codegen::JitCounters`]). Execution-time increments are
/// relaxed atomics: a parallel loop dispatches once per entry, so the
/// cost is noise next to the dispatch itself.
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
        let mut fallback_reasons: Vec<(String, u64)> = SerialReason::ALL
            .iter()
            .zip(&self.sequential)
            .map(|(r, c)| (r.label().to_string(), c.load(Ordering::Relaxed)))
            .filter(|(_, n)| *n > 0)
            .collect();
        fallback_reasons.sort();
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

impl ParStats {
    /// Fold another snapshot into this one (counter-wise sums; reasons
    /// merged by name; pool facts are process-global, so take the max).
    pub fn merge(&mut self, other: &ParStats) {
        self.loops_proven += other.loops_proven;
        self.loops_unproven += other.loops_unproven;
        self.dispatches += other.dispatches;
        self.fallbacks += other.fallbacks;
        for (reason, n) in &other.fallback_reasons {
            match self.fallback_reasons.iter_mut().find(|(r, _)| r == reason) {
                Some((_, total)) => *total += n,
                None => self.fallback_reasons.push((reason.clone(), *n)),
            }
        }
        self.fallback_reasons.sort();
        self.pool_threads = self.pool_threads.max(other.pool_threads);
        self.threads_spawned = self.threads_spawned.max(other.threads_spawned);
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
/// chunk bodies; exposed for tests and for callers that need strictly
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

/// A green-lit parallel dispatch: `n_chunks` ≥ 2 chunks over the range.
pub struct ParallelPlan {
    /// Number of chunks (= max threads that can participate).
    pub n_chunks: usize,
}

/// Decide whether a proven-parallel loop of `extent` iterations should
/// dispatch on the pool, recording the dispatch or the fallback reason
/// in `counters`. Returns `None` for sequential execution.
pub fn begin_parallel(
    proven: bool,
    extent: i64,
    counters: Option<&ParCounters>,
) -> Option<ParallelPlan> {
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
    match reason {
        Some(r) => {
            if let Some(c) = counters {
                c.record_fallback(r);
            }
            None
        }
        None => {
            if let Some(c) = counters {
                c.record_dispatch();
            }
            Some(ParallelPlan {
                n_chunks: num_threads().min(extent as usize),
            })
        }
    }
}

/// Deterministic chunk `c` of `n` over `[min, min+extent)`: iteration
/// range `[min + extent*c/n, min + extent*(c+1)/n)`. Chunks partition
/// the range exactly, differ in size by at most one iteration, and
/// depend only on `(min, extent, n)` — never on which thread claims
/// them.
pub fn chunk_range(min: i64, extent: i64, c: usize, n: usize) -> (i64, i64) {
    let (c, n) = (c as i64, n as i64);
    let lo = min + extent * c / n;
    let hi = min + extent * (c + 1) / n;
    (lo, hi)
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

/// Enter `m` even if a holder panicked. Chunk panics are caught before
/// any pool lock is taken, and every critical section here is a single
/// queue or flag update, so the data is valid whatever a panic left behind.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Job {
    /// Type-erased chunk runner. Points at the caller's closure; the
    /// caller does not return from `run_chunks` until every chunk has
    /// finished, which keeps the borrow alive for as long as any worker
    /// can call it.
    task: TaskPtr,
    n_chunks: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Chunks not yet finished.
    pending: AtomicUsize,
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// First captured panic payload, rethrown on the calling thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct TaskPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared calls from many threads are
// fine), and `run_chunks` blocks until `pending == 0`, so the pointer
// never outlives the closure it borrows.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
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
            let mut q = lock(&p.queue);
            loop {
                if let Some(j) = q.front() {
                    break Arc::clone(j);
                }
                q = p.work_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job_chunks(&job);
        // The job is exhausted (claiming failed); drop it from the
        // queue if the caller hasn't already.
        let mut q = lock(&p.queue);
        if let Some(front) = q.front() {
            if Arc::ptr_eq(front, &job) {
                q.pop_front();
            }
        }
    }
}

/// Claim and run chunks until the cursor runs out. Chunk bodies run in
/// a serial scope so nested proven-parallel loops stay sequential.
fn run_job_chunks(job: &Job) {
    loop {
        let c = job.next.fetch_add(1, Ordering::Relaxed);
        if c >= job.n_chunks {
            return;
        }
        let task = job.task.0;
        // SAFETY: `task` outlives the job (see `TaskPtr`); `c` is a
        // fresh chunk index no other thread claimed.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_sequential(|| unsafe { (*task)(c) })
        }));
        if let Err(payload) = result {
            lock(&job.panic).get_or_insert(payload);
        }
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = lock(&job.done_lock);
            job.done_cv.notify_all();
        }
    }
}

/// Run `f(0..n_chunks)` across the pool: the calling thread
/// participates, idle workers join, and the call returns only when
/// every chunk has finished. Panics from any chunk are rethrown here
/// (first panic wins). `n_chunks` must be ≥ 1.
pub fn run_chunks(n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    assert!(n_chunks >= 1, "run_chunks needs at least one chunk");
    if n_chunks == 1 {
        // Nothing to share: the caller runs the only chunk, no worker is
        // spawned or woken (`tune_parallel` under a one-thread budget).
        return run_sequential(|| f(0));
    }
    ensure_workers(n_chunks - 1);
    // The transmute erases the borrow's lifetime so the job can sit in
    // the pool's 'static queue; `run_chunks` blocks until pending == 0
    // below, so no worker touches `f` after we return (see `TaskPtr`'s
    // safety comment). An `as` cast can't do this: raw trait-object
    // pointees default to 'static, which the borrowed `f` can't meet.
    #[allow(clippy::useless_transmute, clippy::transmutes_expressible_as_ptr_casts)]
    let task = TaskPtr(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
    });
    let job = Arc::new(Job {
        task,
        n_chunks,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(n_chunks),
        done_lock: Mutex::new(()),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    {
        let p = pool();
        let mut q = lock(&p.queue);
        q.push_back(Arc::clone(&job));
        p.work_cv.notify_all();
    }
    // Participate: the caller is one of the n workers.
    run_job_chunks(&job);
    // Wait for chunks claimed by pool workers.
    {
        let mut g = lock(&job.done_lock);
        while job.pending.load(Ordering::Acquire) != 0 {
            g = job.done_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
    // Drop the (exhausted) job from the queue if a worker didn't.
    {
        let p = pool();
        let mut q = lock(&p.queue);
        q.retain(|j| !Arc::ptr_eq(j, &job));
    }
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Serializes the unit tests that touch the process-wide pool: whatever
/// sets the thread budget (`set_num_threads`) or dispatches on it
/// (`run_chunks`, a kernel with a proven-parallel loop). Spawn and
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
    fn chunks_partition_the_range_exactly() {
        for extent in [1i64, 2, 3, 7, 16, 100, 101] {
            for n in 1..=8usize {
                let n = n.min(extent as usize);
                let mut covered = Vec::new();
                for c in 0..n {
                    let (lo, hi) = chunk_range(5, extent, c, n);
                    assert!(lo <= hi);
                    covered.extend(lo..hi);
                }
                let expect: Vec<i64> = (5..5 + extent).collect();
                assert_eq!(covered, expect, "extent {extent}, {n} chunks");
            }
        }
    }

    #[test]
    fn run_chunks_visits_every_chunk_once() {
        let _guard = test_threads_lock();
        let hits: Vec<AtomicI64> = (0..13).map(|_| AtomicI64::new(0)).collect();
        run_chunks(13, &|c| {
            hits[c].fetch_add(1, Ordering::Relaxed);
        });
        for (c, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {c}");
        }
    }

    #[test]
    fn pool_is_reused_across_jobs() {
        let _guard = test_threads_lock();
        set_num_threads(4);
        let dispatch = || {
            let plan = begin_parallel(true, 64, None).expect("four threads, 64 iterations");
            assert_eq!(plan.n_chunks, 4);
            run_chunks(plan.n_chunks, &|_| {});
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
    fn chunk_panics_propagate_to_the_caller() {
        let _guard = test_threads_lock();
        let result = std::panic::catch_unwind(|| {
            run_chunks(4, &|c| {
                if c == 2 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
        // The pool must survive a panicking job.
        run_chunks(4, &|_| {});
    }

    #[test]
    fn nested_dispatch_is_serialized() {
        // Inside a chunk, begin_parallel must refuse (serial-context).
        let _guard = test_threads_lock();
        let refused = AtomicUsize::new(0);
        run_chunks(2, &|_| {
            if begin_parallel(true, 8, None).is_none() {
                refused.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(refused.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn fallback_reasons_are_counted() {
        let c = ParCounters::new();
        assert!(begin_parallel(false, 8, Some(&c)).is_none());
        assert!(begin_parallel(true, 1, Some(&c)).is_none());
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

    #[test]
    fn par_stats_merge_sums_and_maxes() {
        let mut a = ParStats {
            loops_proven: 1,
            dispatches: 3,
            fallbacks: 2,
            fallback_reasons: vec![("unproven-race".into(), 2)],
            pool_threads: 4,
            threads_spawned: 3,
            ..ParStats::default()
        };
        let b = ParStats {
            loops_proven: 2,
            dispatches: 1,
            fallbacks: 3,
            fallback_reasons: vec![("unproven-race".into(), 1), ("single-thread".into(), 2)],
            pool_threads: 2,
            threads_spawned: 7,
            ..ParStats::default()
        };
        a.merge(&b);
        assert_eq!(a.loops_proven, 3);
        assert_eq!(a.dispatches, 4);
        assert_eq!(a.fallbacks, 5);
        assert_eq!(
            a.fallback_reasons,
            vec![("single-thread".into(), 2), ("unproven-race".into(), 3)]
        );
        assert_eq!(a.pool_threads, 4);
        assert_eq!(a.threads_spawned, 7);
    }
}
