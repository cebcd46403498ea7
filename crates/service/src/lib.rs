//! # tvm-service — supervised multi-tenant tuning service
//!
//! A thread-pool-based tuning server (std threads, channels and locks;
//! no async runtime) that accepts `(kernel, size, tuner,
//! budget, deadline)` jobs from many tenants and runs each as a
//! crash-recoverable session:
//!
//! - **Admission control** — a bounded job queue that rejects with a
//!   typed reason ([`RejectReason`]) when saturated; queue depth never
//!   grows without bound ([`queue`]).
//! - **Deadlines & cancel** — per-session wall-clock deadlines anchored
//!   at the persisted submission timestamp (downtime counts), plus
//!   best-effort tenant cancellation ([`session`]).
//! - **Circuit breakers** — per-kernel breakers open after storms of
//!   infrastructure failures, half-open with exponential backoff, and
//!   gate both new admissions and individual measurements ([`breaker`]).
//! - **Graceful degradation** — each real-engine session runs on a
//!   ladder of engines (optimized VM → scalar VM → reference
//!   interpreter) and demotes one rung after repeated engine failures
//!   ([`ladder`]).
//! - **Crash recovery** — job specs and per-trial journal records are
//!   fsync'd before they are load-bearing; a killed-and-restarted server
//!   re-adopts every in-flight session and finishes it with results
//!   identical to an uninterrupted run ([`service`]).
//!
//! The `serve` / `tune-client` binary pair speaks the JSON-lines
//! protocol in [`proto`] over localhost TCP.

#![warn(missing_docs)]

pub mod breaker;
pub mod job;
pub mod ladder;
pub mod proto;
pub mod queue;
pub mod service;
pub mod session;

pub use breaker::{Admission, BreakerBoard, BreakerConfig, BreakerStatus, CircuitBreaker};
pub use job::{EngineKind, JobSpec, RejectReason, SpaceKind, TunerKind};
pub use ladder::{build_ladder, EngineLadder, Rung};
pub use proto::{handle_line, handle_request, Request, Response};
pub use queue::JobQueue;
pub use service::{
    JobOutcome, JobState, RecoveryReport, ServiceConfig, ServiceStatus, TuningService,
};
pub use session::{
    now_unix_ms, run_session, SessionCtl, SessionEnd, SessionOptions, SessionReport, SessionTrial,
};

/// Enter `m` even if a holder panicked: the supervisor restarts panicked
/// workers, and one crashed session must not cascade into every later
/// caller of the job table, the queue or a breaker. Each critical section
/// under these locks is a single table, queue or state update.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
