//! JSON-lines wire protocol between `serve` and `tune-client`.
//!
//! One request per line, one response per line. The protocol layer is a
//! pure function over [`TuningService`] so integration tests can drive
//! the full request surface without sockets, and the binaries reduce to
//! framing.

use crate::job::{JobSpec, RejectReason};
use crate::service::{JobOutcome, ServiceStatus, TuningService};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Client → server messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Request {
    /// Submit a job for admission.
    Submit {
        /// The job to admit.
        spec: JobSpec,
    },
    /// Aggregate service health.
    Status,
    /// Fetch a job's terminal outcome if it has one (non-blocking).
    Outcome {
        /// Job id returned by `Submit`.
        id: u64,
    },
    /// Block until a job reaches a terminal state, up to `timeout_s`.
    Wait {
        /// Job id returned by `Submit`.
        id: u64,
        /// Longest time to wait, seconds.
        timeout_s: f64,
    },
    /// Request cancellation of a queued/running job.
    Cancel {
        /// Job id returned by `Submit`.
        id: u64,
    },
    /// Ask the server to shut down gracefully.
    Shutdown,
}

/// Server → client messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Response {
    /// The job was durably admitted.
    Accepted {
        /// Id to poll/wait on.
        id: u64,
    },
    /// The job was refused; see the typed reason.
    Rejected {
        /// Why admission failed.
        reason: RejectReason,
    },
    /// Health snapshot.
    Status {
        /// The snapshot.
        status: ServiceStatus,
    },
    /// Outcome query result (`None` while the job is in flight or
    /// unknown).
    Outcome {
        /// The terminal outcome, if reached.
        outcome: Option<JobOutcome>,
    },
    /// Result of a cancel request.
    Cancelled {
        /// True if the job existed and was still cancellable.
        ok: bool,
    },
    /// Acknowledges `Shutdown`; the connection closes after this.
    ShuttingDown,
    /// The request line could not be parsed or served.
    Error {
        /// Human-readable explanation.
        message: String,
    },
}

/// Serve one request. `Shutdown` is acknowledged but *not* executed here
/// — the caller owns the service lifecycle and calls
/// [`TuningService::shutdown`] after flushing the reply.
pub fn handle_request(service: &TuningService, request: Request) -> Response {
    match request {
        Request::Submit { spec } => match service.submit(spec) {
            Ok(id) => Response::Accepted { id },
            Err(reason) => Response::Rejected { reason },
        },
        Request::Status => Response::Status {
            status: service.status(),
        },
        Request::Outcome { id } => Response::Outcome {
            outcome: service.outcome(id),
        },
        Request::Wait { id, timeout_s } => Response::Outcome {
            outcome: service.wait(
                id,
                Duration::try_from_secs_f64(timeout_s.max(0.0)).unwrap_or(Duration::MAX),
            ),
        },
        Request::Cancel { id } => Response::Cancelled {
            ok: service.cancel(id),
        },
        Request::Shutdown => Response::ShuttingDown,
    }
}

/// Parse one request line and serve it.
pub fn handle_line(service: &TuningService, line: &str) -> Response {
    match serde_json::from_str::<Request>(line) {
        Ok(req) => handle_request(service, req),
        Err(e) => Response::Error {
            message: format!("bad request: {e}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{JobState, ServiceConfig};

    #[test]
    fn requests_round_trip_through_json() {
        let req = Request::Submit {
            spec: JobSpec::new("t", "lu", "mini"),
        };
        let json = serde_json::to_string(&req).expect("serialize");
        assert!(json.contains("\"type\":\"submit\""));
        let back: Request = serde_json::from_str(&json).expect("deserialize");
        assert!(matches!(back, Request::Submit { .. }));

        let wait = serde_json::to_string(&Request::Wait {
            id: 3,
            timeout_s: 1.5,
        })
        .expect("serialize");
        let back: Request = serde_json::from_str(&wait).expect("deserialize");
        assert!(matches!(back, Request::Wait { id: 3, .. }));
    }

    #[test]
    fn full_request_surface_without_sockets() {
        let dir = std::env::temp_dir()
            .join("tvm-service-proto-tests")
            .join("surface");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            workers: 2,
            poll_ms: 2,
            ..ServiceConfig::default()
        };
        let (svc, _) = TuningService::open(&dir, cfg).expect("open");

        let mut spec = JobSpec::new("t", "lu", "mini");
        spec.max_evals = 4;
        spec.batch = 2;
        let id = match handle_request(&svc, Request::Submit { spec }) {
            Response::Accepted { id } => id,
            other => panic!("expected acceptance, got {other:?}"),
        };
        let outcome = match handle_request(
            &svc,
            Request::Wait {
                id,
                timeout_s: 30.0,
            },
        ) {
            Response::Outcome { outcome } => outcome.expect("terminal"),
            other => panic!("expected outcome, got {other:?}"),
        };
        assert_eq!(outcome.state, JobState::Completed);

        match handle_request(&svc, Request::Status) {
            Response::Status { status } => assert_eq!(status.completed, 1),
            other => panic!("expected status, got {other:?}"),
        }
        match handle_line(&svc, "{not json") {
            Response::Error { .. } => {}
            other => panic!("expected error, got {other:?}"),
        }
        assert!(matches!(
            handle_request(&svc, Request::Shutdown),
            Response::ShuttingDown
        ));
        svc.shutdown();
    }

    /// A timeout no `Duration` holds waits without a deadline instead of
    /// panicking the connection's thread (and with it the server).
    #[test]
    fn a_wait_longer_than_any_duration_is_served() {
        let dir = std::env::temp_dir()
            .join("tvm-service-proto-tests")
            .join("huge-wait");
        let _ = std::fs::remove_dir_all(&dir);
        let (svc, _) = TuningService::open(&dir, ServiceConfig::default()).expect("open");
        for timeout_s in ["1e20", "1e300"] {
            let line = format!(r#"{{"type":"wait","id":999,"timeout_s":{timeout_s}}}"#);
            match handle_line(&svc, &line) {
                Response::Outcome { outcome: None } => {}
                other => panic!("expected an empty outcome, got {other:?}"),
            }
        }
        svc.shutdown();
    }
}
