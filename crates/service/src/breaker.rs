//! Per-kernel circuit breakers.
//!
//! Failed *measurements* are a normal part of autotuning (bad schedules
//! fail to build, racy configs are rejected statically) — a breaker that
//! tripped on those would starve legitimate exploration. What a breaker
//! protects against is an *infrastructure* storm: consecutive timeouts,
//! runtime crashes and transient faults on one kernel, the signature of a
//! broken measurement backend rather than a bad configuration.
//!
//! State machine:
//!
//! ```text
//! Closed --(threshold consecutive infra failures)--> Open
//! Open   --(cooldown elapsed)--> HalfOpen
//! HalfOpen --(probe succeeds)--> Closed
//! HalfOpen --(probe fails)--> Open (cooldown doubled, capped)
//! ```
//!
//! Breakers are in-memory only: a restarted server starts every breaker
//! closed, and the first post-restart storm re-opens it within one
//! threshold. (Persisting open breakers would risk locking a kernel out
//! forever on a machine where the original cause is gone.)

use crate::lock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Breaker tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive infrastructure failures that open the breaker.
    pub failure_threshold: u32,
    /// Initial open-state cooldown, seconds.
    pub cooldown_s: f64,
    /// Cooldown multiplier applied on each re-open from half-open.
    pub cooldown_mult: f64,
    /// Cooldown ceiling, seconds.
    pub max_cooldown_s: f64,
    /// Concurrent trial evaluations allowed through a half-open breaker.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 8,
            cooldown_s: 0.25,
            cooldown_mult: 2.0,
            max_cooldown_s: 30.0,
            half_open_probes: 1,
        }
    }
}

/// Error kinds that count as infrastructure failures (everything else —
/// build errors, static rejections, numeric mismatches — is a property
/// of the *configuration* and must not trip the breaker).
pub fn is_infra_failure(kind: &str) -> bool {
    matches!(kind, "timeout" | "runtime_crash" | "transient")
}

enum State {
    Closed { consecutive: u32 },
    Open { until: Instant, cooldown_s: f64 },
    HalfOpen { in_flight: u32, cooldown_s: f64 },
}

/// What a caller holding a configuration to measure should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: measure normally.
    Proceed,
    /// Breaker half-open: measure, and report the outcome as a probe.
    Probe,
    /// Breaker open: wait this long (or do something else) and retry.
    Wait(Duration),
}

/// One kernel's breaker.
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
    /// Times this breaker has opened (monotone; surfaced in status).
    trips: AtomicU64,
}

impl CircuitBreaker {
    /// New, closed breaker.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: Mutex::new(State::Closed { consecutive: 0 }),
            trips: AtomicU64::new(0),
        }
    }

    /// Ask to run one evaluation now.
    pub fn try_acquire(&self) -> Admission {
        let mut state = lock(&self.state);
        match &mut *state {
            State::Closed { .. } => Admission::Proceed,
            State::Open { until, cooldown_s } => {
                let now = Instant::now();
                if now >= *until {
                    let cooldown_s = *cooldown_s;
                    *state = State::HalfOpen {
                        in_flight: 1,
                        cooldown_s,
                    };
                    Admission::Probe
                } else {
                    Admission::Wait(*until - now)
                }
            }
            State::HalfOpen {
                in_flight,
                cooldown_s,
            } => {
                if *in_flight < self.cfg.half_open_probes {
                    *in_flight += 1;
                    Admission::Probe
                } else {
                    // Probe slots are taken; wait roughly one cooldown.
                    Admission::Wait(Duration::from_secs_f64(cooldown_s.max(0.001)))
                }
            }
        }
    }

    /// Report one evaluation's outcome. `infra_failure` must be the
    /// [`is_infra_failure`] verdict on the error (false for success *and*
    /// for configuration-level failures); `probe` echoes whether
    /// [`CircuitBreaker::try_acquire`] returned [`Admission::Probe`].
    pub fn record(&self, infra_failure: bool, probe: bool) {
        let mut state = lock(&self.state);
        if probe {
            match &mut *state {
                State::HalfOpen { cooldown_s, .. } => {
                    if infra_failure {
                        // Probe failed: reopen with doubled cooldown.
                        let next = (*cooldown_s * self.cfg.cooldown_mult)
                            .clamp(self.cfg.cooldown_s, self.cfg.max_cooldown_s);
                        self.trips.fetch_add(1, Ordering::Relaxed);
                        *state = State::Open {
                            until: Instant::now() + Duration::from_secs_f64(next),
                            cooldown_s: next,
                        };
                    } else {
                        *state = State::Closed { consecutive: 0 };
                    }
                }
                // The breaker moved on (e.g. another probe already closed
                // it); fold the outcome in as a normal observation.
                _ => self.record_closed(&mut state, infra_failure),
            }
        } else {
            self.record_closed(&mut state, infra_failure);
        }
    }

    fn record_closed(&self, state: &mut State, infra_failure: bool) {
        if let State::Closed { consecutive } = state {
            if infra_failure {
                *consecutive += 1;
                if *consecutive >= self.cfg.failure_threshold {
                    self.trips.fetch_add(1, Ordering::Relaxed);
                    *state = State::Open {
                        until: Instant::now() + Duration::from_secs_f64(self.cfg.cooldown_s),
                        cooldown_s: self.cfg.cooldown_s,
                    };
                }
            } else {
                *consecutive = 0;
            }
        }
        // Open/HalfOpen: non-probe results (e.g. a replayed trial) do not
        // move the state machine.
    }

    /// Seconds until an open breaker half-opens (`None` when not open).
    pub fn retry_in_s(&self) -> Option<f64> {
        match &*lock(&self.state) {
            State::Open { until, .. } => Some(
                (*until)
                    .saturating_duration_since(Instant::now())
                    .as_secs_f64(),
            ),
            _ => None,
        }
    }

    /// Current state name for status reporting.
    pub fn state_name(&self) -> &'static str {
        match &*lock(&self.state) {
            State::Closed { .. } => "closed",
            State::Open { .. } => "open",
            State::HalfOpen { .. } => "half-open",
        }
    }

    /// Times this breaker has opened.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }
}

/// Status snapshot of one kernel's breaker.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakerStatus {
    /// Kernel name.
    pub kernel: String,
    /// `"closed"`, `"open"` or `"half-open"`.
    pub state: String,
    /// Times the breaker has opened since the server started.
    pub trips: u64,
}

/// All kernels' breakers, created on demand.
pub struct BreakerBoard {
    cfg: BreakerConfig,
    map: Mutex<HashMap<String, Arc<CircuitBreaker>>>,
}

impl BreakerBoard {
    /// Empty board; breakers materialize on first use.
    pub fn new(cfg: BreakerConfig) -> BreakerBoard {
        BreakerBoard {
            cfg,
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The breaker for `kernel` (created closed if absent).
    pub fn breaker(&self, kernel: &str) -> Arc<CircuitBreaker> {
        let mut map = lock(&self.map);
        Arc::clone(
            map.entry(kernel.to_string())
                .or_insert_with(|| Arc::new(CircuitBreaker::new(self.cfg))),
        )
    }

    /// Admission-time gate: `Some(retry_in_s)` when `kernel`'s breaker is
    /// fully open (half-open kernels accept submissions — the probe
    /// machinery runs at evaluation time).
    pub fn submission_block(&self, kernel: &str) -> Option<f64> {
        let map = lock(&self.map);
        map.get(kernel).and_then(|b| b.retry_in_s())
    }

    /// Snapshot for the status endpoint, sorted by kernel name.
    pub fn snapshot(&self) -> Vec<BreakerStatus> {
        let map = lock(&self.map);
        let mut out: Vec<BreakerStatus> = map
            .iter()
            .map(|(kernel, b)| BreakerStatus {
                kernel: kernel.clone(),
                state: b.state_name().to_string(),
                trips: b.trips(),
            })
            .collect();
        out.sort_by(|a, b| a.kernel.cmp(&b.kernel));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_s: 0.02,
            cooldown_mult: 2.0,
            max_cooldown_s: 1.0,
            half_open_probes: 1,
        }
    }

    #[test]
    fn infra_failure_classification() {
        assert!(is_infra_failure("timeout"));
        assert!(is_infra_failure("runtime_crash"));
        assert!(is_infra_failure("transient"));
        assert!(!is_infra_failure("build_failed"));
        assert!(!is_infra_failure("static_reject"));
        assert!(!is_infra_failure("numeric_mismatch"));
        assert!(!is_infra_failure("invalid_schedule"));
    }

    #[test]
    fn opens_after_threshold_and_half_opens_after_cooldown() {
        let b = CircuitBreaker::new(fast_cfg());
        for _ in 0..3 {
            assert_eq!(b.try_acquire(), Admission::Proceed);
            b.record(true, false);
        }
        assert_eq!(b.state_name(), "open");
        assert_eq!(b.trips(), 1);
        assert!(matches!(b.try_acquire(), Admission::Wait(_)));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(b.try_acquire(), Admission::Probe);
        assert_eq!(b.state_name(), "half-open");
        // Successful probe closes.
        b.record(false, true);
        assert_eq!(b.state_name(), "closed");
        assert_eq!(b.try_acquire(), Admission::Proceed);
    }

    #[test]
    fn failed_probe_reopens_with_backoff() {
        let b = CircuitBreaker::new(fast_cfg());
        for _ in 0..3 {
            b.try_acquire();
            b.record(true, false);
        }
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(b.try_acquire(), Admission::Probe);
        b.record(true, true);
        assert_eq!(b.state_name(), "open");
        assert_eq!(b.trips(), 2);
        // Doubled cooldown: 0.04 s now.
        let wait = b.retry_in_s().expect("open");
        assert!(wait > 0.02, "cooldown must have doubled, got {wait}");
    }

    #[test]
    fn config_failures_do_not_trip() {
        let b = CircuitBreaker::new(fast_cfg());
        for _ in 0..20 {
            assert_eq!(b.try_acquire(), Admission::Proceed);
            // build_failed etc. → is_infra_failure == false.
            b.record(false, false);
        }
        assert_eq!(b.state_name(), "closed");
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn success_resets_the_streak() {
        let b = CircuitBreaker::new(fast_cfg());
        b.record(true, false);
        b.record(true, false);
        b.record(false, false); // reset
        b.record(true, false);
        b.record(true, false);
        assert_eq!(b.state_name(), "closed", "streak was broken");
    }

    #[test]
    fn half_open_limits_probe_concurrency() {
        let b = CircuitBreaker::new(fast_cfg());
        for _ in 0..3 {
            b.try_acquire();
            b.record(true, false);
        }
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(b.try_acquire(), Admission::Probe);
        assert!(matches!(b.try_acquire(), Admission::Wait(_)));
    }

    #[test]
    fn board_gates_submissions_only_while_open() {
        let board = BreakerBoard::new(fast_cfg());
        assert!(board.submission_block("lu").is_none(), "unknown = closed");
        let b = board.breaker("lu");
        for _ in 0..3 {
            b.try_acquire();
            b.record(true, false);
        }
        assert!(board.submission_block("lu").is_some());
        assert!(board.submission_block("3mm").is_none(), "per-kernel");
        let snap = board.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].state, "open");
    }
}
