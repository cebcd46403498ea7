//! Structured measurement-failure taxonomy.
//!
//! Real autotuning measurements fail constantly — builds error out,
//! schedules turn out invalid, runners hang or crash, outputs fail
//! verification, and infrastructure hiccups produce spurious one-off
//! failures. TVM's measure pipeline models these as distinct error
//! classes; this module is our equivalent, carried by every measurement
//! (`autotvm::measure::MeasureResult`) and persisted in every journal
//! record ([`crate::journal::TrialRecord`]).
//!
//! The taxonomy matters operationally: only [`MeasureError::Transient`]
//! failures are worth retrying, while the deterministic classes
//! (build/schedule/numeric) should be penalized and avoided by the
//! search.

use serde::{Deserialize, Serialize};

/// Why a measurement failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MeasureError {
    /// The build/compile pipeline failed for this configuration
    /// (deterministic: retrying cannot help).
    BuildFailed(String),
    /// The configuration does not describe a valid schedule for the
    /// kernel (out-of-space values, non-dividing tile factors, …).
    InvalidSchedule(String),
    /// The static schedule-safety analyzer rejected the lowered function
    /// before any compilation or measurement (out-of-bounds proof,
    /// parallel race). Deterministic and cheap: only analysis time was
    /// spent, and tuners may treat the verdict as free knowledge.
    StaticReject(String),
    /// The evaluation exceeded its wall-clock limit and was abandoned.
    Timeout {
        /// The enforced wall-clock limit, seconds (0 when unknown, e.g.
        /// when classified from a free-form message).
        limit_s: f64,
        /// The original error text, when the timeout was classified from
        /// a free-form message rather than enforced by the harness.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        message: Option<String>,
    },
    /// The evaluation panicked or the device/runner crashed.
    RuntimeCrash(String),
    /// The kernel ran but its output failed numeric verification.
    NumericMismatch(String),
    /// A spurious infrastructure failure (flaky node, dropped
    /// connection); retrying may succeed.
    Transient(String),
}

impl MeasureError {
    /// Short class name, stable across message changes (useful for
    /// aggregation and logs).
    pub fn kind(&self) -> &'static str {
        match self {
            MeasureError::BuildFailed(_) => "build_failed",
            MeasureError::InvalidSchedule(_) => "invalid_schedule",
            MeasureError::StaticReject(_) => "static_reject",
            MeasureError::Timeout { .. } => "timeout",
            MeasureError::RuntimeCrash(_) => "runtime_crash",
            MeasureError::NumericMismatch(_) => "numeric_mismatch",
            MeasureError::Transient(_) => "transient",
        }
    }

    /// The human-readable detail carried by the error.
    pub fn message(&self) -> &str {
        match self {
            MeasureError::BuildFailed(m)
            | MeasureError::InvalidSchedule(m)
            | MeasureError::StaticReject(m)
            | MeasureError::RuntimeCrash(m)
            | MeasureError::NumericMismatch(m)
            | MeasureError::Transient(m) => m,
            MeasureError::Timeout {
                message: Some(m), ..
            } => m,
            MeasureError::Timeout { message: None, .. } => "wall-clock timeout",
        }
    }

    /// True for failures where an immediate retry has a chance of
    /// succeeding (the harness's retry policy keys off this).
    pub fn is_transient(&self) -> bool {
        matches!(self, MeasureError::Transient(_))
    }

    /// Classify a legacy free-form error message into the taxonomy.
    ///
    /// Used by the `From<String>` conversions so call sites that used to
    /// build stringly-typed errors (`MeasureResult::fail("boom", …)`)
    /// keep working while gaining a best-effort class.
    pub fn classify(message: impl Into<String>) -> MeasureError {
        let message = message.into();
        let lower = message.to_lowercase();
        if lower.contains("timed out") || lower.contains("timeout") {
            MeasureError::Timeout {
                limit_s: 0.0,
                message: Some(message),
            }
        } else if lower.contains("transient")
            || lower.contains("flaky")
            || lower.contains("spurious")
        {
            MeasureError::Transient(message)
        } else if lower.contains("static") && (lower.contains("reject") || lower.contains("tir-")) {
            // Checked before the schedule heuristics so analyzer verdicts
            // ("statically rejected: TIR-OOB ...") keep their class.
            MeasureError::StaticReject(message)
        } else if lower.contains("build") || lower.contains("compil") || lower.contains("link") {
            // Checked before the schedule heuristics: a build error whose
            // text mentions the schedule is still a build failure.
            MeasureError::BuildFailed(message)
        } else if lower.contains("not in space")
            || lower.contains("invalid")
            || lower.contains("schedule")
            || lower.contains("reject")
        {
            MeasureError::InvalidSchedule(message)
        } else if lower.contains("mismatch") || lower.contains("numeric") || lower.contains("nan") {
            MeasureError::NumericMismatch(message)
        } else {
            MeasureError::RuntimeCrash(message)
        }
    }
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Timeout {
                message: Some(m), ..
            } => write!(f, "[timeout] {m}"),
            MeasureError::Timeout {
                limit_s,
                message: None,
            } => {
                write!(f, "[timeout] exceeded wall-clock limit of {limit_s} s")
            }
            other => write!(f, "[{}] {}", other.kind(), other.message()),
        }
    }
}

impl std::error::Error for MeasureError {}

impl From<String> for MeasureError {
    fn from(message: String) -> MeasureError {
        MeasureError::classify(message)
    }
}

impl From<&str> for MeasureError {
    fn from(message: &str) -> MeasureError {
        MeasureError::classify(message)
    }
}

/// Best-effort text of a panic payload (from `catch_unwind` or a failed
/// thread join).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_heuristics() {
        assert_eq!(
            MeasureError::classify("evaluation timed out").kind(),
            "timeout"
        );
        assert_eq!(
            MeasureError::classify("configuration {} not in space").kind(),
            "invalid_schedule"
        );
        assert_eq!(
            MeasureError::classify("tvm.build: compile error").kind(),
            "build_failed"
        );
        assert_eq!(
            MeasureError::classify("output mismatch at [3]").kind(),
            "numeric_mismatch"
        );
        assert_eq!(
            MeasureError::classify("transient device fault").kind(),
            "transient"
        );
        assert_eq!(MeasureError::classify("oom").kind(), "runtime_crash");
        assert_eq!(
            MeasureError::classify("statically rejected: TIR-OOB store out of bounds").kind(),
            "static_reject"
        );
        // "reject" alone (no static analyzer context) stays a schedule error.
        assert_eq!(
            MeasureError::classify("schedule rejected by runner").kind(),
            "invalid_schedule"
        );
        // Build errors win over schedule-ish words in the same message.
        assert_eq!(
            MeasureError::classify("build failed while lowering schedule").kind(),
            "build_failed"
        );
    }

    #[test]
    fn classified_timeout_keeps_original_message() {
        let t = MeasureError::classify("runner timed out after 3 s");
        assert_eq!(t.kind(), "timeout");
        assert_eq!(t.message(), "runner timed out after 3 s");
        assert_eq!(format!("{t}"), "[timeout] runner timed out after 3 s");
    }

    #[test]
    fn static_reject_is_deterministic_and_distinct_from_build() {
        let e = MeasureError::StaticReject("TIR-RACE-WW: parallel write overlap".into());
        assert_eq!(e.kind(), "static_reject");
        assert!(!e.is_transient());
        assert_eq!(
            format!("{e}"),
            "[static_reject] TIR-RACE-WW: parallel write overlap"
        );
        let s = serde_json::to_string(&e).expect("serialize");
        assert_eq!(e, serde_json::from_str::<MeasureError>(&s).expect("de"));
        assert_ne!(e.kind(), MeasureError::BuildFailed("x".into()).kind());
    }

    #[test]
    fn only_transient_is_retryable() {
        assert!(MeasureError::Transient("x".into()).is_transient());
        assert!(!MeasureError::BuildFailed("x".into()).is_transient());
        assert!(!MeasureError::StaticReject("x".into()).is_transient());
        assert!(!MeasureError::Timeout {
            limit_s: 1.0,
            message: None
        }
        .is_transient());
    }

    #[test]
    fn serde_roundtrip() {
        let e = MeasureError::Timeout {
            limit_s: 2.5,
            message: None,
        };
        let s = serde_json::to_string(&e).expect("serialize");
        let back: MeasureError = serde_json::from_str(&s).expect("deserialize");
        assert_eq!(e, back);
        // Pre-message-field journals (no `message` key) still load.
        let legacy: MeasureError =
            serde_json::from_str("{\"Timeout\":{\"limit_s\":1.5}}").expect("legacy");
        assert_eq!(
            legacy,
            MeasureError::Timeout {
                limit_s: 1.5,
                message: None
            }
        );
        let e = MeasureError::Transient("flaky node".into());
        let s = serde_json::to_string(&e).expect("serialize");
        assert_eq!(e, serde_json::from_str::<MeasureError>(&s).expect("de"));
    }

    #[test]
    fn display_carries_kind_and_message() {
        let e = MeasureError::BuildFailed("no codegen".into());
        assert_eq!(format!("{e}"), "[build_failed] no codegen");
        assert_eq!(e.message(), "no codegen");
    }
}
