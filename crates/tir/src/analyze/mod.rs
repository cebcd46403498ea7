//! Static schedule-safety analysis over lowered TIR.
//!
//! Runs before any compilation or measurement and answers one question:
//! *is it safe to execute this scheduled function?* Two passes feed a
//! shared diagnostic stream:
//!
//! * [`bounds`] — abstract interpretation over the integer [`interval`]
//!   domain, proving every buffer access in-bounds (or reporting the
//!   offending access path),
//! * [`deps`] — a dependence test over the iterations of
//!   `ForKind::Parallel` / `ForKind::Vectorized` loops, flagging
//!   write-write and read-write conflicts.
//!
//! Diagnostics carry stable codes (`TIR-OOB`, `TIR-RACE-WW`, ...) and a
//! [`Severity`]: `Deny` means the config must not be measured (the
//! evaluator surfaces it as `MeasureError::StaticReject`), `Warn` means
//! the analyzer could not prove safety but has no certificate of a bug.

pub mod bounds;
pub mod deps;
pub mod interval;
pub mod oracle;
pub mod prelint;

use crate::stmt::PrimFunc;
use std::fmt;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Could not prove safety; measurement may proceed.
    Warn,
    /// Proven (or unprovably) unsafe; the config must be rejected.
    Deny,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// Stable diagnostic codes emitted by the analyzer.
pub mod codes {
    /// A buffer access is provably out of bounds.
    pub const OOB: &str = "TIR-OOB";
    /// An index expression falls outside the analyzable fragment.
    pub const UNANALYZABLE: &str = "TIR-UNANALYZABLE";
    /// Two iterations of a parallel loop write the same element.
    pub const RACE_WW: &str = "TIR-RACE-WW";
    /// A parallel iteration reads an element another iteration writes.
    pub const RACE_RW: &str = "TIR-RACE-RW";
    /// A potential race that the dependence test could not resolve.
    pub const RACE_MAYBE: &str = "TIR-RACE-MAYBE";
    /// A split factor below 1 yields a loop with no iterations.
    pub const TRIP_ZERO: &str = "TIR-TRIP-ZERO";
    /// A vectorize factor exceeds the trip count of its loop.
    pub const VEC_OVER: &str = "TIR-VEC-OVER";
    /// A fuse of two axes that are not adjacent in the loop order.
    pub const FUSE_ILLEGAL: &str = "TIR-FUSE-ILLEGAL";
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable machine-readable code (see [`codes`]).
    pub code: &'static str,
    /// Deny or Warn.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Name of the buffer involved, when the finding is access-shaped.
    pub buffer: Option<String>,
    /// Rendered access path, e.g. `C[((i*16) + j)] dim 0`.
    pub access: Option<String>,
    /// Loop variable the finding is attached to (race findings).
    pub loop_var: Option<String>,
}

impl Diagnostic {
    /// Construct a Deny diagnostic with just a code and message.
    pub fn deny(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Deny,
            message: message.into(),
            buffer: None,
            access: None,
            loop_var: None,
        }
    }

    /// Construct a Warn diagnostic with just a code and message.
    pub fn warn(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warn,
            ..Diagnostic::deny(code, message)
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.label(),
            self.code,
            self.message
        )?;
        if let Some(access) = &self.access {
            write!(f, "\n  --> {access}")?;
        }
        Ok(())
    }
}

/// The distinct `Deny` codes of `diagnostics`, sorted: the codes one
/// denial is counted under.
pub fn deny_codes(diagnostics: &[Diagnostic]) -> Vec<&'static str> {
    let denials = diagnostics.iter().filter(|d| d.severity == Severity::Deny);
    let mut codes: Vec<&'static str> = denials.map(|d| d.code).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

/// The full result of analyzing one lowered function (or of prelinting
/// one configuration).
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// All findings, bounds first then dependence.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// True when any finding is `Deny`.
    pub fn is_rejected(&self) -> bool {
        self.denials().next().is_some()
    }

    /// The Deny findings only.
    pub fn denials(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
    }

    /// One-line summary of the denials: the evaluator's static gate
    /// renders a denied configuration's `StaticReject` message from it.
    pub fn reject_summary(&self) -> String {
        let n = self.denials().count();
        match self.denials().next() {
            Some(first) if n == 1 => format!("{}: {}", first.code, first.message),
            Some(first) => format!("{}: {} (+{} more)", first.code, first.message, n - 1),
            None => "accepted".to_string(),
        }
    }
}

/// Run the full analyzer (bounds + parallel dependence) on a lowered
/// function.
pub fn check(func: &PrimFunc) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    bounds::check_bounds(func, &mut diagnostics);
    deps::check_parallel_deps(func, &mut diagnostics);
    AnalysisReport { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_lists_its_denials_and_counts_each_code_once() {
        let mut r = AnalysisReport::default();
        assert!(!r.is_rejected());
        assert!(deny_codes(&r.diagnostics).is_empty());
        r.diagnostics.push(Diagnostic {
            buffer: Some("C".into()),
            access: Some("C[i] dim 0".into()),
            ..Diagnostic::deny(codes::OOB, "index exceeds extent")
        });
        r.diagnostics
            .push(Diagnostic::warn(codes::RACE_MAYBE, "unresolved dependence"));
        r.diagnostics.push(Diagnostic::deny(codes::RACE_WW, "race"));
        r.diagnostics.push(Diagnostic::deny(codes::OOB, "again"));
        assert!(r.is_rejected());
        assert_eq!(r.denials().count(), 3);
        assert_eq!(deny_codes(&r.diagnostics), [codes::OOB, codes::RACE_WW]);
        assert_eq!(
            r.diagnostics[0].to_string(),
            "deny[TIR-OOB]: index exceeds extent\n  --> C[i] dim 0"
        );
        assert_eq!(
            r.diagnostics[1].to_string(),
            "warn[TIR-RACE-MAYBE]: unresolved dependence"
        );
    }

    #[test]
    fn reject_summary_counts() {
        let mut r = AnalysisReport::default();
        assert_eq!(r.reject_summary(), "accepted");
        r.diagnostics.push(Diagnostic::deny(codes::OOB, "first"));
        assert_eq!(r.reject_summary(), "TIR-OOB: first");
        r.diagnostics
            .push(Diagnostic::deny(codes::RACE_WW, "second"));
        assert_eq!(r.reject_summary(), "TIR-OOB: first (+1 more)");
    }
}
