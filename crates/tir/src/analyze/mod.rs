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

/// The full result of analyzing one lowered function.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Name of the analyzed function.
    pub function: String,
    /// All findings, bounds first then dependence.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// True when any finding is `Deny`.
    pub fn is_rejected(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    /// The Deny findings only.
    pub fn denials(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
    }

    /// One-line summary used as the `StaticReject` error message.
    pub fn reject_summary(&self) -> String {
        let n = self.denials().count();
        match self.denials().next() {
            Some(first) if n == 1 => format!("{}: {}", first.code, first.message),
            Some(first) => format!("{}: {} (+{} more)", first.code, first.message, n - 1),
            None => "accepted".to_string(),
        }
    }

    /// Rendered multi-line text report.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "schedule-safety report for `{}`: {}\n",
            self.function,
            if self.is_rejected() {
                "REJECT"
            } else {
                "accept"
            }
        );
        if self.diagnostics.is_empty() {
            out.push_str("  no findings\n");
        }
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        out
    }

    /// Machine-readable JSON document.
    pub fn to_json(&self) -> String {
        let diags: Vec<serde_json::Value> = self
            .diagnostics
            .iter()
            .map(|d| {
                serde_json::json!({
                    "code": d.code,
                    "severity": d.severity.label(),
                    "message": d.message,
                    "buffer": d.buffer,
                    "access": d.access,
                    "loop_var": d.loop_var,
                })
            })
            .collect();
        serde_json::json!({
            "function": self.function,
            "verdict": if self.is_rejected() { "reject" } else { "accept" },
            "diagnostics": diags,
        })
        .to_string()
    }
}

/// Run the full analyzer (bounds + parallel dependence) on a lowered
/// function.
pub fn check(func: &PrimFunc) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    bounds::check_bounds(func, &mut diagnostics);
    deps::check_parallel_deps(func, &mut diagnostics);
    AnalysisReport {
        function: func.name.clone(),
        diagnostics,
    }
}

/// Which stage of the pruning pipeline produced a denial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneStage {
    /// The pre-lowering schedule legality prelint (no IR built).
    Prelint,
    /// The full analyzer over the instantiated function.
    Analysis,
}

/// Verdict for one candidate in a batch prune.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Statically safe as far as the analyzer can tell.
    Admit,
    /// Must not be compiled or measured.
    Deny {
        /// Pipeline stage that produced the denial.
        stage: PruneStage,
        /// The `Deny` diagnostics justifying the verdict.
        diagnostics: Vec<Diagnostic>,
    },
}

/// Result of statically filtering a batch of candidates.
#[derive(Debug, Clone, Default)]
pub struct PruneReport {
    /// One verdict per input, in order.
    pub verdicts: Vec<Verdict>,
    /// Candidates admitted to compilation/measurement.
    pub admitted: u64,
    /// Candidates denied by the prelint (never instantiated).
    pub prelint_denied: u64,
    /// Candidates denied by the analyzer on the instantiated function.
    pub analyzer_denied: u64,
    /// Denial counts per stable diagnostic code, sorted by code.
    pub by_code: Vec<(String, u64)>,
}

impl PruneReport {
    /// Record an admission.
    pub fn admit(&mut self) {
        self.admitted += 1;
        self.verdicts.push(Verdict::Admit);
    }

    /// Record a denial, counting each distinct code once per candidate.
    pub fn deny(&mut self, stage: PruneStage, diagnostics: Vec<Diagnostic>) {
        match stage {
            PruneStage::Prelint => self.prelint_denied += 1,
            PruneStage::Analysis => self.analyzer_denied += 1,
        }
        let mut codes: Vec<&str> = diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .map(|d| d.code)
            .collect();
        codes.sort_unstable();
        codes.dedup();
        for code in codes {
            match self.by_code.iter_mut().find(|(c, _)| c == code) {
                Some((_, n)) => *n += 1,
                None => self.by_code.push((code.to_string(), 1)),
            }
        }
        self.by_code.sort();
        self.verdicts.push(Verdict::Deny { stage, diagnostics });
    }

    /// Total candidates examined.
    pub fn total(&self) -> u64 {
        self.admitted + self.prelint_denied + self.analyzer_denied
    }

    /// Fraction of candidates denied (0 when the batch was empty).
    pub fn fraction_denied(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.prelint_denied + self.analyzer_denied) as f64 / self.total() as f64
        }
    }

    /// True when candidate `i` was admitted.
    pub fn is_admitted(&self, i: usize) -> bool {
        matches!(self.verdicts.get(i), Some(Verdict::Admit))
    }
}

/// Statically filter a batch: run the cheap `prelint` first, and only
/// when it passes call `analyze` (which typically instantiates the
/// schedule and runs [`check`]). `analyze` returning `None` means the
/// candidate could not be instantiated even though the prelint passed —
/// it is denied under [`codes::UNANALYZABLE`].
pub fn prune_with<T>(
    items: &[T],
    mut prelint: impl FnMut(&T) -> Vec<Diagnostic>,
    mut analyze: impl FnMut(&T) -> Option<AnalysisReport>,
) -> PruneReport {
    let mut report = PruneReport::default();
    for item in items {
        let lint = prelint(item);
        if lint.iter().any(|d| d.severity == Severity::Deny) {
            report.deny(PruneStage::Prelint, lint);
            continue;
        }
        match analyze(item) {
            Some(analysis) if analysis.is_rejected() => {
                report.deny(PruneStage::Analysis, analysis.diagnostics);
            }
            Some(_) => report.admit(),
            None => report.deny(
                PruneStage::Analysis,
                vec![Diagnostic::deny(
                    codes::UNANALYZABLE,
                    "candidate failed to instantiate after a clean prelint",
                )],
            ),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_render_and_json() {
        let mut r = AnalysisReport {
            function: "mm".into(),
            diagnostics: vec![],
        };
        assert!(!r.is_rejected());
        assert!(r.render_text().contains("accept"));
        r.diagnostics.push(Diagnostic {
            buffer: Some("C".into()),
            access: Some("C[i] dim 0".into()),
            ..Diagnostic::deny(codes::OOB, "index exceeds extent")
        });
        r.diagnostics
            .push(Diagnostic::warn(codes::RACE_MAYBE, "unresolved dependence"));
        assert!(r.is_rejected());
        assert_eq!(r.denials().count(), 1);
        let text = r.render_text();
        assert!(text.contains("REJECT"));
        assert!(text.contains("deny[TIR-OOB]"));
        assert!(text.contains("warn[TIR-RACE-MAYBE]"));
        let json = r.to_json();
        assert!(json.contains("\"verdict\":\"reject\""));
        assert!(json.contains("TIR-OOB"));
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid json");
        assert_eq!(parsed.get("function").and_then(|v| v.as_str()), Some("mm"));
    }

    #[test]
    fn prune_batches_and_counts_by_code() {
        // Items are (prelint-denies, analyzer-denies) pairs.
        let items = [(false, false), (true, false), (false, true), (true, true)];
        let report = prune_with(
            &items,
            |&(lint, _)| {
                if lint {
                    vec![Diagnostic::deny(codes::TRIP_ZERO, "zero tile")]
                } else {
                    vec![]
                }
            },
            |&(_, bad)| {
                let mut r = AnalysisReport {
                    function: "f".into(),
                    diagnostics: vec![],
                };
                if bad {
                    r.diagnostics.push(Diagnostic::deny(codes::RACE_WW, "race"));
                }
                Some(r)
            },
        );
        assert_eq!(report.total(), 4);
        assert_eq!(report.admitted, 1);
        assert_eq!(report.prelint_denied, 2); // prelint wins over analysis
        assert_eq!(report.analyzer_denied, 1);
        assert!((report.fraction_denied() - 0.75).abs() < 1e-12);
        assert!(report.is_admitted(0));
        assert!(!report.is_admitted(1));
        assert_eq!(
            report.by_code,
            vec![
                (codes::RACE_WW.to_string(), 1),
                (codes::TRIP_ZERO.to_string(), 2)
            ]
        );
    }

    #[test]
    fn prune_denies_uninstantiable_after_clean_prelint() {
        let report = prune_with(&[()], |_| vec![], |_| None);
        assert_eq!(report.analyzer_denied, 1);
        assert!(matches!(
            &report.verdicts[0],
            Verdict::Deny {
                stage: PruneStage::Analysis,
                ..
            }
        ));
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
