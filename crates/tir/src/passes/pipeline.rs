//! The optimization pass pipeline run between lowering and bytecode
//! compilation.
//!
//! [`optimize`] applies, in order: loop interchange into narrow and
//! strided rows ([`super::interchange`]), strength reduction
//! ([`super::strength`]), a simplification sweep (folds guards the
//! reduction proved constant), guard unswitching LICM
//! ([`super::licm`]), and a final simplification. After **every** pass
//! the structural verifier ([`super::verify`]) re-checks the function;
//! a pass that produces ill-formed IR aborts the pipeline with a
//! [`PipelineError`] naming the offending pass, and callers fall back
//! to the unoptimized function rather than run wrong code.
//!
//! Set the `TVM_DUMP_TIR` environment variable (to anything but `0` or
//! the empty string) to print the IR before and after each pass to
//! stderr via `tir::printer`.

use super::{interchange, licm, simplify, strength, verify};
use crate::stmt::{PrimFunc, Stmt};
use std::fmt;

/// Version tag of the optimization pipeline. Any change to the pass
/// list, pass ordering, or the semantics of an individual pass must
/// bump this string: it is folded into engine fingerprints so memoized
/// compile results and measurement journals are never silently reused
/// across pipeline changes.
pub const PIPELINE_VERSION: &str = "tir-opt/v2";

/// A pipeline failure: the named pass produced IR the verifier rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// Name of the pass whose output failed verification.
    pub pass: &'static str,
    /// The structural defect found.
    pub error: verify::VerifyError,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pass `{}` produced invalid IR: {}",
            self.pass, self.error
        )
    }
}

impl std::error::Error for PipelineError {}

/// IR snapshots around one pass application, for `--dump-tir` style
/// debugging and tests.
#[derive(Debug, Clone)]
pub struct PassTrace {
    /// Pass name.
    pub pass: &'static str,
    /// Rendered IR before the pass.
    pub before: String,
    /// Rendered IR after the pass.
    pub after: String,
    /// Whether the pass changed the function body.
    pub changed: bool,
}

type PassFn = fn(&Stmt) -> Stmt;

/// An ordered list of statement-level passes, each re-verified.
pub struct PassManager {
    passes: Vec<(&'static str, PassFn)>,
    dump: bool,
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager {
            passes: vec![
                ("interchange", interchange::interchange_rows),
                ("strength-reduce", strength::strength_reduce_stmt),
                ("simplify", simplify::simplify_stmt),
                ("licm", licm::hoist_invariant_guards),
                ("simplify-final", simplify::simplify_stmt),
            ],
            dump: dump_from_env(),
        }
    }
}

fn dump_from_env() -> bool {
    std::env::var_os("TVM_DUMP_TIR").is_some_and(|v| !v.is_empty() && v != *"0")
}

impl PassManager {
    /// An empty pass manager (useful for tests composing custom lists).
    pub fn empty() -> Self {
        PassManager {
            passes: vec![],
            dump: dump_from_env(),
        }
    }

    /// Append a named pass.
    pub fn add_pass(mut self, name: &'static str, pass: PassFn) -> Self {
        self.passes.push((name, pass));
        self
    }

    /// Apply one pass to `cur` in place and re-verify it.
    fn step(
        &self,
        cur: &mut PrimFunc,
        name: &'static str,
        pass: PassFn,
    ) -> Result<(), PipelineError> {
        cur.body = pass(&cur.body);
        verify::verify(cur).map_err(|error| PipelineError { pass: name, error })
    }

    /// Run the pipeline, collecting a [`PassTrace`] per pass: the IR is
    /// rendered before and after each one.
    pub fn run_traced(&self, func: &PrimFunc) -> Result<(PrimFunc, Vec<PassTrace>), PipelineError> {
        let mut cur = func.clone();
        let mut traces = Vec::with_capacity(self.passes.len());
        for &(name, pass) in &self.passes {
            let before = cur.body.to_string();
            self.step(&mut cur, name, pass)?;
            let after = cur.body.to_string();
            let changed = before != after;
            traces.push(PassTrace {
                pass: name,
                before,
                after,
                changed,
            });
        }
        Ok((cur, traces))
    }

    /// Run the pipeline. No IR text is rendered unless dumping is on:
    /// then each pass's before and after go to stderr.
    pub fn run(&self, func: &PrimFunc) -> Result<PrimFunc, PipelineError> {
        if !self.dump {
            let mut cur = func.clone();
            for &(name, pass) in &self.passes {
                self.step(&mut cur, name, pass)?;
            }
            return Ok(cur);
        }
        let (out, traces) = self.run_traced(func)?;
        for t in &traces {
            eprintln!(
                "=== [{}] pass `{}` ({}) ===",
                func.name,
                t.pass,
                if t.changed { "changed" } else { "no change" }
            );
            if t.changed {
                eprintln!("--- before ---\n{}--- after ---\n{}", t.before, t.after);
            }
        }
        Ok(out)
    }
}

/// Run the default optimization pipeline on a lowered function.
pub fn optimize(func: &PrimFunc) -> Result<PrimFunc, PipelineError> {
    PassManager::default().run(func)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use tvm_te::{compute, placeholder, reduce_axis, sum, DType, Schedule};

    fn matmul_func(split: i64) -> PrimFunc {
        let a = placeholder([8, 8], DType::F64, "A");
        let b = placeholder([8, 8], DType::F64, "B");
        let k = reduce_axis(0, 8, "k");
        let c = compute([8, 8], "C", {
            let (a, b, k) = (a.clone(), b.clone(), k.clone());
            move |i| {
                sum(
                    a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
                    std::slice::from_ref(&k),
                )
            }
        });
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let axes = (0..2).map(|d| c.axis(d)).collect::<Vec<_>>();
        let (xo, xi) = s.split(&c, &axes[1], split);
        let fused = s.fuse(&c, &xo, &xi);
        let _ = fused;
        lower(&s, &[a, b, c], "mm")
    }

    #[test]
    fn pipeline_runs_and_verifies() {
        let f = matmul_func(4);
        let (out, traces) = PassManager::default().run_traced(&f).expect("pipeline");
        assert_eq!(traces.len(), 5);
        assert!(verify::verify(&out).is_ok());
        // The untraced run renders no IR and arrives at the same function.
        let quiet = PassManager::default().run(&f).expect("pipeline");
        assert_eq!(quiet.body.to_string(), out.body.to_string());
        assert_eq!(quiet.params.len(), f.params.len());
    }

    #[test]
    fn trace_reports_change_flags() {
        let f = matmul_func(3);
        let (_, traces) = PassManager::default().run_traced(&f).expect("pipeline");
        for t in &traces {
            assert_eq!(t.changed, t.before != t.after);
            assert!(!t.before.is_empty());
        }
    }

    #[test]
    fn broken_pass_is_caught_by_verification() {
        fn clobber(_: &Stmt) -> Stmt {
            // Store to a buffer the function does not know about.
            let ghost = crate::buffer::Buffer::new("ghost", [1usize], DType::F64);
            Stmt::BufferStore {
                buffer: ghost,
                indices: vec![tvm_te::ops::int(0)],
                value: tvm_te::ops::int(0),
            }
        }
        let f = matmul_func(4);
        let err = PassManager::empty()
            .add_pass("clobber", clobber)
            .run(&f)
            .expect_err("verification must fire");
        assert_eq!(err.pass, "clobber");
    }
}
