//! Cross-iteration dependence checking for parallel and vectorized
//! loops.
//!
//! For each `ForKind::Parallel` / `ForKind::Vectorized` loop the pass
//! linearizes every buffer access in the loop body to a row-major
//! offset, splits it into a stride `s` along the parallel axis plus a
//! footprint interval over the enclosed serial loops, and runs a
//! distance test: a conflict exists iff two distinct iterations `t` and
//! `t + d` (`0 < |d| < extent`) can touch the same element, i.e.
//! `s*d` lands inside the difference of the two footprints.
//!
//! Certificates are only `Deny` when they are robust: the offset must
//! be affine in the parallel variable (verified at both ends of the
//! range), the two accesses must shift identically with every outer
//! loop variable, and neither access may sit under a guard that
//! mentions the parallel variable. Anything weaker demotes to `Warn`
//! (`TIR-RACE-MAYBE`): the analyzer never claims a race it cannot
//! prove, and never silently trusts one it cannot disprove either.

use super::interval::{eval_interval, Interval, IntervalEnv};
use super::{codes, Diagnostic, Severity};
use crate::analysis::eval_int;
use crate::stmt::{ForKind, PrimFunc, Stmt};
use std::collections::{HashMap, HashSet};
use tvm_te::{PrimExpr, Var};

/// One loop enclosing an access (outside or inside the parallel loop).
#[derive(Debug, Clone)]
struct LoopCtx {
    id: u64,
    min: i64,
    extent: i64,
}

/// A linearizable buffer access inside the body of a parallel loop.
struct Access {
    buffer: String,
    elem_strides: Vec<i64>,
    indices: Vec<PrimExpr>,
    is_write: bool,
    /// Loops strictly inside the parallel loop that enclose this access.
    inner: Vec<LoopCtx>,
    /// Whether any enclosing guard mentions the parallel variable.
    guarded_by_par: bool,
}

/// Offset decomposition of an access relative to the parallel variable.
struct Footprint {
    /// Offset delta per step of the parallel variable.
    s: i64,
    /// Affinity verified at the far end of the parallel range.
    affine: bool,
    /// Offset range over the inner loops, parallel/outer vars at min.
    range: Interval,
    /// Offset delta per step of each outer variable, outermost first.
    outer_strides: Vec<Option<i64>>,
}

/// Check every parallel/vectorized loop of `func`, appending findings.
pub fn check_parallel_deps(func: &PrimFunc, out: &mut Vec<Diagnostic>) {
    let mut seen = HashSet::new();
    visit(&func.body, &mut Vec::new(), out, &mut seen);
}

fn visit(
    stmt: &Stmt,
    outer: &mut Vec<LoopCtx>,
    out: &mut Vec<Diagnostic>,
    seen: &mut HashSet<(&'static str, String, String)>,
) {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            if matches!(kind, ForKind::Parallel | ForKind::Vectorized) && *extent >= 2 {
                analyze_loop(var, *min, *extent, *kind, body, outer, out, seen);
            }
            outer.push(LoopCtx {
                id: var.id,
                min: *min,
                extent: *extent,
            });
            visit(body, outer, out, seen);
            outer.pop();
        }
        Stmt::IfThenElse { then, else_, .. } => {
            visit(then, outer, out, seen);
            if let Some(e) = else_ {
                visit(e, outer, out, seen);
            }
        }
        Stmt::Seq(items) => {
            for s in items {
                visit(s, outer, out, seen);
            }
        }
        _ => {}
    }
}

#[allow(clippy::too_many_arguments)]
fn analyze_loop(
    par: &Var,
    par_min: i64,
    par_extent: i64,
    kind: ForKind,
    body: &Stmt,
    outer: &[LoopCtx],
    out: &mut Vec<Diagnostic>,
    seen: &mut HashSet<(&'static str, String, String)>,
) {
    let mut accesses = Vec::new();
    collect_accesses(body, par.id, &mut Vec::new(), false, &mut accesses);

    let footprints: Vec<Option<Footprint>> = accesses
        .iter()
        .map(|a| footprint(a, par.id, par_min, par_extent, outer))
        .collect();

    let mut emit = |code: &'static str, severity: Severity, buffer: &str, message: String| {
        if seen.insert((code, buffer.to_string(), par.name.clone())) {
            out.push(Diagnostic {
                code,
                severity,
                message,
                buffer: Some(buffer.to_string()),
                access: None,
                loop_var: Some(par.name.clone()),
            });
        }
    };

    let kw = kind.keyword();
    for i in 0..accesses.len() {
        for j in i..accesses.len() {
            let (a1, a2) = (&accesses[i], &accesses[j]);
            if a1.buffer != a2.buffer || !(a1.is_write || a2.is_write) {
                continue;
            }
            // Read-read never races; a self-paired read is skipped above,
            // and a self-paired write tests the access against its own
            // images in other iterations.
            let code = if a1.is_write && a2.is_write {
                codes::RACE_WW
            } else {
                codes::RACE_RW
            };
            let pair_kind = if code == codes::RACE_WW {
                "write-write"
            } else {
                "read-write"
            };
            let (Some(f1), Some(f2)) = (&footprints[i], &footprints[j]) else {
                emit(
                    codes::RACE_MAYBE,
                    Severity::Warn,
                    &a1.buffer,
                    format!(
                        "{kw} loop `{}`: accesses to `{}` are outside the \
                         analyzable fragment; cannot rule out a {pair_kind} race",
                        par.name, a1.buffer
                    ),
                );
                continue;
            };
            if f1.s != f2.s || !f1.affine || !f2.affine {
                emit(
                    codes::RACE_MAYBE,
                    Severity::Warn,
                    &a1.buffer,
                    format!(
                        "{kw} loop `{}`: accesses to `{}` move non-uniformly \
                         along the parallel axis; cannot rule out a {pair_kind} race",
                        par.name, a1.buffer
                    ),
                );
                continue;
            }
            if !conflicts(f1, f2, par_extent) {
                continue;
            }
            // A conflict certificate: robust only when both accesses
            // shift identically with every outer variable and no guard
            // keys on the parallel variable.
            let robust = !a1.guarded_by_par
                && !a2.guarded_by_par
                && f1
                    .outer_strides
                    .iter()
                    .zip(&f2.outer_strides)
                    .all(|(x, y)| matches!((x, y), (Some(a), Some(b)) if a == b));
            let (sev, final_code) = if robust {
                (Severity::Deny, code)
            } else {
                (Severity::Warn, codes::RACE_MAYBE)
            };
            emit(
                final_code,
                sev,
                &a1.buffer,
                format!(
                    "{kw} loop `{}`: distinct iterations touch the same \
                     element of `{}` ({pair_kind}, stride {} on the parallel axis)",
                    par.name, a1.buffer, f1.s
                ),
            );
        }
    }
}

/// Variable ids of `ForKind::Parallel` loops whose dependence analysis
/// comes back completely clean.
///
/// "Clean" means [`analyze_loop`] run over the loop in isolation emits
/// no diagnostic at all — neither a certified race nor an unresolved
/// `TIR-RACE-MAYBE`. Because the pairwise sweep covers every
/// write-write and read-write pair (including an access against its own
/// images in other iterations), an empty report proves that no element
/// is touched by two distinct iterations with a write involved: each
/// output element has a single writing iteration and no iteration reads
/// another's writes. Executing such a loop's iterations concurrently is
/// therefore bit-identical to sequential order.
///
/// Two conservative exclusions keep the proof sound:
/// - guard conditions are not modelled by the access collector, so a
///   body that reads a buffer inside an `if` condition is never proven;
/// - the per-loop analysis runs with a fresh dedup set, so a diagnostic
///   already reported for one loop cannot mask the same finding on
///   another loop that reuses the variable name.
///
/// Loops with extent < 2 have no pair of distinct iterations and are
/// trivially race-free.
pub fn race_free_parallel_vars(func: &PrimFunc) -> HashSet<u64> {
    let mut proven = HashSet::new();
    prove(&func.body, &mut Vec::new(), &mut proven);
    proven
}

fn prove(stmt: &Stmt, outer: &mut Vec<LoopCtx>, proven: &mut HashSet<u64>) {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            if *kind == ForKind::Parallel {
                if *extent < 2 {
                    proven.insert(var.id);
                } else if !reads_buffer_in_guard(body) {
                    let mut diags = Vec::new();
                    let mut seen = HashSet::new();
                    analyze_loop(
                        var, *min, *extent, *kind, body, outer, &mut diags, &mut seen,
                    );
                    if diags.is_empty() {
                        proven.insert(var.id);
                    }
                }
            }
            outer.push(LoopCtx {
                id: var.id,
                min: *min,
                extent: *extent,
            });
            prove(body, outer, proven);
            outer.pop();
        }
        Stmt::IfThenElse { then, else_, .. } => {
            prove(then, outer, proven);
            if let Some(e) = else_ {
                prove(e, outer, proven);
            }
        }
        Stmt::Seq(items) => {
            for s in items {
                prove(s, outer, proven);
            }
        }
        _ => {}
    }
}

/// Does any `if` condition under `stmt` read a buffer element? Such
/// reads are invisible to [`collect_accesses`], so they defeat the
/// race-freedom proof (but not the warn/deny sweep, which is allowed to
/// under-report).
fn reads_buffer_in_guard(stmt: &Stmt) -> bool {
    let mut found = false;
    stmt.walk(&mut |s| {
        if let Stmt::IfThenElse { cond, .. } = s {
            tvm_te::visitor::walk(cond, &mut |node| {
                if matches!(node, PrimExpr::TensorRead(..)) {
                    found = true;
                }
            });
        }
    });
    found
}

/// Does any nonzero iteration distance land the two footprints on a
/// common element?
fn conflicts(f1: &Footprint, f2: &Footprint, extent: i64) -> bool {
    let s = f1.s;
    if s == 0 {
        return f1.range.overlaps(&f2.range);
    }
    // s*d must fall in [r2.lo - r1.hi, r2.hi - r1.lo] for some
    // d in [-(E-1), E-1] \ {0}. Normalize to s > 0.
    let (mut dlo, mut dhi) = (
        f2.range.lo.saturating_sub(f1.range.hi),
        f2.range.hi.saturating_sub(f1.range.lo),
    );
    let s = if s < 0 {
        (dlo, dhi) = (-dhi, -dlo);
        -s
    } else {
        s
    };
    let d_min = -((-dlo).div_euclid(s)); // ceil(dlo / s)
    let d_max = dhi.div_euclid(s); // floor(dhi / s)
    let e = extent - 1;
    // Intersect [d_min, d_max] with [1, e] and [-e, -1].
    d_min.max(1) <= d_max.min(e) || d_min.max(-e) <= d_max.min(-1)
}

fn collect_accesses(
    stmt: &Stmt,
    par_id: u64,
    inner: &mut Vec<LoopCtx>,
    guarded: bool,
    out: &mut Vec<Access>,
) {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            body,
            ..
        } => {
            inner.push(LoopCtx {
                id: var.id,
                min: *min,
                extent: *extent,
            });
            collect_accesses(body, par_id, inner, guarded, out);
            inner.pop();
        }
        Stmt::IfThenElse { cond, then, else_ } => {
            let g = guarded || mentions_var(cond, par_id);
            collect_accesses(then, par_id, inner, g, out);
            if let Some(e) = else_ {
                collect_accesses(e, par_id, inner, g, out);
            }
        }
        Stmt::Seq(items) => {
            for s in items {
                collect_accesses(s, par_id, inner, guarded, out);
            }
        }
        Stmt::BufferStore {
            buffer,
            indices,
            value,
        } => {
            out.push(Access {
                buffer: buffer.name.clone(),
                elem_strides: row_major_strides(&buffer.shape),
                indices: indices.clone(),
                is_write: true,
                inner: inner.clone(),
                guarded_by_par: guarded,
            });
            for e in indices.iter().chain(std::iter::once(value)) {
                collect_reads(e, inner, guarded, out);
            }
        }
        Stmt::Nop => {}
    }
}

fn collect_reads(e: &PrimExpr, inner: &[LoopCtx], guarded: bool, out: &mut Vec<Access>) {
    tvm_te::visitor::walk(e, &mut |node| {
        if let PrimExpr::TensorRead(t, idx) = node {
            out.push(Access {
                buffer: t.name().to_string(),
                elem_strides: row_major_strides(t.shape()),
                indices: idx.clone(),
                is_write: false,
                inner: inner.to_vec(),
                guarded_by_par: guarded,
            });
        }
    });
}

fn mentions_var(e: &PrimExpr, id: u64) -> bool {
    let mut found = false;
    tvm_te::visitor::walk(e, &mut |node| {
        if let PrimExpr::Var(v) = node {
            found |= v.id == id;
        }
    });
    found
}

fn row_major_strides(shape: &[usize]) -> Vec<i64> {
    let mut strides = vec![1i64; shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * shape[d + 1] as i64;
    }
    strides
}

/// Linear offset of an access under a concrete variable assignment.
fn offset_at(a: &Access, env: &HashMap<u64, i64>) -> Option<i64> {
    let mut off = 0i64;
    for (d, idx) in a.indices.iter().enumerate().take(a.elem_strides.len()) {
        off = off.checked_add(eval_int(idx, env)?.checked_mul(a.elem_strides[d])?)?;
    }
    Some(off)
}

/// Decompose one access relative to the parallel variable.
fn footprint(
    a: &Access,
    par_id: u64,
    par_min: i64,
    par_extent: i64,
    outer: &[LoopCtx],
) -> Option<Footprint> {
    // Base point: every variable at its minimum.
    let mut base: HashMap<u64, i64> = HashMap::new();
    for l in outer.iter().chain(a.inner.iter()) {
        base.insert(l.id, l.min);
    }
    base.insert(par_id, par_min);

    let off0 = offset_at(a, &base)?;
    let mut env = base.clone();
    env.insert(par_id, par_min + 1);
    let s = offset_at(a, &env)?.checked_sub(off0)?;
    env.insert(par_id, par_min + par_extent - 1);
    let affine = offset_at(a, &env)?.checked_sub(off0)? == s.checked_mul(par_extent - 1)?;

    let mut outer_strides = Vec::with_capacity(outer.len());
    for l in outer {
        let mut env = base.clone();
        env.insert(l.id, l.min + 1);
        outer_strides.push(offset_at(a, &env).and_then(|o| o.checked_sub(off0)));
    }

    // Footprint over the inner loops: par and outer vars pinned at min.
    let mut vars: HashMap<u64, Interval> = HashMap::new();
    for l in outer {
        vars.insert(l.id, Interval::point(l.min));
    }
    vars.insert(par_id, Interval::point(par_min));
    for l in &a.inner {
        let iv = if l.extent <= 0 {
            Interval::empty()
        } else {
            Interval::new(l.min, l.min + l.extent - 1)
        };
        vars.insert(l.id, iv);
    }
    let ienv = IntervalEnv::with_vars(vars);
    let mut range = Interval::point(0);
    for (d, idx) in a.indices.iter().enumerate().take(a.elem_strides.len()) {
        let iv = eval_interval(idx, &ienv)?;
        range = range.add(&iv.mul(&Interval::point(a.elem_strides[d])));
    }

    Some(Footprint {
        s,
        affine,
        range,
        outer_strides,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use tvm_te::ops::float;
    use tvm_te::DType;

    fn run(f: &PrimFunc) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_parallel_deps(f, &mut out);
        out
    }

    fn for_(var: &Var, extent: i64, kind: ForKind, body: Stmt) -> Stmt {
        Stmt::For {
            var: var.clone(),
            min: 0,
            extent,
            kind,
            body: Box::new(body),
        }
    }

    fn func(body: Stmt, bufs: Vec<std::sync::Arc<Buffer>>) -> PrimFunc {
        PrimFunc {
            name: "t".into(),
            params: bufs,
            allocs: vec![],
            body,
        }
    }

    #[test]
    fn disjoint_rows_are_clean() {
        // parallel i: for j: C[i][j] = 0
        let (i, j) = (Var::index("i"), Var::index("j"));
        let c = Buffer::new("C", [8usize, 8], DType::F64);
        let store = Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![i.expr(), j.expr()],
            value: float(0.0),
        };
        let body = for_(
            &i,
            8,
            ForKind::Parallel,
            for_(&j, 8, ForKind::Serial, store),
        );
        assert!(run(&func(body, vec![c])).is_empty());
    }

    #[test]
    fn parallel_reduction_axis_is_denied() {
        // parallel k: C[0] = C[0] + A[k] — classic reduction race.
        let k = Var::index("k");
        let c = Buffer::new("C", [1usize], DType::F64);
        let a = tvm_te::placeholder([8], DType::F64, "A");
        let c_t = tvm_te::placeholder([1], DType::F64, "C");
        let store = Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![tvm_te::ops::int(0)],
            value: c_t.at(&[tvm_te::ops::int(0)]) + a.at(&[k.expr()]),
        };
        let body = for_(&k, 8, ForKind::Parallel, store);
        let diags = run(&func(body, vec![c]));
        assert!(diags
            .iter()
            .any(|d| d.code == codes::RACE_WW && d.severity == Severity::Deny));
        assert!(diags.iter().any(|d| d.code == codes::RACE_RW));
        assert!(diags.iter().all(|d| d.buffer.as_deref() == Some("C")));
    }

    #[test]
    fn overlapping_tiles_are_denied() {
        // parallel io: for ii in 0..6: B[io*4 + ii] = 0 — tiles overlap by 2.
        let (io, ii) = (Var::index("io"), Var::index("ii"));
        let b = Buffer::new("B", [32usize], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![io.expr() * 4 + ii.expr()],
            value: float(0.0),
        };
        let body = for_(
            &io,
            4,
            ForKind::Parallel,
            for_(&ii, 6, ForKind::Serial, store),
        );
        let diags = run(&func(body, vec![b]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::RACE_WW);
        assert_eq!(diags[0].severity, Severity::Deny);
        assert_eq!(diags[0].loop_var.as_deref(), Some("io"));
    }

    #[test]
    fn exact_tiles_are_clean() {
        // parallel io: for ii in 0..4: B[io*4 + ii] = 0 — exact partition.
        let (io, ii) = (Var::index("io"), Var::index("ii"));
        let b = Buffer::new("B", [16usize], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![io.expr() * 4 + ii.expr()],
            value: float(0.0),
        };
        let body = for_(
            &io,
            4,
            ForKind::Parallel,
            for_(&ii, 4, ForKind::Serial, store),
        );
        assert!(run(&func(body, vec![b])).is_empty());
    }

    #[test]
    fn vectorized_elementwise_is_clean() {
        // for i: vectorized j: C[i][j] = A[i][j] + 1
        let (i, j) = (Var::index("i"), Var::index("j"));
        let c = Buffer::new("C", [8usize, 8], DType::F64);
        let a = tvm_te::placeholder([8, 8], DType::F64, "A");
        let store = Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![i.expr(), j.expr()],
            value: a.at(&[i.expr(), j.expr()]) + float(1.0),
        };
        let body = for_(
            &i,
            8,
            ForKind::Serial,
            for_(&j, 8, ForKind::Vectorized, store),
        );
        assert!(run(&func(body, vec![c])).is_empty());
    }

    #[test]
    fn vectorized_reduction_axis_is_denied() {
        // for i: vectorized k: C[i] = C[i] + A[i][k]
        let (i, k) = (Var::index("i"), Var::index("k"));
        let c = Buffer::new("C", [8usize], DType::F64);
        let a = tvm_te::placeholder([8, 8], DType::F64, "A");
        let c_t = tvm_te::placeholder([8], DType::F64, "C");
        let store = Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![i.expr()],
            value: c_t.at(&[i.expr()]) + a.at(&[i.expr(), k.expr()]),
        };
        let body = for_(
            &i,
            8,
            ForKind::Serial,
            for_(&k, 8, ForKind::Vectorized, store),
        );
        let diags = run(&func(body, vec![c]));
        assert!(diags
            .iter()
            .any(|d| d.code == codes::RACE_WW && d.severity == Severity::Deny));
    }

    #[test]
    fn guard_on_parallel_var_demotes_to_warn() {
        // parallel i: if i < 1 { B[0] = 0 } — only one iteration writes,
        // which the distance test cannot see; must warn, not deny.
        let i = Var::index("i");
        let b = Buffer::new("B", [4usize], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![tvm_te::ops::int(0)],
            value: float(0.0),
        };
        let body = for_(
            &i,
            8,
            ForKind::Parallel,
            Stmt::IfThenElse {
                cond: tvm_te::ops::cmp::lt(i.expr(), tvm_te::ops::int(1)),
                then: Box::new(store),
                else_: None,
            },
        );
        let diags = run(&func(body, vec![b]));
        assert!(!diags.is_empty());
        assert!(diags
            .iter()
            .all(|d| d.severity == Severity::Warn && d.code == codes::RACE_MAYBE));
    }

    #[test]
    fn race_freedom_proof_accepts_disjoint_rows() {
        // parallel i: for j: C[i][j] = 0 — each row owned by one iteration.
        let (i, j) = (Var::index("i"), Var::index("j"));
        let c = Buffer::new("C", [8usize, 8], DType::F64);
        let store = Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![i.expr(), j.expr()],
            value: float(0.0),
        };
        let body = for_(
            &i,
            8,
            ForKind::Parallel,
            for_(&j, 8, ForKind::Serial, store),
        );
        let proven = race_free_parallel_vars(&func(body, vec![c]));
        assert!(proven.contains(&i.id));
    }

    #[test]
    fn race_freedom_proof_rejects_reduction_and_maybe() {
        // parallel k: C[0] = C[0] + A[k] — certified race, never proven.
        let k = Var::index("k");
        let c = Buffer::new("C", [1usize], DType::F64);
        let a = tvm_te::placeholder([8], DType::F64, "A");
        let c_t = tvm_te::placeholder([1], DType::F64, "C");
        let store = Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![tvm_te::ops::int(0)],
            value: c_t.at(&[tvm_te::ops::int(0)]) + a.at(&[k.expr()]),
        };
        let body = for_(&k, 8, ForKind::Parallel, store);
        let proven = race_free_parallel_vars(&func(body, vec![c]));
        assert!(!proven.contains(&k.id));
    }

    #[test]
    fn race_freedom_proof_is_per_loop_not_deduped() {
        // Two sibling parallel loops over same-named vars: the first
        // races, the second is clean. The warn/deny sweep dedups by
        // (code, buffer, var-name); the proof must still separate them.
        let i1 = Var::index("i");
        let i2 = Var::index("i");
        let b = Buffer::new("B", [8usize], DType::F64);
        let racy = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![tvm_te::ops::int(0)],
            value: float(0.0),
        };
        let clean = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![i2.expr()],
            value: float(0.0),
        };
        let body = Stmt::Seq(vec![
            for_(&i1, 8, ForKind::Parallel, racy),
            for_(&i2, 8, ForKind::Parallel, clean),
        ]);
        let proven = race_free_parallel_vars(&func(body, vec![b]));
        assert!(!proven.contains(&i1.id));
        assert!(proven.contains(&i2.id));
    }

    #[test]
    fn race_freedom_proof_refuses_buffer_reads_in_guards() {
        // parallel i: if A[i] < 0 { C[i] = 0 } — the guard read is not
        // collected as an access, so the proof must decline.
        let i = Var::index("i");
        let c = Buffer::new("C", [8usize], DType::F64);
        let a = tvm_te::placeholder([8], DType::F64, "A");
        let store = Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![i.expr()],
            value: float(0.0),
        };
        let body = for_(
            &i,
            8,
            ForKind::Parallel,
            Stmt::IfThenElse {
                cond: tvm_te::ops::cmp::lt(a.at(&[i.expr()]), float(0.0)),
                then: Box::new(store),
                else_: None,
            },
        );
        let proven = race_free_parallel_vars(&func(body, vec![c]));
        assert!(!proven.contains(&i.id));
    }

    #[test]
    fn trivial_extent_parallel_loop_is_proven() {
        // parallel i in 0..1: C[0] += 1 — no pair of iterations exists.
        let i = Var::index("i");
        let c = Buffer::new("C", [1usize], DType::F64);
        let c_t = tvm_te::placeholder([1], DType::F64, "C");
        let store = Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![tvm_te::ops::int(0)],
            value: c_t.at(&[tvm_te::ops::int(0)]) + float(1.0),
        };
        let body = for_(&i, 1, ForKind::Parallel, store);
        let proven = race_free_parallel_vars(&func(body, vec![c]));
        assert!(proven.contains(&i.id));
    }

    #[test]
    fn serial_loops_are_ignored() {
        // Serial reduction is fine.
        let k = Var::index("k");
        let c = Buffer::new("C", [1usize], DType::F64);
        let c_t = tvm_te::placeholder([1], DType::F64, "C");
        let store = Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![tvm_te::ops::int(0)],
            value: c_t.at(&[tvm_te::ops::int(0)]) + float(1.0),
        };
        let body = for_(&k, 8, ForKind::Serial, store);
        assert!(run(&func(body, vec![c])).is_empty());
    }
}
