//! Cross-iteration dependence checking for parallel and vectorized
//! loops.
//!
//! For each `ForKind::Parallel` / `ForKind::Vectorized` loop the pass
//! collects every buffer access in the loop body together with the `if`
//! guards around it (negated on `else` branches). Each index of an
//! access, and its row-major offset, splits into a stride `s` along the
//! parallel axis plus a range over the enclosed serial loops, narrowed
//! by the guards that mention only those loops (the facts `bounds`
//! uses). A pair of accesses conflicts iff two distinct iterations `t`
//! and `t + d` (`0 < |d| < extent`) can touch the same element, i.e.
//! `s*d` lands inside the difference of the two ranges. Two tests decide
//! a pair:
//!
//! * **per dimension**, first: some index moves by the same stride along
//!   the parallel axis and by the same shift along every outer loop in
//!   both accesses, and its ranges admit no distance `d`. Distinct
//!   iterations then differ in that index, so they never meet, provided
//!   every index of both accesses stays inside its extent (an index past
//!   its extent aliases the next row);
//! * **linear** otherwise: the same distance test on the row-major
//!   offsets, which sees any aliasing but mixes dimensions (a stride-1
//!   column against a row range produces every distance).
//!
//! A pair is clean only when both accesses also shift identically with
//! every outer loop variable: otherwise one outer iteration can line up
//! what another keeps apart. Certificates are only `Deny` when they are
//! robust: the offset must be affine in the parallel variable (verified
//! at both ends of the range), the two accesses must shift identically
//! with every outer loop variable, and neither access may sit under a
//! guard that mentions the parallel variable. Anything weaker demotes to
//! `Warn` (`TIR-RACE-MAYBE`): the analyzer never claims a race it cannot
//! prove, and never silently trusts one it cannot disprove either.

use super::interval::{constraints_from_guard, eval_interval, Interval, IntervalEnv};
use super::{codes, Diagnostic, Severity};
use crate::analysis::eval_int_with;
use crate::stmt::{ForKind, PrimFunc, Stmt};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tvm_te::{PrimExpr, Var};

/// One loop enclosing an access (outside or inside the parallel loop).
#[derive(Debug, Clone)]
struct LoopCtx {
    id: u64,
    min: i64,
    extent: i64,
}

impl LoopCtx {
    fn range(&self) -> Interval {
        if self.extent <= 0 {
            Interval::empty()
        } else {
            Interval::new(self.min, self.min + self.extent - 1)
        }
    }
}

/// A buffer access inside the body of a parallel loop.
struct Access {
    buffer: String,
    shape: Vec<usize>,
    indices: Vec<PrimExpr>,
    is_write: bool,
    /// Loops strictly inside the parallel loop that enclose this access.
    inner: Vec<LoopCtx>,
    /// Guards inside the parallel loop that enclose this access, negated
    /// on `else` branches.
    guards: Vec<PrimExpr>,
}

/// How one index of an access, or its row-major offset, moves relative
/// to the parallel variable.
struct Footprint {
    /// Delta per step of the parallel variable.
    s: i64,
    /// Delta at the far end of the parallel range.
    far: i64,
    /// Range over the inner loops under the inner-only guards,
    /// parallel/outer vars at min.
    range: Interval,
    /// Delta per step of each outer variable, outermost first.
    outer_strides: Vec<Option<i64>>,
}

impl Footprint {
    /// Whether the delta at the far end is the stride times the distance.
    fn affine(&self, extent: i64) -> bool {
        self.s.checked_mul(extent - 1) == Some(self.far)
    }
}

/// The footprints of one access.
struct AccessFootprint {
    /// Per dimension, in index order.
    dims: Vec<Footprint>,
    /// Over the row-major offset.
    linear: Footprint,
    /// Every index proven inside its extent over the whole loop nest.
    in_bounds: bool,
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
    collect_accesses(body, &mut Vec::new(), &mut Vec::new(), &mut accesses);

    // Only a buffer written in the loop can race.
    let written: HashSet<&str> = (accesses.iter().filter(|a| a.is_write))
        .map(|a| a.buffer.as_str())
        .collect();
    let footprints: Vec<Option<AccessFootprint>> = (accesses.iter())
        .map(|a| {
            let f = || footprint(a, par.id, par_min, par_extent, outer);
            written.contains(a.buffer.as_str()).then(f).flatten()
        })
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
    let aligned =
        |x: &Footprint, y: &Footprint| x.s == y.s && x.affine(par_extent) && y.affine(par_extent);
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
            let apart_in_some_dim = |(x, y): (&Footprint, &Footprint)| {
                aligned(x, y) && same_outer_shifts(x, y) && !conflicts(x, y, par_extent)
            };
            if f1.in_bounds && f2.in_bounds && f1.dims.iter().zip(&f2.dims).any(apart_in_some_dim) {
                continue;
            }
            let (l1, l2) = (&f1.linear, &f2.linear);
            if !aligned(l1, l2) {
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
            let same_outer = same_outer_shifts(l1, l2);
            if !conflicts(l1, l2, par_extent) {
                if !same_outer {
                    emit(
                        codes::RACE_MAYBE,
                        Severity::Warn,
                        &a1.buffer,
                        format!(
                            "{kw} loop `{}`: accesses to `{}` shift apart along \
                             an outer loop; cannot rule out a {pair_kind} race",
                            par.name, a1.buffer
                        ),
                    );
                }
                continue;
            }
            // A conflict certificate: robust only when both accesses
            // shift identically with every outer variable and no guard
            // keys on the parallel variable.
            let robust = same_outer
                && ![a1, a2]
                    .iter()
                    .any(|a| a.guards.iter().any(|g| mentions(g, |v| v == par.id)));
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
                    par.name, a1.buffer, l1.s
                ),
            );
        }
    }
}

/// Do the two shift identically with every outer variable?
fn same_outer_shifts(x: &Footprint, y: &Footprint) -> bool {
    (x.outer_strides.iter().zip(&y.outer_strides))
        .all(|(x, y)| matches!((x, y), (Some(a), Some(b)) if a == b))
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
    inner: &mut Vec<LoopCtx>,
    guards: &mut Vec<PrimExpr>,
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
            collect_accesses(body, inner, guards, out);
            inner.pop();
        }
        Stmt::IfThenElse { cond, then, else_ } => {
            guards.push(cond.clone());
            collect_accesses(then, inner, guards, out);
            guards.pop();
            if let Some(e) = else_ {
                guards.push(PrimExpr::Not(Arc::new(cond.clone())));
                collect_accesses(e, inner, guards, out);
                guards.pop();
            }
        }
        Stmt::Seq(items) => {
            for s in items {
                collect_accesses(s, inner, guards, out);
            }
        }
        Stmt::BufferStore {
            buffer,
            indices,
            value,
        } => {
            let mut push = |name: &str, shape: &[usize], indices: &[PrimExpr], is_write| {
                out.push(Access {
                    buffer: name.to_string(),
                    shape: shape.to_vec(),
                    indices: indices.to_vec(),
                    is_write,
                    inner: inner.clone(),
                    guards: guards.clone(),
                })
            };
            push(&buffer.name, &buffer.shape, indices, true);
            for e in indices.iter().chain(std::iter::once(value)) {
                tvm_te::visitor::walk(e, &mut |node| {
                    if let PrimExpr::TensorRead(t, idx) = node {
                        push(t.name(), t.shape(), idx, false);
                    }
                });
            }
        }
        Stmt::Nop => {}
    }
}

/// Does `e` mention a variable whose id satisfies `pred`?
fn mentions(e: &PrimExpr, pred: impl Fn(u64) -> bool) -> bool {
    let mut found = false;
    tvm_te::visitor::walk(e, &mut |node| {
        if let PrimExpr::Var(v) = node {
            found |= pred(v.id);
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

/// Decompose one access relative to the parallel variable, per index and
/// over its row-major offset.
fn footprint(
    a: &Access,
    par_id: u64,
    par_min: i64,
    par_extent: i64,
    outer: &[LoopCtx],
) -> Option<AccessFootprint> {
    // Base point: every variable at its minimum.
    let mut base: HashMap<u64, i64> = HashMap::new();
    for l in outer.iter().chain(a.inner.iter()) {
        base.insert(l.id, l.min);
    }
    base.insert(par_id, par_min);

    // Ranges over the inner loops, narrowed by the guards that mention
    // only inner loops: a guard on the parallel or an outer variable
    // would hold only at the point the range is taken.
    let mut vars: HashMap<u64, Interval> = a.inner.iter().map(|l| (l.id, l.range())).collect();
    let mut env = IntervalEnv::with_vars(vars.clone());
    for g in &a.guards {
        if !mentions(g, |v| !vars.contains_key(&v)) {
            let mut facts = Vec::new();
            constraints_from_guard(g, &env, &mut facts);
            env.constraints.extend(facts);
        }
    }
    // `vars` keeps the inner ranges; `env` pins the rest at their minima.
    for l in outer {
        env.vars.insert(l.id, Interval::point(l.min));
        vars.insert(l.id, l.range());
    }
    env.vars.insert(par_id, Interval::point(par_min));
    vars.insert(par_id, Interval::new(par_min, par_min + par_extent - 1));

    let far_end = par_min + par_extent - 1;
    let mut dims = Vec::with_capacity(a.indices.len());
    for idx in &a.indices {
        let at = |id: u64, v: i64| {
            eval_int_with(idx, &|x| {
                if x == id {
                    Some(v)
                } else {
                    base.get(&x).copied()
                }
            })
        };
        let v0 = at(par_id, par_min)?;
        dims.push(Footprint {
            s: at(par_id, par_min + 1)?.checked_sub(v0)?,
            far: at(par_id, far_end)?.checked_sub(v0)?,
            range: eval_interval(idx, &env)?,
            outer_strides: (outer.iter())
                .map(|l| at(l.id, l.min + 1).and_then(|v| v.checked_sub(v0)))
                .collect(),
        });
    }

    let mut linear = Footprint {
        s: 0,
        far: 0,
        range: Interval::point(0),
        outer_strides: vec![Some(0); outer.len()],
    };
    for (f, w) in dims.iter().zip(row_major_strides(&a.shape)) {
        linear.s = linear.s.checked_add(f.s.checked_mul(w)?)?;
        linear.far = linear.far.checked_add(f.far.checked_mul(w)?)?;
        linear.range = linear.range.add(&f.range.mul(&Interval::point(w)));
        for (o, d) in linear.outer_strides.iter_mut().zip(&f.outer_strides) {
            *o = o
                .zip(*d)
                .and_then(|(o, d)| o.checked_add(d.checked_mul(w)?));
        }
    }

    // The whole nest: every variable over its full range.
    env.vars = vars;
    let in_bounds = (a.indices.iter().zip(&a.shape))
        .all(|(idx, &n)| eval_interval(idx, &env).is_some_and(|iv| iv.within(0, n as i64 - 1)));
    Some(AccessFootprint {
        dims,
        linear,
        in_bounds,
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
    fn guard_on_inner_loops_narrows_the_row_range() {
        // parallel i: for jo in 0..2: for ji in 0..16:
        //   if jo*16 + ji < 20 { E[i][jo*16 + ji] = 0 }
        // Unguarded, columns 0..31 against a row stride of 20 overlap the
        // next row; the guard keeps each iteration inside its own row.
        let (i, jo, ji) = (Var::index("i"), Var::index("jo"), Var::index("ji"));
        let e = Buffer::new("E", [4usize, 20], DType::F64);
        let col = jo.expr() * 16 + ji.expr();
        let store = Stmt::IfThenElse {
            cond: tvm_te::ops::cmp::lt(col.clone(), tvm_te::ops::int(20)),
            then: Box::new(Stmt::BufferStore {
                buffer: e.clone(),
                indices: vec![i.expr(), col],
                value: float(0.0),
            }),
            else_: None,
        };
        let inner = for_(
            &jo,
            2,
            ForKind::Serial,
            for_(&ji, 16, ForKind::Serial, store),
        );
        let f = func(for_(&i, 4, ForKind::Parallel, inner), vec![e]);
        assert!(run(&f).is_empty(), "{:?}", run(&f));
        assert!(race_free_parallel_vars(&f).contains(&i.id));
    }

    #[test]
    fn per_dimension_test_separates_columns() {
        // parallel f in 0..24: for i in 0..16: G[i][f] = G[i][f] + 1 —
        // one column per iteration. The row-major offsets f + 24*i reach
        // every distance, so only the column index tells them apart.
        let (f, i) = (Var::index("f"), Var::index("i"));
        let g = Buffer::new("G", [16usize, 24], DType::F64);
        let g_t = tvm_te::placeholder([16, 24], DType::F64, "G");
        let idx = vec![i.expr(), f.expr()];
        let store = Stmt::BufferStore {
            buffer: g.clone(),
            indices: idx.clone(),
            value: g_t.at(&idx) + float(1.0),
        };
        let body = for_(
            &f,
            24,
            ForKind::Parallel,
            for_(&i, 16, ForKind::Serial, store),
        );
        let fun = func(body, vec![g]);
        assert!(run(&fun).is_empty(), "{:?}", run(&fun));
        assert!(race_free_parallel_vars(&fun).contains(&f.id));
    }

    #[test]
    fn per_dimension_test_needs_indices_in_bounds() {
        // parallel p in 0..4: for i in 0..2: B[p][i] = 0 over B: [4, 1] —
        // the column runs past its extent, so B[p][1] is B[p + 1][0].
        let (p, i) = (Var::index("p"), Var::index("i"));
        let b = Buffer::new("B", [4usize, 1], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![p.expr(), i.expr()],
            value: float(0.0),
        };
        let body = for_(
            &p,
            4,
            ForKind::Parallel,
            for_(&i, 2, ForKind::Serial, store),
        );
        let diags = run(&func(body, vec![b]));
        assert!(diags
            .iter()
            .any(|d| d.code == codes::RACE_WW && d.severity == Severity::Deny));
    }

    #[test]
    fn outer_shift_is_not_proven_race_free() {
        // for o in 0..2: parallel p in 0..8: A[p + o] = A[p] + 1 — at
        // o = 1 iteration p writes the element iteration p + 1 reads. At
        // o = 0 the offsets line up, so the pair must not count as clean.
        let (o, p) = (Var::index("o"), Var::index("p"));
        let a = Buffer::new("A", [9usize], DType::F64);
        let a_t = tvm_te::placeholder([9], DType::F64, "A");
        let store = Stmt::BufferStore {
            buffer: a.clone(),
            indices: vec![p.expr() + o.expr()],
            value: a_t.at(&[p.expr()]) + float(1.0),
        };
        let body = for_(
            &o,
            2,
            ForKind::Serial,
            for_(&p, 8, ForKind::Parallel, store),
        );
        let f = func(body, vec![a]);
        let diags = run(&f);
        assert!(diags
            .iter()
            .any(|d| d.code == codes::RACE_MAYBE && d.severity == Severity::Warn));
        assert!(!race_free_parallel_vars(&f).contains(&p.id));
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
