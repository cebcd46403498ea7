//! Cross-iteration dependence checking for parallel and vectorized
//! loops.
//!
//! For each `ForKind::Parallel` / `ForKind::Vectorized` loop the pass
//! collects every buffer access in the loop body — stores, the reads in
//! their values and indices, and the reads in `if` conditions — together
//! with the `if` guards around it (negated on `else` branches). Each
//! index of an access, and its row-major offset, splits into a stride `s`
//! along the parallel axis, read off the index's affine form
//! ([`affine_of`]), plus a range over the enclosed serial loops, narrowed
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
//! robust: the offset must be affine in the parallel variable (its move
//! to the far end of the range is the stride times the distance, which a
//! fused loop's quotient and remainder terms break), the two accesses
//! must shift identically with every outer loop variable, and neither
//! access may sit under a guard that mentions the parallel variable.
//! Anything weaker, and any access with an index outside the form's
//! grammar, demotes to `Warn` (`TIR-RACE-MAYBE`): the analyzer never
//! claims a race it cannot prove, and never silently trusts one it cannot
//! disprove either. A parallel loop the sweep finds nothing on is proven
//! race-free ([`race_free_parallel_vars`]).

use super::interval::{constraints_from_guard, eval_interval, Interval, IntervalEnv, VarIntervals};
use super::{codes, Diagnostic, Severity};
use crate::analysis::LoopInfo;
use crate::passes::affine::{affine_of, VarRanges};
use crate::stmt::{ForKind, PrimFunc, Stmt};
use std::collections::HashSet;
use std::sync::Arc;
use tvm_te::{PrimExpr, Var};

/// The loop's variable range as an interval, empty for a loop of no trips.
fn interval(l: &LoopInfo) -> Interval {
    if l.extent <= 0 {
        Interval::empty()
    } else {
        Interval::new(l.min, l.min + l.extent - 1)
    }
}

/// A buffer access inside the body of a parallel loop.
struct Access {
    buffer: String,
    shape: Vec<usize>,
    indices: Vec<PrimExpr>,
    is_write: bool,
    /// Loops strictly inside the parallel loop that enclose this access.
    inner: Vec<LoopInfo>,
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
    outer_strides: Vec<i64>,
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

/// One sweep over a function: its findings, each reported once per
/// (code, buffer, loop name), and the parallel loops it proves race-free.
#[derive(Default)]
struct Sweep {
    out: Vec<Diagnostic>,
    seen: HashSet<(&'static str, String, String)>,
    proven: HashSet<u64>,
}

/// Sweep the loops of `func` of the given kinds.
fn sweep(func: &PrimFunc, kinds: &[ForKind]) -> Sweep {
    let mut sweep = Sweep::default();
    visit(&func.body, kinds, &mut Vec::new(), &mut sweep);
    sweep
}

/// Check every parallel/vectorized loop of `func`, appending findings.
pub fn check_parallel_deps(func: &PrimFunc, out: &mut Vec<Diagnostic>) {
    out.extend(sweep(func, &[ForKind::Parallel, ForKind::Vectorized]).out);
}

/// Variable ids of `ForKind::Parallel` loops whose dependence analysis
/// comes back completely clean.
///
/// "Clean" means [`analyze_loop`] finds nothing for the loop — neither a
/// certified race nor an unresolved `TIR-RACE-MAYBE` — before the sweep
/// drops the findings another loop of the same name already reported.
/// Because the pairwise sweep covers every write-write and read-write
/// pair (including an access against its own images in other iterations,
/// and the buffer reads of `if` conditions), no element is touched by two
/// distinct iterations with a write involved: each output element has a
/// single writing iteration and no iteration reads another's writes.
/// Executing such a loop's iterations concurrently is therefore
/// bit-identical to sequential order.
///
/// Loops with extent < 2 have no pair of distinct iterations and are
/// trivially race-free.
pub fn race_free_parallel_vars(func: &PrimFunc) -> HashSet<u64> {
    sweep(func, &[ForKind::Parallel]).proven
}

fn visit(stmt: &Stmt, kinds: &[ForKind], outer: &mut Vec<LoopInfo>, sweep: &mut Sweep) {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            let l = LoopInfo {
                var_id: var.id,
                min: *min,
                extent: *extent,
            };
            if kinds.contains(kind) {
                let clean = *extent < 2 || !analyze_loop(var, &l, *kind, body, outer, sweep);
                if clean && *kind == ForKind::Parallel {
                    sweep.proven.insert(var.id);
                }
            }
            outer.push(l);
            visit(body, kinds, outer, sweep);
            outer.pop();
        }
        Stmt::IfThenElse { then, else_, .. } => {
            visit(then, kinds, outer, sweep);
            if let Some(e) = else_ {
                visit(e, kinds, outer, sweep);
            }
        }
        Stmt::Seq(items) => {
            for s in items {
                visit(s, kinds, outer, sweep);
            }
        }
        _ => {}
    }
}

/// Test every pair of accesses of the loop over `par`, reporting what
/// the sweep has not reported yet; whether it found anything at all.
fn analyze_loop(
    var: &Var,
    par: &LoopInfo,
    kind: ForKind,
    body: &Stmt,
    outer: &[LoopInfo],
    sweep: &mut Sweep,
) -> bool {
    let mut accesses = Vec::new();
    collect_accesses(body, &mut Vec::new(), &mut Vec::new(), &mut accesses);

    // Only a buffer written in the loop can race.
    let written: HashSet<&str> = (accesses.iter().filter(|a| a.is_write))
        .map(|a| a.buffer.as_str())
        .collect();
    let footprints: Vec<Option<AccessFootprint>> = (accesses.iter())
        .map(|a| {
            let f = || footprint(a, par, outer);
            written.contains(a.buffer.as_str()).then(f).flatten()
        })
        .collect();

    let mut found = false;
    let mut emit = |code: &'static str, severity: Severity, buffer: &str, message: String| {
        found = true;
        if sweep
            .seen
            .insert((code, buffer.to_string(), var.name.clone()))
        {
            sweep.out.push(Diagnostic {
                code,
                severity,
                message,
                buffer: Some(buffer.to_string()),
                access: None,
                loop_var: Some(var.name.clone()),
            });
        }
    };

    let kw = kind.keyword();
    let extent = par.extent;
    // Equal strides, each the move to the far end over the distance.
    let affine = |f: &Footprint| f.s.checked_mul(extent - 1) == Some(f.far);
    let aligned = |x: &Footprint, y: &Footprint| x.s == y.s && affine(x) && affine(y);
    for i in 0..accesses.len() {
        for j in i..accesses.len() {
            let (a1, a2) = (&accesses[i], &accesses[j]);
            if a1.buffer != a2.buffer || !(a1.is_write || a2.is_write) {
                continue;
            }
            // Read-read never races; a self-paired read is skipped above,
            // and a self-paired write tests the access against its own
            // images in other iterations.
            let (code, pair_kind) = if a1.is_write && a2.is_write {
                (codes::RACE_WW, "write-write")
            } else {
                (codes::RACE_RW, "read-write")
            };
            let (name, buffer) = (&var.name, &a1.buffer);
            let mut maybe = |why: &str| {
                let message = format!(
                    "{kw} loop `{name}`: accesses to `{buffer}` {why}; \
                     cannot rule out a {pair_kind} race"
                );
                emit(codes::RACE_MAYBE, Severity::Warn, buffer, message)
            };
            let (Some(f1), Some(f2)) = (&footprints[i], &footprints[j]) else {
                maybe("are outside the analyzable fragment");
                continue;
            };
            let apart_in_some_dim = |(x, y): (&Footprint, &Footprint)| {
                aligned(x, y) && x.outer_strides == y.outer_strides && !conflicts(x, y, extent)
            };
            if f1.in_bounds && f2.in_bounds && f1.dims.iter().zip(&f2.dims).any(apart_in_some_dim) {
                continue;
            }
            let (l1, l2) = (&f1.linear, &f2.linear);
            if !aligned(l1, l2) {
                maybe("move non-uniformly along the parallel axis");
                continue;
            }
            let same_outer = l1.outer_strides == l2.outer_strides;
            if !conflicts(l1, l2, extent) {
                if !same_outer {
                    maybe("shift apart along an outer loop");
                }
                continue;
            }
            // A conflict certificate: robust only when both accesses
            // shift identically with every outer variable and no guard
            // keys on the parallel variable.
            let robust = same_outer
                && ![a1, a2]
                    .iter()
                    .any(|a| a.guards.iter().any(|g| mentions(g, |v| v == par.var_id)));
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
                    "{kw} loop `{name}`: distinct iterations touch the same \
                     element of `{buffer}` ({pair_kind}, stride {} on the parallel axis)",
                    l1.s
                ),
            );
        }
    }
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
    inner: &mut Vec<LoopInfo>,
    guards: &mut Vec<PrimExpr>,
    out: &mut Vec<Access>,
) {
    // The buffer reads of `e`, under the current loops and guards.
    let reads = |e: &PrimExpr, inner: &[LoopInfo], guards: &[PrimExpr], out: &mut Vec<Access>| {
        tvm_te::visitor::walk(e, &mut |node| {
            if let PrimExpr::TensorRead(t, idx) = node {
                out.push(Access {
                    buffer: t.name().to_string(),
                    shape: t.shape().to_vec(),
                    indices: idx.to_vec(),
                    is_write: false,
                    inner: inner.to_vec(),
                    guards: guards.to_vec(),
                });
            }
        })
    };
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            body,
            ..
        } => {
            inner.push(LoopInfo {
                var_id: var.id,
                min: *min,
                extent: *extent,
            });
            collect_accesses(body, inner, guards, out);
            inner.pop();
        }
        Stmt::IfThenElse { cond, then, else_ } => {
            reads(cond, inner, guards, out);
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
            out.push(Access {
                buffer: buffer.name.clone(),
                shape: buffer.shape.clone(),
                indices: indices.clone(),
                is_write: true,
                inner: inner.clone(),
                guards: guards.clone(),
            });
            for e in indices.iter().chain(std::iter::once(value)) {
                reads(e, inner, guards, out);
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

/// Decompose one access relative to the parallel loop `par`, per index
/// and over its row-major offset. Each index's moves are its affine
/// form's; an index outside the form's grammar has no footprint.
fn footprint(a: &Access, par: &LoopInfo, outer: &[LoopInfo]) -> Option<AccessFootprint> {
    // Ranges over the inner loops, narrowed by the guards that mention
    // only inner loops: a guard on the parallel or an outer variable
    // would hold only at the point the range is taken.
    let mut vars: VarIntervals = a.inner.iter().map(|l| (l.var_id, interval(l))).collect();
    let mut env = IntervalEnv::with_vars(vars.clone());
    for g in &a.guards {
        if !mentions(g, |v| !vars.contains_key(&v)) {
            let mut facts = Vec::new();
            constraints_from_guard(g, &env, &mut facts);
            env.constraints.extend(facts);
        }
    }
    // `vars` keeps the inner ranges; `env` pins the rest at their minima.
    for l in outer.iter().chain([par]) {
        env.vars.insert(l.var_id, Interval::point(l.min));
        vars.insert(l.var_id, interval(l));
    }

    let ranges: VarRanges = (outer.iter().chain(&a.inner).chain([par]))
        .map(|l| (l.var_id, l.range()))
        .collect();
    let far_end = par.min + par.extent - 1;
    let mut dims = Vec::with_capacity(a.indices.len());
    for idx in &a.indices {
        let form = affine_of(idx, &ranges)?;
        let step = |l: &LoopInfo, to| form.delta(l.var_id, l.min, to);
        dims.push(Footprint {
            s: step(par, par.min + 1)?,
            far: step(par, far_end)?,
            range: eval_interval(idx, &env)?,
            outer_strides: (outer.iter().map(|l| step(l, l.min + 1))).collect::<Option<_>>()?,
        });
    }

    let mut linear = Footprint {
        s: 0,
        far: 0,
        range: Interval::point(0),
        outer_strides: vec![0; outer.len()],
    };
    for (f, w) in dims.iter().zip(row_major_strides(&a.shape)) {
        linear.s = linear.s.checked_add(f.s.checked_mul(w)?)?;
        linear.far = linear.far.checked_add(f.far.checked_mul(w)?)?;
        linear.range = linear.range.add(&f.range.mul(&Interval::point(w)));
        for (o, d) in linear.outer_strides.iter_mut().zip(&f.outer_strides) {
            *o = o.checked_add(d.checked_mul(w)?)?;
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
    fn race_freedom_proof_counts_buffer_reads_in_guards() {
        use tvm_te::ops::{cmp, int};
        let i = Var::index("i");
        let c = Buffer::new("C", [9usize], DType::F64);
        let (a_t, c_t) = (
            tvm_te::placeholder([9], DType::F64, "A"),
            tvm_te::placeholder([9], DType::F64, "C"),
        );
        let store = |b: &std::sync::Arc<Buffer>| Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![i.expr()],
            value: float(0.0),
        };
        let guarded = |cond, then| Stmt::IfThenElse {
            cond,
            then: Box::new(then),
            else_: None,
        };
        // parallel i: C[i] = 0; if C[i + 1] < 0 { A[i] = 0 } — the guard
        // reads the element the next iteration writes.
        let a = Buffer::new("A", [9usize], DType::F64);
        let body = Stmt::Seq(vec![
            store(&c),
            guarded(cmp::lt(c_t.at(&[i.expr() + int(1)]), float(0.0)), store(&a)),
        ]);
        let f = func(for_(&i, 8, ForKind::Parallel, body), vec![a, c.clone()]);
        let diags = run(&f);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(
            (diags[0].code, diags[0].severity),
            (codes::RACE_RW, Severity::Deny)
        );
        assert!(!race_free_parallel_vars(&f).contains(&i.id));
        // parallel i: if A[i] < 0 { C[i] = 0 } — the loop never writes
        // `A`, so the guard's read cannot race.
        let body = guarded(cmp::lt(a_t.at(&[i.expr()]), float(0.0)), store(&c));
        let f = func(for_(&i, 8, ForKind::Parallel, body), vec![c]);
        assert!(run(&f).is_empty());
        assert!(race_free_parallel_vars(&f).contains(&i.id));
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
