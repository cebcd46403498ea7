//! Cross-iteration dependence checking for parallel and vectorized
//! loops.
//!
//! For each `ForKind::Parallel` / `ForKind::Vectorized` loop the pass
//! collects every buffer access in the loop body — stores, the reads in
//! their values and indices, and the reads in `if` conditions — together
//! with the `if` guards around it (negated on `else` branches). Each pair
//! of accesses to a buffer the loop writes is one integer-feasibility
//! question over the accesses' affine forms ([`affine_of`]): is there a
//! point where
//!
//! * the loops around the parallel loop, which both accesses share, are
//!   in range and under their guards;
//! * the two accesses run in distinct iterations `t1 < t2` of the
//!   parallel loop (both orders for two distinct accesses), each with its
//!   own copy of its inner loop variables, in range;
//! * every guard that encloses an access holds, where the guard is a
//!   comparison of affine forms or a conjunction of them;
//! * the two accesses touch the same element: equal indices where every
//!   index is proven inside its extent, equal row-major offsets otherwise.
//!
//! A fused loop's `floordiv(f, c)` / `floormod(f, c)` is a quotient `q`
//! and a remainder `r` with `f = c·q + r` and `0 ≤ r < c`, which is exact.
//! [`Problem::solve`] answers exactly, by equality elimination, Fourier–Motzkin
//! steps that a unit coefficient makes exact, and branching on a bounded
//! variable otherwise. A point is a race, denied (`TIR-RACE-WW` /
//! `TIR-RACE-RW`) once [`confirm_race_at`] has re-evaluated its two
//! iterations on the loop. No point means the pair cannot race.
//! `TIR-RACE-MAYBE` is left for an index outside the form's grammar, a
//! spent step budget, and a point that fails a guard the system had to
//! leave out. A parallel loop every pair of which is free is proven
//! race-free ([`race_free_parallel_vars`]).

use super::interval::{constraints_from_guard, eval_interval, Interval, IntervalEnv};
use super::oracle::{confirm_race_at, Witness};
use super::{codes, Diagnostic, Severity};
use crate::analysis::LoopInfo;
use crate::passes::affine::{affine_of, offset_of, Affine, Atom, VarRanges};
use crate::stmt::{ForKind, PrimFunc, Stmt};
use std::collections::HashSet;
use std::sync::Arc;
use tvm_te::{CmpOp, PrimExpr};

/// The step budget of one feasibility question: rows built and values
/// branched on.
const BUDGET: u32 = 20_000;

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

/// An access's affine forms over the loops around it.
struct Forms {
    /// Per index, in index order.
    dims: Vec<Affine>,
    /// The row-major offset.
    offset: Affine,
    /// Every index proven inside its extent over the whole nest.
    in_bounds: bool,
    /// Its guards inside the parallel loop as linear rows.
    guards: Vec<Lin>,
}

/// A linear constraint over forms: `Σ k·form ≥ 0`, or `= 0`.
struct Lin {
    parts: Vec<(Affine, i64)>,
    constant: i64,
    eq: bool,
}

/// One sweep over a function: its findings, each reported once per
/// (code, buffer, loop name) with the witness of a race, and the parallel
/// loops it proves race-free.
#[derive(Default)]
struct Sweep {
    out: Vec<(Diagnostic, Option<Witness>)>,
    seen: HashSet<(&'static str, String, String)>,
    proven: HashSet<u64>,
}

/// Sweep the loops of `func` of the given kinds.
fn sweep(func: &PrimFunc, kinds: &[ForKind]) -> Sweep {
    let mut sweep = Sweep::default();
    let mut scope = Scope {
        loops: Vec::new(),
        guards: Vec::new(),
    };
    visit(&func.body, kinds, &mut scope, &mut sweep);
    sweep
}

/// Check every parallel/vectorized loop of `func`, appending findings.
pub fn check_parallel_deps(func: &PrimFunc, out: &mut Vec<Diagnostic>) {
    out.extend(races(func).into_iter().map(|(d, _)| d));
}

/// [`check_parallel_deps`]'s findings, each race denial with the two
/// iterations that prove it.
pub fn races(func: &PrimFunc) -> Vec<(Diagnostic, Option<Witness>)> {
    sweep(func, &[ForKind::Parallel, ForKind::Vectorized]).out
}

/// Variable ids of `ForKind::Parallel` loops whose dependence analysis
/// comes back completely clean.
///
/// "Clean" means every pair of accesses of the loop is free: no point
/// has two distinct iterations touching one element with a write
/// involved. Because the pairs cover every write-write and read-write
/// pair (including an access against its own images in other iterations,
/// and the buffer reads of `if` conditions), each output element has a
/// single writing iteration and no iteration reads another's writes.
/// Executing such a loop's iterations concurrently is therefore
/// bit-identical to sequential order.
///
/// Loops with extent < 2 have no pair of distinct iterations and are
/// trivially race-free.
pub fn race_free_parallel_vars(func: &PrimFunc) -> HashSet<u64> {
    sweep(func, &[ForKind::Parallel]).proven
}

/// Whether the loop `l`, of any kind, under `loops` and `guards` (negated
/// on `else`), is race-free as [`race_free_parallel_vars`] proves one.
pub(crate) fn race_free_loop(l: &Stmt, loops: &[LoopInfo], guards: &[PrimExpr]) -> bool {
    let (loops, guards) = (loops.to_vec(), guards.to_vec());
    !analyze_loop(l, &Scope { loops, guards }, &mut Sweep::default())
}

/// Where the sweep stands: the loops and guards around the current
/// statement, outermost first.
struct Scope {
    loops: Vec<LoopInfo>,
    guards: Vec<PrimExpr>,
}

fn visit(stmt: &Stmt, kinds: &[ForKind], scope: &mut Scope, sweep: &mut Sweep) {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            if kinds.contains(kind)
                && !analyze_loop(stmt, scope, sweep)
                && *kind == ForKind::Parallel
            {
                sweep.proven.insert(var.id);
            }
            scope.loops.push(LoopInfo::new(var, *min, *extent));
            visit(body, kinds, scope, sweep);
            scope.loops.pop();
        }
        Stmt::IfThenElse { cond, then, else_ } => {
            scope.guards.push(cond.clone());
            visit(then, kinds, scope, sweep);
            scope.guards.pop();
            if let Some(e) = else_ {
                scope.guards.push(PrimExpr::Not(Arc::new(cond.clone())));
                visit(e, kinds, scope, sweep);
                scope.guards.pop();
            }
        }
        Stmt::Seq(items) => {
            for s in items {
                visit(s, kinds, scope, sweep);
            }
        }
        _ => {}
    }
}

/// What one pair of accesses comes to.
enum Pair {
    Race(Witness),
    Free,
    Unknown(&'static str),
}

/// Decide every pair of accesses of the loop `l`, reporting what the
/// sweep has not reported yet; whether any pair is not free (a loop of
/// fewer than two iterations has no pair).
fn analyze_loop(l: &Stmt, scope: &Scope, sweep: &mut Sweep) -> bool {
    let Stmt::For {
        var,
        min,
        extent,
        kind,
        body,
    } = l
    else {
        return false;
    };
    if *extent < 2 {
        return false;
    }
    let par = &LoopInfo::new(var, *min, *extent);
    let mut accesses = Vec::new();
    collect_accesses(body, &mut Vec::new(), &mut Vec::new(), &mut accesses);

    // Only a buffer written in the loop can race.
    let written: HashSet<&str> = (accesses.iter().filter(|a| a.is_write))
        .map(|a| a.buffer.as_str())
        .collect();
    let outer_ranges: VarRanges = scope.loops.iter().map(|l| (l.var_id, l.range())).collect();
    let outer_guards: Vec<Lin> = (scope.guards.iter())
        .flat_map(|g| linear(g, &outer_ranges))
        .collect();
    // Accesses alike in buffer, indices, inner loops and guards pose one
    // question: the first of each class stands for it, and a pair of
    // classes found free stays free.
    let inner = |a: &Access| {
        a.inner
            .iter()
            .map(|l| (l.var_id, l.min, l.extent))
            .collect::<Vec<_>>()
    };
    let alike = |x: &Access, y: &Access| {
        (x.buffer == y.buffer && x.indices == y.indices && x.guards == y.guards)
            && inner(x) == inner(y)
    };
    let n = accesses.len();
    let class: Vec<usize> = (0..n)
        .map(|i| {
            (0..i)
                .find(|&k| alike(&accesses[k], &accesses[i]))
                .unwrap_or(i)
        })
        .collect();
    let forms: Vec<Option<Forms>> = (0..n)
        .map(|i| {
            let f = || forms(&accesses[i], par, scope);
            (class[i] == i && written.contains(accesses[i].buffer.as_str()))
                .then(f)
                .flatten()
        })
        .collect();
    let mut free = vec![false; n * n];
    let (mut found, mut denied) = (false, Vec::new());
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
            let (code, pair_kind) = if a1.is_write && a2.is_write {
                (codes::RACE_WW, "write-write")
            } else {
                (codes::RACE_RW, "read-write")
            };
            // A pair adds nothing to a race already denied on its loop.
            let (ci, cj) = (class[i], class[j]);
            let key = ci.min(cj) * n + ci.max(cj);
            if free[key] || denied.contains(&(code, a1.buffer.as_str())) {
                continue;
            }
            let pair = match (&forms[ci], &forms[cj]) {
                (Some(f1), Some(f2)) => {
                    let pair = [(a1, f1), (a2, f2)];
                    let ask = |order| decide(scope, (l, par), &outer_guards, pair, order);
                    match ask(false) {
                        Pair::Free if i != j => ask(true),
                        pair => pair,
                    }
                }
                _ => Pair::Unknown("are outside the analyzable fragment"),
            };
            let (name, buffer) = (&var.name, &a1.buffer);
            let (code, severity, message, witness) = match pair {
                Pair::Free => {
                    free[key] = true;
                    continue;
                }
                Pair::Race(w) => {
                    let stride = (forms[ci].as_ref())
                        .and_then(|f| f.offset.delta(par.var_id, par.min, par.min + 1))
                        .unwrap_or(0);
                    let message = format!(
                        "{kw} loop `{name}`: distinct iterations touch the same \
                         element of `{buffer}` ({pair_kind}, stride {stride} on the parallel axis)"
                    );
                    denied.push((code, a1.buffer.as_str()));
                    (code, Severity::Deny, message, Some(w))
                }
                Pair::Unknown(why) => {
                    let message = format!(
                        "{kw} loop `{name}`: accesses to `{buffer}` {why}; \
                         cannot rule out a {pair_kind} race"
                    );
                    (codes::RACE_MAYBE, Severity::Warn, message, None)
                }
            };
            found = true;
            if (sweep.seen).insert((code, buffer.clone(), name.clone())) {
                let d = Diagnostic {
                    code,
                    severity,
                    message,
                    buffer: Some(buffer.clone()),
                    access: None,
                    loop_var: Some(name.clone()),
                };
                sweep.out.push((d, witness));
            }
        }
    }
    found
}

/// Pose and solve one ordered pair of the loop `l`: access 1 in
/// iteration `t1`, access 2 in `t2`, `t1 < t2` (`t1 > t2` when `swap`).
fn decide(
    scope: &Scope,
    (l, par): (&Stmt, &LoopInfo),
    outer_guards: &[Lin],
    pair: [(&Access, &Forms); 2],
    swap: bool,
) -> Pair {
    let mut sys = System::new(&scope.loops, par, [&pair[0].0.inner, &pair[1].0.inner]);
    let [f1, f2] = [pair[0].1, pair[1].1];
    let same: Vec<(&Affine, &Affine)> = match f1.in_bounds && f2.in_bounds {
        true => f1.dims.iter().zip(&f2.dims).collect(),
        false => vec![(&f1.offset, &f2.offset)],
    };
    if same.iter().any(|(x, y)| sys.apart(x, y, swap)) {
        return Pair::Free;
    }
    let (t1, t2) = (
        sys.var(1, par.var_id, Atom::Var),
        sys.var(2, par.var_id, Atom::Var),
    );
    let (early, late) = if swap { (t2, t1) } else { (t1, t2) };
    sys.rows.push((vec![(late, 1), (early, -1)], -1, false));
    for g in outer_guards {
        sys.guard(0, g);
    }
    for (side, (_, f)) in [1, 2].into_iter().zip(pair) {
        for g in &f.guards {
            sys.guard(side, g);
        }
    }
    for (x, y) in same {
        sys.add(&[(x, 1, 1), (y, -1, 2)], 0, true);
    }
    let mut budget = BUDGET;
    let point = match sys.solve(&mut budget) {
        Outcome::Point(p) => p,
        Outcome::Empty => return Pair::Free,
        Outcome::Spent => return Pair::Unknown("exceed the dependence solver's step budget"),
    };
    let at = |side: usize, a: &Access| -> Vec<(u64, i64)> {
        let own = [par].into_iter().chain(&a.inner);
        (scope.loops.iter().map(|l| (0, l)))
            .chain(own.map(|l| (side, l)))
            .map(|(s, l)| (l.var_id, sys.value(&point, s, l)))
            .collect()
    };
    let witness = Witness {
        loop_id: par.var_id,
        buffer: pair[0].0.buffer.clone(),
        writes: [pair[0].0.is_write, pair[1].0.is_write],
        at: [at(1, pair[0].0), at(2, pair[1].0)],
    };
    if confirm_race_at(l, &scope.loops, &scope.guards, &witness) {
        Pair::Race(witness)
    } else {
        Pair::Unknown("meet only past a guard outside the analyzable fragment")
    }
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
            inner.push(LoopInfo::new(var, *min, *extent));
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

/// The forms of one access relative to the parallel loop `par`; `None`
/// when an index is outside the form's grammar.
fn forms(a: &Access, par: &LoopInfo, scope: &Scope) -> Option<Forms> {
    let nest = || scope.loops.iter().chain([par]).chain(&a.inner);
    let ranges: VarRanges = nest().map(|l| (l.var_id, l.range())).collect();
    let dims = (a.indices.iter().map(|idx| affine_of(idx, &ranges))).collect::<Option<_>>()?;
    // The whole nest: every variable over its full range, under every
    // enclosing guard (a guard holds wherever its access runs).
    let vars = nest().map(|l| (l.var_id, interval(l))).collect();
    let mut whole = IntervalEnv::with_vars(vars);
    for g in scope.guards.iter().chain(&a.guards) {
        let mut facts = Vec::new();
        constraints_from_guard(g, &whole, &mut facts);
        whole.constraints.extend(facts);
    }
    let in_bounds = (a.indices.iter().zip(&a.shape))
        .all(|(idx, &n)| eval_interval(idx, &whole).is_some_and(|iv| iv.within(0, n as i64 - 1)));
    Some(Forms {
        dims,
        offset: offset_of(&a.indices, &a.shape, &ranges)?,
        in_bounds,
        guards: a.guards.iter().flat_map(|g| linear(g, &ranges)).collect(),
    })
}

/// The loop's variable range as an interval, empty for a loop of no trips.
fn interval(l: &LoopInfo) -> Interval {
    if l.extent <= 0 {
        Interval::empty()
    } else {
        Interval::new(l.min, l.min + l.extent - 1)
    }
}

/// The linear rows a guard implies: its comparisons of affine forms,
/// through conjunctions and negations. Anything else (a disjunction, `!=`,
/// a buffer read, an index outside the grammar) implies nothing here.
fn linear(g: &PrimExpr, ranges: &VarRanges) -> Vec<Lin> {
    fn go(g: &PrimExpr, holds: bool, ranges: &VarRanges, out: &mut Vec<Lin>) {
        match g {
            PrimExpr::Not(x) => go(x, !holds, ranges, out),
            PrimExpr::And(x, y) if holds => {
                (go(x, holds, ranges, out), go(y, holds, ranges, out)).1
            }
            PrimExpr::Or(x, y) if !holds => {
                (go(x, holds, ranges, out), go(y, holds, ranges, out)).1
            }
            PrimExpr::Cmp(op, a, b) => {
                let (Some(a), Some(b)) = (affine_of(a, ranges), affine_of(b, ranges)) else {
                    return;
                };
                // `a - b + constant ≥ 0`, or `= 0`, or its mirror.
                let (sign, constant, eq) = match (op, holds) {
                    (CmpOp::Ge, true) | (CmpOp::Lt, false) => (1, 0, false),
                    (CmpOp::Gt, true) | (CmpOp::Le, false) => (1, -1, false),
                    (CmpOp::Le, true) | (CmpOp::Gt, false) => (-1, 0, false),
                    (CmpOp::Lt, true) | (CmpOp::Ge, false) => (-1, -1, false),
                    (CmpOp::Eq, true) | (CmpOp::Ne, false) => (1, 0, true),
                    _ => return,
                };
                let parts = vec![(a, sign), (b, -sign)];
                out.push(Lin {
                    parts,
                    constant,
                    eq,
                });
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    go(g, true, ranges, &mut out);
    out
}

/// The integer system of one ordered pair. Its variables are the loop
/// variables of side 0 (the loops around the parallel loop, shared), of
/// side 1 and of side 2 (the parallel loop and each access's inner
/// loops), and the quotients and remainders of fused terms.
struct System<'a> {
    outer: &'a [LoopInfo],
    par: LoopInfo,
    inner: [&'a [LoopInfo]; 2],
    keys: Vec<(usize, u64, Atom)>,
    /// Each variable's inclusive range.
    bounds: Vec<(i64, i64)>,
    rows: Vec<Sparse>,
}

/// A row's terms, its constant, and whether it is an equality.
type Sparse = (Vec<(usize, i64)>, i64, bool);

impl<'a> System<'a> {
    fn new(outer: &'a [LoopInfo], par: &LoopInfo, inner: [&'a [LoopInfo]; 2]) -> System<'a> {
        System {
            outer,
            par: par.clone(),
            inner,
            keys: Vec::new(),
            bounds: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The loop of variable `id` on `side`, and the side it lives on.
    fn loop_of(&self, side: usize, id: u64) -> (usize, LoopInfo) {
        match self.outer.iter().find(|l| l.var_id == id) {
            Some(l) => (0, l.clone()),
            None if id == self.par.var_id => (side, self.par.clone()),
            None => {
                let l = self.inner[side - 1].iter().find(|l| l.var_id == id);
                (
                    side,
                    l.expect("a form's variable is a loop around its access")
                        .clone(),
                )
            }
        }
    }

    /// Whether `x` on side 1 and `y` on side 2 are never equal by the gcd
    /// of their difference's coefficients or by its range alone: the
    /// first, cheap step of the exact question, which only ever answers
    /// that there is no point. Where both move alike along the parallel
    /// loop, the two iterations enter as their distance, `t2 - t1` in
    /// `1..extent` (negative when `swap`).
    fn apart(&self, x: &Affine, y: &Affine, swap: bool) -> bool {
        let constant = x.constant as i128 - y.constant as i128;
        let (mut g, mut lo, mut hi) = (0i128, constant, constant);
        let mut add = |c: i128, (vlo, vhi): (i64, i64)| {
            let (a, b) = (c * vlo as i128, c * vhi as i128);
            (g, lo, hi) = (num_gcd(g, c.abs()), lo + a.min(b), hi + a.max(b));
        };
        let range = |side: usize, id: u64, atom: Atom| {
            let (_, l) = self.loop_of(side, id);
            let (vlo, vhi) = (l.min, l.min + l.extent - 1);
            match atom {
                Atom::Var => (vlo, vhi),
                Atom::Div(d) => (vlo.div_euclid(d), vhi.div_euclid(d)),
                Atom::Mod(d) => (0, d - 1),
            }
        };
        let far = self.par.extent - 1;
        let distance = if swap { (-far, -1) } else { (1, far) };
        // Both forms' terms are sorted: a loop around the parallel loop is
        // one variable on both sides, and its coefficients merge.
        let (mut xs, mut ys) = (x.terms.iter().peekable(), y.terms.iter().peekable());
        loop {
            let key = |t: Option<&&(u64, Atom, i64)>| t.map(|t| (t.0, t.1));
            match (key(xs.peek()), key(ys.peek())) {
                (None, None) => break,
                (Some(a), b) if b.is_none_or(|b| a < b) => {
                    let &(id, atom, c) = xs.next().expect("peeked");
                    add(c as i128, range(1, id, atom));
                }
                (a, Some(b)) if a.is_none_or(|a| b < a) => {
                    let &(id, atom, c) = ys.next().expect("peeked");
                    add(-(c as i128), range(2, id, atom));
                }
                _ => {
                    let (&(id, atom, c), &(_, _, d)) =
                        (xs.next().expect("peeked"), ys.next().expect("peeked"));
                    if self.loop_of(1, id).0 == 0 {
                        add(c as i128 - d as i128, range(0, id, atom));
                    } else if id == self.par.var_id && atom == Atom::Var && c == d {
                        // `c·t1 - c·t2 = -c·(t2 - t1)`.
                        add(-(c as i128), distance);
                    } else {
                        add(c as i128, range(1, id, atom));
                        add(-(d as i128), range(2, id, atom));
                    }
                }
            }
        }
        if g == 0 || constant % g != 0 {
            return constant != 0;
        }
        lo > 0 || hi < 0
    }

    /// The index of variable `(side, id, atom)`, created with its range
    /// rows (and, for a quotient or remainder, `x = c·q + r`) on first use.
    fn var(&mut self, side: usize, id: u64, atom: Atom) -> usize {
        let (side, l) = self.loop_of(side, id);
        if let Some(j) = self.keys.iter().position(|k| *k == (side, id, atom)) {
            return j;
        }
        let (lo, hi) = (l.min, l.min + l.extent - 1);
        let fresh = |sys: &mut Self, atom, lo: i64, hi: i64| {
            sys.keys.push((side, id, atom));
            sys.bounds.push((lo, hi));
            sys.keys.len() - 1
        };
        match atom {
            Atom::Var => fresh(self, atom, lo, hi),
            Atom::Div(c) | Atom::Mod(c) => {
                let x = self.var(side, id, Atom::Var);
                let q = fresh(self, Atom::Div(c), lo.div_euclid(c), hi.div_euclid(c));
                let r = fresh(self, Atom::Mod(c), 0, c - 1);
                self.rows.push((vec![(x, 1), (q, -c), (r, -1)], 0, true));
                if atom == Atom::Div(c) {
                    q
                } else {
                    r
                }
            }
        }
    }

    /// Add `Σ scale·form + constant ≥ 0` (or `= 0`), each form read on
    /// its side; a row whose arithmetic overflows is left out, as is any
    /// guard the system cannot hold.
    fn add(&mut self, parts: &[(&Affine, i64, usize)], constant: i64, eq: bool) {
        let mut terms = Vec::new();
        let mut constant = Some(constant);
        for &(form, scale, side) in parts {
            for &(id, atom, c) in &form.terms {
                let Some(c) = c.checked_mul(scale) else {
                    return;
                };
                terms.push((self.var(side, id, atom), c));
            }
            constant = constant.and_then(|s| s.checked_add(form.constant.checked_mul(scale)?));
        }
        if let Some(constant) = constant {
            self.rows.push((terms, constant, eq));
        }
    }

    /// Add a guard's row, its forms read on `side`.
    fn guard(&mut self, side: usize, g: &Lin) {
        let parts: Vec<_> = g.parts.iter().map(|(f, k)| (f, *k, side)).collect();
        self.add(&parts, g.constant, g.eq)
    }

    /// The value of loop variable `l` on `side` at `point`: its minimum
    /// where no row mentions it.
    fn value(&self, point: &[i64], side: usize, l: &LoopInfo) -> i64 {
        let (side, _) = self.loop_of(side, l.var_id);
        let key = (side, l.var_id, Atom::Var);
        (self.keys.iter().position(|k| *k == key)).map_or(l.min, |j| point[j])
    }

    fn solve(&self, budget: &mut u32) -> Outcome {
        let n = self.keys.len();
        let mut p = Problem {
            n,
            bounds: self.bounds.clone(),
            eqs: Vec::new(),
            geqs: Vec::new(),
        };
        for (terms, constant, eq) in &self.rows {
            let mut row = vec![0i64; n + 1];
            for &(j, c) in terms {
                match row[j].checked_add(c) {
                    Some(v) => row[j] = v,
                    None => return Outcome::Spent,
                }
            }
            row[n] = *constant;
            if *eq { &mut p.eqs } else { &mut p.geqs }.push(row);
        }
        p.solve(budget)
    }
}

/// What one feasibility question comes to.
enum Outcome {
    /// An integer point, one value per variable.
    Point(Vec<i64>),
    Empty,
    Spent,
}

/// How a variable left a [`Problem`]: defined by an equality in which
/// its coefficient is ±1, or projected out of the rows that bound it.
enum Step {
    Subst(usize, Vec<i64>),
    Project(usize, Vec<Vec<i64>>),
}

/// Integer rows `Σ row[j]·x[j] + row[n]`, `= 0` in `eqs` and `≥ 0` in
/// `geqs`, over variables with inclusive `bounds`.
#[derive(Clone)]
struct Problem {
    n: usize,
    bounds: Vec<(i64, i64)>,
    eqs: Vec<Vec<i64>>,
    geqs: Vec<Vec<i64>>,
}

/// `a·b + c`, `None` on overflow.
fn mul_add(a: i64, b: i64, c: i64) -> Option<i64> {
    a.checked_mul(b)?.checked_add(c)
}

impl Problem {
    /// Whether the rows have an integer point, and one.
    ///
    /// Exact: an equality with a unit coefficient substitutes its variable
    /// away; a variable whose lower or whose upper bounds all have a unit
    /// coefficient is projected out by Fourier–Motzkin, where the real and
    /// the integer shadow coincide; when neither applies, the variable
    /// with the fewest values is fixed to each in turn. The steps,
    /// retraced backwards, make the point.
    fn solve(mut self, budget: &mut u32) -> Outcome {
        let n = self.n;
        let mut steps = Vec::new();
        loop {
            if !self.tidy() {
                return Outcome::Empty;
            }
            let unit = (self.eqs.iter().enumerate())
                .find_map(|(e, row)| (0..n).find(|&j| row[j].abs() == 1).map(|j| (e, j)));
            if let Some((e, x)) = unit {
                if self.substitute(e, x, &mut steps).is_none() {
                    return Outcome::Spent;
                }
                continue;
            }
            if self.eqs.is_empty() && self.geqs.is_empty() {
                break;
            }
            // The (exact) projection that makes the fewest rows.
            let cost = |x: usize, exact_only: bool| {
                // Bound counts (each side's own bound included) and
                // whether each side's coefficients are all unit.
                let (mut l, mut u, mut unit_l, mut unit_u) = (1i64, 1i64, true, true);
                for c in self.geqs.iter().map(|r| r[x]) {
                    if c > 0 {
                        (l, unit_l) = (l + 1, unit_l && c == 1);
                    } else if c < 0 {
                        (u, unit_u) = (u + 1, unit_u && c == -1);
                    }
                }
                ((unit_l || unit_u || !exact_only) && l + u > 2).then_some(l * u - l - u)
            };
            let cheapest =
                |exact_only| (0..n).filter_map(|x| Some((cost(x, exact_only)?, x))).min();
            if !self.eqs.is_empty() {
                return self.branch(budget, steps);
            }
            if let Some((_, x)) = cheapest(true) {
                if self.project(x, budget, &mut steps).is_none() {
                    return Outcome::Spent;
                }
                continue;
            }
            // The real shadow of a projection holds wherever the rows do:
            // where it has no point, neither do they.
            if let Some((_, x)) = cheapest(false) {
                let mut shadow = self.clone();
                let projected = shadow.project(x, budget, &mut Vec::new()).is_some();
                if projected && matches!(shadow.solve(budget), Outcome::Empty) {
                    return Outcome::Empty;
                }
            }
            return self.branch(budget, steps);
        }
        // No rows left: every variable at its lower bound.
        let point = self.bounds.iter().map(|b| b.0).collect();
        Outcome::Point(retrace(point, &steps))
    }

    /// Define `x` by equality `e` (`±x + rest = 0`) everywhere; its bounds
    /// become rows. `None` on overflow.
    fn substitute(&mut self, e: usize, x: usize, steps: &mut Vec<Step>) -> Option<()> {
        let n = self.n;
        let def = self.eqs.swap_remove(e);
        // x = expr·(x, 1) with expr[x] = 0.
        let mut expr: Vec<i64> = def.iter().map(|d| -def[x] * d).collect();
        expr[x] = 0;
        for row in self.eqs.iter_mut().chain(self.geqs.iter_mut()) {
            let k = std::mem::take(&mut row[x]);
            for j in (0..=n).filter(|_| k != 0) {
                row[j] = mul_add(k, expr[j], row[j])?;
            }
        }
        let (lo, hi) = self.bounds[x];
        let mut above = expr.clone();
        above[n] = above[n].checked_sub(lo)?;
        let mut below: Vec<i64> = expr.iter().map(|c| -c).collect();
        below[n] = below[n].checked_add(hi)?;
        self.geqs.extend([above, below]);
        steps.push(Step::Subst(x, def));
        Some(())
    }

    /// Project `x` out of the rows, its bounds with them. `None` on
    /// overflow or a spent budget.
    fn project(&mut self, x: usize, budget: &mut u32, steps: &mut Vec<Step>) -> Option<()> {
        let n = self.n;
        let (lo, hi) = self.bounds[x];
        let mut rows = vec![vec![0; n + 1], vec![0; n + 1]];
        (rows[0][x], rows[0][n], rows[1][x], rows[1][n]) = (1, -lo, -1, hi);
        let (mine, rest) = std::mem::take(&mut self.geqs)
            .into_iter()
            .partition(|r| r[x] != 0);
        self.geqs = rest;
        rows.extend::<Vec<_>>(mine);
        for (i, l) in rows.iter().enumerate().filter(|(_, r)| r[x] > 0) {
            for (j, u) in rows.iter().enumerate().filter(|(_, r)| r[x] < 0) {
                // The two bounds' own pair holds: `tidy` saw lo ≤ hi.
                if (i, j) == (0, 1) {
                    continue;
                }
                *budget = budget.checked_sub(1)?;
                let (a, b) = (l[x], -u[x]);
                let row = (l.iter().zip(u)).map(|(p, q)| mul_add(b, *p, a.checked_mul(*q)?));
                self.geqs.push(row.collect::<Option<_>>()?);
            }
        }
        steps.push(Step::Project(x, rows));
        Some(())
    }

    /// Fix the variable with the fewest values to each in turn.
    fn branch(self, budget: &mut u32, steps: Vec<Step>) -> Outcome {
        let n = self.n;
        let mentioned = |x: &usize| self.eqs.iter().chain(&self.geqs).any(|r| r[*x] != 0);
        let narrowest = (0..n)
            .filter(mentioned)
            .min_by_key(|&x| self.bounds[x].1 - self.bounds[x].0);
        let Some(x) = narrowest else {
            return Outcome::Spent;
        };
        let mut spent = false;
        for v in self.bounds[x].0..=self.bounds[x].1 {
            let Some(left) = budget.checked_sub(1) else {
                return Outcome::Spent;
            };
            *budget = left;
            let mut fixed = self.clone();
            let mut row = vec![0; n + 1];
            (row[x], row[n]) = (1, -v);
            fixed.eqs.push(row);
            match fixed.solve(budget) {
                Outcome::Point(p) => return Outcome::Point(retrace(p, &steps)),
                Outcome::Empty => {}
                Outcome::Spent => spent = true,
            }
        }
        if spent {
            Outcome::Spent
        } else {
            Outcome::Empty
        }
    }

    /// Divide each row by the gcd of its coefficients (rounding a `≥`
    /// row's constant down, which is exact over the integers), fold rows
    /// of one variable into its bounds, and drop rows every point in the
    /// bounds satisfies; `false` when some row or bound cannot hold.
    fn tidy(&mut self) -> bool {
        let n = self.n;
        let gcd = |row: &[i64]| row[..n].iter().fold(0, |g, &c| num_gcd(g, c.abs() as i128)) as i64;
        for row in self.eqs.iter_mut() {
            match gcd(row) {
                0 if row[n] != 0 => return false,
                g if g > 0 && row[n] % g != 0 => return false,
                g if g > 1 => row.iter_mut().for_each(|c| *c /= g),
                _ => {}
            }
        }
        let mut k = 0;
        while k < self.geqs.len() {
            let row = &mut self.geqs[k];
            let g = gcd(row);
            if g > 1 {
                row[..n].iter_mut().for_each(|c| *c /= g);
                row[n] = row[n].div_euclid(g);
            }
            let mut vars = (0..n).filter(|&j| row[j] != 0);
            match (vars.next(), vars.next()) {
                (Some(x), None) => {
                    // `±x + k ≥ 0`.
                    let (lo, hi) = &mut self.bounds[x];
                    if row[x] > 0 {
                        *lo = (*lo).max(-row[n]);
                    } else {
                        *hi = (*hi).min(row[n]);
                    }
                }
                (None, _) if row[n] < 0 => return false,
                (None, _) => {}
                _ => {
                    k += 1;
                    continue;
                }
            }
            self.geqs.swap_remove(k);
        }
        if self.bounds.iter().any(|(lo, hi)| lo > hi) {
            return false;
        }
        // Each row's range over the bounds.
        let bounds = &self.bounds;
        let range = |row: &[i64]| {
            (0..n)
                .filter(|&j| row[j] != 0)
                .fold((row[n] as i128, row[n] as i128), |(lo, hi), j| {
                    let (a, b) = (
                        bounds[j].0 as i128 * row[j] as i128,
                        bounds[j].1 as i128 * row[j] as i128,
                    );
                    (lo + a.min(b), hi + a.max(b))
                })
        };
        if (self.eqs.iter().map(|r| range(r))).any(|(lo, hi)| lo > 0 || hi < 0)
            || (self.geqs.iter().map(|r| range(r))).any(|(_, hi)| hi < 0)
        {
            return false;
        }
        self.geqs.retain(|r| range(r).0 < 0);
        self.eqs.retain(|row| row[..n].iter().any(|&c| c != 0));
        true
    }
}

/// Give each variable the steps removed a value, last step first. The
/// arithmetic wraps: a point is only ever used after [`confirm_race_at`]
/// has evaluated it on the loop itself.
fn retrace(mut point: Vec<i64>, steps: &[Step]) -> Vec<i64> {
    let n = point.len();
    // `Σ row[j]·x[j] + row[n]` over every variable but `x`.
    let rest = |row: &[i64], x: usize, point: &[i64]| {
        (0..n)
            .filter(|&j| j != x)
            .fold(row[n], |s, j| s.wrapping_add(row[j].wrapping_mul(point[j])))
    };
    for step in steps.iter().rev() {
        let (x, v) = match step {
            // `def[x]·x + rest = 0` with `def[x] = ±1`.
            Step::Subst(x, def) => (*x, rest(def, *x, &point).wrapping_mul(-def[*x])),
            // The largest lower bound `c·x + rest ≥ 0`, else the smallest
            // upper bound.
            Step::Project(x, rows) => {
                let x = *x;
                let bound = |r: &Vec<i64>| {
                    let (c, s) = (r[x], rest(r, x, &point));
                    if c > 0 {
                        let s = s.wrapping_neg();
                        s.div_euclid(c) + (s.rem_euclid(c) != 0) as i64
                    } else {
                        s.div_euclid(-c)
                    }
                };
                let lower = rows.iter().filter(|r| r[x] > 0).map(bound).max();
                let upper = rows.iter().filter(|r| r[x] < 0).map(bound).min();
                (x, lower.or(upper).unwrap_or(0))
            }
        };
        point[x] = v;
    }
    point
}

fn num_gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        num_gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::oracle::confirm_race;
    use crate::buffer::Buffer;
    use tvm_te::ops::float;
    use tvm_te::{DType, Var};

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
    fn guard_on_parallel_var_is_decided() {
        // parallel i: if i < w { B[0] = 0 } — one writing iteration is
        // free, two race.
        for (w, races) in [(1, false), (2, true)] {
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
                    cond: tvm_te::ops::cmp::lt(i.expr(), tvm_te::ops::int(w)),
                    then: Box::new(store),
                    else_: None,
                },
            );
            let f = func(body, vec![b]);
            let diags = run(&f);
            assert_eq!(races, !diags.is_empty(), "{diags:?}");
            assert!(diags
                .iter()
                .all(|d| d.severity == Severity::Deny && d.code == codes::RACE_WW));
            assert_eq!(race_free_parallel_vars(&f).contains(&i.id), !races);
        }
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
    fn outer_shift_is_a_race_with_a_witness() {
        // for o in 0..2: parallel p in 0..8: A[p + o] = A[p] + 1 — at
        // o = 1 iteration p writes the element iteration p + 1 reads. At
        // o = 0 the offsets line up, so only o = 1 witnesses the race.
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
        let found = races(&f);
        assert_eq!(found.len(), 1, "{found:?}");
        let (d, w) = &found[0];
        assert_eq!((d.code, d.severity), (codes::RACE_RW, Severity::Deny));
        let w = w.as_ref().expect("a race denial carries its witness");
        assert!(w.at.iter().all(|at| at.contains(&(o.id, 1))), "{w:?}");
        assert!(confirm_race(&f, w));
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
