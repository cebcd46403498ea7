//! Brute-force differential tests for the bounds analyzer's access
//! extraction.
//!
//! Each case builds a schedule-shaped loop nest by hand — the split,
//! reorder, vectorize and unroll index shapes that the 3mm, Cholesky and
//! LU molds actually lower to — and enumerates every reachable iteration
//! concretely. The ground truth (all accesses in bounds, or at least one
//! out of bounds) must agree with the analyzer's verdict on both sides:
//! no missed violation, no phantom rejection.

use std::collections::HashMap;
use std::sync::Arc;
use tvm_te::ops::cmp::{le, lt};
use tvm_te::ops::{floordiv, floormod, int, max_expr, min_expr};
use tvm_te::{ops, DType, PrimExpr, Var};
use tvm_tir::analysis::eval_int;
use tvm_tir::analyze;
use tvm_tir::{Buffer, ForKind, PrimFunc, Stmt};

/// Enumerate every reachable `(buffer, indices)` access of `func` and
/// report whether all of them are in bounds. Panics on loops too large
/// to enumerate — these tests keep extents tiny on purpose.
fn brute_force_in_bounds(func: &PrimFunc) -> bool {
    type Access = (Vec<i64>, Vec<usize>);

    fn expr_reads(e: &PrimExpr, env: &HashMap<u64, i64>, out: &mut Vec<Access>) {
        tvm_te::visitor::walk(e, &mut |node| {
            if let PrimExpr::TensorRead(t, idx) = node {
                let vals = idx
                    .iter()
                    .map(|i| eval_int(i, env).expect("enumerable index"))
                    .collect();
                out.push((vals, t.shape().to_vec()));
            }
        });
    }

    fn run(stmt: &Stmt, env: &mut HashMap<u64, i64>, out: &mut Vec<Access>) {
        match stmt {
            Stmt::For {
                var,
                min,
                extent,
                body,
                ..
            } => {
                assert!(*extent <= 64, "test nests must stay enumerable");
                for v in *min..min + extent.max(&0) {
                    let prev = env.insert(var.id, v);
                    run(body, env, out);
                    match prev {
                        Some(p) => {
                            env.insert(var.id, p);
                        }
                        None => {
                            env.remove(&var.id);
                        }
                    }
                }
            }
            Stmt::IfThenElse { cond, then, else_ } => {
                if eval_int(cond, env).expect("enumerable guard") != 0 {
                    run(then, env, out);
                } else if let Some(e) = else_ {
                    run(e, env, out);
                }
            }
            Stmt::Seq(stmts) => {
                for s in stmts {
                    run(s, env, out);
                }
            }
            Stmt::BufferStore {
                buffer,
                indices,
                value,
            } => {
                let vals: Vec<i64> = indices
                    .iter()
                    .map(|i| eval_int(i, env).expect("enumerable index"))
                    .collect();
                out.push((vals, buffer.shape.clone()));
                for i in indices {
                    expr_reads(i, env, out);
                }
                expr_reads(value, env, out);
            }
            Stmt::Nop => {}
        }
    }

    let mut env = HashMap::new();
    let mut accesses = Vec::new();
    run(&func.body, &mut env, &mut accesses);
    assert!(!accesses.is_empty(), "nest must actually touch memory");
    accesses.iter().all(|(idx, shape)| {
        idx.len() == shape.len() && idx.iter().zip(shape).all(|(&i, &e)| 0 <= i && i < e as i64)
    })
}

/// The analyzer and the enumeration must agree on `func`.
fn assert_agreement(func: &PrimFunc, context: &str) {
    let safe = brute_force_in_bounds(func);
    let report = analyze::check(func);
    // Race diagnostics are out of scope here: only compare bounds codes.
    let bounds_rejected = report
        .denials()
        .any(|d| d.code == analyze::codes::OOB || d.code == analyze::codes::UNANALYZABLE);
    if safe {
        assert!(
            !bounds_rejected,
            "{context}: enumeration proves safety but analyzer rejected:\n{:#?}",
            report.diagnostics
        );
    } else {
        assert!(
            bounds_rejected,
            "{context}: enumeration found an OOB access but analyzer accepted"
        );
    }
}

fn for_(var: &Var, min_: i64, extent: i64, kind: ForKind, body: Stmt) -> Stmt {
    Stmt::For {
        var: var.clone(),
        min: min_,
        extent,
        kind,
        body: Box::new(body),
    }
}

fn func(name: &str, body: Stmt, bufs: Vec<Arc<Buffer>>) -> PrimFunc {
    PrimFunc {
        name: name.into(),
        params: bufs,
        allocs: vec![],
        body,
    }
}

/// 3mm-shaped: `E[i,j] += A[i,k] * B[k,j]` with `i` split into
/// `(io, ii)` on a non-dividing tile and a `min`-clamped tail, `k`
/// unrolled. The tail clamp `min(T, N - io*T)` is the exact shape the
/// repo's split lowering emits.
fn mm3_split_nest(n: i64, tile: i64, shift: i64) -> PrimFunc {
    let (io, ii, j, k) = (
        Var::index("io"),
        Var::index("ii"),
        Var::index("j"),
        Var::index("k"),
    );
    let e = Buffer::new("E", [n as usize, n as usize], DType::F64);
    let a = tvm_te::placeholder([n as usize, n as usize], DType::F64, "A");
    let b = tvm_te::placeholder([n as usize, n as usize], DType::F64, "B");
    let e_read = tvm_te::placeholder([n as usize, n as usize], DType::F64, "E");
    let i_expr = io.expr() * tile + ii.expr() + shift;
    let store = Stmt::BufferStore {
        buffer: e.clone(),
        indices: vec![i_expr.clone(), j.expr()],
        value: e_read.at(&[i_expr.clone(), j.expr()])
            + a.at(&[i_expr, k.expr()]) * b.at(&[k.expr(), j.expr()]),
    };
    let outer_tiles = (n + tile - 1) / tile;
    let body = for_(
        &io,
        0,
        outer_tiles,
        ForKind::Serial,
        for_(
            &ii,
            0,
            tile,
            ForKind::Serial,
            Stmt::IfThenElse {
                cond: lt(io.expr() * tile + ii.expr(), int(n)),
                then: Box::new(for_(
                    &j,
                    0,
                    n,
                    ForKind::Serial,
                    for_(&k, 0, n, ForKind::Unrolled, store),
                )),
                else_: None,
            },
        ),
    );
    func("mm3_split", body, vec![e])
}

/// Cholesky-shaped triangular nest: guarded `j <= i` accesses of a
/// square buffer, reordered so `j` is outermost (reorder must not
/// change the verdict).
fn cholesky_triangular_nest(n: i64, widen: bool) -> PrimFunc {
    let (j, i) = (Var::index("j"), Var::index("i"));
    let a_buf = Buffer::new("A", [n as usize, n as usize], DType::F64);
    let a = tvm_te::placeholder([n as usize, n as usize], DType::F64, "A");
    let extent = if widen { n + 1 } else { n };
    let store = Stmt::BufferStore {
        buffer: a_buf.clone(),
        indices: vec![i.expr(), j.expr()],
        value: a.at(&[i.expr(), j.expr()]) / a.at(&[j.expr(), j.expr()]),
    };
    // reorder(j, i): j outermost, triangular guard keeps j <= i.
    let body = for_(
        &j,
        0,
        n,
        ForKind::Serial,
        for_(
            &i,
            0,
            extent,
            ForKind::Serial,
            Stmt::IfThenElse {
                cond: le(j.expr(), i.expr()),
                then: Box::new(store),
                else_: None,
            },
        ),
    );
    func("cholesky_tri", body, vec![a_buf])
}

/// LU-shaped fused-then-split nest: a single fused variable `f` over
/// `i*n + j` is recovered via `f / n` and `f % n` — the floordiv/floormod
/// index shape of fused schedules — with the inner column loop
/// vectorized.
fn lu_fused_divmod_nest(n: i64, denom: i64) -> PrimFunc {
    let (f, k) = (Var::index("f"), Var::index("k"));
    let a_buf = Buffer::new("A", [n as usize, n as usize], DType::F64);
    let a = tvm_te::placeholder([n as usize, n as usize], DType::F64, "A");
    let row = floordiv(f.expr(), int(denom));
    let col = floormod(f.expr(), int(denom));
    let store = Stmt::BufferStore {
        buffer: a_buf.clone(),
        indices: vec![row.clone(), col.clone()],
        value: a.at(&[row, k.expr()]) * a.at(&[k.expr(), col]),
    };
    let body = for_(
        &f,
        0,
        n * n,
        ForKind::Serial,
        for_(&k, 0, n, ForKind::Vectorized, store),
    );
    func("lu_fused", body, vec![a_buf])
}

/// min/max-clamped boundary access — the stencil-ish shape `A[max(0,
/// min(i + off, n-1))]` stays in bounds for any offset.
fn clamped_neighbor_nest(n: i64, off: i64, clamp: bool) -> PrimFunc {
    let i = Var::index("i");
    let b = Buffer::new("B", [n as usize], DType::F64);
    let a = tvm_te::placeholder([n as usize], DType::F64, "A2");
    let raw = i.expr() + int(off);
    let idx = if clamp {
        max_expr(int(0), min_expr(raw, int(n - 1)))
    } else {
        raw
    };
    let store = Stmt::BufferStore {
        buffer: b.clone(),
        indices: vec![i.expr()],
        value: a.at(&[idx]),
    };
    let a_storage = Buffer::new("A2", [n as usize], DType::F64);
    func(
        "clamped",
        for_(&i, 0, n, ForKind::Serial, store),
        vec![b, a_storage],
    )
}

#[test]
fn mm3_split_with_tail_guard_agrees() {
    // 10 % 4 != 0: the tail tile is partial and only the guard saves it.
    assert_agreement(&mm3_split_nest(10, 4, 0), "3mm split, guarded tail");
    // Dividing tile: no partial tiles, still safe.
    assert_agreement(&mm3_split_nest(12, 4, 0), "3mm split, exact tiles");
}

#[test]
fn mm3_split_shifted_index_agrees() {
    // A +1 shift pushes the last guarded row out of bounds.
    assert_agreement(&mm3_split_nest(10, 4, 1), "3mm split, shifted");
    assert_agreement(&mm3_split_nest(12, 4, 2), "3mm split, shifted by 2");
}

#[test]
fn cholesky_triangular_guard_agrees() {
    assert_agreement(&cholesky_triangular_nest(8, false), "cholesky triangular");
    // Widening the guarded loop keeps j <= i <= n reachable at i = n.
    assert_agreement(&cholesky_triangular_nest(8, true), "cholesky widened");
}

#[test]
fn lu_fused_divmod_agrees() {
    // f/n, f%n over f in [0, n*n): exact cover of the square.
    assert_agreement(&lu_fused_divmod_nest(5, 5), "lu fused exact");
    // Dividing by n-1 overflows the row index at the top of the range.
    assert_agreement(&lu_fused_divmod_nest(5, 4), "lu fused wrong denominator");
}

#[test]
fn clamped_boundary_access_agrees() {
    assert_agreement(&clamped_neighbor_nest(9, 1, true), "clamped +1");
    assert_agreement(&clamped_neighbor_nest(9, -3, true), "clamped -3");
    // Without the clamp the +1 neighbor runs off the end.
    assert_agreement(&clamped_neighbor_nest(9, 1, false), "unclamped +1");
    // Offset 0 needs no clamp at all.
    assert_agreement(&clamped_neighbor_nest(9, 0, false), "identity");
}

#[test]
fn vectorized_and_unrolled_kinds_do_not_change_bounds_verdicts() {
    for kind in [
        ForKind::Serial,
        ForKind::Parallel,
        ForKind::Vectorized,
        ForKind::Unrolled,
    ] {
        let i = Var::index("i");
        let b = Buffer::new("B", [6usize], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![i.expr()],
            value: ops::float(1.0),
        };
        let f = func("kinds", for_(&i, 0, 6, kind, store), vec![b]);
        assert_agreement(&f, &format!("kind {kind:?}"));
    }
}

/// Enumerate every execution of `func` and report, for each parallel or
/// vectorized loop by variable id, whether two distinct iterations of one
/// of its executions — every outer iteration, not only the first —
/// touch one element of a buffer, at least one of them writing. Buffer
/// reads of `if` conditions count, as in the analyzer.
fn brute_force_races(func: &PrimFunc) -> HashMap<u64, bool> {
    /// (loop id, execution of that loop, buffer, row-major offset) →
    /// (iteration, is a write) of every access.
    type Touches = HashMap<(u64, usize, String, i64), Vec<(i64, bool)>>;

    struct Run {
        env: HashMap<u64, i64>,
        /// The enclosing parallel/vectorized loops: (id, execution).
        open: Vec<(u64, usize)>,
        executions: usize,
        touches: Touches,
        loops: HashMap<u64, bool>,
    }

    impl Run {
        fn touch(&mut self, name: &str, idx: &[PrimExpr], shape: &[usize], write: bool) {
            let mut off = 0i64;
            for (i, &n) in idx.iter().zip(shape) {
                off = off * n as i64 + eval_int(i, &self.env).expect("enumerable index");
            }
            for &(id, exec) in &self.open {
                let key = (id, exec, name.to_string(), off);
                self.touches
                    .entry(key)
                    .or_default()
                    .push((self.env[&id], write));
            }
        }

        fn reads(&mut self, e: &PrimExpr) {
            let mut found = Vec::new();
            tvm_te::visitor::walk(e, &mut |node| {
                if let PrimExpr::TensorRead(t, idx) = node {
                    found.push((t.name().to_string(), idx.to_vec(), t.shape().to_vec()));
                }
            });
            for (name, idx, shape) in found {
                self.touch(&name, &idx, &shape, false);
            }
        }

        fn run(&mut self, stmt: &Stmt) {
            match stmt {
                Stmt::For {
                    var,
                    min,
                    extent,
                    kind,
                    body,
                } => {
                    assert!(*extent <= 64, "test nests must stay enumerable");
                    let par = matches!(kind, ForKind::Parallel | ForKind::Vectorized);
                    if par {
                        self.loops.entry(var.id).or_insert(false);
                        self.executions += 1;
                        self.open.push((var.id, self.executions));
                    }
                    for v in *min..min + extent.max(&0) {
                        self.env.insert(var.id, v);
                        self.run(body);
                    }
                    self.env.remove(&var.id);
                    if par {
                        self.open.pop();
                    }
                }
                Stmt::IfThenElse { cond, then, else_ } => {
                    self.reads(cond);
                    if eval_int(cond, &self.env).expect("enumerable guard") != 0 {
                        self.run(then);
                    } else if let Some(e) = else_ {
                        self.run(e);
                    }
                }
                Stmt::Seq(stmts) => stmts.iter().for_each(|s| self.run(s)),
                Stmt::BufferStore {
                    buffer,
                    indices,
                    value,
                } => {
                    indices.iter().chain([value]).for_each(|e| self.reads(e));
                    self.touch(&buffer.name, indices, &buffer.shape, true);
                }
                Stmt::Nop => {}
            }
        }
    }

    let mut run = Run {
        env: HashMap::new(),
        open: Vec::new(),
        executions: 0,
        touches: HashMap::new(),
        loops: HashMap::new(),
    };
    run.run(&func.body);
    for ((id, ..), touches) in &run.touches {
        let race = touches
            .iter()
            .any(|&(t1, w1)| (touches.iter()).any(|&(t2, w2)| t1 != t2 && (w1 || w2)));
        if race {
            run.loops.insert(*id, true);
        }
    }
    run.loops
}

/// The race check and the enumeration agree on every parallel or
/// vectorized loop of `func` (loop variables named apart): a loop the
/// enumeration finds a race on is denied, with a witness that holds, and
/// a loop it finds none on has no finding and, if parallel, is proven.
/// No `TIR-RACE-MAYBE` appears.
fn assert_race_agreement(func: &PrimFunc, context: &str) {
    let truth = brute_force_races(func);
    assert!(
        !truth.is_empty(),
        "{context}: no parallel or vectorized loop"
    );
    let found = analyze::deps::races(func);
    let proven = analyze::deps::race_free_parallel_vars(func);
    assert!(
        found
            .iter()
            .all(|(d, _)| d.code != analyze::codes::RACE_MAYBE),
        "{context}: unresolved finding {found:?}"
    );
    let mut names = HashMap::new();
    func.body.walk(&mut |s| {
        if let Stmt::For { var, kind, .. } = s {
            names.insert(var.id, (var.name.clone(), *kind));
        }
    });
    for (id, race) in truth {
        let (name, kind) = &names[&id];
        let on_loop: Vec<_> = (found.iter())
            .filter(|(d, _)| d.loop_var.as_deref() == Some(name.as_str()))
            .collect();
        if race {
            assert!(
                (on_loop.iter()).any(|(d, w)| {
                    d.severity == analyze::Severity::Deny
                        && w.as_ref()
                            .is_some_and(|w| analyze::oracle::confirm_race(func, w))
                }),
                "{context}: the enumeration finds a race on `{name}`, the analyzer {on_loop:?}"
            );
            assert!(!proven.contains(&id), "{context}: racy `{name}` proven");
        } else {
            assert!(
                on_loop.is_empty(),
                "{context}: no race on `{name}`, but the analyzer {on_loop:?}"
            );
            assert!(
                *kind != ForKind::Parallel || proven.contains(&id),
                "{context}: race-free `{name}` not proven"
            );
        }
    }
}

/// `parallel io in 0..tiles: for ii in 0..tile: if io*step + ii < n {
/// B[io*step + ii] = B[io*step + ii] + 1 }`: a split with a non-divisor
/// tail when `step == tile`, overlapping tiles when `step < tile`.
fn split_tail_nest(n: i64, tile: i64, step: i64) -> PrimFunc {
    let (io, ii) = (Var::index("io"), Var::index("ii"));
    let b = Buffer::new("B", [n as usize], DType::F64);
    let b_t = tvm_te::placeholder([n as usize], DType::F64, "B");
    let idx = io.expr() * step + ii.expr();
    let store = Stmt::BufferStore {
        buffer: b.clone(),
        indices: vec![idx.clone()],
        value: b_t.at(std::slice::from_ref(&idx)) + ops::float(1.0),
    };
    let guarded = Stmt::IfThenElse {
        cond: lt(idx, int(n)),
        then: Box::new(store),
        else_: None,
    };
    let tiles = (n + step - 1) / step;
    let body = for_(
        &io,
        0,
        tiles,
        ForKind::Parallel,
        for_(&ii, 0, tile, ForKind::Serial, guarded),
    );
    func("split_tail", body, vec![b])
}

/// `parallel f in 0..rows*cols: A[floordiv(f, d), floormod(f, d)] = 0`
/// over `A: [rows + 1, cols]`: one element per iteration when `d ==
/// cols`; a wrong denominator lands two iterations on one offset.
fn fused_divmod_nest(rows: i64, cols: i64, d: i64) -> PrimFunc {
    let f = Var::index("f");
    let a = Buffer::new("A", [rows as usize + 1, cols as usize], DType::F64);
    let store = Stmt::BufferStore {
        buffer: a.clone(),
        indices: vec![floordiv(f.expr(), int(d)), floormod(f.expr(), int(d))],
        value: ops::float(0.0),
    };
    func(
        "fused",
        for_(&f, 0, rows * cols, ForKind::Parallel, store),
        vec![a],
    )
}

/// `parallel f in 0..12: if floormod(f, 4) >= r { B[floordiv(f, 4)] = 1 }`:
/// a guard on a fused loop's remainder leaves one iteration per row
/// when `r == 3`, two when `r == 2`.
fn fused_guard_nest(r: i64) -> PrimFunc {
    let f = Var::index("f");
    let b = Buffer::new("B", [3usize], DType::F64);
    let store = Stmt::BufferStore {
        buffer: b.clone(),
        indices: vec![floordiv(f.expr(), int(4))],
        value: ops::float(1.0),
    };
    let body = Stmt::IfThenElse {
        cond: tvm_te::ops::cmp::ge(floormod(f.expr(), int(4)), int(r)),
        then: Box::new(store),
        else_: None,
    };
    func(
        "fused_guard",
        for_(&f, 0, 12, ForKind::Parallel, body),
        vec![b],
    )
}

/// `parallel i in 0..8: if i < w { B[0] = i }`: a guard on the parallel
/// variable lets `w` iterations write.
fn parallel_guard_nest(w: i64) -> PrimFunc {
    let i = Var::index("i");
    let b = Buffer::new("B", [2usize], DType::F64);
    let store = Stmt::BufferStore {
        buffer: b.clone(),
        indices: vec![int(0)],
        value: ops::float(1.0),
    };
    let body = Stmt::IfThenElse {
        cond: lt(i.expr(), int(w)),
        then: Box::new(store),
        else_: None,
    };
    func("guard", for_(&i, 0, 8, ForKind::Parallel, body), vec![b])
}

/// `for o in 0..outer: parallel p in 0..8: A[p + o] = A[p] + 1`: with a
/// second outer iteration, iteration p writes what p + 1 reads.
fn outer_shift_nest(outer: i64) -> PrimFunc {
    let (o, p) = (Var::index("o"), Var::index("p"));
    let a = Buffer::new("A", [9usize], DType::F64);
    let a_t = tvm_te::placeholder([9], DType::F64, "A");
    let store = Stmt::BufferStore {
        buffer: a.clone(),
        indices: vec![p.expr() + o.expr()],
        value: a_t.at(&[p.expr()]) + ops::float(1.0),
    };
    let body = for_(
        &o,
        0,
        outer,
        ForKind::Serial,
        for_(&p, 0, 8, ForKind::Parallel, store),
    );
    func("outer_shift", body, vec![a])
}

/// `parallel i in 0..n: for j in 0..n: if j <= i { A[i, j] = A[j, col] }`:
/// iteration i reads row j's column `col`; with `col = i` only its own
/// diagonal can meet a write, with `col = 0` row j's first element is
/// written by iteration j.
fn triangular_nest(n: i64, transpose: bool) -> PrimFunc {
    let (i, j) = (Var::index("i"), Var::index("j"));
    let a = Buffer::new("A", [n as usize, n as usize], DType::F64);
    let a_t = tvm_te::placeholder([n as usize, n as usize], DType::F64, "A");
    let col = if transpose { i.expr() } else { int(0) };
    let store = Stmt::BufferStore {
        buffer: a.clone(),
        indices: vec![i.expr(), j.expr()],
        value: a_t.at(&[j.expr(), col]),
    };
    let body = Stmt::IfThenElse {
        cond: le(j.expr(), i.expr()),
        then: Box::new(store),
        else_: None,
    };
    let nest = for_(
        &i,
        0,
        n,
        ForKind::Parallel,
        for_(&j, 0, n, ForKind::Serial, body),
    );
    func("triangular", nest, vec![a])
}

/// `parallel p in 0..n: for k in 0..n: C[row(p)] = C[row(p)] + A[p, k]`:
/// a reduction into `C[0]` across the parallel axis races, one into
/// `C[p]` does not.
fn reduction_nest(n: i64, across: bool) -> PrimFunc {
    let (p, k) = (Var::index("p"), Var::index("k"));
    let c = Buffer::new("C", [n as usize], DType::F64);
    let c_t = tvm_te::placeholder([n as usize], DType::F64, "C");
    let a = tvm_te::placeholder([n as usize, n as usize], DType::F64, "A");
    let row = if across { int(0) } else { p.expr() };
    let store = Stmt::BufferStore {
        buffer: c.clone(),
        indices: vec![row.clone()],
        value: c_t.at(&[row]) + a.at(&[p.expr(), k.expr()]),
    };
    let nest = for_(
        &p,
        0,
        n,
        ForKind::Parallel,
        for_(&k, 0, n, ForKind::Serial, store),
    );
    func("reduction", nest, vec![c])
}

/// `for i in 0..4: vectorized v in 0..4: C[i, col] = C[i, col] + 1`: lanes
/// over their own column, or all into column 0.
fn vectorized_nest(lanes_apart: bool) -> PrimFunc {
    let (i, v) = (Var::index("i"), Var::index("v"));
    let c = Buffer::new("C", [4usize, 4], DType::F64);
    let c_t = tvm_te::placeholder([4, 4], DType::F64, "C");
    let col = if lanes_apart { v.expr() } else { int(0) };
    let idx = vec![i.expr(), col];
    let store = Stmt::BufferStore {
        buffer: c.clone(),
        indices: idx.clone(),
        value: c_t.at(&idx) + ops::float(1.0),
    };
    let nest = for_(
        &i,
        0,
        4,
        ForKind::Serial,
        for_(&v, 0, 4, ForKind::Vectorized, store),
    );
    func("vectorized", nest, vec![c])
}

#[test]
fn race_verdicts_agree_with_enumeration() {
    let cases = [
        (split_tail_nest(10, 4, 4), "split, non-divisor tail"),
        (split_tail_nest(10, 6, 4), "split, overlapping tiles"),
        (split_tail_nest(12, 3, 3), "split, exact tiles"),
        (fused_divmod_nest(3, 4, 4), "fused, exact"),
        (fused_divmod_nest(3, 4, 3), "fused, wrong denominator"),
        (fused_divmod_nest(3, 4, 6), "fused, wide denominator"),
        (
            fused_guard_nest(3),
            "guard on a fused remainder, one per row",
        ),
        (
            fused_guard_nest(2),
            "guard on a fused remainder, two per row",
        ),
        (parallel_guard_nest(1), "guard leaves one iteration"),
        (parallel_guard_nest(2), "guard leaves two iterations"),
        (outer_shift_nest(1), "no outer shift"),
        (outer_shift_nest(2), "outer shift"),
        (triangular_nest(6, true), "triangular, transposed read"),
        (triangular_nest(6, false), "triangular, first column"),
        (reduction_nest(5, true), "parallel reduction"),
        (reduction_nest(5, false), "row-wise reduction"),
        (vectorized_nest(true), "vectorized lanes apart"),
        (vectorized_nest(false), "vectorized lanes into one element"),
    ];
    let (mut racy, mut free) = (0, 0);
    for (f, context) in &cases {
        assert_race_agreement(f, context);
        for race in brute_force_races(f).into_values() {
            (racy, free) = (racy + race as usize, free + !race as usize);
        }
    }
    // Both verdicts are exercised.
    assert!(racy >= 6 && free >= 6, "{racy} racy, {free} free loops");
}
