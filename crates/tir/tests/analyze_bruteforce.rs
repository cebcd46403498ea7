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
            "{context}: enumeration proves safety but analyzer rejected:\n{}",
            report.render_text()
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
