//! Loop interchange into a narrow or strided row.
//!
//! gemm `{1,2}` ends its nest in a two-element row, `for j.outer { for k {
//! for j.inner in [0, 2) } }`, and 2mm stage 2 at `{·,·,36,1}` in a column
//! walk of `F[i.outer·36 + i.inner, j.outer]`. [`plan`] takes a serial
//! loop `L` over a perfect nest of serial loops whose innermost row `R`, a
//! run of stores, is shorter than one packed sweep block or strided:
//! where every index reads the two as `L·extent(R) + R` they collapse into
//! one loop (`for k { for j in [0, 220) }`), else `L` goes innermost under
//! the column. `L` must be race-free ([`race_free_loop`], the analyzer's
//! question for a parallel loop): two operations on one element then run
//! in one iteration of `L`, ordered by the other loops, whose order the
//! move keeps, so each cell keeps its accumulation order bit for bit.

use crate::analysis::LoopInfo;
use crate::analyze::deps::race_free_loop;
use crate::passes::affine::{affine_of, offset_of, Affine, Atom, VarRanges};
use crate::passes::{simplify, subst_stmt};
use crate::stmt::{ForKind, Stmt};
use std::collections::HashMap;
use std::sync::Arc;
use tvm_te::expr::BinOp;
use tvm_te::visitor::walk;
use tvm_te::{PrimExpr, Var};

/// Elements of one packed sweep block: the JIT's axpy microkernel runs
/// four VEX-256 accumulators of four `f64` lanes a trip.
pub(crate) const SWEEP_BLOCK: i64 = 16;

/// What [`plan`] does with a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// The loop and the row become one loop, in the row's place.
    Collapse,
    /// The loop becomes the innermost loop, under the row.
    Innermost,
}

/// Move every serial loop [`plan`] admits into its row, outermost first;
/// a loop that moves is not revisited.
pub fn interchange_rows(stmt: &Stmt) -> Stmt {
    let mut out = stmt.clone();
    rewrite(&mut out, &mut Vec::new(), &mut Vec::new());
    out
}

fn rewrite(stmt: &mut Stmt, loops: &mut Vec<LoopInfo>, guards: &mut Vec<PrimExpr>) {
    if let Ok(how) = plan(stmt, loops, guards) {
        *stmt = apply(stmt, how);
        return;
    }
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            body,
            ..
        } => {
            loops.push(LoopInfo::new(var, *min, *extent));
            rewrite(body, loops, guards);
            loops.pop();
        }
        Stmt::IfThenElse { cond, then, else_ } => {
            let negated = PrimExpr::Not(Arc::new(cond.clone()));
            for (branch, guard) in [(Some(then), cond.clone()), (else_.as_mut(), negated)] {
                guards.push(guard);
                branch.into_iter().for_each(|b| rewrite(b, loops, guards));
                guards.pop();
            }
        }
        Stmt::Seq(items) => items.iter_mut().for_each(|s| rewrite(s, loops, guards)),
        _ => {}
    }
}

/// The loops `stmt` opens one inside the other, outermost first, and the
/// body of the innermost.
fn nest(mut stmt: &Stmt) -> (Vec<(&Var, i64, i64, ForKind)>, &Stmt) {
    let mut loops = Vec::new();
    while let Stmt::For {
        var,
        min,
        extent,
        kind,
        body,
    } = stmt
    {
        loops.push((var, *min, *extent, *kind));
        stmt = body;
    }
    (loops, stmt)
}

/// How many times `e` names a variable of `ids`.
fn uses(e: &PrimExpr, ids: &[u64]) -> usize {
    let mut n = 0;
    walk(e, &mut |x| {
        n += matches!(x, PrimExpr::Var(v) if ids.contains(&v.id)) as usize
    });
    n
}

/// What to do with the loop `l` under `loops` (outermost first) and
/// `guards` (negated on `else` branches), or why nothing.
pub fn plan(l: &Stmt, loops: &[LoopInfo], guards: &[PrimExpr]) -> Result<Move, &'static str> {
    let (nest, row_body) = nest(l);
    let Some(((var, min, _, ForKind::Serial), inner)) = nest.split_first() else {
        return Err("not a serial loop");
    };
    let Some((row, row_min, row_extent, _)) = inner.last() else {
        return Err("no loop inside");
    };
    if inner.iter().any(|l| l.3 != ForKind::Serial) {
        return Err("a parallel, vectorized or unrolled loop in the way");
    }
    // The row's body is stores, one after the other: no loop, no guard.
    let body = match row_body {
        Stmt::Seq(items) => &items[..],
        one => std::slice::from_ref(one),
    };
    let mut stores = Vec::new();
    for s in body {
        let Stmt::BufferStore {
            buffer,
            indices,
            value,
        } = s
        else {
            return Err("not a perfect nest");
        };
        stores.push((indices, value, &buffer.shape));
    }
    let ranges: VarRanges = (loops.iter().map(|l| (l.var_id, l.range())))
        .chain(nest.iter().map(|l| (l.0.id, (l.1, l.1 + l.2 - 1))))
        .collect();
    // Each store moves by more than one element along `R` (a column) and
    // by one along `L`; an offset without a form moves by none.
    let forms: Vec<_> = (stores.iter().map(|s| offset_of(s.0, s.2, &ranges))).collect();
    let step = |f: &Option<Affine>, id, at: i64| {
        (f.as_ref()).map_or(0, |f| f.delta(id, at, at + 1).unwrap_or(0))
    };
    let column = forms.iter().all(|f| step(f, row.id, *row_min).abs() > 1);
    if !column && *row_extent >= SWEEP_BLOCK {
        return Err("no wider row");
    }
    // Every index, the stores' and the reads'.
    let mut indices: Vec<PrimExpr> = stores.iter().flat_map(|s| s.0.clone()).collect();
    let mut fused = false;
    let exprs = || stores.iter().flat_map(|s| s.0.iter().chain([s.1]));
    for e in exprs() {
        walk(e, &mut |x| match x {
            PrimExpr::Binary(BinOp::FloorDiv | BinOp::FloorMod, ..) => fused = true,
            PrimExpr::TensorRead(_, idx) => indices.extend(idx.iter().cloned()),
            _ => {}
        });
    }
    if fused {
        return Err("fused index");
    }
    // Every index naming `L` or `R` reads them as `L·extent(R) + R`, and
    // nothing else names them.
    let ids = [var.id, row.id];
    let coefficient = |f: &Affine, id| {
        (f.terms.iter().find(|t| (t.0, t.1) == (id, Atom::Var))).map_or(0, |t| t.2)
    };
    let as_one = |i: &&PrimExpr| {
        let f = affine_of(i, &ranges);
        f.is_some_and(|f| coefficient(&f, var.id) == coefficient(&f, row.id) * row_extent)
    };
    let naming: Vec<&PrimExpr> = indices.iter().filter(|i| uses(i, &ids) > 0).collect();
    let collapses = *row_extent < SWEEP_BLOCK
        && (*min, *row_min) == (0, 0)
        && naming.iter().all(as_one)
        && naming.iter().map(|i| uses(i, &ids)).sum::<usize>()
            == exprs().map(|e| uses(e, &ids)).sum::<usize>();
    if !collapses && !column {
        return Err("no wider row");
    }
    if !collapses && !forms.iter().all(|f| step(f, var.id, *min) == 1) {
        return Err("store not contiguous along the loop");
    }
    if !race_free_loop(l, loops, guards) {
        return Err("not race-free");
    }
    Ok([Move::Innermost, Move::Collapse][collapses as usize])
}

/// The loop `l` rebuilt as [`plan`] decided.
fn apply(l: &Stmt, how: Move) -> Stmt {
    let (mut loops, body) = nest(l);
    let (mut body, moved) = (body.clone(), loops.remove(0));
    let fused;
    match how {
        Move::Innermost => loops.push(moved),
        Move::Collapse => {
            let row = loops.pop().expect("plan saw a row");
            let name = row.0.name.strip_suffix(".inner").unwrap_or(&row.0.name);
            // `L·e + R` is `fused` where `L = 0` and `R = fused`.
            fused = Var::index(name.to_string());
            let map = HashMap::from([(moved.0.id, PrimExpr::from(0i64)), (row.0.id, fused.expr())]);
            body = simplify::simplify_stmt(&subst_stmt(&body, &map));
            loops.push((&fused, 0, moved.2 * row.2, ForKind::Serial));
        }
    }
    for (var, min, extent, kind) in loops.into_iter().rev() {
        body = Stmt::For {
            var: var.clone(),
            min,
            extent,
            kind,
            body: Box::new(body),
        };
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::builder::{for_kind, seq, store, when};
    use tvm_te::ops::{cmp, floormod, int};
    use tvm_te::{placeholder, DType};

    type Index = fn(PrimExpr, PrimExpr) -> PrimExpr;

    /// `for j.outer in [0, 4) { for k in [0, 3) { for j.inner in [0, row)
    /// { S[at(j.outer, j.inner)] += X[k]·Y[k] } } }`, the loops of
    /// `kinds`, the store under `guard(j.outer, k)`, and with `beside` a
    /// second store in `k`'s body.
    struct Tile {
        kinds: [ForKind; 3],
        row: i64,
        at: Index,
        guard: Option<Index>,
        beside: bool,
    }

    /// gemm `{1,2}`'s shape: a two-element row at `j.outer·2`.
    fn narrow() -> Tile {
        Tile {
            kinds: [ForKind::Serial; 3],
            row: 2,
            at: |jo, ji| jo * 2 + ji,
            guard: None,
            beside: false,
        }
    }

    /// 2mm stage 2's: a five-element column of a row-major `[5, 4]`.
    fn column() -> Tile {
        Tile {
            row: 5,
            at: |jo, ii| ii * 4 + jo,
            ..narrow()
        }
    }

    fn tile(t: Tile) -> Stmt {
        let (s, x, y) = (
            placeholder([64], DType::F64, "S"),
            placeholder([3], DType::F64, "X"),
            placeholder([3], DType::F64, "Y"),
        );
        let sb = Buffer::from_tensor(&s);
        for_kind("j.outer", 4, t.kinds[0], |jo| {
            for_kind("k", 3, t.kinds[1], |k| {
                let row = for_kind("j.inner", t.row, t.kinds[2], |r| {
                    let at = [(t.at)(jo.clone(), r)];
                    let ks = std::slice::from_ref(&k);
                    let sum = s.at(&at) + x.at(ks) * y.at(ks);
                    let st = store(&sb, &at, sum);
                    match t.guard {
                        Some(g) => when(g(jo.clone(), k.clone()), st),
                        None => st,
                    }
                });
                match t.beside {
                    true => seq([row, store(&sb, &[int(63)], x.at(&[k]))]),
                    false => row,
                }
            })
        })
    }

    #[test]
    fn plan_names_every_refusal() {
        use ForKind::{Parallel, Serial, Unrolled, Vectorized};
        let accepted = [(narrow(), Move::Collapse), (column(), Move::Innermost)];
        for (t, how) in accepted {
            assert_eq!(plan(&tile(t), &[], &[]), Ok(how));
        }
        // Each refusal changes one thing about an accepted nest.
        let table = [
            (
                "not a serial loop",
                Tile {
                    kinds: [Parallel, Serial, Serial],
                    ..narrow()
                },
            ),
            (
                "a parallel, vectorized or unrolled loop in the way",
                Tile {
                    kinds: [Serial, Vectorized, Serial],
                    ..narrow()
                },
            ),
            (
                "a parallel, vectorized or unrolled loop in the way",
                Tile {
                    kinds: [Serial, Serial, Unrolled],
                    ..column()
                },
            ),
            (
                "not a perfect nest",
                Tile {
                    beside: true,
                    ..narrow()
                },
            ),
            (
                "fused index",
                Tile {
                    at: |jo, ji| floormod(jo * 2 + ji, int(8)),
                    ..narrow()
                },
            ),
            (
                // A guard in the row, on the moved loop or not.
                "not a perfect nest",
                Tile {
                    guard: Some(|jo, _| cmp::lt(jo, int(3))),
                    ..narrow()
                },
            ),
            (
                "not a perfect nest",
                Tile {
                    guard: Some(|_, k| cmp::lt(k, int(2))),
                    ..narrow()
                },
            ),
            (
                // An index without an affine form.
                "no wider row",
                Tile {
                    at: |jo, ii| ii * 4 + jo.clone() * jo,
                    ..column()
                },
            ),
            (
                // Overlapping tiles.
                "no wider row",
                Tile {
                    at: |jo, ji| jo + ji,
                    ..narrow()
                },
            ),
            (
                "no wider row",
                Tile {
                    row: SWEEP_BLOCK,
                    at: |jo, ji| jo * SWEEP_BLOCK + ji,
                    ..narrow()
                },
            ),
            (
                "store not contiguous along the loop",
                Tile {
                    at: |jo, ii| ii * 8 + jo * 2,
                    ..column()
                },
            ),
            (
                // Overlapping columns: `S[3]` is `(j.outer, i) = (3, 0)`
                // and `(0, 1)`.
                "not race-free",
                Tile {
                    at: |jo, ii| ii * 3 + jo,
                    ..column()
                },
            ),
        ];
        for (refusal, t) in table {
            let nest = tile(t);
            assert_eq!(plan(&nest, &[], &[]), Err(refusal));
            // Nor does an inner loop move.
            assert_eq!(interchange_rows(&nest).to_string(), nest.to_string());
        }
        let (sb, x) = (
            Buffer::new("S", [64usize], DType::F64),
            placeholder([4], DType::F64, "X"),
        );
        let flat = for_kind("j.outer", 4, Serial, |jo| {
            let at = std::slice::from_ref(&jo);
            store(&sb, at, x.at(at))
        });
        assert_eq!(plan(&flat, &[], &[]), Err("no loop inside"));
    }

    #[test]
    fn the_row_collapses_or_the_loop_goes_innermost() {
        let collapsed = interchange_rows(&tile(narrow())).to_string();
        assert_eq!(
            collapsed,
            "for k in [0, 3) {\n  for j in [0, 8) {\n    S[j] = (S[j] + (X[k] * Y[k]))\n  }\n}\n"
        );
        let innermost = interchange_rows(&tile(column())).to_string();
        assert_eq!(
            innermost,
            "for k in [0, 3) {\n  for j.inner in [0, 5) {\n    for j.outer in [0, 4) {\n      \
             S[((j.inner * 4) + j.outer)] = (S[((j.inner * 4) + j.outer)] + (X[k] * Y[k]))\n    \
             }\n  }\n}\n"
        );
    }
}
