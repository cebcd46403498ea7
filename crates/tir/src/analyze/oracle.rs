//! Concrete violation oracles for analyzer denials.
//!
//! The analyzer's `Deny` verdicts are certificates; each one is checked
//! on the function itself, independently of how it was found, so a
//! miscalibrated analyzer cannot silently starve the tuner:
//!
//! * [`confirm_race`] evaluates a race's [`Witness`] — two iterations of
//!   a parallel or vectorized loop — with [`eval_int_with`], and holds
//!   that both run (every loop in range, every guard true) and touch one
//!   element of the buffer, with the accesses the witness names;
//! * [`confirm_masked_vector`] confirms a `TIR-VEC-OVER` denial by
//!   finding a vectorized loop whose body is masked by a guard on its
//!   own variable — lanes that cannot all be live.
//!
//! Prelint denials that abort instantiation (`TIR-TRIP-ZERO`,
//! `TIR-FUSE-ILLEGAL`) are confirmed by the instantiation panic itself
//! and need no oracle here.

use crate::analysis::{eval_int_with, LoopInfo};
use crate::stmt::{ForKind, PrimFunc, Stmt};
use tvm_te::PrimExpr;

/// Two distinct iterations of one parallel or vectorized loop that
/// touch the same element of a buffer, at least one of them writing.
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// The variable id of the parallel or vectorized loop.
    pub loop_id: u64,
    /// The buffer both accesses touch.
    pub buffer: String,
    /// Whether each side's access is a write.
    pub writes: [bool; 2],
    /// Each side's point: a value for every loop variable around its
    /// access, the loops around the parallel loop included.
    pub at: [Vec<(u64, i64)>; 2],
}

/// Whether `w` holds on `func`: both points give the loops around the
/// parallel loop the same values and the parallel loop distinct ones,
/// and under each point an access of the kind `w.writes` names runs and
/// touches the same row-major offset of `w.buffer`.
pub fn confirm_race(func: &PrimFunc, w: &Witness) -> bool {
    enclosing(&func.body, w.loop_id)
        .is_some_and(|outer| confirm_race_at(&func.body, &outer, &[], w))
}

/// [`confirm_race`] from `at`, a statement holding the loop, under the loops
/// around the loop and the guards on its path from `at`; the sweep passes the loop.
pub(crate) fn confirm_race_at(
    at: &Stmt,
    loops: &[LoopInfo],
    guards: &[PrimExpr],
    w: &Witness,
) -> bool {
    let value = |side: usize, id: u64| w.at[side].iter().find(|p| p.0 == id).map(|p| p.1);
    let shared = (loops.iter().map(|l| l.var_id))
        .all(|id| value(0, id).is_some() && value(0, id) == value(1, id));
    let (t1, t2) = (value(0, w.loop_id), value(1, w.loop_id));
    if !shared || t1.is_none() || t1 == t2 {
        return false;
    }
    let [first, second] = [0, 1].map(|side| {
        let env = |id| value(side, id);
        let in_range =
            |l: &LoopInfo| env(l.var_id).is_some_and(|v| l.min <= v && v < l.min + l.extent);
        let holds = |g: &PrimExpr| eval_int_with(g, &env).is_some_and(|c| c != 0);
        let mut out = Vec::new();
        if loops.iter().all(in_range) && guards.iter().all(holds) {
            touched(at, &env, w, false, &mut out);
        }
        out
    });
    (first.iter().filter(|a| a.1 == w.writes[0]))
        .any(|a| second.iter().any(|b| b.1 == w.writes[1] && a.0 == b.0))
}

/// The loops around the loop over `id`, outermost first; `None` when no
/// loop has that variable.
fn enclosing(stmt: &Stmt, id: u64) -> Option<Vec<LoopInfo>> {
    match stmt {
        Stmt::For { var, .. } if var.id == id => Some(Vec::new()),
        Stmt::For {
            var,
            min,
            extent,
            body,
            ..
        } => enclosing(body, id).map(|mut outer| {
            outer.insert(0, LoopInfo::new(var, *min, *extent));
            outer
        }),
        Stmt::IfThenElse { then, else_, .. } => {
            enclosing(then, id).or_else(|| else_.as_ref().and_then(|e| enclosing(e, id)))
        }
        Stmt::Seq(items) => items.iter().find_map(|s| enclosing(s, id)),
        _ => None,
    }
}

/// The accesses to `w.buffer` inside the loop over `w.loop_id` that run
/// at the point `env` — each loop's variable bound and in range, each
/// guard evaluated to its branch — as (row-major offset, is a write).
fn touched(
    stmt: &Stmt,
    env: &dyn Fn(u64) -> Option<i64>,
    w: &Witness,
    inside: bool,
    out: &mut Vec<(i64, bool)>,
) {
    let record = |out: &mut Vec<_>, name: &str, indices: &[PrimExpr], shape: &[usize], write| {
        if inside && name == w.buffer {
            if let Some(off) = offset(indices, shape, env) {
                out.push((off, write));
            }
        }
    };
    let reads = |out: &mut Vec<_>, e: &PrimExpr| {
        tvm_te::visitor::walk(e, &mut |node| {
            if let PrimExpr::TensorRead(t, idx) = node {
                record(out, t.name(), idx, t.shape(), false);
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
            if env(var.id).is_some_and(|v| *min <= v && v < min + extent) {
                touched(body, env, w, inside || var.id == w.loop_id, out);
            }
        }
        Stmt::IfThenElse { cond, then, else_ } => {
            if inside {
                reads(out, cond);
            }
            match eval_int_with(cond, &env) {
                Some(0) => else_.iter().for_each(|e| touched(e, env, w, inside, out)),
                Some(_) => touched(then, env, w, inside, out),
                None => {}
            }
        }
        Stmt::Seq(items) => items.iter().for_each(|s| touched(s, env, w, inside, out)),
        Stmt::BufferStore {
            buffer,
            indices,
            value,
        } => {
            if inside {
                indices.iter().chain([value]).for_each(|e| reads(out, e));
            }
            record(out, &buffer.name, indices, &buffer.shape, true);
        }
        Stmt::Nop => {}
    }
}

/// The row-major offset of `indices` into a buffer of `shape` at `env`.
fn offset(indices: &[PrimExpr], shape: &[usize], env: &dyn Fn(u64) -> Option<i64>) -> Option<i64> {
    (indices.iter().zip(shape)).try_fold(0i64, |off, (idx, &n)| {
        off.checked_mul(n as i64)?
            .checked_add(eval_int_with(idx, &env)?)
    })
}

/// Confirm a `TIR-VEC-OVER` verdict on the *instantiated* function: the
/// oversized vector split materializes as a `Vectorized` loop whose body
/// is masked by a guard mentioning its own variable, i.e. some lanes can
/// never be live.
pub fn confirm_masked_vector(func: &PrimFunc) -> bool {
    fn mentions(e: &PrimExpr, id: u64) -> bool {
        let mut found = false;
        tvm_te::visitor::walk(e, &mut |node| {
            if let PrimExpr::Var(v) = node {
                found |= v.id == id;
            }
        });
        found
    }
    fn guard_on(stmt: &Stmt, id: u64) -> bool {
        let mut found = false;
        stmt.walk(&mut |s| {
            if let Stmt::IfThenElse { cond, .. } = s {
                found |= mentions(cond, id);
            }
        });
        found
    }
    let mut found = false;
    func.body.walk(&mut |s| {
        if let Stmt::For {
            var,
            kind: ForKind::Vectorized,
            body,
            ..
        } = s
        {
            found |= guard_on(body, var.id);
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::codes;
    use crate::analyze::deps::races;
    use crate::buffer::Buffer;
    use tvm_te::ops::{cmp, float, floormod, int};
    use tvm_te::{DType, Var};

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

    /// `B[idx] = 0` under `parallel io in 0..4: for ii in 0..6`, guarded
    /// by `idx < 12` when `guarded`.
    fn tiles(idx: impl Fn(&Var, &Var) -> PrimExpr, guarded: bool) -> (PrimFunc, Var, Var) {
        let (io, ii) = (Var::index("io"), Var::index("ii"));
        let b = Buffer::new("B", [14usize], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![idx(&io, &ii)],
            value: float(0.0),
        };
        let body = match guarded {
            true => Stmt::IfThenElse {
                cond: cmp::lt(idx(&io, &ii), int(12)),
                then: Box::new(store),
                else_: None,
            },
            false => store,
        };
        let nest = for_(
            &io,
            4,
            ForKind::Parallel,
            for_(&ii, 6, ForKind::Serial, body),
        );
        (func(nest, vec![b]), io, ii)
    }

    fn witness(io: &Var, ii: &Var, (t1, i1): (i64, i64), (t2, i2): (i64, i64)) -> Witness {
        Witness {
            loop_id: io.id,
            buffer: "B".into(),
            writes: [true, true],
            at: [
                vec![(io.id, t1), (ii.id, i1)],
                vec![(io.id, t2), (ii.id, i2)],
            ],
        }
    }

    #[test]
    fn overlapping_tiles_witness_is_confirmed_under_guard() {
        // B[io*4 + ii]: tiles overlap by 2, iteration 0 and 1 both write
        // B[4], inside the guard.
        let (f, io, ii) = tiles(|io, ii| io.expr() * 4 + ii.expr(), true);
        assert!(confirm_race(&f, &witness(&io, &ii, (0, 4), (1, 0))));
        // Different elements, one iteration, a read named as a write,
        // a range left, or a guard failed: no race.
        assert!(!confirm_race(&f, &witness(&io, &ii, (0, 3), (1, 0))));
        assert!(!confirm_race(&f, &witness(&io, &ii, (1, 0), (1, 0))));
        let read = Witness {
            writes: [true, false],
            ..witness(&io, &ii, (0, 4), (1, 0))
        };
        assert!(!confirm_race(&f, &read));
        assert!(!confirm_race(&f, &witness(&io, &ii, (0, 8), (2, 0))));
        assert!(!confirm_race(&f, &witness(&io, &ii, (2, 4), (3, 0))));
        // And the analyzer's own witness holds.
        let found = races(&f);
        let w = found
            .iter()
            .find_map(|(d, w)| (d.code == codes::RACE_WW).then_some(w));
        assert!(confirm_race(&f, w.unwrap().as_ref().expect("a witness")));
    }

    #[test]
    fn clean_parallel_loop_has_no_witness() {
        // B[io*4 + ii % 4] is an exact partition: a fabricated witness
        // must not confirm, and the analyzer finds none.
        let (f, io, ii) = tiles(|io, ii| io.expr() * 4 + floormod(ii.expr(), int(4)), false);
        assert!(!confirm_race(&f, &witness(&io, &ii, (0, 4), (1, 0))));
        assert!(races(&f).is_empty());
    }

    #[test]
    fn masked_vector_loop_is_detected() {
        // vectorized v in 0..8: if v < 5 { B[v] = 0 } — masked lanes.
        let v = Var::index("v");
        let b = Buffer::new("B", [5usize], DType::F64);
        let body = for_(
            &v,
            8,
            ForKind::Vectorized,
            Stmt::IfThenElse {
                cond: cmp::lt(v.expr(), int(5)),
                then: Box::new(Stmt::BufferStore {
                    buffer: b.clone(),
                    indices: vec![v.expr()],
                    value: float(0.0),
                }),
                else_: None,
            },
        );
        assert!(confirm_masked_vector(&func(body, vec![b])));

        // Full-width vector loop: no mask, no finding.
        let v2 = Var::index("v");
        let b2 = Buffer::new("B", [8usize], DType::F64);
        let clean = for_(
            &v2,
            8,
            ForKind::Vectorized,
            Stmt::BufferStore {
                buffer: b2.clone(),
                indices: vec![v2.expr()],
                value: float(0.0),
            },
        );
        assert!(!confirm_masked_vector(&func(clean, vec![b2])));
    }
}
