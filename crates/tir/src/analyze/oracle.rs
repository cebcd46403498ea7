//! Concrete violation oracles for analyzer denials.
//!
//! The analyzer's `Deny` verdicts are abstract certificates; the
//! differential soundness suite cross-checks each one against a concrete
//! witness so a miscalibrated analyzer cannot silently starve the tuner:
//!
//! * [`confirm_race`] exhaustively enumerates the iterations of the
//!   denied parallel/vectorized loop and exhibits two distinct
//!   iterations touching the same element (with a write involved);
//! * [`confirm_masked_vector`] confirms a `TIR-VEC-OVER` denial by
//!   finding a vectorized loop whose body is masked by a guard on its
//!   own variable — lanes that cannot all be live.
//!
//! Prelint denials that abort instantiation (`TIR-TRIP-ZERO`,
//! `TIR-FUSE-ILLEGAL`) are confirmed by the instantiation panic itself
//! and need no oracle here.

use super::Diagnostic;
use crate::analysis::eval_int;
use crate::stmt::{ForKind, PrimFunc, Stmt};
use std::collections::HashMap;
use tvm_te::PrimExpr;

/// Evaluation budget for the exhaustive enumeration: enough for every
/// mini/small PolyBench nest, small enough to stay interactive.
const BUDGET: u64 = 4_000_000;

/// Confirm a race denial (`TIR-RACE-WW` / `TIR-RACE-RW`) by concrete
/// enumeration: find the denied loop (named by `diag.loop_var`), run its
/// body for every iteration with outer loops pinned at their minima, and
/// return `true` iff two *distinct* iterations access the same element
/// of `diag.buffer` with at least one write.
pub fn confirm_race(func: &PrimFunc, diag: &Diagnostic) -> bool {
    let (Some(loop_name), Some(buffer)) = (diag.loop_var.as_deref(), diag.buffer.as_deref()) else {
        return false;
    };
    let mut env: HashMap<u64, i64> = HashMap::new();
    locate_and_check(&func.body, &mut env, loop_name, buffer)
}

fn locate_and_check(
    stmt: &Stmt,
    env: &mut HashMap<u64, i64>,
    loop_name: &str,
    buffer: &str,
) -> bool {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            if var.name == loop_name
                && matches!(kind, ForKind::Parallel | ForKind::Vectorized)
                && *extent >= 2
                && witness_in_loop(var.id, *min, *extent, body, env, buffer)
            {
                return true;
            }
            env.insert(var.id, *min);
            let found = locate_and_check(body, env, loop_name, buffer);
            env.remove(&var.id);
            found
        }
        Stmt::IfThenElse { then, else_, .. } => {
            locate_and_check(then, env, loop_name, buffer)
                || else_
                    .as_ref()
                    .is_some_and(|e| locate_and_check(e, env, loop_name, buffer))
        }
        Stmt::Seq(items) => items
            .iter()
            .any(|s| locate_and_check(s, env, loop_name, buffer)),
        _ => false,
    }
}

/// One access observed during enumeration: which iteration of the denied
/// loop made it, at which linear offset, and whether it wrote.
type Trace = HashMap<i64, Vec<(i64, bool)>>;

fn witness_in_loop(
    par_id: u64,
    par_min: i64,
    par_extent: i64,
    body: &Stmt,
    env: &mut HashMap<u64, i64>,
    buffer: &str,
) -> bool {
    let mut trace: Trace = HashMap::new();
    let mut budget = BUDGET;
    for t in par_min..par_min + par_extent {
        env.insert(par_id, t);
        let ok = exec(body, env, t, buffer, &mut trace, &mut budget);
        if !ok {
            env.remove(&par_id);
            return false; // budget exhausted or unanalyzable: no witness
        }
    }
    env.remove(&par_id);
    trace.values().any(|accesses| {
        accesses.iter().any(|&(t1, w1)| {
            w1 && accesses.iter().any(|&(t2, _)| t2 != t1)
                || accesses.iter().any(|&(t2, w2)| w2 && t2 != t1)
        })
    })
}

fn exec(
    stmt: &Stmt,
    env: &mut HashMap<u64, i64>,
    t: i64,
    buffer: &str,
    trace: &mut Trace,
    budget: &mut u64,
) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            body,
            ..
        } => {
            for v in *min..min + extent {
                env.insert(var.id, v);
                if !exec(body, env, t, buffer, trace, budget) {
                    env.remove(&var.id);
                    return false;
                }
            }
            env.remove(&var.id);
            true
        }
        Stmt::IfThenElse { cond, then, else_ } => match eval_int(cond, env) {
            Some(0) => else_
                .as_ref()
                .is_none_or(|e| exec(e, env, t, buffer, trace, budget)),
            Some(_) => exec(then, env, t, buffer, trace, budget),
            // Unanalyzable guard: over-approximate by taking both arms.
            None => {
                exec(then, env, t, buffer, trace, budget)
                    && else_
                        .as_ref()
                        .is_none_or(|e| exec(e, env, t, buffer, trace, budget))
            }
        },
        Stmt::Seq(items) => items.iter().all(|s| exec(s, env, t, buffer, trace, budget)),
        Stmt::BufferStore {
            buffer: b,
            indices,
            value,
        } => {
            if b.name == buffer {
                match linear_offset(indices, &b.shape, env) {
                    Some(off) => trace.entry(off).or_default().push((t, true)),
                    None => return false,
                }
            }
            for e in indices.iter().chain(std::iter::once(value)) {
                if !record_reads(e, env, t, buffer, trace) {
                    return false;
                }
            }
            true
        }
        Stmt::Nop => true,
    }
}

fn record_reads(
    e: &PrimExpr,
    env: &HashMap<u64, i64>,
    t: i64,
    buffer: &str,
    trace: &mut Trace,
) -> bool {
    let mut ok = true;
    tvm_te::visitor::walk(e, &mut |node| {
        if let PrimExpr::TensorRead(tensor, idx) = node {
            if tensor.name() == buffer {
                match linear_offset(idx, tensor.shape(), env) {
                    Some(off) => trace.entry(off).or_default().push((t, false)),
                    None => ok = false,
                }
            }
        }
    });
    ok
}

fn linear_offset(indices: &[PrimExpr], shape: &[usize], env: &HashMap<u64, i64>) -> Option<i64> {
    let mut off = 0i64;
    let mut stride = 1i64;
    for d in (0..shape.len().min(indices.len())).rev() {
        off = off.checked_add(eval_int(&indices[d], env)?.checked_mul(stride)?)?;
        stride = stride.checked_mul(shape[d] as i64)?;
    }
    Some(off)
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
    use crate::analyze::{check, codes};
    use crate::buffer::Buffer;
    use tvm_te::ops::{cmp, float, int};
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

    #[test]
    fn reduction_race_denial_is_confirmed() {
        // parallel k: C[0] = C[0] + A[k] — the denial's witness is any
        // pair of iterations, both writing offset 0.
        let k = Var::index("k");
        let c = Buffer::new("C", [1usize], DType::F64);
        let a = tvm_te::placeholder([8], DType::F64, "A");
        let c_t = tvm_te::placeholder([1], DType::F64, "C");
        let body = for_(
            &k,
            8,
            ForKind::Parallel,
            Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![int(0)],
                value: c_t.at(&[int(0)]) + a.at(&[k.expr()]),
            },
        );
        let f = func(body, vec![c]);
        let report = check(&f);
        let denial = report
            .denials()
            .find(|d| d.code == codes::RACE_WW)
            .expect("reduction must be denied");
        assert!(confirm_race(&f, denial));
    }

    #[test]
    fn clean_parallel_loop_yields_no_witness() {
        // parallel i: B[i] = 0 — a fabricated denial must NOT confirm.
        let i = Var::index("i");
        let b = Buffer::new("B", [8usize], DType::F64);
        let body = for_(
            &i,
            8,
            ForKind::Parallel,
            Stmt::BufferStore {
                buffer: b.clone(),
                indices: vec![i.expr()],
                value: float(0.0),
            },
        );
        let f = func(body, vec![b]);
        let fake = Diagnostic {
            buffer: Some("B".into()),
            loop_var: Some("i".into()),
            ..Diagnostic::deny(codes::RACE_WW, "fabricated")
        };
        assert!(!confirm_race(&f, &fake));
    }

    #[test]
    fn overlapping_tiles_witness_found_under_guard() {
        // parallel io: for ii in 0..6: if io*4+ii < 14 { B[io*4+ii] = 0 }
        // — tiles overlap by 2 even inside the guarded region.
        let (io, ii) = (Var::index("io"), Var::index("ii"));
        let b = Buffer::new("B", [14usize], DType::F64);
        let idx = io.expr() * 4 + ii.expr();
        let body = for_(
            &io,
            4,
            ForKind::Parallel,
            for_(
                &ii,
                6,
                ForKind::Serial,
                Stmt::IfThenElse {
                    cond: cmp::lt(idx.clone(), int(14)),
                    then: Box::new(Stmt::BufferStore {
                        buffer: b.clone(),
                        indices: vec![idx],
                        value: float(0.0),
                    }),
                    else_: None,
                },
            ),
        );
        let f = func(body, vec![b]);
        let fake = Diagnostic {
            buffer: Some("B".into()),
            loop_var: Some("io".into()),
            ..Diagnostic::deny(codes::RACE_WW, "overlap")
        };
        assert!(confirm_race(&f, &fake));
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
