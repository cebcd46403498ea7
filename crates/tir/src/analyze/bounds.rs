//! Buffer-access bounds proofs via abstract interpretation.
//!
//! Walks the statement tree propagating loop-variable ranges through
//! index expressions (including the `min`/`max`/`floordiv`/`floormod`
//! shapes produced by split schedules) and checks every `BufferStore`
//! target and `TensorRead` against the storage extents. Enclosing `if`
//! guards refine the ranges, so tail-guarded partial tiles prove clean.
//!
//! Every access is either *proven in-bounds*, *proven unreachable*
//! (empty interval), or reported: a provable violation is `TIR-OOB`,
//! an index outside the analyzable fragment is `TIR-UNANALYZABLE`.
//! Both are `Deny` — soundness requires rejecting what we cannot prove.

use super::interval::{constraints_from_guard, eval_interval, Interval, IntervalEnv};
use super::{codes, Diagnostic, Severity};
use crate::stmt::{PrimFunc, Stmt};
use tvm_te::PrimExpr;

/// Check all buffer accesses of `func`, appending findings to `out`.
pub fn check_bounds(func: &PrimFunc, out: &mut Vec<Diagnostic>) {
    let mut env = IntervalEnv::default();
    walk(&func.body, &mut env, out);
}

fn walk(stmt: &Stmt, env: &mut IntervalEnv, out: &mut Vec<Diagnostic>) {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            body,
            ..
        } => {
            let range = if *extent <= 0 {
                Interval::empty()
            } else {
                Interval::new(*min, min + extent - 1)
            };
            let prev = env.vars.insert(var.id, range);
            walk(body, env, out);
            match prev {
                Some(p) => {
                    env.vars.insert(var.id, p);
                }
                None => {
                    env.vars.remove(&var.id);
                }
            }
        }
        Stmt::IfThenElse { cond, then, else_ } => {
            let depth = env.constraints.len();
            let mut facts = Vec::new();
            constraints_from_guard(cond, env, &mut facts);
            env.constraints.extend(facts);
            walk(then, env, out);
            env.constraints.truncate(depth);
            if let Some(e) = else_ {
                let negated = PrimExpr::Not(std::sync::Arc::new(cond.clone()));
                let mut facts = Vec::new();
                constraints_from_guard(&negated, env, &mut facts);
                env.constraints.extend(facts);
                walk(e, env, out);
                env.constraints.truncate(depth);
            }
        }
        Stmt::Seq(items) => {
            for s in items {
                walk(s, env, out);
            }
        }
        Stmt::BufferStore {
            buffer,
            indices,
            value,
        } => {
            if env.unreachable() {
                return;
            }
            check_access(&buffer.name, &buffer.shape, indices, true, env, out);
            check_reads_in(value, env, out);
            for idx in indices {
                check_reads_in(idx, env, out);
            }
        }
        Stmt::Evaluate(e) => {
            if !env.unreachable() {
                check_reads_in(e, env, out);
            }
        }
        Stmt::Nop => {}
    }
}

/// Check every `TensorRead` nested anywhere in `e`.
fn check_reads_in(e: &PrimExpr, env: &IntervalEnv, out: &mut Vec<Diagnostic>) {
    tvm_te::visitor::walk(e, &mut |node| {
        if let PrimExpr::TensorRead(t, idx) = node {
            check_access(t.name(), t.shape(), idx, false, env, out);
        }
    });
}

/// Prove one multi-dimensional access in-bounds or report it.
fn check_access(
    name: &str,
    shape: &[usize],
    indices: &[PrimExpr],
    is_write: bool,
    env: &IntervalEnv,
    out: &mut Vec<Diagnostic>,
) {
    let what = if is_write { "store to" } else { "read of" };
    for (d, idx) in indices.iter().enumerate().take(shape.len()) {
        let extent = shape[d] as i64;
        match eval_interval(idx, env) {
            None => out.push(Diagnostic {
                code: codes::UNANALYZABLE,
                severity: Severity::Deny,
                message: format!(
                    "cannot bound index of {what} `{name}` dim {d}: `{idx}` \
                     is outside the analyzable fragment"
                ),
                buffer: Some(name.to_string()),
                access: Some(format!("{name}[{idx}] dim {d}")),
                loop_var: None,
            }),
            Some(iv) if iv.is_empty() => {} // unreachable: trivially safe
            Some(iv) if !iv.within(0, extent - 1) => out.push(Diagnostic {
                code: codes::OOB,
                severity: Severity::Deny,
                message: format!(
                    "{what} `{name}` dim {d}: index range [{}, {}] exceeds \
                     extent {extent}",
                    iv.lo, iv.hi
                ),
                buffer: Some(name.to_string()),
                access: Some(format!("{name}[{idx}] dim {d}")),
                loop_var: None,
            }),
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::stmt::ForKind;
    use tvm_te::ops::{cmp, int};
    use tvm_te::{DType, Var};

    fn nest(var: &Var, extent: i64, body: Stmt) -> Stmt {
        Stmt::For {
            var: var.clone(),
            min: 0,
            extent,
            kind: ForKind::Serial,
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

    fn run(f: &PrimFunc) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_bounds(f, &mut out);
        out
    }

    #[test]
    fn in_bounds_access_is_clean() {
        let i = Var::index("i");
        let b = Buffer::new("b", [16usize], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![i.expr()],
            value: tvm_te::ops::float(0.0),
        };
        assert!(run(&func(nest(&i, 16, store), vec![b])).is_empty());
    }

    #[test]
    fn off_by_one_store_is_denied() {
        let i = Var::index("i");
        let b = Buffer::new("b", [16usize], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![i.expr() + 1],
            value: tvm_te::ops::float(0.0),
        };
        let diags = run(&func(nest(&i, 16, store), vec![b]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::OOB);
        assert_eq!(diags[0].severity, Severity::Deny);
        assert_eq!(diags[0].buffer.as_deref(), Some("b"));
        assert!(diags[0].message.contains("[1, 16]"));
    }

    #[test]
    fn guard_makes_overhanging_tile_safe() {
        // for io in 0..4, ii in 0..5: if io*5+ii < 18 { b[io*5+ii] = 0 }
        let (io, ii) = (Var::index("io"), Var::index("ii"));
        let b = Buffer::new("b", [18usize], DType::F64);
        let idx = io.expr() * 5 + ii.expr();
        let guarded = Stmt::IfThenElse {
            cond: cmp::lt(idx.clone(), int(18)),
            then: Box::new(Stmt::BufferStore {
                buffer: b.clone(),
                indices: vec![idx.clone()],
                value: tvm_te::ops::float(0.0),
            }),
            else_: None,
        };
        let f = func(nest(&io, 4, nest(&ii, 5, guarded)), vec![b.clone()]);
        assert!(run(&f).is_empty(), "guarded tile must prove clean");

        // Without the guard the same nest overruns: [0, 19] vs extent 18.
        let bare = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![idx],
            value: tvm_te::ops::float(0.0),
        };
        let f = func(nest(&io, 4, nest(&ii, 5, bare)), vec![b]);
        let diags = run(&f);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::OOB);
    }

    #[test]
    fn read_out_of_bounds_is_denied() {
        let i = Var::index("i");
        let a = tvm_te::placeholder([8], DType::F64, "A");
        let b = Buffer::new("b", [16usize], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![i.expr()],
            value: a.at(&[i.expr()]),
        };
        let diags = run(&func(nest(&i, 16, store), vec![b]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::OOB);
        assert_eq!(diags[0].buffer.as_deref(), Some("A"));
        assert!(diags[0].message.contains("read of"));
    }

    #[test]
    fn zero_extent_loop_body_is_unreachable() {
        let i = Var::index("i");
        let b = Buffer::new("b", [4usize], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![int(100)],
            value: tvm_te::ops::float(0.0),
        };
        assert!(run(&func(nest(&i, 0, store), vec![b])).is_empty());
    }

    #[test]
    fn else_branch_uses_negated_guard() {
        // for i in 0..20: if i < 10 { b[i] } else { b[i - 10] }
        let i = Var::index("i");
        let b = Buffer::new("b", [10usize], DType::F64);
        let mk = |idx: PrimExpr| Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![idx],
            value: tvm_te::ops::float(0.0),
        };
        let body = Stmt::IfThenElse {
            cond: cmp::lt(i.expr(), int(10)),
            then: Box::new(mk(i.expr())),
            else_: Some(Box::new(mk(i.expr() - 10))),
        };
        assert!(run(&func(nest(&i, 20, body), vec![b])).is_empty());
    }

    #[test]
    fn unanalyzable_index_is_denied() {
        // Index depends on a read value: outside the affine fragment.
        let i = Var::index("i");
        let a = tvm_te::placeholder([16], DType::I64, "A");
        let b = Buffer::new("b", [16usize], DType::F64);
        let store = Stmt::BufferStore {
            buffer: b.clone(),
            indices: vec![a.at(&[i.expr()])],
            value: tvm_te::ops::float(0.0),
        };
        let diags = run(&func(nest(&i, 16, store), vec![b]));
        assert!(diags.iter().any(|d| d.code == codes::UNANALYZABLE));
    }
}
