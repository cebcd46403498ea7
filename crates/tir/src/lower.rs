//! Lowering: scheduled TE graph → [`PrimFunc`] loop nests.

use crate::buffer::Buffer;
use crate::stmt::{ForKind, PrimFunc, Stmt};
use std::collections::HashMap;
use std::sync::Arc;
use tvm_te::schedule::{IterVarAttr, Stage};
use tvm_te::visitor::substitute;
use tvm_te::{BinOp, OpKind, PrimExpr, Schedule, Tensor, Var};

/// Trip-count cap of the unroll pass; longer `Unrolled` loops stay rolled.
pub const MAX_UNROLL: i64 = 256;

/// Lower a scheduled graph into a [`PrimFunc`]: simplify, unroll,
/// simplify again, legalize vector loops and verify.
///
/// `args` fixes the parameter order of the resulting function (the calling
/// convention for `tvm_runtime`); any computed tensor not listed becomes an
/// internal allocation.
///
/// # Panics
/// If an output of the schedule is missing from `args`, or a stage has an
/// unsupported structure (e.g. placeholder listed as a stage).
pub fn lower(schedule: &Schedule, args: &[Tensor], name: &str) -> PrimFunc {
    for out in &schedule.outputs {
        assert!(
            args.iter().any(|a| a.same_as(out)),
            "schedule output `{}` missing from lowering args",
            out.name()
        );
    }

    // Buffer per argument tensor, in caller order.
    let mut buf_of: HashMap<u64, Arc<Buffer>> = HashMap::new();
    let mut params: Vec<Arc<Buffer>> = Vec::new();
    for a in args {
        let b = Buffer::from_tensor(a);
        buf_of.insert(a.op.id, b.clone());
        params.push(b);
    }
    // Intermediate stages not exposed as params get internal allocations.
    let mut allocs: Vec<Arc<Buffer>> = Vec::new();
    for st in &schedule.stages {
        let t = &st.tensor;
        if let std::collections::hash_map::Entry::Vacant(e) = buf_of.entry(t.op.id) {
            let b = Buffer::from_tensor(t);
            e.insert(b.clone());
            allocs.push(b);
        }
    }

    let mut body = Stmt::Nop;
    for st in &schedule.stages {
        body = body.then(lower_stage(st, &buf_of));
    }

    let mut func = PrimFunc {
        name: name.to_string(),
        params,
        allocs,
        body,
    };

    func.body = crate::passes::simplify::simplify_stmt(&func.body);
    func.body = crate::passes::unroll::unroll_loops(&func.body, MAX_UNROLL);
    func.body = crate::passes::simplify::simplify_stmt(&func.body);
    func.body = crate::passes::vectorize::legalize_vector_loops(&func.body);
    crate::passes::verify::verify(&func).expect("lowered function failed verification");
    func
}

fn lower_stage(stage: &Stage, buf_of: &HashMap<u64, Arc<Buffer>>) -> Stmt {
    let tensor = &stage.tensor;
    let out_buf = buf_of
        .get(&tensor.op.id)
        .expect("stage buffer allocated")
        .clone();
    let (axes, body) = match &tensor.op.kind {
        OpKind::Compute { axes, body, .. } => (axes.clone(), body.clone()),
        OpKind::Placeholder => panic!("placeholder cannot be a stage"),
    };

    let (bindings, guards) = stage.axis_bindings();
    let subst = |e: &PrimExpr| substitute(e, &bindings);

    // Output element indices in terms of leaf loop vars.
    let out_idx: Vec<PrimExpr> = axes.iter().map(|ax| subst(&ax.var_expr())).collect();
    // A reduction adds its source to the output element.
    let value = match &body {
        PrimExpr::Reduce { source, .. } => PrimExpr::binary(
            BinOp::Add,
            PrimExpr::TensorRead(tensor.clone(), out_idx.clone()),
            subst(source),
        ),
        other => subst(other),
    };
    let mut stmt = Stmt::BufferStore {
        buffer: out_buf.clone(),
        indices: out_idx,
        value,
    };

    // Boundary guards from non-divisible splits.
    if !guards.is_empty() {
        let cond = guards
            .iter()
            .cloned()
            .reduce(tvm_te::ops::cmp::and)
            .expect("non-empty");
        stmt = Stmt::IfThenElse {
            cond,
            then: Box::new(stmt),
            else_: None,
        };
    }

    // Wrap the update in the leaf loop nest, innermost last.
    for leaf in stage.leaf_iter_vars.iter().rev() {
        let kind = match stage.attr_of(leaf) {
            Some(IterVarAttr::Parallel) => ForKind::Parallel,
            Some(IterVarAttr::Vectorize) => ForKind::Vectorized,
            Some(IterVarAttr::Unroll) => ForKind::Unrolled,
            None => ForKind::Serial,
        };
        stmt = Stmt::For {
            var: leaf.var.clone(),
            min: leaf.dom.min,
            extent: leaf.dom.extent,
            kind,
            body: Box::new(stmt),
        };
    }

    // Reductions need the output initialized to zero before the update
    // nest runs.
    if matches!(body, PrimExpr::Reduce { .. }) {
        let fresh: Vec<Var> = (0..axes.len())
            .map(|d| Var::index(format!("init{d}")))
            .collect();
        let mut init = Stmt::BufferStore {
            buffer: out_buf,
            indices: fresh.iter().map(|v| v.expr()).collect(),
            value: if tensor.dtype().is_float() {
                PrimExpr::FloatImm(0.0, tensor.dtype())
            } else {
                PrimExpr::IntImm(0, tensor.dtype())
            },
        };
        for (d, v) in fresh.iter().enumerate().rev() {
            init = Stmt::For {
                var: v.clone(),
                min: 0,
                extent: tensor.shape()[d] as i64,
                kind: ForKind::Serial,
                body: Box::new(init),
            };
        }
        stmt = init.then(stmt);
    }
    stmt
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::{compute, placeholder, reduce_axis, sum, DType};

    fn matmul_sched(n: usize, tile: i64) -> (Schedule, Vec<Tensor>) {
        let a = placeholder([n, n], DType::F64, "A");
        let b = placeholder([n, n], DType::F64, "B");
        let k = reduce_axis(0, n as i64, "k");
        let c = compute([n, n], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        let mut s = Schedule::create(std::slice::from_ref(&c));
        if tile > 1 {
            let (y, x) = (c.axis(0), c.axis(1));
            let (yo, yi) = s.split(&c, &y, tile);
            let (xo, xi) = s.split(&c, &x, tile);
            s.reorder(&c, &[yo, xo, k.clone(), yi, xi]);
        }
        (s, vec![a, b, c])
    }

    #[test]
    fn lower_matmul_untiled() {
        let (s, args) = matmul_sched(8, 1);
        let f = lower(&s, &args, "matmul");
        assert_eq!(f.params.len(), 3);
        assert!(f.allocs.is_empty());
        // init (2 loops) + update (3 loops)
        assert_eq!(f.body.store_count(), 2);
        assert_eq!(f.body.loop_depth(), 3);
    }

    #[test]
    fn lower_matmul_tiled_has_five_update_loops() {
        let (s, args) = matmul_sched(16, 4);
        let f = lower(&s, &args, "matmul_tiled");
        assert_eq!(f.body.loop_depth(), 5);
        // divisible split: no guard
        let mut ifs = 0;
        f.body.walk(&mut |st| {
            if matches!(st, Stmt::IfThenElse { .. }) {
                ifs += 1;
            }
        });
        assert_eq!(ifs, 0);
    }

    #[test]
    fn lower_nondivisible_split_guards() {
        let a = placeholder([10], DType::F64, "A");
        let b = compute([10], "B", |i| a.at(&[i[0].clone()]) + 1i64);
        let mut s = Schedule::create(std::slice::from_ref(&b));
        let x = b.axis(0);
        let _ = s.split(&b, &x, 3);
        let f = lower(&s, &[a, b], "guarded");
        let mut ifs = 0;
        f.body.walk(&mut |st| {
            if matches!(st, Stmt::IfThenElse { .. }) {
                ifs += 1;
            }
        });
        assert_eq!(ifs, 1, "expected one boundary guard");
    }

    #[test]
    fn intermediate_tensor_gets_alloc() {
        let a = placeholder([4], DType::F64, "A");
        let t = compute([4], "T", |i| a.at(&[i[0].clone()]) * 2i64);
        let o = compute([4], "O", |i| t.at(&[i[0].clone()]) + 1i64);
        let s = Schedule::create(std::slice::from_ref(&o));
        let f = lower(&s, &[a, o], "chain");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.allocs.len(), 1);
        assert_eq!(f.allocs[0].name, "T");
    }

    #[test]
    #[should_panic(expected = "missing from lowering args")]
    fn output_must_be_arg() {
        let a = placeholder([4], DType::F64, "A");
        let b = compute([4], "B", |i| a.at(&[i[0].clone()]));
        let s = Schedule::create(&[b]);
        let _ = lower(&s, &[a], "bad");
    }

    #[test]
    fn parallel_annotation_reaches_forkind() {
        let a = placeholder([8, 8], DType::F64, "A");
        let b = compute([8, 8], "B", |i| a.at(&[i[0].clone(), i[1].clone()]));
        let mut s = Schedule::create(std::slice::from_ref(&b));
        let y = b.axis(0);
        s.parallel(&b, &y);
        let f = lower(&s, &[a, b], "par");
        let mut found = false;
        f.body.walk(&mut |st| {
            if let Stmt::For { kind, .. } = st {
                if *kind == ForKind::Parallel {
                    found = true;
                }
            }
        });
        assert!(found);
    }

    #[test]
    fn unroll_pass_expands_small_loop() {
        let a = placeholder([8], DType::F64, "A");
        let b = compute([8], "B", |i| a.at(&[i[0].clone()]) + 1i64);
        let mut s = Schedule::create(std::slice::from_ref(&b));
        let x = b.axis(0);
        let (_, xi) = s.split(&b, &x, 4);
        s.unroll(&b, &xi);
        let f = lower(&s, &[a, b], "unrolled");
        // Inner loop of extent 4 expanded: 4 stores under the outer loop.
        assert_eq!(f.body.store_count(), 4);
    }
}
