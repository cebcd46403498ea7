//! `compute_at` lowering: region inference and attached-producer emission.
//!
//! When `s[P].compute_at(s[C], axis)` is scheduled, the consumer's inner
//! loops (those below `axis`) read some rectangular region of `P` at each
//! iteration of `axis`. This module infers that region from the
//! consumer's (substituted) body under an affinity assumption — every
//! index of `P` must be affine in the consumer's inner loop variables,
//! which holds for all split/reorder schedules — and emits a loop nest
//! recomputing exactly that region into `P`'s buffer.
//!
//! Differences from TVM, documented in DESIGN.md: the region is written
//! into `P`'s full-size buffer (TVM shrinks storage to the region), and
//! the attached producer's own splits are ignored (plain region loops).

use crate::analysis::eval_int;
use crate::buffer::Buffer;
use crate::stmt::{ForKind, Stmt};
use std::collections::HashMap;
use std::sync::Arc;
use tvm_te::ops::cmp;
use tvm_te::visitor::{substitute, walk};
use tvm_te::{Combiner, DType, IterVar, OpKind, PrimExpr, Stage, Var};

/// Inferred 1-D region: start expression (in outer-loop variables) and a
/// constant extent.
struct DimRegion {
    lo: PrimExpr,
    extent: i64,
}

/// Affine description of one index expression over the inner loops:
/// value at the all-min corner plus negative/positive excursions.
struct AffineIndex {
    base: PrimExpr,
    at_min_corner: i64,
    neg: i64,
    pos: i64,
}

fn analyze_index(f: &PrimExpr, inner: &[IterVar], env0: &HashMap<u64, i64>) -> AffineIndex {
    let f0 = eval_int(f, env0).unwrap_or_else(|| {
        panic!("compute_at: cannot evaluate producer index `{f}` (non-integer or unbound)")
    });
    let mut neg = 0i64;
    let mut pos = 0i64;
    let mut inner_min: HashMap<u64, PrimExpr> = HashMap::new();
    for v in inner {
        inner_min.insert(v.var.id, PrimExpr::from(v.dom.min));
        if v.dom.extent < 2 {
            continue;
        }
        let mut env1 = env0.clone();
        env1.insert(v.var.id, v.dom.min + 1);
        let f1 = eval_int(f, &env1).expect("evaluable at probe point");
        let c = f1 - f0;
        if v.dom.extent >= 3 {
            let mut env2 = env0.clone();
            env2.insert(v.var.id, v.dom.min + 2);
            let f2 = eval_int(f, &env2).expect("evaluable at probe point");
            assert_eq!(
                f2 - f1,
                c,
                "compute_at: index `{f}` is not affine in inner loop `{}`",
                v.var.name
            );
        }
        let swing = c * (v.dom.extent - 1);
        neg += swing.min(0);
        pos += swing.max(0);
    }
    let base = crate::passes::simplify::simplify_expr(&substitute(f, &inner_min));
    AffineIndex {
        base,
        at_min_corner: f0,
        neg,
        pos,
    }
}

/// Infer the per-dimension regions of `producer` read by
/// `consumer_value`, given the consumer's loops below the attach point.
fn infer_regions(
    producer: &Stage,
    inner: &[IterVar],
    fixed: &[IterVar],
    consumer_value: &PrimExpr,
) -> Vec<DimRegion> {
    let ptensor = &producer.tensor;
    let mut reads: Vec<Vec<PrimExpr>> = Vec::new();
    walk(consumer_value, &mut |e| {
        if let PrimExpr::TensorRead(t, idx) = e {
            if t.same_as(ptensor) {
                reads.push(idx.clone());
            }
        }
    });
    assert!(
        !reads.is_empty(),
        "compute_at: consumer body does not read `{}` after substitution",
        ptensor.name()
    );

    // Probe environment: every loop variable at its domain minimum.
    let mut env0: HashMap<u64, i64> = HashMap::new();
    for v in fixed.iter().chain(inner.iter()) {
        env0.insert(v.var.id, v.dom.min);
    }

    (0..ptensor.ndim())
        .map(|d| {
            let infos: Vec<AffineIndex> = reads
                .iter()
                .map(|idx| analyze_index(&idx[d], inner, &env0))
                .collect();
            // Offsets of each read's min-corner value relative to the
            // first read; they must be constants for a single rectangular
            // region to cover all reads (affine bases over the same fixed
            // vars ⇒ constant differences).
            let base0 = infos[0].at_min_corner;
            let lo_c = infos
                .iter()
                .map(|i| (i.at_min_corner - base0) + i.neg)
                .min()
                .expect("non-empty");
            let hi_c = infos
                .iter()
                .map(|i| (i.at_min_corner - base0) + i.pos)
                .max()
                .expect("non-empty");
            let extent = (hi_c - lo_c + 1).clamp(1, ptensor.shape()[d] as i64);
            let lo = crate::passes::simplify::simplify_expr(
                &(infos[0].base.clone() + PrimExpr::from(lo_c)),
            );
            DimRegion { lo, extent }
        })
        .collect()
}

fn identity_expr(c: Combiner, dtype: DType) -> PrimExpr {
    if dtype.is_float() {
        PrimExpr::FloatImm(c.identity_f64(), dtype)
    } else {
        let v = match c {
            Combiner::Sum => 0,
            Combiner::Prod => 1,
            Combiner::Max => i64::MIN,
            Combiner::Min => i64::MAX,
        };
        PrimExpr::IntImm(v, dtype)
    }
}

/// Emit the statement computing `producer`'s inferred region, for
/// insertion at the top of the consumer's attach-axis loop body.
pub(crate) fn attached_region_stmt(
    producer: &Stage,
    consumer: &Stage,
    attach_pos: usize,
    consumer_value: &PrimExpr,
    buf_of: &HashMap<u64, Arc<Buffer>>,
) -> Stmt {
    let ptensor = &producer.tensor;
    let buf = buf_of
        .get(&ptensor.op.id)
        .expect("attached producer has a buffer")
        .clone();
    let (axes, body) = match &ptensor.op.kind {
        OpKind::Compute { axes, body, .. } => (axes.clone(), body.clone()),
        OpKind::Placeholder => panic!("cannot attach a placeholder"),
    };

    let inner = &consumer.leaf_iter_vars[attach_pos + 1..];
    let fixed = &consumer.leaf_iter_vars[..=attach_pos];
    let regions = infer_regions(producer, inner, fixed, consumer_value);

    // Region loop variables and the producer-axis values they map to.
    let region_vars: Vec<Var> = (0..axes.len())
        .map(|d| Var::index(format!("{}.r{d}", ptensor.name())))
        .collect();
    let axis_vals: Vec<PrimExpr> = region_vars
        .iter()
        .zip(&regions)
        .map(|(v, r)| r.lo.clone() + v.expr())
        .collect();

    // Substitution: producer axis vars -> region index expressions.
    let mut map: HashMap<u64, PrimExpr> = HashMap::new();
    for (ax, val) in axes.iter().zip(&axis_vals) {
        map.insert(ax.var.id, val.clone());
    }
    let out_idx: Vec<PrimExpr> = axis_vals.clone();

    // Bounds guard: the region may stick out of the producer's domain at
    // ragged tile edges.
    let guard = axis_vals
        .iter()
        .enumerate()
        .map(|(d, v)| {
            cmp::and(
                cmp::ge(v.clone(), 0i64),
                cmp::lt(v.clone(), PrimExpr::from(ptensor.shape()[d] as i64)),
            )
        })
        .reduce(cmp::and)
        .expect("rank >= 1");

    let mut stmt = match &body {
        PrimExpr::Reduce {
            combiner,
            source,
            axes: raxes,
        } => {
            let init = Stmt::BufferStore {
                buffer: buf.clone(),
                indices: out_idx.clone(),
                value: identity_expr(*combiner, ptensor.dtype()),
            };
            let read_out = PrimExpr::TensorRead(ptensor.clone(), out_idx.clone());
            let update_val =
                crate::lower::combine_expr_pub(*combiner, read_out, substitute(source, &map));
            let mut update = Stmt::BufferStore {
                buffer: buf.clone(),
                indices: out_idx,
                value: update_val,
            };
            for r in raxes.iter().rev() {
                update = Stmt::For {
                    var: r.var.clone(),
                    min: r.dom.min,
                    extent: r.dom.extent,
                    kind: ForKind::Serial,
                    body: Box::new(update),
                };
            }
            init.then(update)
        }
        other => Stmt::BufferStore {
            buffer: buf,
            indices: out_idx,
            value: substitute(other, &map),
        },
    };

    stmt = Stmt::IfThenElse {
        cond: guard,
        then: Box::new(stmt),
        else_: None,
    };

    for (v, r) in region_vars.iter().zip(&regions).rev() {
        stmt = Stmt::For {
            var: v.clone(),
            min: 0,
            extent: r.extent,
            kind: ForKind::Serial,
            body: Box::new(stmt),
        };
    }
    stmt
}

#[cfg(test)]
mod tests {
    use crate::lower::lower;
    use tvm_runtime_free_test::*;

    // Minimal local executor harness: this crate cannot depend on
    // tvm-runtime (dependency direction), so structural checks live here
    // and numeric checks live in the workspace integration tests.
    mod tvm_runtime_free_test {
        pub use tvm_te::{compute, placeholder, reduce_axis, sum, DType, Schedule, Tensor};
    }

    fn chain(n: usize) -> (Tensor, Tensor, Tensor) {
        let a = placeholder([n, n], DType::F32, "A");
        let t = compute([n, n], "T", |i| a.at(&[i[0].clone(), i[1].clone()]) * 2i64);
        let o = compute([n, n], "O", |i| t.at(&[i[0].clone(), i[1].clone()]) + 1i64);
        (a, t, o)
    }

    #[test]
    fn attached_elementwise_moves_inside_consumer_loop() {
        let (a, t, o) = chain(16);
        let mut s = Schedule::create(std::slice::from_ref(&o));
        let (y, x) = (o.axis(0), o.axis(1));
        let (yo, _yi) = s.split(&o, &y, 4);
        let (_xo, _xi) = s.split(&o, &x, 4);
        s.compute_at(&t, &o, &yo);
        let f = lower(&s, &[a, o], "fused");
        // Both stores exist, and T's store sits under at least the yo loop
        // (depth > 1 from the top).
        assert_eq!(f.body.store_count(), 2);
        // Top level has exactly one loop nest (no separate T nest).
        match &f.body {
            crate::stmt::Stmt::For { .. } => {}
            other => panic!("expected a single top-level nest, got {other:?}"),
        }
    }

    #[test]
    fn attached_region_extent_matches_tile() {
        let (a, t, o) = chain(16);
        let mut s = Schedule::create(std::slice::from_ref(&o));
        let (y, x) = (o.axis(0), o.axis(1));
        let (yo, _yi) = s.split(&o, &y, 4);
        let (_xo, _xi) = s.split(&o, &x, 8);
        s.compute_at(&t, &o, &yo);
        let f = lower(&s, &[a, o], "fused");
        // The region loops for T are 4 (rows of the y tile) x 16 (all
        // columns: x loops are below the attach point... x tiles of 8 and
        // xo below yo => region covers the whole x range of 16).
        let mut extents = Vec::new();
        f.body.walk(&mut |st| {
            if let crate::stmt::Stmt::For { var, extent, .. } = st {
                if var.name.starts_with("T.r") {
                    extents.push(*extent);
                }
            }
        });
        assert_eq!(extents, vec![4, 16]);
    }

    #[test]
    fn reduce_producer_attaches() {
        // E = A*B (matmul); O = E + 1; attach E at O's row-tile loop.
        let n = 8usize;
        let a = placeholder([n, n], DType::F32, "A");
        let b = placeholder([n, n], DType::F32, "B");
        let k = reduce_axis(0, n as i64, "k");
        let e = compute([n, n], "E", |i| {
            sum(
                a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        let o = compute([n, n], "O", |i| e.at(&[i[0].clone(), i[1].clone()]) + 1i64);
        let mut s = Schedule::create(std::slice::from_ref(&o));
        let y = o.axis(0);
        let (yo, _yi) = s.split(&o, &y, 2);
        s.compute_at(&e, &o, &yo);
        let f = lower(&s, &[a, b, o], "fused_mm");
        // E contributes an init store and an update store per region
        // element, plus O's store: 3 stores.
        assert_eq!(f.body.store_count(), 3);
        assert_eq!(f.allocs.len(), 1, "E stays an internal allocation");
    }

    #[test]
    #[should_panic(expected = "does not read")]
    fn attach_requires_consumer_read() {
        let n = 4usize;
        let a = placeholder([n], DType::F32, "A");
        let t = compute([n], "T", |i| a.at(&[i[0].clone()]));
        let o = compute([n], "O", |i| a.at(&[i[0].clone()]) + 1i64);
        let mut s = Schedule::create(&[t.clone(), o.clone()]);
        let y = o.axis(0);
        s.compute_at(&t, &o, &y);
    }

    #[test]
    #[should_panic(expected = "must stay at root")]
    fn outputs_cannot_attach() {
        let (_, t, o) = chain(8);
        // Make T an output too.
        let mut s = Schedule::create(&[t.clone(), o.clone()]);
        let y = o.axis(0);
        s.compute_at(&t, &o, &y);
    }
}
