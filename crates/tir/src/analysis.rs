//! Loop-nest analysis: features consumed by the analytical GPU cost model
//! (`gpu-sim`) and by tuner feature encodings (`autotvm`).

use crate::stmt::{ForKind, PrimFunc, Stmt};
use std::collections::HashMap;
use tvm_te::{BinOp, CmpOp, DType, PrimExpr};

/// One loop surrounding a statement.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Loop variable id.
    pub var_id: u64,
    /// Loop variable name.
    pub name: String,
    /// Lower bound.
    pub min: i64,
    /// Trip count.
    pub extent: i64,
    /// Execution strategy.
    pub kind: ForKind,
}

/// One memory access (read or the store target) of a statement.
#[derive(Debug, Clone)]
pub struct AccessInfo {
    /// Buffer/tensor name.
    pub buffer: String,
    /// Total elements of the underlying storage.
    pub buffer_numel: usize,
    /// Element size in bytes.
    pub elem_bytes: usize,
    /// Stride (in elements) of the access with respect to each enclosing
    /// loop variable, outermost first. `0` = loop-invariant, `1` =
    /// contiguous.
    pub strides: Vec<i64>,
}

/// Features of one `BufferStore` statement together with its loop nest.
#[derive(Debug, Clone)]
pub struct StmtFeatures {
    /// Enclosing loops, outermost first.
    pub loops: Vec<LoopInfo>,
    /// Product of loop extents (upper bound on executed iterations).
    pub raw_iterations: f64,
    /// Estimated fraction of iterations that pass enclosing guards
    /// (`1.0` when unguarded); estimated by deterministic sampling.
    pub guard_selectivity: f64,
    /// Floating-point arithmetic operations per executed iteration.
    pub flops_per_iter: f64,
    /// Read accesses (one per distinct `TensorRead` site).
    pub reads: Vec<AccessInfo>,
    /// The store target access.
    pub write: AccessInfo,
}

impl StmtFeatures {
    /// Effective executed iterations (`raw * selectivity`).
    pub fn iterations(&self) -> f64 {
        self.raw_iterations * self.guard_selectivity
    }

    /// Total floating-point operations of this statement.
    pub fn total_flops(&self) -> f64 {
        self.iterations() * self.flops_per_iter
    }
}

/// Evaluate an index/predicate expression over integer variable values.
///
/// Returns `None` on unbound variables or non-integer constructs — callers
/// treat that as "cannot analyze".
pub fn eval_int(e: &PrimExpr, env: &HashMap<u64, i64>) -> Option<i64> {
    eval_int_with(e, &|id| env.get(&id).copied())
}

/// [`eval_int`] over any variable lookup (`var id -> value`, `None` when
/// unbound), so hot callers can bind variables without building a map.
pub fn eval_int_with<F: Fn(u64) -> Option<i64>>(e: &PrimExpr, env: &F) -> Option<i64> {
    // Leaves are half the nodes of an index expression: operands read
    // them in place instead of recursing.
    let operand = |e: &PrimExpr, env: &F| match e {
        PrimExpr::IntImm(v, _) => Some(*v),
        PrimExpr::Var(v) => env(v.id),
        _ => eval_int_with(e, env),
    };
    match e {
        PrimExpr::IntImm(v, _) => Some(*v),
        PrimExpr::BoolImm(b) => Some(*b as i64),
        PrimExpr::Var(v) => env(v.id),
        PrimExpr::Binary(op, a, b) => {
            let (a, b) = (operand(a, env)?, operand(b, env)?);
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0 {
                        return None;
                    }
                    a / b
                }
                BinOp::FloorDiv => {
                    if b == 0 {
                        return None;
                    }
                    a.div_euclid(b)
                }
                BinOp::FloorMod => {
                    if b == 0 {
                        return None;
                    }
                    a.rem_euclid(b)
                }
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
            })
        }
        PrimExpr::Cmp(op, a, b) => {
            let (a, b) = (operand(a, env)?, operand(b, env)?);
            Some(match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            } as i64)
        }
        PrimExpr::And(a, b) => Some((operand(a, env)? != 0 && operand(b, env)? != 0) as i64),
        PrimExpr::Or(a, b) => Some((operand(a, env)? != 0 || operand(b, env)? != 0) as i64),
        PrimExpr::Not(a) => Some((operand(a, env)? == 0) as i64),
        _ => None,
    }
}

/// Count floating-point operations in an expression (one per float-typed
/// arithmetic node; `sqrt` counts as four, matching common roofline
/// practice for special functions).
pub fn count_flops(e: &PrimExpr) -> f64 {
    let mut flops = 0.0;
    tvm_te::visitor::walk(e, &mut |node| match node {
        PrimExpr::Binary(op, a, b) => {
            let t = a.dtype().unify(b.dtype());
            if t.is_float()
                && matches!(
                    op,
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max
                )
            {
                flops += 1.0;
            }
        }
        PrimExpr::Sqrt(_) => flops += 4.0,
        _ => {}
    });
    flops
}

/// Linear offset difference of an access when `loop_var` moves 0 -> 1,
/// every other variable bound by `base`.
fn stride_of<F: Fn(u64) -> Option<i64>>(
    indices: &[PrimExpr],
    strides_elems: &[usize],
    loop_var: u64,
    base: &F,
) -> Option<i64> {
    let offset_at = |value: i64| -> Option<i64> {
        let env = |id| (id == loop_var).then_some(value).or_else(|| base(id));
        let mut off = 0i64;
        for (idx, stride) in indices.iter().zip(strides_elems) {
            off += eval_int_with(idx, &env)? * *stride as i64;
        }
        Some(off)
    };
    let off0 = offset_at(0)?;
    Some(offset_at(1)? - off0)
}

/// The value `values` binds to variable `id`, one slot per enclosing loop.
/// The innermost loop wins when a variable id repeats, as a map filled
/// outermost-first would have it.
fn loop_value(loops: &[LoopInfo], values: &[i64], id: u64) -> Option<i64> {
    let slot = loops.iter().rposition(|l| l.var_id == id)?;
    Some(values[slot])
}

/// Deterministic xorshift for guard-selectivity sampling.
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: i64) -> i64 {
        if n <= 1 {
            0
        } else {
            (self.next() % n as u64) as i64
        }
    }
}

const SELECTIVITY_SAMPLES: usize = 512;

fn guard_selectivity(guards: &[PrimExpr], loops: &[LoopInfo]) -> f64 {
    if guards.is_empty() {
        return 1.0;
    }
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    let mut pass = 0usize;
    let mut values = vec![0i64; loops.len()];
    for _ in 0..SELECTIVITY_SAMPLES {
        for (value, l) in values.iter_mut().zip(loops) {
            *value = l.min + rng.below(l.extent);
        }
        let env = |id| loop_value(loops, &values, id);
        // A conjunction of independent predicates, so the order is free:
        // innermost first, because the outermost guards are split-tail
        // bounds checks that almost always hold, while the inner ones
        // (triangular domains) reject most samples early.
        let ok = guards
            .iter()
            .rev()
            .all(|g| eval_int_with(g, &env).map(|v| v != 0).unwrap_or(true));
        pass += ok as usize;
    }
    (pass as f64 / SELECTIVITY_SAMPLES as f64).max(1.0 / SELECTIVITY_SAMPLES as f64)
}

fn access_info(
    name: &str,
    numel: usize,
    dtype: DType,
    indices: &[PrimExpr],
    shape: &[usize],
    loops: &[LoopInfo],
) -> AccessInfo {
    // Row-major element strides of the storage.
    let mut elem_strides = vec![1usize; shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        elem_strides[d] = elem_strides[d + 1] * shape[d + 1];
    }
    // Base env: all loop vars at their minimum.
    let mins: Vec<i64> = loops.iter().map(|l| l.min).collect();
    let base = |id| loop_value(loops, &mins, id);
    let strides = loops
        .iter()
        .map(|l| stride_of(indices, &elem_strides, l.var_id, &base).unwrap_or(0))
        .collect();
    AccessInfo {
        buffer: name.to_string(),
        buffer_numel: numel,
        elem_bytes: dtype.size_bytes(),
        strides,
    }
}

fn collect(
    stmt: &Stmt,
    loops: &mut Vec<LoopInfo>,
    guards: &mut Vec<PrimExpr>,
    out: &mut Vec<StmtFeatures>,
) {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            loops.push(LoopInfo {
                var_id: var.id,
                name: var.name.clone(),
                min: *min,
                extent: *extent,
                kind: *kind,
            });
            collect(body, loops, guards, out);
            loops.pop();
        }
        Stmt::IfThenElse { cond, then, else_ } => {
            guards.push(cond.clone());
            collect(then, loops, guards, out);
            guards.pop();
            if let Some(e) = else_ {
                guards.push(PrimExpr::Not(std::sync::Arc::new(cond.clone())));
                collect(e, loops, guards, out);
                guards.pop();
            }
        }
        Stmt::Seq(items) => {
            for s in items {
                collect(s, loops, guards, out);
            }
        }
        Stmt::BufferStore {
            buffer,
            indices,
            value,
        } => {
            let mut reads = Vec::new();
            tvm_te::visitor::walk(value, &mut |e| {
                if let PrimExpr::TensorRead(t, idx) = e {
                    reads.push(access_info(
                        t.name(),
                        t.numel(),
                        t.dtype(),
                        idx,
                        t.shape(),
                        loops,
                    ));
                }
            });
            let write = access_info(
                &buffer.name,
                buffer.numel(),
                buffer.dtype,
                indices,
                &buffer.shape,
                loops,
            );
            let raw_iterations: f64 = loops.iter().map(|l| l.extent as f64).product();
            out.push(StmtFeatures {
                loops: loops.clone(),
                raw_iterations,
                guard_selectivity: guard_selectivity(guards, loops),
                flops_per_iter: count_flops(value),
                reads,
                write,
            });
        }
        Stmt::Nop => {}
    }
}

/// Extract per-store loop-nest features from a lowered function.
pub fn analyze(func: &PrimFunc) -> Vec<StmtFeatures> {
    let mut out = Vec::new();
    collect(&func.body, &mut Vec::new(), &mut Vec::new(), &mut out);
    out
}

/// Total floating-point work of the whole function.
pub fn total_flops(func: &PrimFunc) -> f64 {
    analyze(func).iter().map(|f| f.total_flops()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use tvm_te::{compute, placeholder, reduce_axis, sum, DType, Schedule};

    fn matmul(n: usize) -> PrimFunc {
        let a = placeholder([n, n], DType::F64, "A");
        let b = placeholder([n, n], DType::F64, "B");
        let k = reduce_axis(0, n as i64, "k");
        let c = compute([n, n], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        let s = Schedule::create(std::slice::from_ref(&c));
        lower(&s, &[a, b, c], "mm")
    }

    #[test]
    fn matmul_flops() {
        let f = matmul(16);
        // update: n^3 iterations * 2 flops (mul + add)
        let feats = analyze(&f);
        assert_eq!(feats.len(), 2); // init store + update store
        let update = &feats[1];
        assert_eq!(update.loops.len(), 3);
        assert!((update.flops_per_iter - 2.0).abs() < 1e-9);
        assert!((update.total_flops() - 2.0 * 16f64.powi(3)).abs() < 1e-6);
    }

    #[test]
    fn stride_analysis_identifies_contiguity() {
        let f = matmul(16);
        let feats = analyze(&f);
        let update = &feats[1];
        // Loops are (i, j, k). Reads: A[i,k] (strides 16,0,1), B[k,j] (0,1,16),
        // C[i,j] (16,1,0). Write C[i,j] likewise.
        let a = update
            .reads
            .iter()
            .find(|r| r.buffer == "A")
            .expect("A read");
        assert_eq!(a.strides, vec![16, 0, 1]);
        let b = update
            .reads
            .iter()
            .find(|r| r.buffer == "B")
            .expect("B read");
        assert_eq!(b.strides, vec![0, 1, 16]);
        assert_eq!(update.write.strides, vec![16, 1, 0]);
    }

    #[test]
    fn eval_int_handles_div_mod() {
        use tvm_te::ops::{floordiv, floormod, int};
        let env = HashMap::new();
        assert_eq!(eval_int(&floordiv(int(-7), int(2)), &env), Some(-4));
        assert_eq!(eval_int(&floormod(int(-7), int(2)), &env), Some(1));
        assert_eq!(eval_int(&(int(3) * 4 + 1), &env), Some(13));
    }

    /// The map-per-sample sampler and the two-maps-per-stride analysis
    /// this module used before it evaluated over loop slots, kept as the
    /// reference the slot versions must match bit for bit.
    fn guard_selectivity_by_map(guards: &[PrimExpr], loops: &[LoopInfo]) -> f64 {
        if guards.is_empty() {
            return 1.0;
        }
        let mut rng = XorShift(0x9E3779B97F4A7C15);
        let mut pass = 0usize;
        for _ in 0..SELECTIVITY_SAMPLES {
            let mut env = HashMap::with_capacity(loops.len());
            for l in loops {
                env.insert(l.var_id, l.min + rng.below(l.extent));
            }
            let ok = guards
                .iter()
                .all(|g| eval_int(g, &env).map(|v| v != 0).unwrap_or(true));
            pass += ok as usize;
        }
        (pass as f64 / SELECTIVITY_SAMPLES as f64).max(1.0 / SELECTIVITY_SAMPLES as f64)
    }

    fn stride_by_map(
        indices: &[PrimExpr],
        strides_elems: &[usize],
        loop_var: u64,
        loops: &[LoopInfo],
    ) -> Option<i64> {
        let base: HashMap<u64, i64> = loops.iter().map(|l| (l.var_id, l.min)).collect();
        let mut env0 = base.clone();
        env0.insert(loop_var, 0);
        let mut env1 = base;
        env1.insert(loop_var, 1);
        let (mut off0, mut off1) = (0i64, 0i64);
        for (d, idx) in indices.iter().enumerate() {
            off0 += eval_int(idx, &env0)? * strides_elems[d] as i64;
            off1 += eval_int(idx, &env1)? * strides_elems[d] as i64;
        }
        Some(off1 - off0)
    }

    #[test]
    fn slot_evaluation_matches_the_map_reference() {
        use tvm_te::ops::{cmp, floordiv, floormod, int};
        use tvm_te::Var;
        let (i, j, k, free) = (
            Var::index("i"),
            Var::index("j"),
            Var::index("k"),
            Var::index("free"),
        );
        let loop_of = |v: &Var, min: i64, extent: i64| LoopInfo {
            var_id: v.id,
            name: v.name.clone(),
            min,
            extent,
            kind: ForKind::Serial,
        };
        // `i` is bound twice (the inner binding must win), `k` has a
        // non-zero minimum and a one-trip loop draws nothing.
        let loops = vec![
            loop_of(&i, 0, 40),
            loop_of(&j, 0, 25),
            loop_of(&k, 3, 17),
            loop_of(&i, 5, 9),
            loop_of(&j, 0, 1),
        ];
        let guard_sets: Vec<Vec<PrimExpr>> = vec![
            vec![cmp::lt(j.expr(), i.expr())],
            vec![
                cmp::lt(i.expr() * 4 + k.expr(), int(60)),
                cmp::ge(floormod(k.expr(), int(3)), int(1)),
            ],
            // Unbound variable and division by zero: "cannot analyze"
            // counts as passing.
            vec![cmp::lt(free.expr(), int(0))],
            vec![cmp::lt(floordiv(i.expr(), j.expr()), int(2))],
            // Never true: clamps to the 1/512 floor.
            vec![cmp::lt(i.expr(), int(0))],
        ];
        for guards in &guard_sets {
            for depth in 0..=loops.len() {
                let nest = &loops[..depth];
                assert_eq!(
                    guard_selectivity(guards, nest).to_bits(),
                    guard_selectivity_by_map(guards, nest).to_bits(),
                    "guards {guards:?} under {depth} loops"
                );
            }
        }

        let accesses: Vec<Vec<PrimExpr>> = vec![
            vec![i.expr(), k.expr()],
            vec![i.expr() * 8 + j.expr(), floordiv(k.expr(), int(2))],
            vec![floordiv(i.expr(), j.expr()), k.expr()],
            vec![free.expr(), i.expr()],
        ];
        let elem_strides = [64usize, 1];
        for indices in &accesses {
            let info = access_info("A", 4096, DType::F64, indices, &[64, 64], &loops);
            let want: Vec<i64> = loops
                .iter()
                .map(|l| stride_by_map(indices, &elem_strides, l.var_id, &loops).unwrap_or(0))
                .collect();
            assert_eq!(info.strides, want, "indices {indices:?}");
        }
    }

    #[test]
    fn selectivity_of_triangular_guard() {
        // for i in 0..64, j in 0..64: if j < i { store }
        use crate::buffer::Buffer;
        use crate::stmt::ForKind;
        use tvm_te::ops::cmp;
        use tvm_te::Var;
        let (i, j) = (Var::index("i"), Var::index("j"));
        let b = Buffer::new("b", [64usize, 64], DType::F64);
        let body = Stmt::IfThenElse {
            cond: cmp::lt(j.expr(), i.expr()),
            then: Box::new(Stmt::BufferStore {
                buffer: b.clone(),
                indices: vec![i.expr(), j.expr()],
                value: tvm_te::ops::float(1.0),
            }),
            else_: None,
        };
        let nest = Stmt::For {
            var: i.clone(),
            min: 0,
            extent: 64,
            kind: ForKind::Serial,
            body: Box::new(Stmt::For {
                var: j.clone(),
                min: 0,
                extent: 64,
                kind: ForKind::Serial,
                body: Box::new(body),
            }),
        };
        let f = PrimFunc {
            name: "tri".into(),
            params: vec![b],
            allocs: vec![],
            body: nest,
        };
        let feats = analyze(&f);
        assert_eq!(feats.len(), 1);
        let sel = feats[0].guard_selectivity;
        assert!(
            (sel - 0.5).abs() < 0.08,
            "triangular guard selectivity should be ~0.5, got {sel}"
        );
    }
}
