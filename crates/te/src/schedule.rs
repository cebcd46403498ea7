//! Schedule tree: per-stage loop transformations (`split`, `reorder`,
//! `fuse`, `tile`) and annotations (`unroll`, `vectorize`, `parallel`,
//! `bind`).
//!
//! A [`Schedule`] owns one [`Stage`] per compute op reachable from its
//! outputs. Each stage tracks the *current* loop order
//! ([`Stage::leaf_iter_vars`]) and the relations (splits/fuses) that connect
//! leaf loops back to the op's original axes. Lowering (crate `tvm-tir`)
//! consumes this state.

use crate::expr::PrimExpr;
use crate::ops::{floordiv, floormod};
use crate::tensor::{OpKind, Tensor};
use crate::var::{IterVar, IterVarType, Var};
use std::collections::HashMap;

/// GPU thread axes a loop can be bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadTag {
    /// `blockIdx.x`
    BlockIdxX,
    /// `blockIdx.y`
    BlockIdxY,
    /// `threadIdx.x`
    ThreadIdxX,
    /// `threadIdx.y`
    ThreadIdxY,
}

impl ThreadTag {
    /// CUDA-style name.
    pub fn name(self) -> &'static str {
        match self {
            ThreadTag::BlockIdxX => "blockIdx.x",
            ThreadTag::BlockIdxY => "blockIdx.y",
            ThreadTag::ThreadIdxX => "threadIdx.x",
            ThreadTag::ThreadIdxY => "threadIdx.y",
        }
    }
}

/// Annotation attached to a leaf iteration variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IterVarAttr {
    /// Fully unroll the loop (requires constant extent at lowering).
    Unroll,
    /// Vectorize the loop (innermost, constant extent).
    Vectorize,
    /// Execute iterations in parallel (CPU threads).
    Parallel,
    /// Bind to a GPU thread axis.
    Bind(ThreadTag),
}

/// A split or fuse relation connecting original axes to derived loops.
#[derive(Debug, Clone)]
pub enum IterRelation {
    /// `parent` was split into `outer * factor + inner`; `factor` is the
    /// inner extent.
    Split {
        /// The axis that was split.
        parent: IterVar,
        /// Outer loop (`ceil(parent.extent / factor)` iterations).
        outer: IterVar,
        /// Inner loop (`factor` iterations).
        inner: IterVar,
        /// Inner extent.
        factor: i64,
    },
    /// `outer` and `inner` (adjacent) were fused into `fused`.
    Fuse {
        /// Original outer loop.
        outer: IterVar,
        /// Original inner loop.
        inner: IterVar,
        /// Replacement single loop of extent `outer.extent * inner.extent`.
        fused: IterVar,
    },
}

/// Per-op scheduling state.
#[derive(Debug, Clone)]
pub struct Stage {
    /// The tensor this stage computes.
    pub tensor: Tensor,
    /// Current loop nest, outermost first.
    pub leaf_iter_vars: Vec<IterVar>,
    /// Applied split/fuse relations, in application order.
    pub relations: Vec<IterRelation>,
    /// Annotations keyed by leaf var id.
    pub attrs: HashMap<u64, IterVarAttr>,
}

impl Stage {
    fn new(tensor: Tensor) -> Stage {
        let (axes, raxes) = match &tensor.op.kind {
            OpKind::Compute {
                axes, reduce_axes, ..
            } => (axes.clone(), reduce_axes.clone()),
            OpKind::Placeholder => (Vec::new(), Vec::new()),
        };
        // Initial order: all data-parallel axes, then reduce axes — the
        // order `te.create_schedule` produces.
        let mut leaves = axes;
        leaves.extend(raxes);
        Stage {
            tensor,
            leaf_iter_vars: leaves,
            relations: Vec::new(),
            attrs: HashMap::new(),
        }
    }

    fn leaf_pos(&self, iv: &IterVar) -> Option<usize> {
        self.leaf_iter_vars
            .iter()
            .position(|l| l.var.id == iv.var.id)
    }

    /// Annotation (if any) on a leaf var.
    pub fn attr_of(&self, iv: &IterVar) -> Option<IterVarAttr> {
        self.attrs.get(&iv.var.id).copied()
    }

    /// For every *non-leaf* variable in the relation chain, its value
    /// expressed in terms of leaf variables; plus boundary-guard predicates
    /// for splits whose factor does not divide the parent extent.
    ///
    /// Used by lowering: compute-body axis variables are substituted with
    /// these bindings before loop-nest construction.
    pub fn axis_bindings(&self) -> (HashMap<u64, PrimExpr>, Vec<PrimExpr>) {
        let mut bind: HashMap<u64, PrimExpr> = HashMap::new();
        let mut guards: Vec<PrimExpr> = Vec::new();
        // Walk relations in reverse: later relations operate on vars
        // produced by earlier ones, so reversing lets us resolve bottom-up.
        for rel in self.relations.iter().rev() {
            match rel {
                IterRelation::Split {
                    parent,
                    outer,
                    inner,
                    factor,
                } => {
                    let oe = bind
                        .get(&outer.var.id)
                        .cloned()
                        .unwrap_or_else(|| outer.var_expr());
                    let ie = bind
                        .get(&inner.var.id)
                        .cloned()
                        .unwrap_or_else(|| inner.var_expr());
                    let pe = oe * *factor + ie + parent.dom.min;
                    if parent.dom.extent % factor != 0 {
                        guards.push(crate::ops::cmp::lt(
                            pe.clone(),
                            PrimExpr::from(parent.dom.end()),
                        ));
                    }
                    bind.insert(parent.var.id, pe);
                }
                IterRelation::Fuse {
                    outer,
                    inner,
                    fused,
                } => {
                    let fe = bind
                        .get(&fused.var.id)
                        .cloned()
                        .unwrap_or_else(|| fused.var_expr());
                    let ie = inner.dom.extent;
                    bind.insert(outer.var.id, floordiv(fe.clone(), ie) + outer.dom.min);
                    bind.insert(inner.var.id, floormod(fe, ie) + inner.dom.min);
                }
            }
        }
        (bind, guards)
    }
}

/// Opaque handle to a stage inside a [`Schedule`].
pub type StageRef = usize;

/// A schedule over the compute graph rooted at one or more output tensors.
///
/// Mirrors `te.create_schedule([...])`: one stage per reachable compute op,
/// in topological (producer-before-consumer) order.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Output tensors the schedule was created for.
    pub outputs: Vec<Tensor>,
    /// Stages in topological order (placeholders excluded).
    pub stages: Vec<Stage>,
}

impl Schedule {
    /// Create a schedule for `outputs` (`te.create_schedule`).
    pub fn create(outputs: &[Tensor]) -> Schedule {
        assert!(!outputs.is_empty(), "schedule needs at least one output");
        let mut order: Vec<Tensor> = Vec::new();
        let mut visited: Vec<u64> = Vec::new();
        fn visit(t: &Tensor, order: &mut Vec<Tensor>, visited: &mut Vec<u64>) {
            if visited.contains(&t.op.id) {
                return;
            }
            visited.push(t.op.id);
            for inp in t.op.input_tensors() {
                visit(&inp, order, visited);
            }
            if !t.op.is_placeholder() {
                order.push(t.clone());
            }
        }
        for out in outputs {
            visit(out, &mut order, &mut visited);
        }
        Schedule {
            outputs: outputs.to_vec(),
            stages: order.into_iter().map(Stage::new).collect(),
        }
    }

    /// Stage handle for `tensor`.
    ///
    /// # Panics
    /// If `tensor` is not a compute op in this schedule.
    pub fn stage_of(&self, tensor: &Tensor) -> StageRef {
        self.stages
            .iter()
            .position(|s| s.tensor.same_as(tensor))
            .unwrap_or_else(|| panic!("tensor `{}` not scheduled here", tensor.name()))
    }

    /// Borrow a stage by tensor.
    pub fn stage(&self, tensor: &Tensor) -> &Stage {
        &self.stages[self.stage_of(tensor)]
    }

    fn stage_mut(&mut self, tensor: &Tensor) -> &mut Stage {
        let i = self.stage_of(tensor);
        &mut self.stages[i]
    }

    /// Split `iv` by `factor` (inner extent); returns `(outer, inner)`.
    ///
    /// Equivalent to `s[T].split(iv, factor)` in TVM. Non-divisible factors
    /// are allowed; lowering inserts a boundary guard.
    pub fn split(&mut self, tensor: &Tensor, iv: &IterVar, factor: i64) -> (IterVar, IterVar) {
        assert!(factor >= 1, "split factor must be >= 1, got {factor}");
        let stage = self.stage_mut(tensor);
        let pos = stage.leaf_pos(iv).unwrap_or_else(|| {
            panic!(
                "axis `{}` is not a leaf of stage `{}` (already split or foreign)",
                iv.var.name,
                tensor.name()
            )
        });
        let parent = stage.leaf_iter_vars[pos].clone();
        let outer_extent =
            parent.dom.extent.div_euclid(factor) + i64::from(parent.dom.extent % factor != 0);
        let outer = IterVar::new(
            crate::range::Range::from_extent(outer_extent),
            format!("{}.outer", parent.var.name),
            parent.iter_type,
        );
        let inner = IterVar::new(
            crate::range::Range::from_extent(factor),
            format!("{}.inner", parent.var.name),
            parent.iter_type,
        );
        stage
            .leaf_iter_vars
            .splice(pos..=pos, [outer.clone(), inner.clone()]);
        stage.relations.push(IterRelation::Split {
            parent,
            outer: outer.clone(),
            inner: inner.clone(),
            factor,
        });
        (outer, inner)
    }

    /// Split `iv` into `nparts` outer iterations (TVM's `nparts=` form);
    /// returns `(outer, inner)`.
    pub fn split_nparts(
        &mut self,
        tensor: &Tensor,
        iv: &IterVar,
        nparts: i64,
    ) -> (IterVar, IterVar) {
        assert!(nparts >= 1, "nparts must be >= 1, got {nparts}");
        let extent = {
            let stage = self.stage(tensor);
            let pos = stage
                .leaf_pos(iv)
                .unwrap_or_else(|| panic!("axis `{}` is not a leaf", iv.var.name));
            stage.leaf_iter_vars[pos].dom.extent
        };
        let factor = extent.div_euclid(nparts) + i64::from(extent % nparts != 0);
        self.split(tensor, iv, factor)
    }

    /// Reorder the listed leaf axes into the given order; unlisted axes
    /// keep their positions (`s[T].reorder(...)`).
    pub fn reorder(&mut self, tensor: &Tensor, order: &[IterVar]) {
        let stage = self.stage_mut(tensor);
        let mut positions: Vec<usize> = order
            .iter()
            .map(|iv| {
                stage.leaf_pos(iv).unwrap_or_else(|| {
                    panic!(
                        "axis `{}` is not a leaf of stage `{}`",
                        iv.var.name,
                        tensor.name()
                    )
                })
            })
            .collect();
        {
            let mut sorted = positions.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                positions.len(),
                "reorder arguments must be distinct axes"
            );
        }
        let slots = {
            let mut s = positions.clone();
            s.sort_unstable();
            s
        };
        let items: Vec<IterVar> = order.to_vec();
        for (slot, item) in slots.iter().zip(items) {
            stage.leaf_iter_vars[*slot] = item;
        }
        // `positions` no longer needed beyond validation
        positions.clear();
    }

    /// Fuse two *adjacent* leaf axes (`outer` immediately before `inner`)
    /// into one; returns the fused axis.
    pub fn fuse(&mut self, tensor: &Tensor, outer: &IterVar, inner: &IterVar) -> IterVar {
        let stage = self.stage_mut(tensor);
        let po = stage
            .leaf_pos(outer)
            .unwrap_or_else(|| panic!("axis `{}` is not a leaf", outer.var.name));
        let pi = stage
            .leaf_pos(inner)
            .unwrap_or_else(|| panic!("axis `{}` is not a leaf", inner.var.name));
        assert_eq!(
            pi,
            po + 1,
            "fuse requires adjacent axes (`{}` then `{}`)",
            outer.var.name,
            inner.var.name
        );
        let o = stage.leaf_iter_vars[po].clone();
        let i = stage.leaf_iter_vars[pi].clone();
        let iter_type = if o.is_reduce() || i.is_reduce() {
            IterVarType::Reduce
        } else {
            o.iter_type
        };
        let fused = IterVar::new(
            crate::range::Range::from_extent(o.dom.extent * i.dom.extent),
            format!("{}.{}.fused", o.var.name, i.var.name),
            iter_type,
        );
        stage.leaf_iter_vars.splice(po..=pi, [fused.clone()]);
        stage.relations.push(IterRelation::Fuse {
            outer: o,
            inner: i,
            fused: fused.clone(),
        });
        fused
    }

    /// `tile(x, y, xf, yf)` — split both axes and reorder to
    /// `(xo, yo, xi, yi)`; returns them in that order.
    pub fn tile(
        &mut self,
        tensor: &Tensor,
        x: &IterVar,
        y: &IterVar,
        x_factor: i64,
        y_factor: i64,
    ) -> (IterVar, IterVar, IterVar, IterVar) {
        let (xo, xi) = self.split(tensor, x, x_factor);
        let (yo, yi) = self.split(tensor, y, y_factor);
        self.reorder(tensor, &[xo.clone(), yo.clone(), xi.clone(), yi.clone()]);
        (xo, yo, xi, yi)
    }

    fn annotate(&mut self, tensor: &Tensor, iv: &IterVar, attr: IterVarAttr) {
        let stage = self.stage_mut(tensor);
        assert!(
            stage.leaf_pos(iv).is_some(),
            "axis `{}` is not a leaf of stage `{}`",
            iv.var.name,
            tensor.name()
        );
        stage.attrs.insert(iv.var.id, attr);
    }

    /// Mark a loop for full unrolling.
    pub fn unroll(&mut self, tensor: &Tensor, iv: &IterVar) {
        self.annotate(tensor, iv, IterVarAttr::Unroll);
    }

    /// Mark a loop for vectorization.
    pub fn vectorize(&mut self, tensor: &Tensor, iv: &IterVar) {
        self.annotate(tensor, iv, IterVarAttr::Vectorize);
    }

    /// Mark a loop for parallel execution.
    pub fn parallel(&mut self, tensor: &Tensor, iv: &IterVar) {
        self.annotate(tensor, iv, IterVarAttr::Parallel);
    }

    /// Bind a loop to a GPU thread axis.
    pub fn bind(&mut self, tensor: &Tensor, iv: &IterVar, tag: ThreadTag) {
        self.annotate(tensor, iv, IterVarAttr::Bind(tag));
    }

    /// All variables (leaf or intermediate) known to a stage — for tests
    /// and diagnostics.
    pub fn all_vars(&self, tensor: &Tensor) -> Vec<Var> {
        let stage = self.stage(tensor);
        let mut vars: Vec<Var> = stage.leaf_iter_vars.iter().map(|l| l.var.clone()).collect();
        for rel in &stage.relations {
            match rel {
                IterRelation::Split {
                    parent,
                    outer,
                    inner,
                    ..
                } => {
                    for v in [&parent.var, &outer.var, &inner.var] {
                        if !vars.iter().any(|x| x.id == v.id) {
                            vars.push(v.clone());
                        }
                    }
                }
                IterRelation::Fuse {
                    outer,
                    inner,
                    fused,
                } => {
                    for v in [&outer.var, &inner.var, &fused.var] {
                        if !vars.iter().any(|x| x.id == v.id) {
                            vars.push(v.clone());
                        }
                    }
                }
            }
        }
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::int;
    use crate::reduce::sum;
    use crate::var::reduce_axis;
    use crate::{compute, placeholder, DType};
    use std::collections::HashMap as Map;

    fn matmul(n: usize) -> (Tensor, Tensor, Tensor, IterVar) {
        let a = placeholder([n, n], DType::F32, "A");
        let b = placeholder([n, n], DType::F32, "B");
        let k = reduce_axis(0, n as i64, "k");
        let c = compute([n, n], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        (a, b, c, k)
    }

    #[test]
    fn create_orders_stages_topologically() {
        let (_, _, c, _) = matmul(8);
        let d = compute([8, 8], "D", |i| {
            c.at(&[i[0].clone(), i[1].clone()]) + int(1)
        });
        let s = Schedule::create(std::slice::from_ref(&d));
        assert_eq!(s.stages.len(), 2);
        assert!(s.stages[0].tensor.same_as(&c));
        assert!(s.stages[1].tensor.same_as(&d));
    }

    #[test]
    fn initial_leaves_are_axes_then_reduce() {
        let (_, _, c, k) = matmul(8);
        let s = Schedule::create(std::slice::from_ref(&c));
        let st = s.stage(&c);
        assert_eq!(st.leaf_iter_vars.len(), 3);
        assert_eq!(st.leaf_iter_vars[2].var.id, k.var.id);
    }

    #[test]
    fn split_replaces_leaf() {
        let (_, _, c, _) = matmul(16);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let y = c.axis(0);
        let (yo, yi) = s.split(&c, &y, 4);
        assert_eq!(yo.extent(), 4);
        assert_eq!(yi.extent(), 4);
        let st = s.stage(&c);
        assert_eq!(st.leaf_iter_vars.len(), 4);
        assert_eq!(st.leaf_iter_vars[0].var.id, yo.var.id);
        assert_eq!(st.leaf_iter_vars[1].var.id, yi.var.id);
        assert!(st.leaf_pos(&y).is_none(), "parent no longer a leaf");
    }

    #[test]
    fn split_non_divisible_rounds_up_and_guards() {
        let (_, _, c, _) = matmul(10);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let y = c.axis(0);
        let (yo, yi) = s.split(&c, &y, 3);
        assert_eq!(yo.extent(), 4); // ceil(10/3)
        assert_eq!(yi.extent(), 3);
        let (_, guards) = s.stage(&c).axis_bindings();
        assert_eq!(guards.len(), 1, "non-divisible split must emit a guard");
    }

    #[test]
    fn axis_bindings_reconstruct_parent() {
        let (_, _, c, _) = matmul(16);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let y = c.axis(0);
        let (yo, yi) = s.split(&c, &y, 4);
        let (bind, guards) = s.stage(&c).axis_bindings();
        assert!(guards.is_empty());
        let pe = bind.get(&y.var.id).expect("parent bound");
        // Evaluate pe at yo=2, yi=3 -> 11
        let mut env: Map<u64, PrimExpr> = Map::new();
        env.insert(yo.var.id, int(2));
        env.insert(yi.var.id, int(3));
        let sub = crate::visitor::substitute(pe, &env);
        // constant-fold by structural evaluation
        fn eval(e: &PrimExpr) -> i64 {
            match e {
                PrimExpr::IntImm(v, _) => *v,
                PrimExpr::Binary(crate::BinOp::Add, a, b) => eval(a) + eval(b),
                PrimExpr::Binary(crate::BinOp::Mul, a, b) => eval(a) * eval(b),
                other => panic!("unexpected node {other:?}"),
            }
        }
        assert_eq!(eval(&sub), 11);
    }

    #[test]
    fn nested_split_bindings_chain() {
        let (_, _, c, _) = matmul(64);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let y = c.axis(0);
        let (_yo, yi) = s.split(&c, &y, 16);
        let (_yio, yii) = s.split(&c, &yi, 4);
        let (bind, _) = s.stage(&c).axis_bindings();
        // y and yi must both be bound; yii is a leaf.
        assert!(bind.contains_key(&y.var.id));
        assert!(bind.contains_key(&yi.var.id));
        assert!(!bind.contains_key(&yii.var.id));
        // y's binding must only reference leaf vars after full substitution.
        let leaves: Vec<u64> = s
            .stage(&c)
            .leaf_iter_vars
            .iter()
            .map(|l| l.var.id)
            .collect();
        let ye = bind.get(&y.var.id).unwrap();
        for v in crate::visitor::free_vars(ye) {
            assert!(
                leaves.contains(&v.id),
                "binding references non-leaf {}",
                v.name
            );
        }
    }

    #[test]
    fn reorder_permutes_slots() {
        let (_, _, c, k) = matmul(8);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let (y, x) = (c.axis(0), c.axis(1));
        s.reorder(&c, &[k.clone(), x.clone(), y.clone()]);
        let order: Vec<u64> = s
            .stage(&c)
            .leaf_iter_vars
            .iter()
            .map(|l| l.var.id)
            .collect();
        assert_eq!(order, vec![k.var.id, x.var.id, y.var.id]);
    }

    #[test]
    fn paper_style_split_reorder() {
        // The paper's mold: yo, yi = split(y, P); xo, xi = split(x, P);
        // reorder(yo, xo, k, yi, xi)
        let (_, _, c, k) = matmul(32);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let (y, x) = (c.axis(0), c.axis(1));
        let (yo, yi) = s.split(&c, &y, 8);
        let (xo, xi) = s.split(&c, &x, 8);
        s.reorder(
            &c,
            &[yo.clone(), xo.clone(), k.clone(), yi.clone(), xi.clone()],
        );
        let order: Vec<u64> = s
            .stage(&c)
            .leaf_iter_vars
            .iter()
            .map(|l| l.var.id)
            .collect();
        assert_eq!(
            order,
            vec![yo.var.id, xo.var.id, k.var.id, yi.var.id, xi.var.id]
        );
    }

    #[test]
    fn fuse_adjacent() {
        let (_, _, c, _) = matmul(8);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let (y, x) = (c.axis(0), c.axis(1));
        let f = s.fuse(&c, &y, &x);
        assert_eq!(f.extent(), 64);
        assert_eq!(s.stage(&c).leaf_iter_vars.len(), 2); // fused + k
        let (bind, _) = s.stage(&c).axis_bindings();
        assert!(bind.contains_key(&y.var.id) && bind.contains_key(&x.var.id));
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn fuse_non_adjacent_panics() {
        let (_, _, c, k) = matmul(8);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let y = c.axis(0);
        let _ = s.fuse(&c, &y, &k); // y and k are not adjacent (x between)
    }

    #[test]
    fn tile_produces_four_loops() {
        let (_, _, c, _) = matmul(16);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let (y, x) = (c.axis(0), c.axis(1));
        let (xo, yo, xi, yi) = s.tile(&c, &x, &y, 4, 4);
        let order: Vec<u64> = s
            .stage(&c)
            .leaf_iter_vars
            .iter()
            .take(4)
            .map(|l| l.var.id)
            .collect();
        assert_eq!(order, vec![xo.var.id, yo.var.id, xi.var.id, yi.var.id]);
    }

    #[test]
    fn annotations_stick() {
        let (_, _, c, _) = matmul(8);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let (y, x) = (c.axis(0), c.axis(1));
        s.parallel(&c, &y);
        s.vectorize(&c, &x);
        assert_eq!(s.stage(&c).attr_of(&y), Some(IterVarAttr::Parallel));
        assert_eq!(s.stage(&c).attr_of(&x), Some(IterVarAttr::Vectorize));
        s.bind(&c, &y, ThreadTag::BlockIdxX);
        assert_eq!(
            s.stage(&c).attr_of(&y),
            Some(IterVarAttr::Bind(ThreadTag::BlockIdxX))
        );
    }

    #[test]
    #[should_panic(expected = "not a leaf")]
    fn split_foreign_axis_panics() {
        let (_, _, c, _) = matmul(8);
        let (_, _, c2, _) = matmul(8);
        let mut s = Schedule::create(&[c]);
        let foreign = c2.axis(0);
        let t = s.outputs[0].clone();
        let _ = s.split(&t, &foreign, 2);
    }

    #[test]
    fn split_reduce_axis_keeps_kind() {
        let (_, _, c, k) = matmul(16);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let (ko, ki) = s.split(&c, &k, 4);
        assert!(ko.is_reduce() && ki.is_reduce());
    }
}
