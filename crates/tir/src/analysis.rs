//! Loop-nest analysis: the per-store features the analytical GPU cost
//! model (`gpu-sim`) consumes.
//!
//! Strides and guards read the affine forms of [`affine_of`] over the
//! enclosing loops' ranges. An access's stride along a loop is how far
//! the form of its row-major offset moves as the loop's variable goes
//! from 0 to 1, and is 0 along every loop when an index has no form
//! (`min`/`max`, division by a variable, a variable no loop binds). A
//! guard comparison whose sides have forms is evaluated on them over the
//! sample rows; any other guard is walked as a tree.

use crate::passes::affine::{affine_of, offset_of, Atom, VarRanges};
use crate::stmt::{PrimFunc, Stmt};
use std::collections::HashMap;
use tvm_te::{BinOp, CmpOp, DType, PrimExpr, Var};

/// One loop surrounding a statement.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Loop variable id.
    pub var_id: u64,
    /// Lower bound.
    pub min: i64,
    /// Trip count.
    pub extent: i64,
}

impl LoopInfo {
    /// The loop over `var` from `min`, `extent` trips.
    pub(crate) fn new(var: &Var, min: i64, extent: i64) -> LoopInfo {
        LoopInfo {
            var_id: var.id,
            min,
            extent,
        }
    }

    /// The inclusive range of the loop variable; a loop of no trips reads
    /// as its minimum.
    pub(crate) fn range(&self) -> (i64, i64) {
        (self.min, self.min + (self.extent - 1).max(0))
    }
}

/// One memory access (read or the store target) of a statement.
#[derive(Debug, Clone)]
pub struct AccessInfo {
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
        PrimExpr::Cmp(op, a, b) => Some(compare(*op, operand(a, env)?, operand(b, env)?) as i64),
        PrimExpr::And(a, b) => Some((operand(a, env)? != 0 && operand(b, env)? != 0) as i64),
        PrimExpr::Or(a, b) => Some((operand(a, env)? != 0 || operand(b, env)? != 0) as i64),
        PrimExpr::Not(a) => Some((operand(a, env)? == 0) as i64),
        _ => None,
    }
}

fn compare(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
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

/// The sample points of a loop list: `SELECTIVITY_SAMPLES` rows of one
/// value per loop. Every list restarts the stream, so the points depend
/// only on the loops' `(min, extent)` and stores under equal lists share
/// them.
fn draw_samples(loops: &[LoopInfo]) -> Vec<i64> {
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    let mut values = Vec::with_capacity(SELECTIVITY_SAMPLES * loops.len());
    for _ in 0..SELECTIVITY_SAMPLES {
        values.extend(loops.iter().map(|l| l.min + rng.below(l.extent)));
    }
    values
}

/// `Σ c·atom(values[slot]) + k`: an affine form resolved to loop slots.
type SlotForm = (Vec<(usize, Atom, i64)>, i64);

/// One conjunct of a store's guards, compiled once per store.
enum Guard<'a> {
    /// `lhs op rhs`, both sides evaluated in wrapping `i64`; never `None`.
    Affine(CmpOp, SlotForm, SlotForm),
    /// Anything else, walked as a tree; `None` ("cannot analyze") passes.
    Tree(&'a PrimExpr),
}

impl Guard<'_> {
    fn holds(&self, loops: &[LoopInfo], row: &[i64]) -> bool {
        let at = |(terms, k): &SlotForm| {
            terms.iter().fold(*k, |acc, &(slot, atom, c)| {
                acc.wrapping_add(c.wrapping_mul(atom.at(row[slot])))
            })
        };
        // The innermost loop binds a repeated variable.
        let value = |id| Some(row[loops.iter().rposition(|l| l.var_id == id)?]);
        match self {
            Guard::Affine(op, lhs, rhs) => compare(*op, at(lhs), at(rhs)),
            Guard::Tree(g) => eval_int_with(g, &value).is_none_or(|v| v != 0),
        }
    }
}

/// `e`'s form with each variable resolved to the innermost loop binding
/// it. `ranges` bounds exactly the loops' variables, so a form exists
/// only when every variable of `e` is a loop's.
fn slot_form(e: &PrimExpr, loops: &[LoopInfo], ranges: &VarRanges) -> Option<SlotForm> {
    let form = affine_of(e, ranges)?;
    let slot = |v| {
        loops
            .iter()
            .rposition(|l| l.var_id == v)
            .expect("a bounded variable")
    };
    let terms = form.terms.iter().map(|&(v, atom, c)| (slot(v), atom, c));
    Some((terms.collect(), form.constant))
}

/// Append the conjuncts of guard `g` to `out`.
fn compile<'a>(g: &'a PrimExpr, loops: &[LoopInfo], ranges: &VarRanges, out: &mut Vec<Guard<'a>>) {
    let affine = |op: CmpOp, a: &PrimExpr, b: &PrimExpr| {
        let (a, b) = (slot_form(a, loops, ranges)?, slot_form(b, loops, ranges)?);
        Some(Guard::Affine(op, a, b))
    };
    let compiled = match g {
        PrimExpr::Cmp(op, a, b) => affine(*op, a, b),
        // Else-branch guards: the complementary comparison.
        PrimExpr::Not(c) => match &**c {
            PrimExpr::Cmp(op, a, b) => {
                let op = match op {
                    CmpOp::Eq => CmpOp::Ne,
                    CmpOp::Ne => CmpOp::Eq,
                    CmpOp::Lt => CmpOp::Ge,
                    CmpOp::Le => CmpOp::Gt,
                    CmpOp::Gt => CmpOp::Le,
                    CmpOp::Ge => CmpOp::Lt,
                };
                affine(op, a, b)
            }
            _ => None,
        },
        // `And` passes when its left side is `None`, so it splits only
        // when that side compiles to comparisons alone.
        PrimExpr::And(a, b) => {
            let mark = out.len();
            compile(a, loops, ranges, out);
            if out[mark..].iter().all(|c| matches!(c, Guard::Affine(..))) {
                compile(b, loops, ranges, out);
                return;
            }
            out.truncate(mark);
            None
        }
        _ => None,
    };
    out.push(compiled.unwrap_or(Guard::Tree(g)));
}

/// The share of the sample points `draws` of `loops` that pass every
/// guard, floored at one sample.
fn guard_selectivity(
    guards: &[PrimExpr],
    loops: &[LoopInfo],
    ranges: &VarRanges,
    draws: &[i64],
) -> f64 {
    // A conjunction of independent predicates, so the order is free:
    // innermost first, because the outermost guards are split-tail
    // bounds checks that almost always hold, while the inner ones
    // (triangular domains) reject most samples early.
    let mut conjuncts = Vec::new();
    for g in guards.iter().rev() {
        compile(g, loops, ranges, &mut conjuncts);
    }
    let n = loops.len();
    let pass = (0..SELECTIVITY_SAMPLES)
        .filter(|s| {
            let row = &draws[s * n..(s + 1) * n];
            conjuncts.iter().all(|g| g.holds(loops, row))
        })
        .count();
    (pass as f64 / SELECTIVITY_SAMPLES as f64).max(1.0 / SELECTIVITY_SAMPLES as f64)
}

/// The access's features. Its stride along a loop is how far the
/// row-major offset of the indices' forms moves as the loop's variable
/// goes from 0 to 1; an access with an index outside the grammar of
/// [`affine_of`] reads 0 along every loop.
fn access_info(
    numel: usize,
    dtype: DType,
    indices: &[PrimExpr],
    shape: &[usize],
    loops: &[LoopInfo],
    ranges: &VarRanges,
) -> AccessInfo {
    let offset = offset_of(indices, shape, ranges);
    let stride = |v| offset.as_ref()?.delta(v, 0, 1);
    let strides = loops
        .iter()
        .map(|l| stride(l.var_id).unwrap_or(0))
        .collect();
    AccessInfo {
        buffer_numel: numel,
        elem_bytes: dtype.size_bytes(),
        strides,
    }
}

/// Sample points by the `(min, extent)` list they were drawn for.
type Draws = HashMap<Vec<(i64, i64)>, Vec<i64>>;

/// The walk's state at a statement: the enclosing loops, their
/// variables' ranges and the enclosing guards.
#[derive(Default)]
struct Scope {
    loops: Vec<LoopInfo>,
    ranges: VarRanges,
    guards: Vec<PrimExpr>,
}

fn collect(stmt: &Stmt, scope: &mut Scope, draws: &mut Draws, out: &mut Vec<StmtFeatures>) {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            body,
            ..
        } => {
            let l = LoopInfo::new(var, *min, *extent);
            let shadowed = scope.ranges.insert(var.id, l.range());
            scope.loops.push(l);
            collect(body, scope, draws, out);
            scope.loops.pop();
            match shadowed {
                Some(r) => scope.ranges.insert(var.id, r),
                None => scope.ranges.remove(&var.id),
            };
        }
        Stmt::IfThenElse { cond, then, else_ } => {
            scope.guards.push(cond.clone());
            collect(then, scope, draws, out);
            scope.guards.pop();
            if let Some(e) = else_ {
                scope
                    .guards
                    .push(PrimExpr::Not(std::sync::Arc::new(cond.clone())));
                collect(e, scope, draws, out);
                scope.guards.pop();
            }
        }
        Stmt::Seq(items) => {
            for s in items {
                collect(s, scope, draws, out);
            }
        }
        Stmt::BufferStore {
            buffer,
            indices,
            value,
        } => {
            let Scope {
                loops,
                ranges,
                guards,
            } = scope;
            let access = |numel, dtype, idx: &[PrimExpr], shape: &[usize]| {
                access_info(numel, dtype, idx, shape, loops, ranges)
            };
            let mut reads = Vec::new();
            tvm_te::visitor::walk(value, &mut |e| {
                if let PrimExpr::TensorRead(t, idx) = e {
                    reads.push(access(t.numel(), t.dtype(), idx, t.shape()));
                }
            });
            let write = access(buffer.numel(), buffer.dtype, indices, &buffer.shape);
            let raw_iterations: f64 = loops.iter().map(|l| l.extent as f64).product();
            let guard_selectivity = if guards.is_empty() {
                1.0
            } else {
                let key = loops.iter().map(|l| (l.min, l.extent)).collect();
                let draws = draws.entry(key).or_insert_with(|| draw_samples(loops));
                guard_selectivity(guards, loops, ranges, draws)
            };
            out.push(StmtFeatures {
                loops: loops.clone(),
                raw_iterations,
                guard_selectivity,
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
    collect(
        &func.body,
        &mut Scope::default(),
        &mut Draws::new(),
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use tvm_te::{compute, placeholder, reduce_axis, sum, DType, Schedule, Var};

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
        // Loops are (i, j, k). Reads, in walk order: C[i,j] (strides
        // 16,1,0), A[i,k] (16,0,1), B[k,j] (0,1,16). Write C[i,j] likewise.
        let strides: Vec<&[i64]> = update.reads.iter().map(|r| &r.strides[..]).collect();
        assert_eq!(strides, [&[16, 1, 0], &[16, 0, 1], &[0, 1, 16]]);
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
    /// this module used before it evaluated affine forms over loop slots,
    /// kept as the reference the forms must match bit for bit.
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

    /// Numbers drawn by the case runner, read in order by a recursive
    /// guard builder (the runner has no recursive strategies).
    struct Tape<'a>(std::slice::Iter<'a, u64>);

    impl Tape<'_> {
        fn pick(&mut self, n: u64) -> u64 {
            self.0.next().map_or(0, |v| v % n)
        }

        /// A sum of constant multiples of constants, variables and their
        /// floor quotients and remainders by `1..=8`, nested at most
        /// `depth` deep: the grammar of [`affine_of`]'s forms.
        fn form(&mut self, vars: &[Var], depth: u32) -> PrimExpr {
            use tvm_te::ops::{floordiv, floormod, int};
            let var = |t: &mut Self| vars[t.pick(vars.len() as u64) as usize].expr();
            match self.pick(if depth == 0 { 4 } else { 7 }) {
                0 => int(self.pick(9) as i64 - 4),
                1 => var(self),
                2 => floordiv(var(self), int(1 + self.pick(8) as i64)),
                3 => floormod(var(self), int(1 + self.pick(8) as i64)),
                4 => self.form(vars, depth - 1) + self.form(vars, depth - 1),
                5 => self.form(vars, depth - 1) - self.form(vars, depth - 1),
                _ => self.form(vars, depth - 1) * int(self.pick(9) as i64 - 4),
            }
        }

        /// Constants in `-4..=4` and operators nested at most `depth`
        /// deep, so the reference never overflows on loop values in
        /// `-3..=8`. Most draws stay affine, so most comparisons compile.
        /// An exhausted tape reads as zeros.
        fn index(&mut self, vars: &[Var], depth: u32) -> PrimExpr {
            use BinOp::*;
            const OPS: [BinOp; 10] = [Add, Sub, Add, Sub, Mul, Div, FloorDiv, FloorMod, Min, Max];
            match self.pick(if depth == 0 { 3 } else { 3 + OPS.len() as u64 }) {
                0 => tvm_te::ops::int(self.pick(9) as i64 - 4),
                1 | 2 => vars[self.pick(vars.len() as u64) as usize].expr(),
                op => {
                    let a = self.index(vars, depth - 1);
                    PrimExpr::binary(OPS[op as usize - 3], a, self.index(vars, depth - 1))
                }
            }
        }

        fn guard(&mut self, vars: &[Var], depth: u32) -> PrimExpr {
            use tvm_te::ops::cmp::{and, not, or};
            use CmpOp::*;
            let compare = |t: &mut Self| {
                let op = [Eq, Ne, Lt, Le, Gt, Ge][t.pick(6) as usize];
                let depth = t.pick(3) as u32;
                let a = t.index(vars, depth);
                PrimExpr::cmp(op, a, t.index(vars, depth))
            };
            match self.pick(if depth == 0 { 2 } else { 6 }) {
                0 => compare(self),
                1 => not(compare(self)),
                2 => and(self.guard(vars, depth - 1), self.guard(vars, depth - 1)),
                3 => or(self.guard(vars, depth - 1), self.guard(vars, depth - 1)),
                4 => not(self.guard(vars, depth - 1)),
                _ => self.index(vars, 1),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        // Loops bind `vars[..3]` with repeats, extents 0 and 1 and
        // negative minimums; `vars[3]` is never bound.
        fn generated_guards_match_the_map_reference(
            nest in proptest::collection::vec((0usize..3, -3i64..=3, 0i64..=6), 0..6),
            tape in proptest::collection::vec(0u64..1 << 16, 64..65),
        ) {
            let vars = [Var::index("i"), Var::index("j"), Var::index("k"), Var::index("free")];
            let loops: Vec<LoopInfo> = nest
                .iter()
                .map(|&(v, min, extent)| LoopInfo { var_id: vars[v].id, min, extent })
                .collect();
            let mut tape = Tape(tape.iter());
            let guards: Vec<PrimExpr> = (0..1 + tape.pick(3)).map(|_| tape.guard(&vars, 2)).collect();
            proptest::prop_assert_eq!(
                guard_selectivity(&guards, &loops, &ranges_of(&loops), &draw_samples(&loops))
                    .to_bits(),
                guard_selectivity_by_map(&guards, &loops).to_bits(),
                "guards {guards:?} under {loops:?}"
            );
        }

        // The same nests; indices in the form grammar, over the loop
        // variables and the unbound `vars[3]`.
        fn generated_strides_match_the_map_reference(
            nest in proptest::collection::vec((0usize..3, -3i64..=3, 0i64..=6), 0..6),
            tape in proptest::collection::vec(0u64..1 << 16, 64..65),
        ) {
            let vars = [Var::index("i"), Var::index("j"), Var::index("k"), Var::index("free")];
            let loops: Vec<LoopInfo> = nest
                .iter()
                .map(|&(v, min, extent)| LoopInfo { var_id: vars[v].id, min, extent })
                .collect();
            let mut tape = Tape(tape.iter());
            let shape = [5usize, 3, 7];
            let indices: Vec<PrimExpr> = (0..1 + tape.pick(3)).map(|_| tape.form(&vars, 3)).collect();
            let shape = &shape[..indices.len()];
            let info = access_info(1, DType::F64, &indices, shape, &loops, &ranges_of(&loops));
            let weights: Vec<usize> = (0..shape.len()).map(|d| shape[d + 1..].iter().product()).collect();
            let want: Vec<i64> = loops
                .iter()
                .map(|l| stride_by_map(&indices, &weights, l.var_id, &loops).unwrap_or(0))
                .collect();
            proptest::prop_assert_eq!(info.strides, want, "indices {:?} under {:?}", indices, loops);
        }
    }

    fn ranges_of(loops: &[LoopInfo]) -> VarRanges {
        loops.iter().map(|l| (l.var_id, l.range())).collect()
    }

    #[test]
    fn slot_evaluation_matches_the_map_reference() {
        use tvm_te::ops::cmp::{and, not, or};
        use tvm_te::ops::{cmp, floordiv, floormod, int};
        let (i, j, k, free) = (
            Var::index("i"),
            Var::index("j"),
            Var::index("k"),
            Var::index("free"),
        );
        let loop_of = |v: &Var, min: i64, extent: i64| LoopInfo {
            var_id: v.id,
            min,
            extent,
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
            // A `None` left side passes the whole `And`; split, the
            // right side would fail every sample.
            vec![and(cmp::lt(free.expr(), int(0)), cmp::lt(i.expr(), int(0)))],
            vec![or(cmp::lt(free.expr(), int(0)), cmp::lt(i.expr(), int(0)))],
            vec![
                not(cmp::le(j.expr(), i.expr())),
                cmp::lt(PrimExpr::binary(BinOp::Min, i.expr(), k.expr()), int(7)),
                cmp::ge(PrimExpr::binary(BinOp::Max, j.expr(), int(2)), k.expr() - 5),
            ],
        ];
        for guards in &guard_sets {
            for depth in 0..=loops.len() {
                let nest = &loops[..depth];
                assert_eq!(
                    guard_selectivity(guards, nest, &ranges_of(nest), &draw_samples(nest))
                        .to_bits(),
                    guard_selectivity_by_map(guards, nest).to_bits(),
                    "guards {guards:?} under {depth} loops"
                );
            }
        }
        generated_guards_match_the_map_reference();
        generated_strides_match_the_map_reference();

        let accesses: Vec<Vec<PrimExpr>> = vec![
            vec![i.expr(), k.expr()],
            vec![i.expr() * 8 + j.expr(), floordiv(k.expr(), int(2))],
            vec![floordiv(i.expr(), j.expr()), k.expr()],
            vec![free.expr(), i.expr()],
        ];
        let elem_strides = [64usize, 1];
        for indices in &accesses {
            let info = access_info(
                4096,
                DType::F64,
                indices,
                &[64, 64],
                &loops,
                &ranges_of(&loops),
            );
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
