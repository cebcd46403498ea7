//! Integer interval domain for abstract interpretation of index
//! expressions.
//!
//! Intervals are closed ranges `[lo, hi]` over `i64` with saturating
//! endpoint arithmetic (`i64::MIN`/`i64::MAX` double as "unbounded").
//! An empty interval (`lo > hi`) denotes unreachable code: any access
//! under an empty environment is trivially safe.

use std::collections::HashMap;
use tvm_te::{BinOp, CmpOp, PrimExpr};

/// Closed integer range `[lo, hi]`; empty when `lo > hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

/// Clamp an `i128` intermediate back into the `i64` endpoint space.
fn clamp(v: i128) -> i64 {
    if v > i64::MAX as i128 {
        i64::MAX
    } else if v < i64::MIN as i128 {
        i64::MIN
    } else {
        v as i64
    }
}

impl Interval {
    /// Construct `[lo, hi]`.
    pub fn new(lo: i64, hi: i64) -> Interval {
        Interval { lo, hi }
    }

    /// Single value `[v, v]`.
    pub fn point(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// Canonical empty interval.
    pub fn empty() -> Interval {
        Interval { lo: 1, hi: 0 }
    }

    /// `lo > hi` — no concrete value, i.e. unreachable.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Exact value if the interval is a single point.
    pub fn as_point(&self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// True when every value of `self` lies within `[lo, hi]`.
    pub fn within(&self, lo: i64, hi: i64) -> bool {
        self.is_empty() || (self.lo >= lo && self.hi <= hi)
    }

    /// Set intersection.
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Whether the two ranges share at least one value.
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Pointwise sum.
    pub fn add(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval {
            lo: clamp(self.lo as i128 + other.lo as i128),
            hi: clamp(self.hi as i128 + other.hi as i128),
        }
    }

    /// Pointwise difference.
    pub fn sub(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval {
            lo: clamp(self.lo as i128 - other.hi as i128),
            hi: clamp(self.hi as i128 - other.lo as i128),
        }
    }

    /// Pointwise product (corner analysis).
    pub fn mul(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        let corners = [
            self.lo as i128 * other.lo as i128,
            self.lo as i128 * other.hi as i128,
            self.hi as i128 * other.lo as i128,
            self.hi as i128 * other.hi as i128,
        ];
        Interval {
            lo: clamp(*corners.iter().min().expect("nonempty")),
            hi: clamp(*corners.iter().max().expect("nonempty")),
        }
    }

    /// Pointwise minimum.
    pub fn min_with(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Pointwise maximum.
    pub fn max_with(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Euclidean floor division. `None` when the divisor may be zero —
    /// the caller treats that as unanalyzable.
    pub fn floordiv(&self, other: &Interval) -> Option<Interval> {
        if self.is_empty() || other.is_empty() {
            return Some(Interval::empty());
        }
        if other.lo <= 0 && other.hi >= 0 {
            return None;
        }
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for a in [self.lo, self.hi] {
            for b in [other.lo, other.hi] {
                let q = a.div_euclid(b);
                lo = lo.min(q);
                hi = hi.max(q);
            }
        }
        Some(Interval { lo, hi })
    }

    /// Euclidean remainder: result lies in `[0, max|divisor| - 1]`.
    /// `None` when the divisor may be zero.
    pub fn floormod(&self, other: &Interval) -> Option<Interval> {
        if self.is_empty() || other.is_empty() {
            return Some(Interval::empty());
        }
        if other.lo <= 0 && other.hi >= 0 {
            return None;
        }
        let m = other.lo.unsigned_abs().max(other.hi.unsigned_abs());
        // When the whole dividend range falls inside one period of a
        // point divisor the remainder is exact.
        if let Some(d) = other.as_point() {
            let (qlo, qhi) = (self.lo.div_euclid(d), self.hi.div_euclid(d));
            if qlo == qhi {
                return Some(Interval {
                    lo: self.lo.rem_euclid(d),
                    hi: self.hi.rem_euclid(d),
                });
            }
        }
        Some(Interval {
            lo: 0,
            hi: clamp(m as i128 - 1),
        })
    }
}

/// A structural refinement fact: "expression `expr` lies in `range`".
///
/// Facts are derived from enclosing `if` guards and matched against
/// sub-expressions by structural equality (`PrimExpr: PartialEq`), which
/// is how split-induced `min`/`max` guards tighten interior index terms.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// The constrained expression.
    pub expr: PrimExpr,
    /// Its proven range.
    pub range: Interval,
}

/// Evaluation context: loop-variable ranges plus guard-derived facts.
#[derive(Debug, Clone, Default)]
pub struct IntervalEnv {
    /// Loop variable id → its value range.
    pub vars: HashMap<u64, Interval>,
    /// Structural facts from enclosing guards.
    pub constraints: Vec<Constraint>,
}

impl IntervalEnv {
    /// Environment with the given variable ranges and no constraints.
    pub fn with_vars(vars: HashMap<u64, Interval>) -> IntervalEnv {
        IntervalEnv {
            vars,
            constraints: Vec::new(),
        }
    }

    /// True when any bound variable or guard renders this context
    /// unreachable.
    pub fn unreachable(&self) -> bool {
        self.vars.values().any(Interval::is_empty)
            || self.constraints.iter().any(|c| {
                // Evaluating the constrained expression refines it with
                // every matching fact, exposing empty intersections.
                eval_interval(&c.expr, self)
                    .map(|iv| iv.is_empty())
                    .unwrap_or(false)
            })
    }

    fn refine(&self, e: &PrimExpr, base: Interval) -> Interval {
        let mut r = base;
        for c in &self.constraints {
            if &c.expr == e {
                r = r.intersect(&c.range);
            }
        }
        r
    }
}

/// Abstractly evaluate an integer expression to an interval.
///
/// Returns `None` for constructs outside the affine-ish fragment
/// (tensor reads, floats, `sqrt`, possibly-zero divisors, unbound
/// variables) — callers must treat `None` as "cannot prove safe".
pub fn eval_interval(e: &PrimExpr, env: &IntervalEnv) -> Option<Interval> {
    let base = match e {
        PrimExpr::IntImm(v, _) => Interval::point(*v),
        PrimExpr::BoolImm(b) => Interval::point(*b as i64),
        PrimExpr::Var(v) => *env.vars.get(&v.id)?,
        PrimExpr::Binary(op, a, b) => {
            let (ia, ib) = (eval_interval(a, env)?, eval_interval(b, env)?);
            match op {
                BinOp::Add => ia.add(&ib),
                BinOp::Sub => ia.sub(&ib),
                BinOp::Mul => ia.mul(&ib),
                BinOp::Div | BinOp::FloorDiv => ia.floordiv(&ib)?,
                BinOp::FloorMod => ia.floormod(&ib)?,
                BinOp::Min => ia.min_with(&ib),
                BinOp::Max => ia.max_with(&ib),
            }
        }
        PrimExpr::Cmp(op, a, b) => {
            let (ia, ib) = (eval_interval(a, env)?, eval_interval(b, env)?);
            if ia.is_empty() || ib.is_empty() {
                Interval::empty()
            } else {
                let always = match op {
                    CmpOp::Lt => ia.hi < ib.lo,
                    CmpOp::Le => ia.hi <= ib.lo,
                    CmpOp::Gt => ia.lo > ib.hi,
                    CmpOp::Ge => ia.lo >= ib.hi,
                    CmpOp::Eq => ia.as_point().is_some() && ia == ib,
                    CmpOp::Ne => !ia.overlaps(&ib),
                };
                let never = match op {
                    CmpOp::Lt => ia.lo >= ib.hi,
                    CmpOp::Le => ia.lo > ib.hi,
                    CmpOp::Gt => ia.hi <= ib.lo,
                    CmpOp::Ge => ia.hi < ib.lo,
                    CmpOp::Eq => !ia.overlaps(&ib),
                    CmpOp::Ne => ia.as_point().is_some() && ia == ib,
                };
                if always {
                    Interval::point(1)
                } else if never {
                    Interval::point(0)
                } else {
                    Interval::new(0, 1)
                }
            }
        }
        PrimExpr::And(a, b) | PrimExpr::Or(a, b) => {
            let (ia, ib) = (eval_interval(a, env)?, eval_interval(b, env)?);
            if ia.is_empty() || ib.is_empty() {
                Interval::empty()
            } else {
                Interval::new(0, 1).intersect(&Interval::new(ia.lo.min(ib.lo), ia.hi.max(ib.hi)))
            }
        }
        PrimExpr::Not(a) => {
            let ia = eval_interval(a, env)?;
            match ia.as_point() {
                _ if ia.is_empty() => Interval::empty(),
                Some(0) => Interval::point(1),
                Some(_) => Interval::point(0),
                None => Interval::new(0, 1),
            }
        }
        _ => return None,
    };
    Some(env.refine(e, base))
}

/// Derive structural constraints implied by a guard condition being true.
///
/// Conjunctions are split; comparisons against interval-evaluable sides
/// become facts on the opposite side. `Not` flips the comparison. `Or`
/// yields nothing (a sound under-approximation).
pub fn constraints_from_guard(cond: &PrimExpr, env: &IntervalEnv, out: &mut Vec<Constraint>) {
    match cond {
        PrimExpr::And(a, b) => {
            constraints_from_guard(a, env, out);
            constraints_from_guard(b, env, out);
        }
        PrimExpr::Not(inner) => {
            if let PrimExpr::Cmp(op, a, b) = &**inner {
                let flipped = match op {
                    CmpOp::Lt => CmpOp::Ge,
                    CmpOp::Le => CmpOp::Gt,
                    CmpOp::Gt => CmpOp::Le,
                    CmpOp::Ge => CmpOp::Lt,
                    CmpOp::Eq => CmpOp::Ne,
                    CmpOp::Ne => CmpOp::Eq,
                };
                constraint_from_cmp(flipped, a, b, env, out);
            }
        }
        PrimExpr::Cmp(op, a, b) => constraint_from_cmp(*op, a, b, env, out),
        _ => {}
    }
}

fn constraint_from_cmp(
    op: CmpOp,
    a: &PrimExpr,
    b: &PrimExpr,
    env: &IntervalEnv,
    out: &mut Vec<Constraint>,
) {
    // `a op b`: bound `a` using the interval of `b`, and vice versa.
    if let Some(ib) = eval_interval(b, env) {
        if let Some(range) = range_of_lhs(op, &ib) {
            out.push(Constraint {
                expr: a.clone(),
                range,
            });
        }
    }
    if let Some(ia) = eval_interval(a, env) {
        let mirrored = match op {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        };
        if let Some(range) = range_of_lhs(mirrored, &ia) {
            out.push(Constraint {
                expr: b.clone(),
                range,
            });
        }
    }
}

/// Range implied for the left side of `lhs op rhs` given `rhs`'s range.
fn range_of_lhs(op: CmpOp, rhs: &Interval) -> Option<Interval> {
    if rhs.is_empty() {
        return Some(Interval::empty());
    }
    Some(match op {
        CmpOp::Lt => Interval::new(i64::MIN, clamp(rhs.hi as i128 - 1)),
        CmpOp::Le => Interval::new(i64::MIN, rhs.hi),
        CmpOp::Gt => Interval::new(clamp(rhs.lo as i128 + 1), i64::MAX),
        CmpOp::Ge => Interval::new(rhs.lo, i64::MAX),
        CmpOp::Eq => *rhs,
        CmpOp::Ne => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::ops::{cmp, floordiv, floormod, int};
    use tvm_te::Var;

    fn env1(v: &Var, lo: i64, hi: i64) -> IntervalEnv {
        let mut vars = HashMap::new();
        vars.insert(v.id, Interval::new(lo, hi));
        IntervalEnv::with_vars(vars)
    }

    #[test]
    fn affine_index_interval() {
        let i = Var::index("i");
        let env = env1(&i, 0, 15);
        // 4*i + 3 over i in [0,15] -> [3, 63]
        let e = i.expr() * 4 + 3;
        assert_eq!(eval_interval(&e, &env), Some(Interval::new(3, 63)));
    }

    #[test]
    fn split_div_mod_shape() {
        let i = Var::index("i");
        let env = env1(&i, 0, 63);
        // floordiv(i, 16) in [0, 3]; floormod(i, 16) in [0, 15]
        assert_eq!(
            eval_interval(&floordiv(i.expr(), int(16)), &env),
            Some(Interval::new(0, 3))
        );
        assert_eq!(
            eval_interval(&floormod(i.expr(), int(16)), &env),
            Some(Interval::new(0, 15))
        );
    }

    #[test]
    fn mod_exact_within_one_period() {
        let i = Var::index("i");
        let env = env1(&i, 17, 20);
        assert_eq!(
            eval_interval(&floormod(i.expr(), int(16)), &env),
            Some(Interval::new(1, 4))
        );
    }

    #[test]
    fn division_by_possible_zero_is_unanalyzable() {
        let i = Var::index("i");
        let env = env1(&i, -1, 1);
        assert_eq!(eval_interval(&floordiv(int(4), i.expr()), &env), None);
    }

    #[test]
    fn guard_constraint_tightens() {
        let i = Var::index("i");
        let mut env = env1(&i, 0, 99);
        // if i < 50 { ... }: i refined to [0, 49]
        let cond = cmp::lt(i.expr(), int(50));
        let mut cs = Vec::new();
        constraints_from_guard(&cond, &env, &mut cs);
        env.constraints = cs;
        assert_eq!(eval_interval(&i.expr(), &env), Some(Interval::new(0, 49)));
    }

    #[test]
    fn negated_guard_constraint() {
        let i = Var::index("i");
        let mut env = env1(&i, 0, 99);
        // else-branch of `if i < 50`: i >= 50
        let cond = PrimExpr::Not(std::sync::Arc::new(cmp::lt(i.expr(), int(50))));
        let mut cs = Vec::new();
        constraints_from_guard(&cond, &env, &mut cs);
        env.constraints = cs;
        assert_eq!(eval_interval(&i.expr(), &env), Some(Interval::new(50, 99)));
    }

    #[test]
    fn structural_constraint_on_compound_expr() {
        // Guard on `i*4` (not a bare var) still refines `i*4 + 1`.
        let i = Var::index("i");
        let mut env = env1(&i, 0, 99);
        let prod = i.expr() * 4;
        let cond = cmp::le(prod.clone(), int(40));
        let mut cs = Vec::new();
        constraints_from_guard(&cond, &env, &mut cs);
        env.constraints = cs;
        let e = prod + 1;
        assert_eq!(eval_interval(&e, &env), Some(Interval::new(1, 41)));
    }

    #[test]
    fn empty_interval_is_unreachable() {
        let i = Var::index("i");
        let mut env = env1(&i, 0, 9);
        let cond = cmp::gt(i.expr(), int(100));
        let mut cs = Vec::new();
        constraints_from_guard(&cond, &env, &mut cs);
        env.constraints = cs;
        assert!(env.unreachable());
    }

    #[test]
    fn saturation_does_not_wrap() {
        let i = Var::index("i");
        let env = env1(&i, 0, i64::MAX);
        let e = i.expr() * 4 + 3;
        let r = eval_interval(&e, &env).expect("interval");
        assert_eq!(r.hi, i64::MAX);
        assert!(r.lo <= 3);
    }
}
