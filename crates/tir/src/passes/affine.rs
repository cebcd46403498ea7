//! Affine-form analysis of integer index expressions.
//!
//! Lowered index arithmetic is overwhelmingly affine in the loop
//! variables: `split` produces `outer * factor + inner`, `fuse`
//! produces `floordiv(fused, extent)` / `floormod(fused, extent)`, and
//! buffer linearization multiplies by constant strides. This module
//! recovers the canonical form `Σ cᵢ·vᵢ + k` from such expressions,
//! bounds it with interval arithmetic over the enclosing loop ranges,
//! and — the key enabler for strength reduction — *decomposes*
//! `floordiv`/`floormod` by a positive constant exactly when the
//! euclidean remainder part can be proven to stay inside `[0, c)`.
//!
//! All arithmetic is checked: any overflow makes the analysis give up
//! (return `None`) rather than produce a wrong coefficient.

use std::collections::HashMap;
use tvm_te::expr::BinOp;
use tvm_te::{DType, PrimExpr, Var};

/// Inclusive value range `(lo, hi)` of a loop variable, as recorded
/// from `For { min, extent }`: `lo = min`, `hi = min + extent - 1`.
pub type VarRanges = HashMap<u64, (i64, i64)>;

/// An integer expression in canonical affine form `Σ cᵢ·vᵢ + constant`.
///
/// Terms are sorted by variable id and never carry a zero coefficient,
/// so structural equality coincides with semantic equality of the
/// affine form.
#[derive(Debug, Clone, PartialEq)]
pub struct Affine {
    /// Variable terms `(var, coefficient)`, sorted by `var.id`,
    /// coefficients nonzero.
    pub terms: Vec<(Var, i64)>,
    /// Constant offset.
    pub constant: i64,
}

impl Affine {
    /// The constant `k` as an affine form.
    pub fn constant(k: i64) -> Affine {
        Affine {
            terms: vec![],
            constant: k,
        }
    }

    /// The single variable `v` as an affine form.
    pub fn var(v: Var) -> Affine {
        Affine {
            terms: vec![(v, 1)],
            constant: 0,
        }
    }

    /// True when the form has no variable terms.
    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    fn normalize(mut self) -> Affine {
        self.terms.retain(|(_, c)| *c != 0);
        self.terms.sort_by_key(|(v, _)| v.id);
        self
    }

    /// `self + other`, or `None` on coefficient overflow.
    pub fn add(&self, other: &Affine) -> Option<Affine> {
        self.combine(other, 1)
    }

    /// `self - other`, or `None` on coefficient overflow.
    pub fn sub(&self, other: &Affine) -> Option<Affine> {
        self.combine(other, -1)
    }

    fn combine(&self, other: &Affine, sign: i64) -> Option<Affine> {
        // Both term lists are sorted by variable id: one merge.
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut mine, mut theirs) = (self.terms.iter().peekable(), other.terms.iter().peekable());
        loop {
            let order = match (mine.peek(), theirs.peek()) {
                (Some(a), Some(b)) => a.0.id.cmp(&b.0.id),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => break,
            };
            let (v, c) = match order {
                std::cmp::Ordering::Less => mine.next().cloned()?,
                std::cmp::Ordering::Greater => {
                    let (v, c) = theirs.next()?;
                    (v.clone(), c.checked_mul(sign)?)
                }
                std::cmp::Ordering::Equal => {
                    let ((v, a), (_, b)) = (mine.next()?, theirs.next()?);
                    (v.clone(), a.checked_add(b.checked_mul(sign)?)?)
                }
            };
            if c != 0 {
                terms.push((v, c));
            }
        }
        let constant = self
            .constant
            .checked_add(other.constant.checked_mul(sign)?)?;
        Some(Affine { terms, constant })
    }

    /// `self * k`, or `None` on overflow.
    pub fn scale(&self, k: i64) -> Option<Affine> {
        let mut terms = Vec::with_capacity(self.terms.len());
        for (v, c) in &self.terms {
            terms.push((v.clone(), c.checked_mul(k)?));
        }
        Some(
            Affine {
                terms,
                constant: self.constant.checked_mul(k)?,
            }
            .normalize(),
        )
    }

    /// Inclusive interval of the form's value given variable ranges.
    /// `None` if a variable has no recorded range or arithmetic
    /// overflows.
    pub fn interval(&self, ranges: &VarRanges) -> Option<(i64, i64)> {
        let mut lo = self.constant;
        let mut hi = self.constant;
        for (v, c) in &self.terms {
            let &(vlo, vhi) = ranges.get(&v.id)?;
            let a = c.checked_mul(vlo)?;
            let b = c.checked_mul(vhi)?;
            lo = lo.checked_add(a.min(b))?;
            hi = hi.checked_add(a.max(b))?;
        }
        Some((lo, hi))
    }

    /// Exact euclidean decomposition by a positive constant `c`:
    /// returns `(q, r)` with `self = c·q + r` **and** a proof that the
    /// value of `r` stays inside `[0, c)` for all variable assignments
    /// within `ranges` — which makes `floordiv(self, c) = q` and
    /// `floormod(self, c) = r` exact rewrites.
    ///
    /// Each coefficient (and the constant) is split with euclidean
    /// division, so `r`'s coefficients are already in `[0, c)`; the
    /// interval check then bounds the whole remainder form.
    pub fn div_rem(&self, c: i64, ranges: &VarRanges) -> Option<(Affine, Affine)> {
        if c <= 0 {
            return None;
        }
        let mut q = Affine::constant(self.constant.div_euclid(c));
        let mut r = Affine::constant(self.constant.rem_euclid(c));
        for (v, coeff) in &self.terms {
            let qc = coeff.div_euclid(c);
            let rc = coeff.rem_euclid(c);
            if qc != 0 {
                q.terms.push((v.clone(), qc));
            }
            if rc != 0 {
                r.terms.push((v.clone(), rc));
            }
        }
        let q = q.normalize();
        let r = r.normalize();
        let (rlo, rhi) = r.interval(ranges)?;
        if rlo >= 0 && rhi < c {
            Some((q, r))
        } else {
            None
        }
    }

    /// Rebuild the affine form as a `PrimExpr` (`i64` arithmetic):
    /// `c₀·v₀ + c₁·v₁ + … + k`, omitting unit coefficients and a zero
    /// constant where possible.
    pub fn to_expr(&self) -> PrimExpr {
        let imm = |v: i64| PrimExpr::IntImm(v, DType::I64);
        let mut acc: Option<PrimExpr> = None;
        for (v, c) in &self.terms {
            let term = if *c == 1 {
                v.expr()
            } else {
                PrimExpr::binary(BinOp::Mul, v.expr(), imm(*c))
            };
            acc = Some(match acc {
                None => term,
                Some(a) => PrimExpr::binary(BinOp::Add, a, term),
            });
        }
        match acc {
            None => imm(self.constant),
            Some(a) if self.constant == 0 => a,
            Some(a) => PrimExpr::binary(BinOp::Add, a, imm(self.constant)),
        }
    }
}

/// Extract the affine form of an integer expression, or `None` when the
/// expression is not (provably) affine.
///
/// Handles literals, variables, `+`, `-`, multiplication by a constant,
/// and — recursively — `floordiv`/`floormod` by a positive constant
/// whenever [`Affine::div_rem`] can prove the decomposition with the
/// given variable `ranges`. Truncated `Div` by a positive constant is
/// accepted when the numerator is provably non-negative (where it
/// agrees with `floordiv`).
pub fn affine_of(e: &PrimExpr, ranges: &VarRanges) -> Option<Affine> {
    match e {
        PrimExpr::IntImm(v, _) => Some(Affine::constant(*v)),
        PrimExpr::Var(v) if v.dtype.is_int() => Some(Affine::var(v.clone())),
        PrimExpr::Binary(op, a, b) => {
            if e.dtype().is_float() {
                return None;
            }
            match op {
                BinOp::Add => affine_of(a, ranges)?.add(&affine_of(b, ranges)?),
                BinOp::Sub => affine_of(a, ranges)?.sub(&affine_of(b, ranges)?),
                BinOp::Mul => {
                    if let Some(k) = b.as_int() {
                        affine_of(a, ranges)?.scale(k)
                    } else if let Some(k) = a.as_int() {
                        affine_of(b, ranges)?.scale(k)
                    } else {
                        None
                    }
                }
                BinOp::FloorDiv => {
                    let c = b.as_int()?;
                    let (q, _) = affine_of(a, ranges)?.div_rem(c, ranges)?;
                    Some(q)
                }
                BinOp::FloorMod => {
                    let c = b.as_int()?;
                    let (_, r) = affine_of(a, ranges)?.div_rem(c, ranges)?;
                    Some(r)
                }
                BinOp::Div => {
                    // Truncated division agrees with floordiv only for a
                    // non-negative numerator.
                    let c = b.as_int()?;
                    let num = affine_of(a, ranges)?;
                    let (lo, _) = num.interval(ranges)?;
                    if lo >= 0 {
                        let (q, _) = num.div_rem(c, ranges)?;
                        Some(q)
                    } else {
                        None
                    }
                }
                BinOp::Min | BinOp::Max => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::ops::{floordiv, floormod, int};

    fn ranged(vars: &[(&Var, i64, i64)]) -> VarRanges {
        vars.iter().map(|(v, lo, hi)| (v.id, (*lo, *hi))).collect()
    }

    #[test]
    fn recovers_split_reconstruction() {
        // outer * 4 + inner with inner in [0,4): affine, interval [0, N).
        let o = Var::index("o");
        let i = Var::index("i");
        let e = o.expr() * int(4) + i.expr();
        let r = ranged(&[(&o, 0, 7), (&i, 0, 3)]);
        let a = affine_of(&e, &r).expect("affine");
        assert_eq!(a.interval(&r), Some((0, 31)));
        assert_eq!(a.terms.len(), 2);
    }

    #[test]
    fn fuse_of_affine_combination_decomposes() {
        // The realistic shape: fused = o*4 + i (o in [0,3), i in [0,4)),
        // then floordiv(fused, 4) == o and floormod(fused, 4) == i.
        let o = Var::index("o");
        let i = Var::index("i");
        let fused = o.expr() * int(4) + i.expr();
        let r = ranged(&[(&o, 0, 2), (&i, 0, 3)]);
        let q = affine_of(&floordiv(fused.clone(), int(4)), &r).expect("q");
        let m = affine_of(&floormod(fused, int(4)), &r).expect("m");
        assert_eq!(q, Affine::var(o));
        assert_eq!(m, Affine::var(i));
    }

    #[test]
    fn floordiv_with_unbounded_remainder_fails() {
        let fz = Var::index("fz");
        let r = ranged(&[(&fz, 0, 11)]);
        assert!(affine_of(&floordiv(fz.expr(), int(4)), &r).is_none());
    }

    #[test]
    fn brute_force_div_rem_against_euclid() {
        // Exhaustively check the decomposition on a 2-var affine form
        // against i64 euclidean division.
        let x = Var::index("x");
        let y = Var::index("y");
        for (cx, cy, k, c) in [
            (4i64, 1i64, 0i64, 4i64),
            (6, 2, 3, 3),
            (8, 1, -4, 4),
            (12, 3, 5, 6),
            (-4, 1, 0, 4),
        ] {
            let form = Affine {
                terms: vec![(x.clone(), cx), (y.clone(), cy)],
                constant: k,
            }
            .normalize();
            let ranges = ranged(&[(&x, 0, 5), (&y, 0, 2)]);
            if let Some((q, r)) = form.div_rem(c, &ranges) {
                for xv in 0..=5 {
                    for yv in 0..=2 {
                        let env: VarRanges = ranged(&[(&x, xv, xv), (&y, yv, yv)]);
                        let val = cx * xv + cy * yv + k;
                        let (qv, qh) = q.interval(&env).unwrap();
                        let (rv, rh) = r.interval(&env).unwrap();
                        assert_eq!(qv, qh);
                        assert_eq!(rv, rh);
                        assert_eq!(qv, val.div_euclid(c), "quotient {cx} {cy} {k} / {c}");
                        assert_eq!(rv, val.rem_euclid(c), "remainder {cx} {cy} {k} / {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn to_expr_round_trips() {
        let x = Var::index("x");
        let y = Var::index("y");
        let form = Affine {
            terms: vec![(x.clone(), 3), (y.clone(), 1)],
            constant: -2,
        }
        .normalize();
        let r = ranged(&[(&x, 0, 4), (&y, 1, 2)]);
        let back = affine_of(&form.to_expr(), &r).expect("round trip");
        assert_eq!(back, form);
    }

    #[test]
    fn scale_and_overflow_guard() {
        let x = Var::index("x");
        let a = Affine::var(x);
        assert!(a.scale(i64::MAX).is_some());
        assert!(a
            .scale(i64::MAX)
            .unwrap()
            .add(&Affine::var(Var::index("z")))
            .is_some());
        let big = Affine::constant(i64::MAX);
        assert!(big.add(&Affine::constant(1)).is_none());
    }
}
