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
//! Where it cannot, the quotient or remainder of a bare variable — a
//! fused loop seen through its source axes — is a term of its own.
//! Terms are keyed by variable id, so a form costs no `Var` clones.
//!
//! It is the one derivation of strides in the crate: the cost model's
//! access strides and guard forms ([`crate::analysis`]) and the race
//! check's footprints ([`crate::analyze::deps`]) read it, and strength
//! reduction ([`super::strength`]) rewrites with it.
//!
//! All arithmetic is checked: any overflow makes the analysis give up
//! (return `None`) rather than produce a wrong coefficient.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tvm_te::expr::BinOp;
use tvm_te::{DType, PrimExpr};

/// Inclusive value range `(lo, hi)` of a loop variable by its id, as
/// recorded from `For { min, extent }`: `lo = min`, `hi = min + extent -
/// 1`.
pub type VarRanges = HashMap<u64, (i64, i64), BuildHasherDefault<IdHasher>>;

/// Hashes a variable id by one multiplication: ids are process counters,
/// not adversarial input, and every index node looks one up.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes
            .iter()
            .for_each(|&b| self.write_u64(self.0 ^ u64::from(b)));
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// What a term takes of its variable: the variable itself, or — where
/// [`Affine::div_rem`] cannot decompose it — its floor quotient or
/// remainder by a positive constant, which is a fused loop seen through
/// one of its source axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Atom {
    /// `v`.
    Var,
    /// `floordiv(v, c)`.
    Div(i64),
    /// `floormod(v, c)`.
    Mod(i64),
}

impl Atom {
    /// The atom's value when its variable is `v`.
    pub(crate) fn at(self, v: i64) -> i64 {
        match self {
            Atom::Var => v,
            Atom::Div(c) => v.div_euclid(c),
            Atom::Mod(c) => v.rem_euclid(c),
        }
    }
}

/// An integer expression in canonical affine form `Σ cᵢ·atomᵢ(vᵢ) + k`.
///
/// Terms are sorted by variable id, then atom, and never carry a zero
/// coefficient, so structural equality coincides with semantic equality
/// of the affine form. Each term depends on one variable, so the form
/// moves along a variable by that variable's terms alone ([`Affine::delta`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Affine {
    /// Terms `(variable id, atom, coefficient)`, sorted, coefficients
    /// nonzero.
    pub terms: Vec<(u64, Atom, i64)>,
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

    /// Sort the terms, merge those of one variable and atom, and drop
    /// zero coefficients; `None` on overflow.
    fn normalize(mut self) -> Option<Affine> {
        self.terms.sort_unstable_by_key(|t| (t.0, t.1));
        let mut overflow = false;
        self.terms.dedup_by(|t, kept| {
            let same = (t.0, t.1) == (kept.0, kept.1);
            if same {
                kept.2 = kept.2.checked_add(t.2).unwrap_or_else(|| {
                    overflow = true;
                    0
                });
            }
            same
        });
        self.terms.retain(|t| t.2 != 0);
        (!overflow).then_some(self)
    }

    /// Add `k · part` to the form; `None` on overflow.
    fn add_scaled(&mut self, part: &Affine, k: i64) -> Option<()> {
        for &(v, atom, c) in &part.terms {
            self.terms.push((v, atom, c.checked_mul(k)?));
        }
        self.constant = self.constant.checked_add(part.constant.checked_mul(k)?)?;
        Some(())
    }

    /// How much the form moves when variable `v` goes from `from` to
    /// `to`, every other variable held; `None` on overflow.
    pub(crate) fn delta(&self, v: u64, from: i64, to: i64) -> Option<i64> {
        (self.terms.iter().filter(|t| t.0 == v)).try_fold(0i64, |acc, &(_, atom, c)| {
            acc.checked_add(c.checked_mul(atom.at(to).checked_sub(atom.at(from))?)?)
        })
    }

    /// Inclusive interval of the form's value given variable ranges.
    /// `None` if a variable has no recorded range, a term is a quotient
    /// or remainder, or arithmetic overflows.
    pub fn interval(&self, ranges: &VarRanges) -> Option<(i64, i64)> {
        let mut lo = self.constant;
        let mut hi = self.constant;
        for &(v, atom, c) in &self.terms {
            if atom != Atom::Var {
                return None;
            }
            let &(vlo, vhi) = ranges.get(&v)?;
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
    /// `floormod(self, c) = r` exact rewrites. A form holding a quotient
    /// or remainder term has none.
    ///
    /// Each coefficient (and the constant) is split with euclidean
    /// division, so `r`'s coefficients are already in `[0, c)`; the
    /// interval check then bounds the whole remainder form.
    pub fn div_rem(&self, c: i64, ranges: &VarRanges) -> Option<(Affine, Affine)> {
        if c <= 0 || self.terms.iter().any(|t| t.1 != Atom::Var) {
            return None;
        }
        // The terms are sorted and distinct, and stay so.
        let split = |f: fn(i64, i64) -> i64| Affine {
            terms: (self.terms.iter().map(|&(v, atom, k)| (v, atom, f(k, c))))
                .filter(|t| t.2 != 0)
                .collect(),
            constant: f(self.constant, c),
        };
        let r = split(i64::rem_euclid);
        let (rlo, rhi) = r.interval(ranges)?;
        (rlo >= 0 && rhi < c).then(|| (split(i64::div_euclid), r))
    }

    /// Rebuild a form without quotient or remainder terms as a
    /// `PrimExpr` (`i64` arithmetic): `c₀·v₀ + c₁·v₁ + … + k`, omitting
    /// unit coefficients and a zero constant where possible. Each
    /// variable is the one `source`, the expression the form was derived
    /// from, names.
    pub fn to_expr(&self, source: &PrimExpr) -> PrimExpr {
        let imm = |v: i64| PrimExpr::IntImm(v, DType::I64);
        let var = |id: u64| {
            let mut found = None;
            tvm_te::visitor::walk(source, &mut |n| match n {
                PrimExpr::Var(v) if v.id == id => found = Some(v.expr()),
                _ => {}
            });
            found.expect("a variable of the source expression")
        };
        let mut acc: Option<PrimExpr> = None;
        for &(v, _, c) in &self.terms {
            let term = if c == 1 {
                var(v)
            } else {
                PrimExpr::binary(BinOp::Mul, var(v), imm(c))
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
/// expression is not (provably) affine in the variables `ranges` bounds.
///
/// Handles literals, bounded variables, `+`, `-`, multiplication by a
/// constant, and — recursively — `floordiv`/`floormod` by a positive
/// constant whenever [`Affine::div_rem`] can prove the decomposition with
/// the given variable `ranges`; where it cannot, the quotient or
/// remainder of a bare variable is a term of its own ([`Atom`]).
/// Truncated `Div` by a positive constant is accepted when the numerator
/// is provably non-negative (where it agrees with `floordiv`). A variable
/// `ranges` does not bound, `min`/`max` and division by a non-constant
/// have no form.
pub fn affine_of(e: &PrimExpr, ranges: &VarRanges) -> Option<Affine> {
    let mut form = Affine::constant(0);
    accumulate(e, 1, ranges, &mut form)?;
    form.normalize()
}

/// The form of the row-major offset of `indices` into a buffer of
/// `shape`, or `None` when an index has no [`affine_of`] form.
pub(crate) fn offset_of(
    indices: &[PrimExpr],
    shape: &[usize],
    ranges: &VarRanges,
) -> Option<Affine> {
    let (mut form, mut weight) = (Affine::constant(0), 1i64);
    for (idx, &n) in indices.iter().zip(shape).rev() {
        accumulate(idx, weight, ranges, &mut form)?;
        weight = weight.checked_mul(i64::try_from(n).ok()?)?;
    }
    form.normalize()
}

/// Add `k · e` to `form`, its terms unsorted; `None` where [`affine_of`]
/// has no form.
fn accumulate(e: &PrimExpr, k: i64, ranges: &VarRanges, form: &mut Affine) -> Option<()> {
    match e {
        PrimExpr::IntImm(v, _) => form.constant = form.constant.checked_add(k.checked_mul(*v)?)?,
        PrimExpr::Var(v) if v.dtype.is_int() && ranges.contains_key(&v.id) => {
            form.terms.push((v.id, Atom::Var, k))
        }
        PrimExpr::Binary(op, a, b) if !e.dtype().is_float() => match op {
            BinOp::Add => {
                accumulate(a, k, ranges, form)?;
                accumulate(b, k, ranges, form)?;
            }
            BinOp::Sub => {
                accumulate(a, k, ranges, form)?;
                accumulate(b, k.checked_neg()?, ranges, form)?;
            }
            BinOp::Mul => match (a.as_int(), b.as_int()) {
                (_, Some(c)) => accumulate(a, k.checked_mul(c)?, ranges, form)?,
                (Some(c), _) => accumulate(b, k.checked_mul(c)?, ranges, form)?,
                _ => return None,
            },
            BinOp::FloorDiv | BinOp::FloorMod => {
                let c = b.as_int()?;
                let num = affine_of(a, ranges)?;
                match (num.div_rem(c, ranges), &num.terms[..]) {
                    (Some((q, _)), _) if *op == BinOp::FloorDiv => form.add_scaled(&q, k)?,
                    (Some((_, r)), _) => form.add_scaled(&r, k)?,
                    (None, &[(v, Atom::Var, 1)]) if c > 0 && num.constant == 0 => {
                        let atom = if *op == BinOp::FloorDiv {
                            Atom::Div(c)
                        } else {
                            Atom::Mod(c)
                        };
                        form.terms.push((v, atom, k));
                    }
                    (None, _) => return None,
                }
            }
            BinOp::Div => {
                // Truncated division agrees with floordiv only for a
                // non-negative numerator.
                let c = b.as_int()?;
                let num = affine_of(a, ranges)?;
                if num.interval(ranges)?.0 < 0 {
                    return None;
                }
                form.add_scaled(&num.div_rem(c, ranges)?.0, k)?;
            }
            BinOp::Min | BinOp::Max => return None,
        },
        _ => return None,
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::ops::{floordiv, floormod, int};
    use tvm_te::Var;

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
        assert_eq!((q.terms, q.constant), (vec![(o.id, Atom::Var, 1)], 0));
        assert_eq!((m.terms, m.constant), (vec![(i.id, Atom::Var, 1)], 0));
    }

    #[test]
    fn fused_variable_is_a_term_of_its_own() {
        // floordiv(fz, 4) over fz in [0, 12): no decomposition, so the
        // quotient and remainder of the bare variable are terms, exact
        // everywhere, with no interval and no further decomposition.
        let (fz, i) = (Var::index("fz"), Var::index("i"));
        let r = ranged(&[(&fz, 0, 11), (&i, 0, 3)]);
        let e = floordiv(fz.expr(), int(4)) * int(8) + floormod(fz.expr(), int(4)) + i.expr();
        let form = affine_of(&e, &r).expect("fused terms");
        assert_eq!(
            form.terms,
            [
                (fz.id, Atom::Div(4), 8),
                (fz.id, Atom::Mod(4), 1),
                (i.id, Atom::Var, 1)
            ]
        );
        for (from, to) in [(0, 1), (3, 4), (-5, 11)] {
            let at = |v: i64| 8 * v.div_euclid(4) + v.rem_euclid(4);
            assert_eq!(form.delta(fz.id, from, to), Some(at(to) - at(from)));
        }
        assert_eq!(form.delta(i.id, 0, 3), Some(3));
        assert_eq!(form.interval(&r), None);
        assert_eq!(form.div_rem(2, &r), None);
        // Only a bare variable: a compound numerator still fails.
        assert!(affine_of(&floordiv(fz.expr() + i.expr(), int(4)), &r).is_none());
        // And only a variable `ranges` bounds.
        assert!(affine_of(&(fz.expr() - fz.expr()), &VarRanges::default()).is_none());
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
                terms: vec![(x.id, Atom::Var, cx), (y.id, Atom::Var, cy)],
                constant: k,
            }
            .normalize()
            .unwrap();
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
            terms: vec![(x.id, Atom::Var, 3), (y.id, Atom::Var, 1)],
            constant: -2,
        }
        .normalize()
        .unwrap();
        let r = ranged(&[(&x, 0, 4), (&y, 1, 2)]);
        let source = x.expr() + y.expr();
        let back = affine_of(&form.to_expr(&source), &r).expect("round trip");
        assert_eq!(back, form);
    }

    #[test]
    fn overflow_has_no_form() {
        let (x, z) = (Var::index("x"), Var::index("z"));
        let r = ranged(&[(&x, 0, 1), (&z, 0, 1)]);
        let big = x.expr() * int(i64::MAX);
        assert!(affine_of(&(big.clone() + z.expr()), &r).is_some());
        assert!(affine_of(&(big.clone() + x.expr()), &r).is_none());
        assert!(affine_of(&(int(i64::MAX) + int(1)), &r).is_none());
    }
}
