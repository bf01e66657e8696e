//! Exact rational numbers in lowest terms.
//!
//! A [`Rational`] whose numerator fits `i64` and whose denominator fits
//! `u64` is stored inline as a [`Rat64`]; any other value is boxed as a
//! bignum pair. The form is canonical — a value is inline iff it fits —
//! so equality and hashing stay value-based, and a word-sized value never
//! touches the heap. On the paper's `{0, ½, 1}` inputs, and on the
//! benchmark's weights in eighths, nearly every value is word-sized.
//!
//! Operations on two inline operands run [`Rat64`]'s checked machine-word
//! ops, which count small-path hits and misses (see
//! [`crate::small_path_thread_stats`]); an op that overflows, or that has
//! a boxed operand, takes the bignum path, whose result is re-canonicalized
//! (inline again if it fits).

use crate::integer::{Integer, Sign};
use crate::natural::Natural;
use crate::rat64::{self, gcd_u64, Rat64};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `numer / denom`.
///
/// Invariants: `denom > 0`, and `gcd(|numer|, denom) == 1` (zero is `0/1`);
/// the value is held inline exactly when it fits a [`Rat64`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Numerator fits `i64` and denominator fits `u64`.
    Small(Rat64),
    /// Everything else: `(numer, denom)`, at least one past a machine word.
    Big(Box<(Integer, Natural)>),
}

impl Rational {
    /// The constant zero.
    pub fn zero() -> Self {
        Rational(Repr::Small(Rat64::ZERO))
    }

    /// The constant one.
    pub fn one() -> Self {
        Rational(Repr::Small(Rat64::ONE))
    }

    /// The constant one half — the workhorse probability of the paper.
    pub fn one_half() -> Self {
        Rational(Repr::Small(Rat64::from_reduced(1, 2)))
    }

    /// Builds `n / d` from machine integers. Panics if `d == 0`.
    pub fn from_ints(n: i64, d: i64) -> Self {
        Rational::reduce_wide(i128::from(n), i128::from(d))
    }

    /// Builds `n / d` from big integers, reducing to lowest terms.
    /// Panics if `d == 0`.
    pub fn new(n: Integer, d: Integer) -> Self {
        match (n.to_i64(), d.to_i64()) {
            (Some(n), Some(d)) => Rational::from_ints(n, d),
            _ => Rational::new_big(n, d),
        }
    }

    /// [`Rational::new`] reduced by bignum gcd whatever the operand
    /// sizes: the reduction of the bignum path, and the reference the
    /// property suite pins the word path against.
    pub(crate) fn new_big(n: Integer, d: Integer) -> Self {
        assert!(!d.is_zero(), "rational with zero denominator");
        let sign_flip = d.is_negative();
        let n = if sign_flip { -n } else { n };
        let d = d.into_magnitude();
        if n.is_zero() {
            return Rational::zero();
        }
        let g = n.magnitude().gcd(&d);
        if g.is_one() {
            return Rational::from_parts(n, d);
        }
        let (nq, _) = n.magnitude().div_rem(&g);
        let (dq, _) = d.div_rem(&g);
        Rational::from_parts(Integer::from_sign_magnitude(n.sign(), nq), dq)
    }

    /// `n / d` for machine-word magnitudes (`|n|, |d| ≤ u64::MAX`),
    /// reduced by a word-sized gcd. Panics if `d == 0`.
    fn reduce_wide(n: i128, d: i128) -> Rational {
        assert!(d != 0, "rational with zero denominator");
        let (n, d) = if d < 0 { (-n, -d) } else { (n, d) };
        if n == 0 {
            return Rational::zero();
        }
        let g = i128::from(gcd_u64(n.unsigned_abs() as u64, d as u64));
        Rational::from_reduced_wide(n / g, (d / g) as u64)
    }

    /// Parts already in lowest terms with `den > 0`, held inline when the
    /// numerator fits `i64`.
    fn from_reduced_wide(num: i128, den: u64) -> Rational {
        match i64::try_from(num) {
            Ok(n) => Rational(Repr::Small(Rat64::from_reduced(n, den))),
            Err(_) => {
                let mag = Natural::from(num.unsigned_abs());
                let sign = if num < 0 {
                    Sign::Negative
                } else {
                    Sign::Positive
                };
                Rational::from_parts(Integer::from_sign_magnitude(sign, mag), Natural::from(den))
            }
        }
    }

    /// Big parts already in lowest terms with `denom > 0`: the one place
    /// the canonical form is decided for bignum results.
    fn from_parts(numer: Integer, denom: Natural) -> Rational {
        match (numer.to_i64(), denom.to_u64()) {
            (Some(n), Some(d)) => Rational(Repr::Small(Rat64::from_reduced(n, d))),
            _ => Rational(Repr::Big(Box::new((numer, denom)))),
        }
    }

    /// Numerator and denominator as bignums, borrowed when boxed — the
    /// operands of the bignum path.
    fn parts(&self) -> (Cow<'_, Integer>, Cow<'_, Natural>) {
        match &self.0 {
            Repr::Small(r) => (
                Cow::Owned(Integer::from(r.num())),
                Cow::Owned(Natural::from(r.den())),
            ),
            Repr::Big(b) => (Cow::Borrowed(&b.0), Cow::Borrowed(&b.1)),
        }
    }

    /// The (signed) numerator.
    pub fn numer(&self) -> Integer {
        self.parts().0.into_owned()
    }

    /// The (positive) denominator.
    pub fn denom(&self) -> Natural {
        self.parts().1.into_owned()
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        matches!(&self.0, Repr::Small(r) if r.is_zero())
    }

    /// True iff one.
    pub fn is_one(&self) -> bool {
        matches!(&self.0, Repr::Small(r) if r.is_one())
    }

    /// True iff strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.0 {
            Repr::Small(r) => r.num() < 0,
            Repr::Big(b) => b.0.is_negative(),
        }
    }

    /// True iff strictly positive.
    pub fn is_positive(&self) -> bool {
        match &self.0 {
            Repr::Small(r) => r.num() > 0,
            Repr::Big(b) => b.0.is_positive(),
        }
    }

    /// True iff the value lies in the closed interval `[0, 1]` — i.e. is a
    /// valid probability.
    pub fn is_probability(&self) -> bool {
        match &self.0 {
            Repr::Small(r) => r.num() >= 0 && r.num().unsigned_abs() <= r.den(),
            Repr::Big(b) => !b.0.is_negative() && b.0.magnitude() <= &b.1,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        match &self.0 {
            Repr::Small(r) => Rational::from_reduced_wide(i128::from(r.num()).abs(), r.den()),
            Repr::Big(b) => Rational::from_parts(b.0.abs(), b.1.clone()),
        }
    }

    /// Multiplicative inverse; panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.0 {
            Repr::Small(r) => {
                let den = i128::from(r.den());
                let num = if r.num() < 0 { -den } else { den };
                Rational::from_reduced_wide(num, r.num().unsigned_abs())
            }
            Repr::Big(b) => Rational::from_parts(
                Integer::from_sign_magnitude(b.0.sign(), b.1.clone()),
                b.0.magnitude().clone(),
            ),
        }
    }

    /// `self ^ exp` for a signed exponent (negative exponents invert).
    pub fn pow(&self, exp: i32) -> Rational {
        if exp == 0 {
            return Rational::one();
        }
        let base = if exp < 0 { self.recip() } else { self.clone() };
        let e = exp.unsigned_abs();
        // Powers of coprime parts stay coprime: no reduction needed.
        if let Repr::Small(r) = &base.0 {
            if let (Some(n), Some(d)) = (r.num().checked_pow(e), r.den().checked_pow(e)) {
                return Rational(Repr::Small(Rat64::from_reduced(n, d)));
            }
        }
        let (n, d) = base.parts();
        Rational::from_parts(n.pow(e), d.pow(e))
    }

    /// `1 - self`: the complement of a probability.
    pub fn complement(&self) -> Rational {
        if let Repr::Small(r) = &self.0 {
            if let Some(c) = r.complement() {
                rat64::record_hit();
                return Rational(Repr::Small(c));
            }
        }
        rat64::record_miss();
        Rational::one().add_big(&-self)
    }

    /// Lossy conversion to `f64` (reporting only).
    pub fn to_f64(&self) -> f64 {
        let (n, d) = self.parts();
        n.to_f64() / d.to_f64()
    }

    /// Whether the value is held inline (test hook for the canonical form).
    #[cfg(test)]
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Small(_))
    }

    /// This value as a machine-word rational, if numerator and denominator
    /// both fit one limb — exactly when it is held inline.
    pub fn to_rat64(&self) -> Option<Rat64> {
        match &self.0 {
            Repr::Small(r) => Some(*r),
            Repr::Big(_) => None,
        }
    }

    /// Runs a checked machine-word op on two inline operands; `None`
    /// (after counting a miss) when an operand is boxed or the op
    /// overflows.
    #[inline]
    fn small_op(
        &self,
        other: &Rational,
        op: impl FnOnce(Rat64, Rat64) -> Option<Rat64>,
    ) -> Option<Rational> {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => op(*a, *b).map(|r| Rational(Repr::Small(r))),
            _ => {
                rat64::record_miss();
                None
            }
        }
    }

    fn add_rat(&self, other: &Rational) -> Rational {
        self.small_op(other, Rat64::checked_add)
            .unwrap_or_else(|| self.add_big(other))
    }

    /// The bignum addition path (also the reference the property suite
    /// pins the fast path against).
    pub(crate) fn add_big(&self, other: &Rational) -> Rational {
        // n1/d1 + n2/d2 = (n1*d2 + n2*d1) / (d1*d2); `new_big` re-reduces.
        let (n1, d1) = self.parts();
        let (n2, d2) = other.parts();
        let d1 = Integer::from(d1.into_owned());
        let d2 = Integer::from(d2.into_owned());
        Rational::new_big(&*n1 * &d2 + &*n2 * &d1, d1 * d2)
    }

    fn sub_rat(&self, other: &Rational) -> Rational {
        self.small_op(other, Rat64::checked_sub)
            .unwrap_or_else(|| self.add_big(&(-other)))
    }

    fn mul_rat(&self, other: &Rational) -> Rational {
        self.small_op(other, Rat64::checked_mul)
            .unwrap_or_else(|| self.mul_big(other))
    }

    /// The bignum multiplication path (fast-path reference).
    pub(crate) fn mul_big(&self, other: &Rational) -> Rational {
        let (n1, d1) = self.parts();
        let (n2, d2) = other.parts();
        Rational::new_big(&*n1 * &*n2, Integer::from(&*d1 * &*d2))
    }

    /// Parses `"a/b"` or `"a"` in decimal: each side an optional leading
    /// `-` then ASCII digits, surrounding whitespace trimmed per side. A
    /// zero denominator is `None`. Sides that fit machine words are
    /// parsed and reduced in registers; longer ones take the bignum
    /// parser, which accepts exactly the same strings.
    pub fn from_decimal(s: &str) -> Option<Rational> {
        let (n, d) = match s.split_once('/') {
            Some((n, d)) => (n.trim(), d.trim()),
            None => (s.trim(), "1"),
        };
        match (parse_word(n)?, parse_word(d)?) {
            (_, Some(0)) => None,
            (Some(n), Some(d)) => Some(Rational::reduce_wide(n, d)),
            _ => Rational::from_decimal_big(s),
        }
    }

    /// The bignum parser behind [`Rational::from_decimal`] (and the
    /// reference its word path is pinned against).
    pub(crate) fn from_decimal_big(s: &str) -> Option<Rational> {
        match s.split_once('/') {
            Some((n, d)) => {
                let n = Integer::from_decimal(n.trim())?;
                let d = Integer::from_decimal(d.trim())?;
                if d.is_zero() {
                    None
                } else {
                    Some(Rational::new_big(n, d))
                }
            }
            None => Some(Rational::new_big(
                Integer::from_decimal(s.trim())?,
                Integer::one(),
            )),
        }
    }
}

/// One side of a decimal fraction: `None` if it is not an optional `-`
/// followed by ASCII digits, `Some(None)` if it is but its magnitude
/// exceeds `u64`, else its value.
fn parse_word(s: &str) -> Option<Option<i128>> {
    let (neg, digits) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let mut mag = 0u64;
    for b in digits.bytes() {
        match mag
            .checked_mul(10)
            .and_then(|m| m.checked_add(u64::from(b - b'0')))
        {
            Some(m) => mag = m,
            None => return Some(None),
        }
    }
    let v = i128::from(mag);
    Some(Some(if neg { -v } else { v }))
}

impl From<Rat64> for Rational {
    fn from(r: Rat64) -> Rational {
        Rational(Repr::Small(r))
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational(Repr::Small(Rat64::from_reduced(v, 1)))
    }
}

impl From<Integer> for Rational {
    fn from(v: Integer) -> Self {
        Rational::from_parts(v, Natural::one())
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b <=> c/d  iff  a*d <=> c*b  (b, d > 0).
        if let (Repr::Small(x), Repr::Small(y)) = (&self.0, &other.0) {
            // |a| ≤ 2^63 and d < 2^64: each cross product fits an i128.
            let lhs = i128::from(x.num()) * i128::from(y.den());
            let rhs = i128::from(y.num()) * i128::from(x.den());
            return lhs.cmp(&rhs);
        }
        let (n1, d1) = self.parts();
        let (n2, d2) = other.parts();
        let lhs = &*n1 * &Integer::from(d2.into_owned());
        let rhs = &*n2 * &Integer::from(d1.into_owned());
        lhs.cmp(&rhs)
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $impl:ident) => {
        impl $trait<&Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                self.$impl(rhs)
            }
        }
        impl $trait<Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                (&self).$impl(&rhs)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                (&self).$impl(rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$impl(&rhs)
            }
        }
    };
}

forward_binop!(Add, add, add_rat);
forward_binop!(Mul, mul, mul_rat);

impl Sub<&Rational> for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        self.sub_rat(rhs)
    }
}
impl Sub<Rational> for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        (&self).sub(&rhs)
    }
}
impl Sub<&Rational> for Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        (&self).sub(rhs)
    }
}
impl Sub<Rational> for &Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self.sub(&rhs)
    }
}

impl Div<&Rational> for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        self.mul_rat(&rhs.recip())
    }
}
impl Div<Rational> for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        (&self).div(&rhs)
    }
}
impl Div<&Rational> for Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        (&self).div(rhs)
    }
}
impl Div<Rational> for &Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        self.div(&rhs)
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match &self.0 {
            Repr::Small(r) => Rational::from_reduced_wide(-i128::from(r.num()), r.den()),
            Repr::Big(b) => Rational::from_parts(-&b.0, b.1.clone()),
        }
    }
}
impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match self.0 {
            Repr::Small(_) => -&self,
            Repr::Big(b) => {
                let (n, d) = *b;
                Rational::from_parts(-n, d)
            }
        }
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = self.add_rat(rhs);
    }
}
impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = (&*self).sub(rhs);
    }
}
impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = self.mul_rat(rhs);
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Small(r) if r.den() == 1 => write!(f, "{}", r.num()),
            Repr::Small(r) => write!(f, "{}/{}", r.num(), r.den()),
            Repr::Big(b) if b.1.is_one() => write!(f, "{}", b.0),
            Repr::Big(b) => write!(f, "{}/{}", b.0, b.1),
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    #[test]
    fn reduces_to_lowest_terms() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(-1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(0, 7), Rational::zero());
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(-1, 2) < r(0, 1));
        assert_eq!(r(2, 4).cmp(&r(1, 2)), Ordering::Equal);
    }

    #[test]
    fn recip_and_pow() {
        assert_eq!(r(2, 3).recip(), r(3, 2));
        assert_eq!(r(-2, 3).recip(), r(-3, 2));
        assert_eq!(r(2, 3).pow(2), r(4, 9));
        assert_eq!(r(2, 3).pow(-2), r(9, 4));
        assert_eq!(r(5, 7).pow(0), Rational::one());
    }

    #[test]
    fn complement_of_probability() {
        assert_eq!(r(1, 2).complement(), r(1, 2));
        assert_eq!(r(1, 3).complement(), r(2, 3));
        assert_eq!(Rational::one().complement(), Rational::zero());
    }

    #[test]
    fn probability_range_check() {
        assert!(r(1, 2).is_probability());
        assert!(Rational::zero().is_probability());
        assert!(Rational::one().is_probability());
        assert!(!r(3, 2).is_probability());
        assert!(!r(-1, 2).is_probability());
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(Rational::from_decimal("3/6").unwrap(), r(1, 2));
        assert_eq!(Rational::from_decimal("-5").unwrap(), r(-5, 1));
        assert_eq!(Rational::from_decimal("1/0"), None);
        assert_eq!(r(1, 2).to_string(), "1/2");
        assert_eq!(r(4, 2).to_string(), "2");
    }

    #[test]
    fn to_f64_close() {
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn one_half_constant() {
        assert_eq!(Rational::one_half(), r(1, 2));
    }
}
