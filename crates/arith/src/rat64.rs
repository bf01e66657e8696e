//! Machine-word rationals: the inline form of [`Rational`].
//!
//! On the paper's `{0, ½, 1}` inputs and on weights in eighths, nearly
//! every probability and gate value fits one 64-bit numerator and
//! denominator. [`Rat64`] is that value: an `i64/u64` rational in lowest
//! terms whose ops run entirely in machine registers (products in
//! `i128`/`u128`, reduction by a word-sized binary GCD) and report
//! overflow as `None` instead of wrapping. A [`Rational`] holds every
//! value that fits a `Rat64` inline as one, and takes its bignum path
//! only when a `Rat64` op overflows.
//!
//! Exactness contract: a `Rat64` is always in lowest terms with a positive
//! denominator (zero is `0/1`), i.e. exactly the canonical form
//! [`Rational`] maintains — a machine-word result is **bit-identical** to
//! the same op run through the bignum path. The arith property suite pins
//! this for every op under adversarial operands.
//!
//! The module also keeps per-thread telemetry ([`small_path_thread_stats`])
//! counting machine-word hits vs bignum fallbacks of `Rational`
//! arithmetic, which the load benchmark (`benchmark/`) reports as
//! `arith.small_path_hit_rate`.
//!
//! [`Rational`]: crate::Rational

use std::cell::Cell;

thread_local! {
    /// Fast-path ops completed without spilling to bignum (this thread).
    static SMALL_HITS: Cell<u64> = const { Cell::new(0) };
    /// Ops that fell back to the bignum path — operand or result did not
    /// fit machine words (this thread).
    static SMALL_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Records one completed fast-path op on this thread.
#[inline]
pub(crate) fn record_hit() {
    SMALL_HITS.with(|c| c.set(c.get() + 1));
}

/// Records one bignum fallback on this thread.
#[inline]
pub(crate) fn record_miss() {
    SMALL_MISSES.with(|c| c.set(c.get() + 1));
}

/// `(hits, total)` small-path counters for the current thread: `hits`
/// ops ran entirely in machine words, `total − hits` fell back to bignum.
/// Monotone; read before/after a workload and subtract to attribute.
pub fn small_path_thread_stats() -> (u64, u64) {
    let hits = SMALL_HITS.with(Cell::get);
    let misses = SMALL_MISSES.with(Cell::get);
    (hits, hits + misses)
}

/// Word-sized GCD (Stein's algorithm); `gcd(0, n) == n`.
#[inline]
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Double-word GCD for the unreduced cross-multiplied sums of `add`.
#[inline]
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// A rational `num / den` in machine words.
///
/// Invariants (identical to [`Rational`](crate::Rational)): `den > 0`,
/// `gcd(|num|, den) == 1`, and zero is `0/1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rat64 {
    num: i64,
    den: u64,
}

impl Rat64 {
    /// The constant zero (`0/1`).
    pub const ZERO: Rat64 = Rat64 { num: 0, den: 1 };
    /// The constant one (`1/1`).
    pub const ONE: Rat64 = Rat64 { num: 1, den: 1 };

    /// Wraps parts that are **already in lowest terms** with `den > 0`
    /// (zero as `0/1`). Debug-asserted, not re-reduced — this is how
    /// [`Rational`](crate::Rational) stores parts it has already reduced
    /// inline.
    #[inline]
    pub fn from_reduced(num: i64, den: u64) -> Rat64 {
        debug_assert!(den > 0, "Rat64 with zero denominator");
        debug_assert!(num != 0 || den == 1, "Rat64 zero must be 0/1");
        debug_assert_eq!(gcd_u64(num.unsigned_abs(), den), 1, "not in lowest terms");
        Rat64 { num, den }
    }

    /// The (signed) numerator.
    #[inline]
    pub fn num(&self) -> i64 {
        self.num
    }

    /// The (positive) denominator.
    #[inline]
    pub fn den(&self) -> u64 {
        self.den
    }

    /// True iff zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True iff one.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.num == 1 && self.den == 1
    }

    /// Normalizes an exact double-word quotient into a `Rat64`, or `None`
    /// when the reduced parts exceed machine words.
    #[inline]
    fn reduce_128(num: i128, den: u128) -> Option<Rat64> {
        debug_assert!(den > 0);
        if num == 0 {
            return Some(Rat64::ZERO);
        }
        let g = gcd_u128(num.unsigned_abs(), den);
        let n = num / g as i128;
        let d = den / g;
        match (i64::try_from(n), u64::try_from(d)) {
            (Ok(num), Ok(den)) => Some(Rat64 { num, den }),
            _ => None,
        }
    }

    /// `self + n2/d2` with the addend's numerator pre-widened, the shared
    /// core of [`Rat64::checked_add`] / [`Rat64::checked_sub`].
    #[inline]
    fn add_core(self, n2: i128, d2: u64) -> Option<Rat64> {
        // Each cross product has magnitude < 2^127, so only the final sum
        // can overflow the i128.
        let t1 = self.num as i128 * d2 as i128;
        let t2 = n2 * self.den as i128;
        let num = t1.checked_add(t2)?;
        let den = self.den as u128 * d2 as u128;
        Rat64::reduce_128(num, den)
    }

    /// `self + other`, or `None` if any intermediate or the reduced result
    /// exceeds machine words. Records a fast-path hit/miss either way.
    #[inline]
    pub fn checked_add(self, other: Rat64) -> Option<Rat64> {
        match self.add_core(other.num as i128, other.den) {
            Some(r) => {
                record_hit();
                Some(r)
            }
            None => {
                record_miss();
                None
            }
        }
    }

    /// `self - other` (see [`Rat64::checked_add`]).
    #[inline]
    pub fn checked_sub(self, other: Rat64) -> Option<Rat64> {
        match self.add_core(-(other.num as i128), other.den) {
            Some(r) => {
                record_hit();
                Some(r)
            }
            None => {
                record_miss();
                None
            }
        }
    }

    /// `self * other`, or `None` on machine-word overflow. Cross-reduces
    /// first (`gcd(|n1|, d2)`, `gcd(|n2|, d1)`), so the products are of
    /// already-coprime parts and the result needs no further reduction.
    #[inline]
    pub fn checked_mul(self, other: Rat64) -> Option<Rat64> {
        if self.num == 0 || other.num == 0 {
            record_hit();
            return Some(Rat64::ZERO);
        }
        let g1 = gcd_u64(self.num.unsigned_abs(), other.den);
        let g2 = gcd_u64(other.num.unsigned_abs(), self.den);
        let num = (self.num as i128 / g1 as i128) * (other.num as i128 / g2 as i128);
        let den = (self.den / g2) as u128 * (other.den / g1) as u128;
        match (i64::try_from(num), u64::try_from(den)) {
            (Ok(num), Ok(den)) => {
                record_hit();
                Some(Rat64 { num, den })
            }
            _ => {
                record_miss();
                None
            }
        }
    }

    /// `1 - self`, or `None` if the numerator leaves `i64`. The result
    /// shares the denominator and `gcd(d − n, d) = gcd(n, d) = 1`, so no
    /// reduction is needed.
    #[inline]
    pub fn complement(self) -> Option<Rat64> {
        let num = self.den as i128 - self.num as i128;
        if num == 0 {
            return Some(Rat64::ZERO);
        }
        i64::try_from(num)
            .ok()
            .map(|num| Rat64 { num, den: self.den })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Rational;

    fn rat(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    fn r64(n: i64, d: i64) -> Rat64 {
        rat(n, d).to_rat64().expect("fits machine words")
    }

    #[test]
    fn constants_and_accessors() {
        assert!(Rat64::ZERO.is_zero());
        assert!(Rat64::ONE.is_one());
        assert_eq!(r64(3, 6).num(), 1);
        assert_eq!(r64(3, 6).den(), 2);
    }

    #[test]
    fn ops_match_bignum() {
        let cases = [(1i64, 2i64), (-3, 7), (5, 8), (0, 1), (7, 1)];
        for &(an, ad) in &cases {
            for &(bn, bd) in &cases {
                let (a, b) = (r64(an, ad), r64(bn, bd));
                let (ra, rb) = (rat(an, ad), rat(bn, bd));
                assert_eq!(
                    Rational::from(a.checked_add(b).unwrap()),
                    &ra + &rb,
                    "{ra} + {rb}"
                );
                assert_eq!(
                    Rational::from(a.checked_sub(b).unwrap()),
                    &ra - &rb,
                    "{ra} - {rb}"
                );
                assert_eq!(
                    Rational::from(a.checked_mul(b).unwrap()),
                    &ra * &rb,
                    "{ra} * {rb}"
                );
            }
        }
    }

    #[test]
    fn complement_matches_bignum() {
        for &(n, d) in &[(0i64, 1i64), (1, 1), (1, 2), (3, 8), (1, 1 << 60)] {
            assert_eq!(
                Rational::from(r64(n, d).complement().unwrap()),
                rat(n, d).complement()
            );
        }
    }

    #[test]
    fn overflow_spills_to_none() {
        // (2^62 + 1)/2 squared: the numerator needs ~124 bits.
        let big = r64((1 << 62) + 1, 2);
        assert_eq!(big.checked_mul(big), None);
        // 1/2^62 + 1/(2^62 - 1): denominators coprime, the reduced result
        // keeps a ~124-bit denominator.
        let a = r64(1, 1 << 62);
        let b = r64(1, (1 << 62) - 1);
        assert_eq!(a.checked_add(b), None);
    }

    #[test]
    fn zero_normalizes_to_canonical_form() {
        let half = r64(1, 2);
        let z = half.checked_sub(half).unwrap();
        assert_eq!(z, Rat64::ZERO);
        assert_eq!(z.den(), 1);
        assert_eq!(half.checked_mul(Rat64::ZERO).unwrap(), Rat64::ZERO);
    }

    #[test]
    fn thread_stats_move() {
        let (h0, t0) = small_path_thread_stats();
        let _ = r64(1, 2).checked_add(r64(1, 3)).unwrap();
        let (h1, t1) = small_path_thread_stats();
        assert!(h1 > h0 && t1 > t0);
    }

    #[test]
    fn gcd_helpers() {
        assert_eq!(gcd_u64(0, 5), 5);
        assert_eq!(gcd_u64(12, 18), 6);
        assert_eq!(gcd_u64(u64::MAX, u64::MAX - 1), 1);
        assert_eq!(gcd_u128(1 << 100, 1 << 64), 1 << 64);
    }
}
