//! # gfomc-arith
//!
//! Exact arbitrary-precision arithmetic for the `gfomc` workspace:
//!
//! * [`Natural`] — unsigned big integers (limb vector, schoolbook ops);
//! * [`Integer`] — signed big integers (sign + magnitude);
//! * [`Rational`] — rationals in lowest terms, the universal probability and
//!   coefficient type of the workspace;
//! * [`Rat64`] — machine-word rationals, the small-limb fast path behind
//!   `Rational` add/mul/sub and the flat evaluator's batch lanes: ops run
//!   in `i128`/`u128` registers and spill to bignum on overflow,
//!   bit-identically;
//! * [`QuadExt`] — elements of a real quadratic field `Q(√d)`, used for the
//!   exact eigenvalue computations of the paper's transfer matrices;
//! * [`Interval`] — outward-rounded `f64` enclosures of exact rationals,
//!   the certified fast path of interval-first circuit evaluation: any
//!   comparison the interval decides ([`Certifies::Proven`]) is decided
//!   correctly, and only [`Certifies::Unknown`] escalates to exact
//!   arithmetic.
//!
//! All query probabilities in a tuple-independent database with rational tuple
//! probabilities are rational, and the hardness reductions of Kenig & Suciu
//! (PODS 2021) hinge on exact algebraic facts (non-singularity of matrices,
//! non-vanishing of determinants), so the entire workspace computes exactly —
//! floating point appears only in human-facing reporting.

pub mod integer;
pub mod interval;
pub mod natural;
pub mod quadratic;
pub mod rat64;
pub mod rational;

pub use integer::{Integer, Sign};
pub use interval::{Certifies, Interval};
pub use natural::Natural;
pub use quadratic::QuadExt;
pub use rat64::{small_path_thread_stats, Rat64};
pub use rational::Rational;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_natural() -> impl Strategy<Value = Natural> {
        proptest::collection::vec(any::<u64>(), 0..4).prop_map(Natural::from_limbs)
    }

    fn arb_integer() -> impl Strategy<Value = Integer> {
        (any::<i64>()).prop_map(Integer::from)
    }

    fn arb_rational() -> impl Strategy<Value = Rational> {
        (any::<i32>(), 1..10_000i64).prop_map(|(n, d)| Rational::from_ints(n as i64, d))
    }

    /// Operands engineered to straddle the [`Rat64`] fast path: limb
    /// boundaries, `±1/2^60`, `u64::MAX`-adjacent numerators, plus
    /// uniform noise. Built via `Rational::new`, so each operand is
    /// canonical before the op under test runs.
    fn arb_smallpath_rational() -> impl Strategy<Value = Rational> {
        let num = prop_oneof![
            Just(0i64),
            Just(1),
            Just(-1),
            Just(i64::MAX),
            Just(i64::MIN + 1),
            Just((1i64 << 62) + 1),
            Just((1i64 << 32) - 1),
            Just(1i64 << 32),
            Just(i64::MAX - 1),
            any::<i64>(),
        ];
        let den = prop_oneof![
            Just(1u64),
            Just(2),
            Just(1u64 << 60),
            Just((1u64 << 60) - 1),
            Just(1u64 << 32),
            Just((1u64 << 32) + 1),
            Just(u64::MAX),
            Just(u64::MAX - 1),
            any::<u64>().prop_map(|d| d | 1),
        ];
        (num, den).prop_map(|(n, d)| {
            Rational::new(
                Integer::from(n),
                Integer::from_sign_magnitude(Sign::Positive, Natural::from(d)),
            )
        })
    }

    proptest! {
        #[test]
        fn natural_add_commutes(a in arb_natural(), b in arb_natural()) {
            prop_assert_eq!(&a + &b, &b + &a);
        }

        #[test]
        fn natural_add_associates(a in arb_natural(), b in arb_natural(), c in arb_natural()) {
            prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        }

        #[test]
        fn natural_mul_commutes(a in arb_natural(), b in arb_natural()) {
            prop_assert_eq!(&a * &b, &b * &a);
        }

        #[test]
        fn natural_mul_distributes(a in arb_natural(), b in arb_natural(), c in arb_natural()) {
            prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        }

        #[test]
        fn natural_div_rem_roundtrip(a in arb_natural(), b in arb_natural()) {
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert!(r < b);
            prop_assert_eq!(&(&q * &b) + &r, a);
        }

        #[test]
        fn natural_gcd_divides(a in arb_natural(), b in arb_natural()) {
            prop_assume!(!a.is_zero() && !b.is_zero());
            let g = a.gcd(&b);
            prop_assert!((&a % &g).is_zero());
            prop_assert!((&b % &g).is_zero());
        }

        #[test]
        fn natural_shift_roundtrip(a in arb_natural(), s in 0usize..200) {
            prop_assert_eq!(a.shl_bits(s).shr_bits(s), a);
        }

        #[test]
        fn natural_display_parse_roundtrip(a in arb_natural()) {
            prop_assert_eq!(Natural::from_decimal(&a.to_string()), Some(a));
        }

        #[test]
        fn natural_isqrt_bounds(a in arb_natural()) {
            let r = a.isqrt();
            prop_assert!(&r * &r <= a);
            let r1 = &r + &Natural::one();
            prop_assert!(&r1 * &r1 > a);
        }

        #[test]
        fn integer_ring_laws(a in arb_integer(), b in arb_integer(), c in arb_integer()) {
            prop_assert_eq!(&a + &b, &b + &a);
            prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
            prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
            prop_assert_eq!(&a - &a, Integer::zero());
        }

        #[test]
        fn integer_div_rem_roundtrip(a in arb_integer(), b in arb_integer()) {
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert_eq!(&(&q * &b) + &r, a.clone());
            prop_assert!(r.magnitude() < b.magnitude());
        }

        #[test]
        fn rational_field_laws(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
            prop_assert_eq!(&a + &b, &b + &a);
            prop_assert_eq!(&a * &b, &b * &a);
            prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
            prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        }

        #[test]
        fn rational_recip_inverse(a in arb_rational()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(&a * &a.recip(), Rational::one());
        }

        #[test]
        fn rational_parse_roundtrip(a in arb_rational()) {
            prop_assert_eq!(Rational::from_decimal(&a.to_string()), Some(a));
        }

        #[test]
        fn rational_order_translation_invariant(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
            prop_assert_eq!(a < b, &a + &c < &b + &c);
        }

        // ------------------------------------------------------------------
        // Small-limb fast path ≡ bignum path, bit-identically: the public
        // ops (which take the Rat64 road when operands fit machine words)
        // must equal the crate-internal bignum reference on every operand
        // pair, including the adversarial boundary values.
        // ------------------------------------------------------------------

        #[test]
        fn rational_add_small_path_matches_bignum(
            a in arb_smallpath_rational(), b in arb_smallpath_rational(),
        ) {
            prop_assert_eq!(&a + &b, a.add_big(&b));
        }

        #[test]
        fn rational_sub_small_path_matches_bignum(
            a in arb_smallpath_rational(), b in arb_smallpath_rational(),
        ) {
            prop_assert_eq!(&a - &b, a.add_big(&-&b));
        }

        #[test]
        fn rational_mul_small_path_matches_bignum(
            a in arb_smallpath_rational(), b in arb_smallpath_rational(),
        ) {
            prop_assert_eq!(&a * &b, a.mul_big(&b));
        }

        #[test]
        fn rat64_ops_match_bignum_when_defined(
            a in arb_smallpath_rational(), b in arb_smallpath_rational(),
        ) {
            if let (Some(x), Some(y)) = (a.to_rat64(), b.to_rat64()) {
                if let Some(s) = x.checked_add(y) {
                    prop_assert_eq!(Rational::from(s), a.add_big(&b));
                }
                if let Some(d) = x.checked_sub(y) {
                    prop_assert_eq!(Rational::from(d), a.add_big(&-&b));
                }
                if let Some(p) = x.checked_mul(y) {
                    prop_assert_eq!(Rational::from(p), a.mul_big(&b));
                }
                if let Some(c) = x.complement() {
                    prop_assert_eq!(Rational::from(c), Rational::one().add_big(&-&a));
                }
            }
        }

        #[test]
        fn rational_roundtrips_through_rat64(a in arb_smallpath_rational()) {
            if let Some(small) = a.to_rat64() {
                prop_assert_eq!(Rational::from(small), a);
            }
        }

        #[test]
        fn quadext_field_laws(
            a1 in arb_rational(), b1 in arb_rational(),
            a2 in arb_rational(), b2 in arb_rational(),
        ) {
            let d = Rational::from_ints(7, 1);
            let x = QuadExt::new(a1, b1, d.clone());
            let y = QuadExt::new(a2, b2, d.clone());
            prop_assert_eq!(&x + &y, &y + &x);
            prop_assert_eq!(&x * &y, &y * &x);
            if !x.is_zero() {
                prop_assert_eq!((&x * &x.recip()).to_rational(), Some(Rational::one()));
            }
        }

        #[test]
        fn quadext_norm_multiplicative(
            a1 in arb_rational(), b1 in arb_rational(),
            a2 in arb_rational(), b2 in arb_rational(),
        ) {
            let d = Rational::from_ints(3, 1);
            let x = QuadExt::new(a1, b1, d.clone());
            let y = QuadExt::new(a2, b2, d);
            prop_assert_eq!((&x * &y).norm(), &x.norm() * &y.norm());
        }

        #[test]
        fn quadext_signum_consistent_with_f64(
            a in arb_rational(), b in arb_rational(),
        ) {
            let d = Rational::from_ints(5, 1);
            let x = QuadExt::new(a, b, d);
            let approx = x.to_f64();
            if approx.abs() > 1e-6 {
                prop_assert_eq!(x.signum(), if approx > 0.0 { 1 } else { -1 });
            }
        }
    }

    /// The small path against bignum on fixed operands at the `i64`
    /// edges, every ordered pair: sums, differences and products whose
    /// operands fit one limb while the exact result may not.
    #[test]
    fn small_path_matches_bignum_on_fixed_edge_operands() {
        let ops = [
            (1i64, 3i64),
            (-7, 8),
            (i64::MAX / 2, i64::MAX / 2 + 1),
            (-(i64::MAX / 3), 7),
            (1, i64::MAX),
        ];
        for &(n1, d1) in &ops {
            for &(n2, d2) in &ops {
                let (a, b) = (Rational::from_ints(n1, d1), Rational::from_ints(n2, d2));
                assert_eq!(&a + &b, a.add_big(&b), "{a} + {b}");
                assert_eq!(&a - &b, a.add_big(&-&b), "{a} - {b}");
                assert_eq!(&a * &b, a.mul_big(&b), "{a} * {b}");
            }
        }
    }

    /// Overflow-crossing regression: a computation that starts on the
    /// small path, spills to bignum mid-way (two-limb denominator), then
    /// reduces back into machine words — every leg must stay exact and
    /// canonical.
    #[test]
    fn rational_overflow_crossing_round_trip() {
        let tiny_a = Rational::from_ints(1, 2).pow(62); // 1/2^62
        let tiny_b = Rational::one() / Rational::from_ints((1 << 62) - 1, 1);
        // Small + small whose exact sum needs a ~124-bit denominator.
        let spilled = &tiny_a + &tiny_b;
        assert_eq!(spilled.to_rat64(), None, "sum must spill past one limb");
        let reference = tiny_a.add_big(&tiny_b);
        assert_eq!(spilled, reference);
        // Multiplying the spilled value by its own denominator crosses
        // back: the product is the integer (2^62 - 1) + 2^62 = 2^63 - 1,
        // the spill's numerator — a one-limb value again.
        let denom_int = Rational::from(Integer::from_sign_magnitude(
            Sign::Positive,
            spilled.denom().clone(),
        ));
        let back = &spilled * &denom_int;
        assert_eq!(
            back,
            Rational::from(Integer::from_sign_magnitude(
                Sign::Positive,
                spilled.numer().magnitude().clone(),
            ))
        );
        assert!(back.to_rat64().is_some(), "product must re-fit one limb");
        // And the whole loop agrees with the bignum-only reference.
        assert_eq!(back, spilled.mul_big(&denom_int));
    }
}
