//! # gfomc-arith
//!
//! Exact arbitrary-precision arithmetic for the `gfomc` workspace:
//!
//! * [`Natural`] — unsigned big integers (limb vector, schoolbook ops);
//! * [`Integer`] — signed big integers (sign + magnitude);
//! * [`Rational`] — rationals in lowest terms, the universal probability and
//!   coefficient type of the workspace;
//! * [`Rat64`] — machine-word rationals, the small-limb fast path behind
//!   `Rational` add/mul/sub and the flat evaluator's hybrid exact lane:
//!   ops run in `i128`/`u128` registers and spill to bignum on overflow,
//!   bit-identically;
//! * [`QuadExt`] — elements of a real quadratic field `Q(√d)`, used for the
//!   exact eigenvalue computations of the paper's transfer matrices.
//!
//! All query probabilities in a tuple-independent database with rational tuple
//! probabilities are rational, and the hardness reductions of Kenig & Suciu
//! (PODS 2021) hinge on exact algebraic facts (non-singularity of matrices,
//! non-vanishing of determinants), so the entire workspace computes exactly —
//! floating point appears only in human-facing reporting.

pub mod integer;
pub mod natural;
pub mod quadratic;
pub mod rat64;
pub mod rational;

pub use integer::{Integer, Sign};
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
            Just(i64::MIN),
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

    // Bignum references for the ops whose word path has no `_big` twin:
    // built from the parts and reduced by `new_big` alone.
    fn neg_ref(a: &Rational) -> Rational {
        Rational::new_big(-a.numer(), Integer::from(a.denom()))
    }

    fn recip_ref(a: &Rational) -> Rational {
        let n = a.numer();
        Rational::new_big(
            Integer::from_sign_magnitude(n.sign(), a.denom()),
            Integer::from(n.into_magnitude()),
        )
    }

    fn cmp_ref(a: &Rational, b: &Rational) -> std::cmp::Ordering {
        (a.numer() * Integer::from(b.denom())).cmp(&(b.numer() * Integer::from(a.denom())))
    }

    fn pow_ref(a: &Rational, e: u32) -> Rational {
        Rational::new_big(a.numer().pow(e), Integer::from(a.denom().pow(e)))
    }

    /// The canonical form: inline exactly when the parts fit `i64`/`u64`.
    fn canonical(r: &Rational) -> bool {
        let fits = r.numer().to_i64().is_some() && r.denom().to_u64().is_some();
        r.is_inline() == fits
    }

    fn hash_of(r: &Rational) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        r.hash(&mut h);
        h.finish()
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
        fn every_op_matches_bignum_in_canonical_form(
            a in arb_smallpath_rational(), b in arb_smallpath_rational(), e in 0u32..4,
        ) {
            let mut results = vec![
                (&a + &b, a.add_big(&b)),
                (&a - &b, a.add_big(&neg_ref(&b))),
                (&a * &b, a.mul_big(&b)),
                (-&a, neg_ref(&a)),
                (-a.clone(), neg_ref(&a)),
                (a.abs(), if a.is_negative() { neg_ref(&a) } else { a.clone() }),
                (a.complement(), Rational::one().add_big(&neg_ref(&a))),
                (a.pow(e as i32), pow_ref(&a, e)),
            ];
            if !b.is_zero() {
                results.push((&a / &b, a.mul_big(&recip_ref(&b))));
                results.push((b.recip(), recip_ref(&b)));
                results.push((b.pow(-(e as i32) - 1), pow_ref(&recip_ref(&b), e + 1)));
            }
            for (i, (got, want)) in results.iter().enumerate() {
                prop_assert_eq!(got, want, "op {}", i);
                prop_assert!(canonical(got), "op {} left {} in the wrong form", i, got);
            }
            prop_assert_eq!(a.cmp(&b), cmp_ref(&a, &b));
            prop_assert!(canonical(&a) && canonical(&b));
        }

        #[test]
        fn bignum_results_back_in_a_word_equal_the_word_value(
            a in arb_smallpath_rational(), k in arb_natural(),
        ) {
            // a · (K/3) · (3/K) on the bignum path, with K ≥ 2^66 so both
            // factors stay past a word: the intermediate is boxed, the
            // result is `a` again.
            let k = Integer::from(Natural::one().shl_bits(66) + k);
            let up = Rational::new_big(k, Integer::from(3i64));
            let down = recip_ref(&up);
            prop_assert!(!up.is_inline() && !down.is_inline());
            let back = a.mul_big(&up).mul_big(&down);
            prop_assert!(back.is_inline() == a.is_inline());
            prop_assert_eq!(&back, &a);
            prop_assert_eq!(hash_of(&back), hash_of(&a));
            let word = a.to_rat64().map(Rational::from);
            if let Some(word) = word {
                prop_assert_eq!(&back, &word);
                prop_assert_eq!(hash_of(&back), hash_of(&word));
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

    /// The word parser and the bignum parser accept exactly the same
    /// strings and agree on every value, at and past the `u64` boundary.
    #[test]
    fn from_decimal_word_path_matches_bignum_parser() {
        let r = Rational::from_ints;
        let table: Vec<(&str, Option<Rational>)> = vec![
            ("3/8", Some(r(3, 8))),
            ("+3/8", None),
            ("03/08", Some(r(3, 8))),
            ("-0/5", Some(Rational::zero())),
            ("3/-8", Some(r(-3, 8))),
            ("-3/-8", Some(r(3, 8))),
            (" 3 / 8 ", Some(r(3, 8))),
            ("6/16", Some(r(3, 8))),
            ("-7", Some(r(-7, 1))),
            ("", None),
            ("-", None),
            ("/", None),
            ("3/", None),
            ("/8", None),
            ("--3", None),
            ("- 3", None),
            ("3/8/1", None),
            ("3.5", None),
            ("1/0", None),
            ("0/0", None),
            ("3/-0", None),
            ("9223372036854775807", Some(r(i64::MAX, 1))),
            ("-9223372036854775808", Some(Rational::from(i64::MIN))),
            ("12345678901234567890/3", Some(r(4115226300411522630, 1))),
            (
                "1/18446744073709551615",
                Some(Rational::from(Rat64::from_reduced(1, u64::MAX))),
            ),
            ("-92233720368547758080/10", Some(Rational::from(i64::MIN))),
            (
                "99999999999999999999/9999999999999999999900",
                Some(r(1, 100)),
            ),
        ];
        for (s, want) in table {
            let got = Rational::from_decimal(s);
            assert_eq!(got, want, "{s:?}");
            assert_eq!(
                got,
                Rational::from_decimal_big(s),
                "{s:?} against the bignum parser"
            );
            if let Some(v) = &got {
                assert!(
                    canonical(v) && v.is_inline(),
                    "{s:?} parsed into the wrong form"
                );
            }
        }
        // Values past a machine word: boxed, and equal to the bignum parse.
        for s in [
            "9223372036854775808",
            "18446744073709551615/2",
            "18446744073709551616/2",
            "18446744073709551616/3",
            "12345678901234567891/2",
        ] {
            let got = Rational::from_decimal(s).expect(s);
            assert_eq!(Some(&got), Rational::from_decimal_big(s).as_ref(), "{s:?}");
            assert!(
                canonical(&got) && !got.is_inline(),
                "{s:?} parsed into the wrong form"
            );
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
            spilled.denom(),
        ));
        let back = &spilled * &denom_int;
        assert_eq!(
            back,
            Rational::from(Integer::from_sign_magnitude(
                Sign::Positive,
                spilled.numer().into_magnitude(),
            ))
        );
        assert!(back.to_rat64().is_some(), "product must re-fit one limb");
        // And the whole loop agrees with the bignum-only reference.
        assert_eq!(back, spilled.mul_big(&denom_int));
    }
}
