//! # gfomc-poly
//!
//! Sparse multivariate polynomials over exact rationals, and the
//! arithmetization of Boolean functions (§1.6 of Kenig & Suciu, PODS 2021):
//!
//! * [`Poly`] / [`Monomial`] / [`PVar`] — the polynomial ring `Q[x₁, x₂, …]`
//!   with substitution, variable identification, and quadratic decomposition
//!   `f = g·v² + h·v + k` (the shape used by Lemma 1.1);
//! * [`arithmetize`] — the multilinear polynomial agreeing with a monotone
//!   CNF on `{0,1}ⁿ`, i.e. `Pr(F)` as a polynomial in tuple probabilities;
//! * [`det2`] — determinants of 2×2 polynomial matrices (the `f_A` of
//!   Lemma 1.2 / Eq. (28)).

pub mod arithmetization;
pub mod poly;

pub use arithmetization::arithmetize;
pub use poly::{det2, Monomial, PVar, Poly};

#[cfg(test)]
mod proptests {
    use super::*;
    use gfomc_arith::Rational;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn arb_poly() -> impl Strategy<Value = Poly> {
        proptest::collection::vec(
            (
                proptest::collection::btree_map(0u32..4, 1u32..3, 0..3),
                -5i64..=5,
            ),
            0..6,
        )
        .prop_map(|terms| {
            Poly::from_terms(terms.into_iter().map(|(m, c)| {
                (
                    Monomial::new(m.into_iter().map(|(v, e)| (PVar(v), e))),
                    Rational::from(c),
                )
            }))
        })
    }

    fn arb_point() -> impl Strategy<Value = BTreeMap<PVar, Rational>> {
        proptest::collection::vec((-4i64..=4, 1i64..4), 4).prop_map(|vals| {
            vals.into_iter()
                .enumerate()
                .map(|(i, (n, d))| (PVar(i as u32), Rational::from_ints(n, d)))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn ring_laws(a in arb_poly(), b in arb_poly(), c in arb_poly()) {
            prop_assert_eq!(&a + &b, &b + &a);
            prop_assert_eq!(&a * &b, &b * &a);
            prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
            prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
            prop_assert_eq!(&a - &a, Poly::zero());
        }

        #[test]
        fn eval_is_homomorphism(a in arb_poly(), b in arb_poly(), pt in arb_point()) {
            prop_assert_eq!((&a + &b).eval(&pt), &a.eval(&pt) + &b.eval(&pt));
            prop_assert_eq!((&a * &b).eval(&pt), &a.eval(&pt) * &b.eval(&pt));
        }

        #[test]
        fn substitute_then_eval(a in arb_poly(), pt in arb_point()) {
            // Substituting x0 by its point value and evaluating the rest
            // equals a full evaluation.
            let v0 = pt.get(&PVar(0)).unwrap().clone();
            let partial = a.substitute(PVar(0), &v0);
            prop_assert_eq!(partial.eval(&pt), a.eval(&pt));
        }

        #[test]
        fn quadratic_decomposition_reassembles(a in arb_poly()) {
            let v = PVar(0);
            if a.degree_in(v) <= 2 {
                let (g, h, k) = a.quadratic_in(v);
                let x = Poly::var(v);
                let back = &(&(&g * &x) * &x) + &(&(&h * &x) + &k);
                prop_assert_eq!(back, a);
            }
        }

        #[test]
        fn identify_matches_eval(a in arb_poly(), pt in arb_point()) {
            // Identifying x1 := x0 then evaluating equals evaluating with
            // x1 set to x0's value.
            let ident = a.identify(PVar(1), PVar(0));
            let mut pt2 = pt.clone();
            pt2.insert(PVar(1), pt[&PVar(0)].clone());
            prop_assert_eq!(ident.eval(&pt), a.eval(&pt2));
        }
    }

    mod arithmetization_props {
        use super::*;
        use gfomc_logic::{wmc_brute_force, Clause, Cnf, Var};
        use std::collections::{BTreeSet, HashMap};

        fn arb_cnf() -> impl Strategy<Value = Cnf> {
            proptest::collection::vec(proptest::collection::btree_set(0u32..6, 1..4), 0..5)
                .prop_map(|clauses| {
                    Cnf::new(
                        clauses
                            .into_iter()
                            .map(|c| Clause::new(c.into_iter().map(Var))),
                    )
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn arithmetization_equals_wmc(f in arb_cnf(), ws in proptest::collection::vec(0i64..=3, 6)) {
                let weights: HashMap<Var, Rational> = ws
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| (Var(i as u32), Rational::from_ints(w, 3)))
                    .collect();
                let point = weights.iter().map(|(v, w)| (PVar(v.0), w.clone())).collect();
                prop_assert_eq!(arithmetize(&f).eval(&point), wmc_brute_force(&f, &weights));
            }

            #[test]
            fn arithmetization_multilinear(f in arb_cnf()) {
                // Multilinear and equal to `f` on every point of {0,1}⁶:
                // that pins the arithmetization uniquely (§1.6), whatever
                // order the descent branched in.
                let y = arithmetize(&f);
                prop_assert!(y.is_multilinear());
                for mask in 0u32..64 {
                    let tv: BTreeSet<Var> = (0..6).filter(|i| mask >> i & 1 == 1).map(Var).collect();
                    let point = (0..6)
                        .map(|i| (PVar(i), Rational::from(i64::from(mask >> i & 1))))
                        .collect();
                    let expected = Rational::from(i64::from(f.eval(&tv)));
                    prop_assert_eq!(y.eval(&point), expected);
                }
            }
        }
    }
}
