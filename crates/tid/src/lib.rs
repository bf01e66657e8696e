//! # gfomc-tid
//!
//! Tuple-independent probabilistic databases (TIDs) over the bipartite
//! vocabulary of Kenig & Suciu (PODS 2021):
//!
//! * [`database`] — bipartite domains, tuples, probability maps with 0/1
//!   defaults, `GFOMC`/`FOMC` instance classification, disjoint unions;
//! * [`mod@lineage`] — grounding a ∀CNF query into its monotone-CNF lineage
//!   `Φ_∆(Q)` with deterministic tuples folded in;
//! * [`evaluate`] — exact `Pr_∆(Q)` (lineage + WMC), possible-world brute
//!   force, and generalized model counts.

pub mod database;
pub mod evaluate;
pub mod lineage;

pub use database::{Tid, Tuple};
pub use evaluate::{
    generalized_model_count, probability, probability_brute_force, uncertain_tuple_count,
};
pub use lineage::{lineage, Lineage, VarTable};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::lineage::lineage_reference;
    use gfomc_arith::Rational;
    use gfomc_query::{catalog, BipartiteQuery, Clause};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Random GFOMC database over a 2×2 domain for a given query: every
    /// tuple independently gets probability 0, ½, or 1.
    fn arb_tid_for(q: &gfomc_query::BipartiteQuery) -> impl Strategy<Value = Tid> {
        let symbols: Vec<u32> = q.binary_symbols().into_iter().collect();
        let n_tuples = 2 + 2 + symbols.len() * 4; // R×2, T×2, S×4 each
        proptest::collection::vec(0u8..3, n_tuples).prop_map(move |choices| {
            let mut tid = Tid::all_present([0, 1], [100, 101]);
            let mut it = choices.into_iter().map(|c| match c {
                0 => Rational::zero(),
                1 => Rational::one_half(),
                _ => Rational::one(),
            });
            for u in [0u32, 1] {
                tid.set_prob(Tuple::R(u), it.next().unwrap());
            }
            for v in [100u32, 101] {
                tid.set_prob(Tuple::T(v), it.next().unwrap());
            }
            for &s in &symbols {
                for u in [0u32, 1] {
                    for v in [100u32, 101] {
                        tid.set_prob(Tuple::S(s, u, v), it.next().unwrap());
                    }
                }
            }
            tid
        })
    }

    /// A query over 1–3 binary symbols whose 1–3 clauses come from the
    /// Definition 2.3 menu (Type I and II left and right, middle), so the
    /// grounding meets one- and two-variable sorts.
    fn menu_query(rng: &mut StdRng) -> BipartiteQuery {
        let n_symbols = rng.gen_range(1..=3u32);
        let symbols = |rng: &mut StdRng| -> Vec<u32> {
            let mut out: Vec<u32> = (0..n_symbols).filter(|_| rng.gen_bool(0.4)).collect();
            if out.is_empty() {
                out.push(rng.gen_range(0..n_symbols));
            }
            out
        };
        let clauses: Vec<Clause> = (0..rng.gen_range(1..=3))
            .map(|_| {
                let (a, b) = (symbols(rng), symbols(rng));
                match rng.gen_range(0..5u8) {
                    0 => Clause::left_i(a),
                    1 => Clause::left_ii(&[&a, &b]),
                    2 => Clause::middle(a),
                    3 => Clause::right_ii(&[&a, &b]),
                    _ => Clause::right_i(a),
                }
            })
            .collect();
        BipartiteQuery::new(clauses)
    }

    /// Every tuple of the query's vocabulary over `nu × nv` (right
    /// constants from 1000, as the engine's block TIDs), listed with
    /// `prob` when `listed` says so; the rest take `default`.
    fn block_tid(
        rng: &mut StdRng,
        q: &BipartiteQuery,
        (nu, nv): (u32, u32),
        default: Rational,
        mut listed: impl FnMut(&mut StdRng) -> bool,
        mut prob: impl FnMut(&mut StdRng) -> Rational,
    ) -> Tid {
        let mut tid = Tid::new(0..nu, 1000..1000 + nv, default);
        let mut tuples: Vec<Tuple> = Vec::new();
        for u in 0..nu {
            tuples.push(Tuple::R(u));
            for v in 1000..1000 + nv {
                tuples.extend(q.binary_symbols().into_iter().map(|s| Tuple::S(s, u, v)));
            }
        }
        tuples.extend((1000..1000 + nv).map(Tuple::T));
        for t in tuples {
            if listed(rng) {
                let p = prob(rng);
                tid.set_prob(t, p);
            }
        }
        tid
    }

    /// The grounding equals the reference: the same `Cnf`, the same
    /// variable → tuple order and the same weights.
    fn assert_lineage_matches_reference(q: &BipartiteQuery, tid: &Tid) {
        let lin = lineage(q, tid);
        let (cnf, table) = lineage_reference(q, tid);
        assert_eq!(lin.cnf, cnf, "{q:?} over {tid:?}");
        let got: Vec<(Tuple, Rational)> = (0..lin.vars.len() as u32)
            .map(|i| {
                let v = gfomc_logic::Var(i);
                (lin.vars.tuple_of(v), lin.vars.weight(v).clone())
            })
            .collect();
        assert_eq!(got, table, "{q:?} over {tid:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lineage_matches_the_reference_on_block_tids(seed in any::<u64>()) {
            // Weights in eighths, as `random_block_tid`: every tuple listed.
            let mut rng = StdRng::seed_from_u64(seed);
            let q = menu_query(&mut rng);
            let dims = (rng.gen_range(1..=3), rng.gen_range(1..=3));
            let tid = block_tid(&mut rng, &q, dims, Rational::one(), |_| true, |rng| {
                Rational::from_ints(rng.gen_range(1..=7i64), 8)
            });
            assert_lineage_matches_reference(&q, &tid);
        }

        #[test]
        fn lineage_matches_the_reference_on_gfomc_block_tids(seed in any::<u64>()) {
            // {0, ½, 1} as `random_gfomc_block_tid`, so deterministic tuples
            // fold: satisfied ground clauses, dropped atoms, false lineages.
            let mut rng = StdRng::seed_from_u64(seed);
            let q = menu_query(&mut rng);
            let dims = (rng.gen_range(1..=3), rng.gen_range(1..=3));
            let tid = block_tid(&mut rng, &q, dims, Rational::one(), |_| true, |rng| {
                match rng.gen_range(0..4u8) {
                    0 => Rational::zero(),
                    1 => Rational::one(),
                    _ => Rational::one_half(),
                }
            });
            assert_lineage_matches_reference(&q, &tid);
        }

        #[test]
        fn lineage_matches_the_reference_on_sparse_tids(seed in any::<u64>()) {
            // Few listed tuples over wider domains, either default: most
            // ground tuples are unlisted and fold to the default.
            let mut rng = StdRng::seed_from_u64(seed);
            let q = menu_query(&mut rng);
            let dims = (rng.gen_range(1..=6), rng.gen_range(4..=6));
            let default = if rng.gen_bool(0.5) { Rational::one() } else { Rational::zero() };
            let tid = block_tid(&mut rng, &q, dims, default, |rng| rng.gen_bool(0.1), |rng| {
                Rational::from_ints(rng.gen_range(0..=8i64), 8)
            });
            assert_lineage_matches_reference(&q, &tid);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn h1_fast_equals_brute(tid in arb_tid_for(&catalog::h1())) {
            let q = catalog::h1();
            prop_assert_eq!(probability(&q, &tid), probability_brute_force(&q, &tid));
        }

        #[test]
        fn c9_fast_equals_brute(tid in arb_tid_for(&catalog::example_c9())) {
            let q = catalog::example_c9();
            if uncertain_tuple_count(&tid) <= 12 {
                prop_assert_eq!(probability(&q, &tid), probability_brute_force(&q, &tid));
            }
        }

        #[test]
        fn probabilities_in_range(tid in arb_tid_for(&catalog::hk(2))) {
            let q = catalog::hk(2);
            let p = probability(&q, &tid);
            prop_assert!(p.is_probability());
        }

        #[test]
        fn gfomc_instances_recognized(tid in arb_tid_for(&catalog::h1())) {
            prop_assert!(tid.is_gfomc_instance());
        }
    }
}
