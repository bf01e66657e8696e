//! # gfomc-query
//!
//! Bipartite ∀CNF queries — the duals of UCQs studied by Kenig & Suciu
//! (PODS 2021, Definition 2.3):
//!
//! * [`atom`] — the sorted vocabulary `R(x)`, `T(y)`, `S_i(x,y)`;
//! * [`clause`] — universally quantified clauses with homomorphisms, core
//!   minimization, and the Left/Middle/Right Type I/II shape taxonomy;
//! * [`query`] — whole queries with redundancy removal, the `Q[S := 0/1]`
//!   rewritings of Lemma 2.7, the `G_i`/`H_j` DNF decompositions of
//!   Eqs. (47)–(49), and a catalog of queries from the paper;
//! * [`lattice`] — the CNF lattice with Möbius function of Definition C.6,
//!   reproducing Example C.7.

pub mod atom;
pub mod clause;
pub mod lattice;
pub mod parser;
pub mod query;

pub use atom::{Atom, CVar, Pred};
pub use clause::{Clause, ClauseShape};
pub use lattice::{cnf_implies, LatticeElement, MobiusLattice};
pub use parser::{parse_clause, parse_query, ParseError};
pub use query::{catalog, BipartiteQuery, PartType, QueryType};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::clause::reference;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Random middle/left/right clauses over up to 5 binary symbols.
    fn arb_clause() -> impl Strategy<Value = Clause> {
        let arb_j = proptest::collection::btree_set(0u32..5, 1..4);
        prop_oneof![
            arb_j.clone().prop_map(Clause::middle),
            arb_j.clone().prop_map(Clause::left_i),
            arb_j.clone().prop_map(Clause::right_i),
            (arb_j.clone(), arb_j.clone()).prop_map(|(a, b)| {
                let a: Vec<u32> = a.into_iter().collect();
                let b: Vec<u32> = b.into_iter().collect();
                Clause::left_ii(&[&a, &b])
            }),
        ]
    }

    fn arb_query() -> impl Strategy<Value = BipartiteQuery> {
        proptest::collection::vec(arb_clause(), 1..4).prop_map(BipartiteQuery::new)
    }

    /// A nonempty random subset of `0..n_symbols`.
    fn symbol_set(rng: &mut StdRng, n_symbols: u32) -> Vec<u32> {
        let mut out: Vec<u32> = (0..n_symbols).filter(|_| rng.gen_bool(0.4)).collect();
        if out.is_empty() {
            out.push(rng.gen_range(0..n_symbols));
        }
        out
    }

    /// The raw clauses of a query drawn as the engine's `random_query`
    /// draws them: 1–3 binary symbols, 2–4 clauses from the Definition 2.3
    /// menu (Type I and II left and right, middle), led by a left and a
    /// right Type I clause sharing a symbol in half the draws.
    fn menu_clauses(rng: &mut StdRng) -> Vec<Clause> {
        let n_symbols = rng.gen_range(1..=3u32);
        let mut out = Vec::new();
        if rng.gen_bool(0.5) {
            let bridge = rng.gen_range(0..n_symbols);
            for right in [false, true] {
                let mut j = symbol_set(rng, n_symbols);
                j.push(bridge);
                out.push(if right {
                    Clause::right_i(j)
                } else {
                    Clause::left_i(j)
                });
            }
        }
        let n_clauses = rng.gen_range(2..=4);
        while out.len() < n_clauses {
            let (a, b) = (symbol_set(rng, n_symbols), symbol_set(rng, n_symbols));
            out.push(match rng.gen_range(0..5u8) {
                0 => Clause::left_i(a),
                1 => Clause::left_ii(&[&a, &b]),
                2 => Clause::middle(a),
                3 => Clause::right_ii(&[&a, &b]),
                _ => Clause::right_i(a),
            });
        }
        out
    }

    /// 1–6 random atoms over 3 symbols and raw variable names (up to four
    /// per sort, indices not contiguous), so canonicalization renames.
    fn raw_atoms(rng: &mut StdRng) -> Vec<Atom> {
        let names = [0u8, 1, 2, 7];
        let var = |rng: &mut StdRng, x: bool| {
            let i = names[rng.gen_range(0..names.len())];
            if x {
                CVar::X(i)
            } else {
                CVar::Y(i)
            }
        };
        (0..rng.gen_range(1..=6))
            .map(|_| match rng.gen_range(0..5u8) {
                0 => Atom::R(var(rng, true)),
                1 => Atom::T(var(rng, false)),
                _ => Atom::S(rng.gen_range(0..3), var(rng, true), var(rng, false)),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn construction_is_idempotent(q in arb_query()) {
            let q2 = BipartiteQuery::new(q.clauses().iter().cloned());
            prop_assert_eq!(q2, q);
        }

        #[test]
        fn clause_minimization_idempotent(c in arb_clause()) {
            let m = c.minimize();
            prop_assert_eq!(m.minimize(), m);
        }

        #[test]
        fn homomorphism_is_reflexive_and_transitive(
            a in arb_clause(), b in arb_clause(), c in arb_clause()
        ) {
            prop_assert!(a.homomorphism_to(&a));
            if a.homomorphism_to(&b) && b.homomorphism_to(&c) {
                prop_assert!(a.homomorphism_to(&c));
            }
        }

        #[test]
        fn clause_construction_matches_the_reference(seed in any::<u64>()) {
            let atoms = raw_atoms(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(Clause::new(atoms.clone()), reference::new(atoms));
        }

        #[test]
        fn homomorphisms_and_cores_match_the_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut clauses = menu_clauses(&mut rng);
            clauses.extend((0..2).map(|_| Clause::new(raw_atoms(&mut rng))));
            for a in &clauses {
                prop_assert_eq!(a.minimize(), reference::minimize(a));
                for b in &clauses {
                    prop_assert_eq!(a.homomorphism_to(b), reference::homomorphism_to(a, b));
                }
            }
        }

        #[test]
        fn query_construction_matches_the_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut clauses = menu_clauses(&mut rng);
            if rng.gen_bool(0.25) {
                clauses.push(Clause::new(raw_atoms(&mut rng)));
            }
            let q = BipartiteQuery::new(clauses.clone());
            prop_assert_eq!(q.clauses(), &BipartiteQuery::new_reference(clauses)[..]);
        }

        #[test]
        fn set_symbol_removes_symbol(q in arb_query(), s in 0u32..5, v in any::<bool>()) {
            let q2 = q.set_symbol(Pred::S(s), v);
            prop_assert!(!q2.symbols().contains(&Pred::S(s)));
        }

        #[test]
        fn set_symbol_commutes(q in arb_query(), s1 in 0u32..5, s2 in 0u32..5, v1 in any::<bool>(), v2 in any::<bool>()) {
            prop_assume!(s1 != s2);
            let a = q.set_symbol(Pred::S(s1), v1).set_symbol(Pred::S(s2), v2);
            let b = q.set_symbol(Pred::S(s2), v2).set_symbol(Pred::S(s1), v1);
            prop_assert_eq!(a, b);
        }

        #[test]
        fn display_parse_roundtrip(q in arb_query()) {
            prop_assume!(!q.is_true() && !q.is_false());
            let text = q.to_string();
            let back = parse_query(&text).unwrap();
            prop_assert_eq!(back, q);
        }

        #[test]
        fn symbols_union_of_clause_symbols(q in arb_query()) {
            let direct: BTreeSet<Pred> =
                q.clauses().iter().flat_map(|c| c.symbols()).collect();
            prop_assert_eq!(q.symbols(), direct);
        }
    }
}
