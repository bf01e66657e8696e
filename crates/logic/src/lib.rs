//! # gfomc-logic
//!
//! The propositional substrate of the workspace:
//!
//! * [`cnf`] — monotone CNF formulas in canonical (subsumption-minimal) form,
//!   with restriction, renaming, conjunction/disjunction, and decomposition
//!   into variable-disjoint components;
//! * [`dnf`] — monotone DNF, in particular the complement-DNF of a monotone
//!   CNF (De Morgan transliteration) that turns lineage counting into the
//!   DNF-union problem the Karp–Luby estimator (`gfomc-approx`) samples;
//! * [`mod@wmc`] — exact weighted model counting (the `Pr(Q)` oracle of the
//!   paper's Cook reductions) as compile + evaluate, plus brute-force
//!   ground truth;
//! * [`cofactor`] — the cofactor kernel: canonical CNFs as bitset rows,
//!   on which the circuit compiler and the router's cost estimate descend;
//! * [`circuit`] — knowledge compilation of monotone CNFs into d-DNNF-style
//!   arithmetic circuits, for compile-once / evaluate-many workloads;
//! * [`flat`] — the struct-of-arrays evaluation form of those circuits
//!   ([`FlatCircuit`]): dense topologically ordered gates, packed
//!   children, and one exact forward pass shared by every value lane;
//! * [`priced`] — the stateful layer over [`flat`] ([`PricedCircuit`]):
//!   persisted per-gate exact values, reverse topology, dirty-path
//!   incremental re-pricing on weight updates, and the downward
//!   derivative pass (∂Pr/∂p per distinct variable in one sweep);
//! * [`decompose`] — the disconnection / distance / migrating-variable
//!   analysis of Appendix B.

pub mod circuit;
pub mod cnf;
pub mod cofactor;
pub mod decompose;
pub mod dnf;
pub mod flat;
pub mod priced;
pub mod wmc;

pub use circuit::{Circuit, Compiler, Node, NodeId, Valuation};
pub use cnf::{Clause, Cnf, Var};
pub use cofactor::{BitCnf, VarIndex};
pub use dnf::Dnf;
pub use flat::{EvalArena, FlatCircuit, Lane, Op, ReverseTopology, SlotW};
pub use priced::{PricedCircuit, UpdateStats};
pub use wmc::{wmc, wmc_brute_force, UniformWeight, WeightFn, WeightsFromFn};

#[cfg(test)]
mod proptests {
    use super::*;
    use gfomc_arith::Rational;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Random monotone CNF over at most 8 variables with at most 6 clauses.
    fn arb_cnf() -> impl Strategy<Value = Cnf> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..8, 1..4), 0..6).prop_map(
            |clauses| {
                Cnf::new(
                    clauses
                        .into_iter()
                        .map(|c| Clause::new(c.into_iter().map(Var))),
                )
            },
        )
    }

    fn arb_weights() -> impl Strategy<Value = HashMap<Var, Rational>> {
        proptest::collection::vec(0i64..=4, 8).prop_map(|ws| {
            ws.into_iter()
                .enumerate()
                .map(|(i, w)| (Var(i as u32), Rational::from_ints(w, 4)))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn wmc_matches_brute_force(f in arb_cnf(), w in arb_weights()) {
            // `wmc` is compile + evaluate, so this is the compiled
            // circuit's check against exhaustive enumeration too.
            prop_assert_eq!(wmc(&f, &w), wmc_brute_force(&f, &w));
        }

        #[test]
        fn circuit_compile_once_many_weights(f in arb_cnf()) {
            // One compilation serves every weight function: spot-check the
            // whole uniform grid k/4, including the deterministic endpoints.
            let c = Circuit::compile(&f);
            for k in 0..=4i64 {
                let w = UniformWeight(Rational::from_ints(k, 4));
                prop_assert_eq!(c.evaluate(&w), wmc_brute_force(&f, &w));
            }
        }

        #[test]
        fn restriction_shannon_identity(f in arb_cnf(), v in 0u32..8) {
            // Pr(F) = ½·Pr(F[v:=1]) + ½·Pr(F[v:=0]) at the uniform-½ point.
            let w = UniformWeight(Rational::one_half());
            let v = Var(v);
            let lhs = wmc(&f, &w);
            let hi = wmc(&f.restrict(v, true), &w);
            let lo = wmc(&f.restrict(v, false), &w);
            let half = Rational::one_half();
            prop_assert_eq!(lhs, &(&half * &hi) + &(&half * &lo));
        }

        #[test]
        fn minimization_preserves_semantics(f in arb_cnf(), mask in any::<u16>()) {
            // `Cnf::new` minimized `f`; evaluation must agree with direct
            // clause-by-clause semantics on arbitrary assignments.
            let tv: std::collections::BTreeSet<Var> =
                (0..8).filter(|i| mask >> i & 1 == 1).map(Var).collect();
            let direct = f.clauses().iter().all(|c| c.vars().iter().any(|v| tv.contains(v)));
            prop_assert_eq!(f.eval(&tv), direct);
        }

        #[test]
        fn components_are_independent(f in arb_cnf()) {
            let w = UniformWeight(Rational::one_half());
            let product = f
                .components()
                .into_iter()
                .fold(Rational::one(), |acc, c| &acc * &wmc(&c, &w));
            prop_assert_eq!(wmc(&f, &w), product);
        }

        #[test]
        fn or_and_are_sound(f in arb_cnf(), g in arb_cnf(), mask in any::<u16>()) {
            let tv: std::collections::BTreeSet<Var> =
                (0..8).filter(|i| mask >> i & 1 == 1).map(Var).collect();
            prop_assert_eq!(f.or(&g).eval(&tv), f.eval(&tv) || g.eval(&tv));
            prop_assert_eq!(f.and(&g).eval(&tv), f.eval(&tv) && g.eval(&tv));
        }

        #[test]
        fn restrict_is_sound(f in arb_cnf(), v in 0u32..8, b in any::<bool>(), mask in any::<u16>()) {
            let v = Var(v);
            let mut tv: std::collections::BTreeSet<Var> =
                (0..8).filter(|i| mask >> i & 1 == 1).map(Var).collect();
            // Force the assignment to agree with the restriction.
            if b { tv.insert(v); } else { tv.remove(&v); }
            prop_assert_eq!(f.restrict(v, b).eval(&tv), f.eval(&tv));
        }
    }
}
