//! Property suite for the flat evaluation core.
//!
//! The contract under test is **bit identity**: for every circuit and
//! weighting, `FlatCircuit::eval_exact` ≡ tree `Circuit::evaluate` ≡
//! `wmc_brute_force` as exact `Rational`s (equality in lowest terms),
//! including under adversarially tight weights (`1/3`, `1/2^60`,
//! `1 − 1/2^60`) whose products spill the hybrid lane to bignum.

use gfomc_arith::{Integer, Natural, Rational};
use gfomc_logic::{wmc_brute_force, Circuit, Clause, Cnf, Compiler, Var};
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

/// `1/2^60` — an adversarially tiny probability.
fn tiny() -> Rational {
    Rational::new(Integer::one(), Integer::from(Natural::one().shl_bits(60)))
}

/// The adversarial weight palette: dyadic-grid points, a repeating binary
/// fraction, and probabilities within `2^-60` of the endpoints.
fn tight_weight(choice: u8) -> Rational {
    match choice % 6 {
        0 => Rational::from_ints(1, 3),
        1 => tiny(),
        2 => Rational::one() - tiny(),
        3 => Rational::one_half(),
        4 => Rational::from_ints(2, 7),
        _ => Rational::from_ints(3, 4),
    }
}

fn arb_weights() -> impl Strategy<Value = HashMap<Var, Rational>> {
    proptest::collection::vec(0i64..=4, 8).prop_map(|ws| {
        ws.into_iter()
            .enumerate()
            .map(|(i, w)| (Var(i as u32), Rational::from_ints(w, 4)))
            .collect()
    })
}

fn arb_tight_weights() -> impl Strategy<Value = HashMap<Var, Rational>> {
    proptest::collection::vec(any::<u8>(), 8).prop_map(|ws| {
        ws.into_iter()
            .enumerate()
            .map(|(i, w)| (Var(i as u32), tight_weight(w)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_tree_brute_force_bit_identity(f in arb_cnf(), w in arb_weights()) {
        let tree = Circuit::compile(&f);
        let flat = tree.flatten();
        let exact = flat.eval_exact(&w);
        prop_assert_eq!(&exact, &tree.evaluate(&w));
        prop_assert_eq!(exact, wmc_brute_force(&f, &w));
    }

    #[test]
    fn flat_matches_tree_under_tight_weights(f in arb_cnf(), w in arb_tight_weights()) {
        let tree = Circuit::compile(&f);
        let flat = tree.flatten();
        prop_assert_eq!(flat.eval_exact(&w), tree.evaluate(&w));
    }

    #[test]
    fn pool_flatten_preserves_every_root(f in arb_cnf(), g in arb_cnf(), w in arb_weights()) {
        // Two formulas in one pool: flattening preserves ids, and the flat
        // all-gates pass prices both roots identically to the tree pass.
        let mut comp = Compiler::new();
        let rf = comp.compile(&f);
        let rg = comp.compile(&g);
        let flat = comp.finish_flat();
        prop_assert_eq!(flat.gate_count(), comp.node_count());
        let flat_vals = flat.evaluate_all(&w);
        let tree_vals = comp.evaluate_all(&w);
        prop_assert_eq!(flat_vals.value(rf), tree_vals.value(rf));
        prop_assert_eq!(flat_vals.value(rg), tree_vals.value(rg));
    }
}
