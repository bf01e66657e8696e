//! Property suite for the flat evaluation core.
//!
//! The contracts under test:
//!
//! * **bit identity** — for every circuit and weighting,
//!   `FlatCircuit::eval_exact` ≡ tree `Circuit::evaluate` ≡
//!   `wmc_brute_force` as exact `Rational`s (equality in lowest terms);
//! * **certified enclosure** — the interval fast path always contains the
//!   exact value, including under adversarially tight weights (`1/3`,
//!   `1/2^60`, `1 − 1/2^60`) chosen to sit just off the dyadic grid;
//! * **no wrong certificates** — whenever the interval layer *proves* a
//!   comparison, the proven answer agrees with the exact one; fallback
//!   (`Unknown` → exact re-pricing) always lands on the exact verdict.

use gfomc_arith::{Certifies, Integer, Natural, Rational};
use gfomc_logic::{wmc_brute_force, Circuit, Clause, Cnf, Compiler, EvalArena, Var};
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

/// `1/2^60` — an adversarially tiny probability below the `2^-53` grid.
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
    fn interval_encloses_exact_under_tight_weights(f in arb_cnf(), w in arb_tight_weights()) {
        let flat = Circuit::compile(&f).flatten();
        let exact = flat.eval_exact(&w);
        let iv = flat.eval_interval(&w);
        prop_assert!(iv.contains(&exact), "[{}, {}] misses {:?}", iv.lo, iv.hi, exact);
    }

    #[test]
    fn interval_never_certifies_a_wrong_comparison(
        f in arb_cnf(),
        w in arb_tight_weights(),
        num in 0i64..=16,
    ) {
        let flat = Circuit::compile(&f).flatten();
        let exact = flat.eval_exact(&w);
        let mut arena = EvalArena::new();
        // Thresholds sweep the unit grid and sit adversarially close to
        // the exact value itself.
        let mut thresholds = vec![Rational::from_ints(num, 16)];
        thresholds.push(exact.clone());
        thresholds.push(&exact + &tiny());
        if exact >= tiny() {
            thresholds.push(&exact - &tiny());
        }
        for t in &thresholds {
            if let Certifies::Proven(ans) = flat.proves_le(&w, t, &mut arena) {
                prop_assert_eq!(ans, &exact <= t, "certified wrong answer vs {:?}", t);
            }
            // The combined fast-path + fallback answer is always exact,
            // and it falls back exactly when the interval cannot decide.
            let (ans, fell_back) = flat.le_exact(&w, t, &mut arena);
            prop_assert_eq!(ans, &exact <= t);
            prop_assert_eq!(
                fell_back,
                matches!(flat.proves_le(&w, t, &mut arena), Certifies::Unknown)
            );
        }
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
