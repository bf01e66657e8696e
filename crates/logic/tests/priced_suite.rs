//! Property suite for the stateful priced-circuit layer.
//!
//! The contracts under test:
//!
//! * **update ≡ fresh pricing** — after *any* stream of
//!   `update_weight` calls (including repeated updates to the same
//!   slot, reverts to a previous weight, and endpoint weights `0`/`1`),
//!   every persisted gate value is bit-identical to a `PricedCircuit`
//!   constructed from scratch under the final weights;
//! * **gradients ≡ central finite difference** — `Pr(F, w)` is
//!   multilinear in the weights, so the downward pass's `∂Pr/∂p_s`
//!   must equal `(Pr|p+h − Pr|p−h)/2h` *exactly* (in rational
//!   arithmetic) for any step `h`, before and after updates.

use gfomc_arith::{Integer, Natural, Rational};
use gfomc_logic::{Circuit, Clause, Cnf, PricedCircuit, Var};
use proptest::prelude::*;
use std::sync::Arc;

/// Random monotone CNF over at most 8 variables with at most 6 clauses.
fn arb_cnf() -> impl Strategy<Value = Cnf> {
    proptest::collection::vec(proptest::collection::btree_set(0u32..8, 1..4), 1..6).prop_map(
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

/// The update-weight palette: grid points, endpoints, a repeating binary
/// fraction, and probabilities within `2^-60` of the endpoints (the
/// weights furthest from the machine-word grid).
fn palette(choice: u8) -> Rational {
    match choice % 8 {
        0 => Rational::from_ints(1, 3),
        1 => tiny(),
        2 => Rational::one() - tiny(),
        3 => Rational::one_half(),
        4 => Rational::from_ints(2, 7),
        5 => Rational::zero(),
        6 => Rational::one(),
        _ => Rational::from_ints(3, 4),
    }
}

fn priced_uniform(f: &Cnf, w: Rational) -> (Arc<gfomc_logic::FlatCircuit>, PricedCircuit) {
    let flat = Arc::new(Circuit::compile(f).flatten());
    let weights = vec![w; flat.vars().len()];
    (flat.clone(), PricedCircuit::new(flat, &weights))
}

/// Asserts full bit identity between a long-lived priced circuit and a
/// fresh one: root value and every interior gate.
fn assert_state_identical(live: &PricedCircuit, fresh: &PricedCircuit) {
    assert_eq!(live.value(), fresh.value());
    for g in 0..live.gate_count() as u32 {
        assert_eq!(live.gate_value(g), fresh.gate_value(g), "gate {g} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn update_stream_is_bit_identical_to_fresh_pricing(
        f in arb_cnf(),
        stream in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24),
    ) {
        let (flat, mut pc) = priced_uniform(&f, Rational::one_half());
        prop_assume!(!flat.vars().is_empty());
        let mut weights = vec![Rational::one_half(); flat.vars().len()];
        for (slot_choice, weight_choice) in stream {
            let slot = slot_choice as u32 % flat.vars().len() as u32;
            let p = palette(weight_choice);
            let stats = pc.update_weight(slot, p.clone());
            if weights[slot as usize] == p {
                prop_assert_eq!(stats.repriced, 0, "no-op update must re-price nothing");
            }
            weights[slot as usize] = p;
            let fresh = PricedCircuit::new(flat.clone(), &weights);
            assert_state_identical(&pc, &fresh);
        }
    }

    #[test]
    fn gradients_match_central_finite_difference(
        f in arb_cnf(),
        choices in proptest::collection::vec(1i64..=15, 8),
        hn in 1i64..=3,
    ) {
        let flat = Arc::new(Circuit::compile(&f).flatten());
        // Interior weights k/16 with k ∈ 1..=15 so p ± 1/32 stays in [0,1].
        let weights: Vec<Rational> = flat
            .vars()
            .iter()
            .enumerate()
            .map(|(i, _)| Rational::from_ints(choices[i % choices.len()], 16))
            .collect();
        let pc = PricedCircuit::new(flat.clone(), &weights);
        let grads = pc.gradients();
        prop_assert_eq!(grads.len(), flat.vars().len());
        let h = Rational::from_ints(hn, 96); // ≤ 1/32, keeps p ± h in [0,1]
        let inv_2h = Rational::from_ints(96, 2 * hn); // 1/(2h), exact
        for s in 0..weights.len() {
            let mut up = weights.clone();
            up[s] = &up[s] + &h;
            let mut dn = weights.clone();
            dn[s] = &dn[s] - &h;
            let vu = PricedCircuit::new(flat.clone(), &up).value();
            let vd = PricedCircuit::new(flat.clone(), &dn).value();
            let fd = &(&vu - &vd) * &inv_2h;
            prop_assert_eq!(&grads[s], &fd, "slot {} derivative mismatch", s);
        }
    }

    #[test]
    fn gradients_after_updates_match_fresh_gradients(
        f in arb_cnf(),
        stream in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..12),
    ) {
        let (flat, mut pc) = priced_uniform(&f, Rational::one_half());
        prop_assume!(!flat.vars().is_empty());
        let mut weights = vec![Rational::one_half(); flat.vars().len()];
        for (slot_choice, weight_choice) in stream {
            let slot = slot_choice as u32 % flat.vars().len() as u32;
            let p = palette(weight_choice);
            pc.update_weight(slot, p.clone());
            weights[slot as usize] = p;
        }
        let fresh = PricedCircuit::new(flat.clone(), &weights);
        prop_assert_eq!(pc.gradients(), fresh.gradients());
    }
}

/// Repeated updates to the same slot: revert detection (`repriced == 0`
/// on an identical weight) and bit identity along the whole stream.
#[test]
fn repeated_same_slot_updates() {
    let f = Cnf::new([Clause::new([Var(1), Var(2)]), Clause::new([Var(2), Var(3)])]);
    let flat = Arc::new(Circuit::compile(&f).flatten());
    let mut weights = vec![Rational::one_half(); flat.vars().len()];
    let mut pc = PricedCircuit::new(flat.clone(), &weights);
    let seq = [
        Rational::from_ints(1, 3),
        Rational::from_ints(1, 3), // exact repeat: must be a no-op
        Rational::from_ints(2, 3),
        Rational::one_half(), // revert to the original weight
    ];
    for (i, p) in seq.iter().enumerate() {
        let stats = pc.update_weight(0, p.clone());
        if weights[0] == *p {
            assert_eq!(stats.repriced, 0, "step {i}: identical weight re-priced");
        } else {
            assert!(
                stats.repriced > 0,
                "step {i}: changed weight priced nothing"
            );
        }
        weights[0] = p.clone();
        let fresh = PricedCircuit::new(flat.clone(), &weights);
        assert_eq!(pc.value(), fresh.value(), "step {i}");
    }
}
