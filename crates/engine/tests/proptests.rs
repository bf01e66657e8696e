//! Property suite: the compiled engine is extensionally equal to
//! brute-force enumeration of the lineage's assignments — exact
//! [`Rational`] equality, never approximate.
//!
//! Random inputs come from the [`gfomc_engine::workload`] generator, driven
//! by seeds that proptest draws; everything is deterministic end to end.

use gfomc_arith::Rational;
use gfomc_engine::workload::{
    random_block_tid, random_gfomc_block_tid, random_query, random_weightings, SafetyTarget,
};
use gfomc_engine::{Engine, TupleWeights};
use gfomc_logic::{wmc_brute_force, EvalArena, Var};
use gfomc_tid::{lineage, probability, Tid};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;

/// The naive path: re-ground the query under `weights` and enumerate every
/// assignment of the lineage — no compilation, no Shannon descent.
fn recompute_per_weight(
    q: &gfomc_query::BipartiteQuery,
    tid: &Tid,
    weights: &TupleWeights,
) -> Rational {
    let mut tid = tid.clone();
    for (&t, p) in weights.iter() {
        tid.set_prob(t, p.clone());
    }
    let lin = lineage(q, &tid);
    wmc_brute_force(&lin.cnf, lin.vars.weights())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_equals_naive_oracle(seed in 0u64..10_000, nu in 1u32..3, nv in 1u32..3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Any);
        let tid = random_block_tid(&mut rng, &q, nu, nv);
        let compiled = Engine::new().compile(&q, &tid);
        prop_assert_eq!(compiled.evaluate_db(), probability(&q, &tid));
    }

    #[test]
    fn compile_once_evaluate_many_equals_per_weight_recomputation(
        seed in 0u64..10_000,
        n_weights in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Any);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        // Compile once…
        let compiled = Engine::new().compile(&q, &tid);
        let weightings = random_weightings(&mut rng, &compiled.tuples(), n_weights);
        // …evaluate many over one reused arena, against N full
        // re-groundings + re-expansions.
        let mut arena = EvalArena::new();
        for w in &weightings {
            prop_assert_eq!(compiled.evaluate_with(w, &mut arena), recompute_per_weight(&q, &tid, w));
        }
    }

    #[test]
    fn compiled_equals_brute_force_on_small_gfomc_blocks(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Any);
        let tid = random_gfomc_block_tid(&mut rng, &q, 1, 2);
        let compiled = Engine::new().compile(&q, &tid);
        let lin = lineage(&q, &tid);
        prop_assume!(lin.vars.len() <= 16);
        prop_assert_eq!(
            compiled.evaluate_db(),
            wmc_brute_force(&lin.cnf, lin.vars.weights())
        );
    }

    #[test]
    fn deterministic_override_equals_lineage_restriction(seed in 0u64..10_000) {
        // Forcing one uncertain tuple to 0/1 through the compiled circuit
        // equals restricting the lineage variable before counting.
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Any);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        let compiled = Engine::new().compile(&q, &tid);
        let support = compiled.tuples();
        prop_assume!(!support.is_empty());
        let t = support[0];
        let lin = lineage(&q, &tid);
        let v = lin.vars.lookup(&t).expect("support tuple has a variable");
        for forced in [false, true] {
            let p = if forced { Rational::one() } else { Rational::zero() };
            let via_circuit = compiled.evaluate(&TupleWeights::new().with(t, p));
            let restricted = lin.cnf.restrict(v, forced);
            let weights: HashMap<Var, Rational> = lin
                .vars
                .weights()
                .iter()
                .enumerate()
                .map(|(i, p)| (Var(i as u32), p.clone()))
                .collect();
            prop_assert_eq!(via_circuit, wmc_brute_force(&restricted, &weights));
        }
    }
}
