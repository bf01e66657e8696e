//! The engine's compile-once / evaluate-many workflow, end to end:
//! compile a query lineage into an arithmetic circuit, sweep tuple
//! probabilities without recompiling, and compare against the naive oracle.
//!
//! Run with `cargo run --example engine_batch`.

use gfomc::engine::workload::{random_block_tid, random_query, random_weightings, SafetyTarget};
use gfomc::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

fn main() {
    // ------------------------------------------------------------------
    // 1. A block database for H1 over a 3×3 domain, every tuple at a
    //    random interior probability (seeded — reruns are identical).
    // ------------------------------------------------------------------
    let q = catalog::h1();
    let mut rng = StdRng::seed_from_u64(42);
    let tid = random_block_tid(&mut rng, &q, 3, 3);
    println!("query Q = {q}");

    // ------------------------------------------------------------------
    // 2. Compile once: lineage → d-DNNF-style arithmetic circuit.
    // ------------------------------------------------------------------
    let engine = Engine::new();
    let t0 = Instant::now();
    let compiled = engine.compile(&q, &tid);
    println!(
        "compiled lineage over {} uncertain tuples into {} gates in {:?}",
        compiled.tuples().len(),
        compiled.node_count(),
        t0.elapsed(),
    );
    assert_eq!(compiled.evaluate_db(), probability(&q, &tid));

    // ------------------------------------------------------------------
    // 3. Evaluate many: 12 random weight assignments, each priced by one
    //    bottom-up circuit pass — no re-grounding, no re-expansion.
    // ------------------------------------------------------------------
    let weightings = random_weightings(&mut rng, &compiled.tuples(), 12);
    let t1 = Instant::now();
    let batch = compiled.evaluate_batch(&weightings);
    let batched = t1.elapsed();
    println!("12 batched evaluations in {batched:?}");

    // The same 12 answers the legacy way: re-ground + re-expand per weight.
    let t2 = Instant::now();
    for (w, expected) in weightings.iter().zip(&batch) {
        let mut db = tid.clone();
        for (&t, p) in w.iter() {
            db.set_prob(t, p.clone());
        }
        assert_eq!(&probability(&q, &db), expected, "engine ≡ naive oracle");
    }
    let naive = t2.elapsed();
    println!("12 independent WMC runs in {naive:?} (same answers, exactly)");

    // ------------------------------------------------------------------
    // 4. Deterministic overrides need no recompilation: conditioning on
    //    R(0) present/absent is two more passes of the same circuit.
    // ------------------------------------------------------------------
    let present = compiled.evaluate(&TupleWeights::new().with(Tuple::R(0), Rational::one()));
    let absent = compiled.evaluate(&TupleWeights::new().with(Tuple::R(0), Rational::zero()));
    println!("Pr(Q | R(0) present) = {present}");
    println!("Pr(Q | R(0) absent)  = {absent}");
    assert!(absent <= present, "H1 is monotone in R(0)");

    // ------------------------------------------------------------------
    // 5. The workload generator also controls query safety — the test
    //    suites draw from both sides of the dichotomy.
    // ------------------------------------------------------------------
    let safe = random_query(&mut rng, 3, 3, SafetyTarget::Safe);
    let unsafe_q = random_query(&mut rng, 3, 3, SafetyTarget::Unsafe);
    println!("random safe query:   {safe}");
    println!("random unsafe query: {unsafe_q}");
    assert!(is_safe(&safe) && is_unsafe(&unsafe_q));
}
