//! The dichotomy picture (Theorem 2.2): classify a catalog of queries, then
//! measure how the two sides scale — the PTIME lifted plan on safe queries
//! versus exact WMC on unsafe ones.
//!
//! Run with `cargo run --release --example dichotomy`.

use gfomc::prelude::*;
use std::time::Instant;

fn uniform_db(q: &BipartiteQuery, nu: u32, nv: u32) -> Tid {
    let left: Vec<u32> = (0..nu).collect();
    let right: Vec<u32> = (1000..1000 + nv).collect();
    let mut tid = Tid::all_present(left.clone(), right.clone());
    for &u in &left {
        tid.set_prob(Tuple::R(u), Rational::one_half());
        for &v in &right {
            for s in q.binary_symbols() {
                tid.set_prob(Tuple::S(s, u, v), Rational::one_half());
            }
        }
    }
    for &v in &right {
        tid.set_prob(Tuple::T(v), Rational::one_half());
    }
    tid
}

fn main() {
    // ------------------------------------------------------------------
    // 1. Static classification of the whole catalog.
    // ------------------------------------------------------------------
    println!(
        "{:<22} {:>6} {:>7} {:>6} {:>10}",
        "query", "safe", "length", "final", "type"
    );
    println!("{}", "-".repeat(56));
    let all: Vec<(&str, BipartiteQuery)> = catalog::unsafe_catalog()
        .into_iter()
        .chain(catalog::safe_catalog())
        .collect();
    for (name, q) in &all {
        let c = classify(q);
        let ty = match c.query_type {
            Some(t) => format!("{:?}-{:?}", t.left, t.right),
            None => "-".to_string(),
        };
        println!(
            "{:<22} {:>6} {:>7} {:>6} {:>10}",
            name,
            c.safe,
            c.length.map_or("-".into(), |l| l.to_string()),
            c.is_final,
            ty
        );
    }

    // ------------------------------------------------------------------
    // 2. Scaling: safe side (lifted, polynomial in the domain).
    // ------------------------------------------------------------------
    println!("\nsafe side: lifted evaluation of `safe_three_components`");
    println!("{:>6} {:>14} {:>12}", "n=|U|=|V|", "time", "Pr digits");
    let q_safe = catalog::safe_three_components();
    for n in [4u32, 8, 16, 32, 64] {
        let db = uniform_db(&q_safe, n, n);
        let t0 = Instant::now();
        let p = lifted_probability(&q_safe, &db).unwrap();
        let dt = t0.elapsed();
        println!(
            "{:>6} {:>14?} {:>12}",
            n,
            dt,
            p.numer().magnitude().bit_len()
        );
    }

    // ------------------------------------------------------------------
    // 3. Scaling: unsafe side (exact WMC — exponential-ish growth).
    // ------------------------------------------------------------------
    println!("\nunsafe side: exact WMC of H1 on n x n uniform databases");
    println!("{:>6} {:>14} {:>14}", "n", "time", "branchings");
    let q_hard = catalog::h1();
    for n in [1u32, 2, 3, 4, 5] {
        let db = uniform_db(&q_hard, n, n);
        let lin = lineage(&q_hard, &db);
        let t0 = Instant::now();
        let circuit = gfomc::logic::Circuit::compile(&lin.cnf);
        let p = circuit.evaluate(lin.vars.weights());
        let dt = t0.elapsed();
        println!("{:>6} {:>14?} {:>14}", n, dt, circuit.decision_count());
        assert!(p.is_probability());
    }
    println!("\nThe contrast above *is* the dichotomy: the safe query scales");
    println!("polynomially in the domain, while the exact engine on the");
    println!("unsafe query does exponential Shannon branching — and by");
    println!("Theorem 2.2 no algorithm does better unless FP = #P, even with");
    println!("all probabilities in {{0, 1/2, 1}}.");
}
