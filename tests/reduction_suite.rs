//! Integration tests for the Type-I Cook reduction (Theorem 3.1) on
//! randomized formulas and multiple target queries, including composition
//! with the zig-zag rewriting.

use gfomc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random P2CNF with `n` variables and up to `max_m` clauses, honoring the
/// at-most-one-orientation edge convention.
fn random_p2cnf(n: usize, max_m: usize, rng: &mut StdRng) -> P2Cnf {
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    // Shuffle and take a prefix.
    for i in (1..pairs.len()).rev() {
        let j = rng.gen_range(0..=i);
        pairs.swap(i, j);
    }
    let m = rng.gen_range(1..=max_m.min(pairs.len()));
    let edges = pairs[..m]
        .iter()
        .map(|&(i, j)| if rng.gen_bool(0.5) { (i, j) } else { (j, i) })
        .collect();
    P2Cnf::new(n, edges)
}

#[test]
fn reduction_on_random_formulas_h1() {
    // An edge, a path, a triangle and a 4-cycle, then random formulas.
    let fixed = [
        P2Cnf::new(2, vec![(0, 1)]),
        P2Cnf::new(3, vec![(0, 1), (1, 2)]),
        P2Cnf::new(3, vec![(0, 1), (1, 2), (0, 2)]),
        P2Cnf::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
    ];
    let mut rng = StdRng::seed_from_u64(0x2C4F);
    let random: Vec<P2Cnf> = (0..6).map(|_| random_p2cnf(4, 4, &mut rng)).collect();
    for (trial, phi) in fixed.into_iter().chain(random).enumerate() {
        let out = reduce_p2cnf(&catalog::h1(), &phi, OracleMode::Factorized);
        assert_eq!(
            out.model_count,
            phi.count_models(),
            "trial {trial}: {phi:?}"
        );
        assert_eq!(
            out.signature_counts,
            signature_counts(&phi),
            "trial {trial}"
        );
    }
}

#[test]
fn reduction_on_random_formulas_h2() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for trial in 0..3 {
        let phi = random_p2cnf(4, 3, &mut rng);
        let out = reduce_p2cnf(&catalog::hk(2), &phi, OracleMode::Factorized);
        assert_eq!(out.model_count, phi.count_models(), "trial {trial}");
    }
}

#[test]
fn reduction_composes_with_zigzag() {
    // zg(H1) is a final Type-I query over a fresh vocabulary; Theorem 3.1
    // applies to it verbatim. This is the composition used in the paper's
    // master proof (Theorem 2.2 via Lemma 2.6 + Theorem 2.9).
    let zq = zg_query(&catalog::h1());
    assert!(is_final_type_i(&zq.query));
    let mut rng = StdRng::seed_from_u64(0x216);
    for _ in 0..2 {
        let phi = random_p2cnf(3, 2, &mut rng);
        let out = reduce_p2cnf(&zq.query, &phi, OracleMode::Factorized);
        assert_eq!(out.model_count, phi.count_models());
    }
}

#[test]
fn factorized_and_full_oracles_agree() {
    // Theorem 3.4 (E15), exercised through the public API on a full
    // reduction run rather than a single database.
    for phi in [
        P2Cnf::new(2, vec![(0, 1)]),
        P2Cnf::new(3, vec![(0, 1), (1, 2)]),
    ] {
        let a = reduce_p2cnf(&catalog::h1(), &phi, OracleMode::FullWmc);
        let b = reduce_p2cnf(&catalog::h1(), &phi, OracleMode::Factorized);
        assert_eq!(a.model_count, phi.count_models(), "{phi:?}");
        assert_eq!(a.model_count, b.model_count);
        assert_eq!(a.signature_counts, b.signature_counts);
    }
}

#[test]
fn reduction_handles_disconnected_formulas() {
    // Two independent edges: counts multiply across components.
    let phi = P2Cnf::new(4, vec![(0, 1), (2, 3)]);
    let out = reduce_p2cnf(&catalog::h1(), &phi, OracleMode::Factorized);
    assert_eq!(out.model_count, Natural::from(9u64)); // 3 × 3
}

#[test]
fn reduction_certificate_totals() {
    // The recovered signature counts must always total 2^n.
    let mut rng = StdRng::seed_from_u64(0xACC);
    let phi = random_p2cnf(4, 4, &mut rng);
    let out = reduce_p2cnf(&catalog::h1(), &phi, OracleMode::Factorized);
    let total = out
        .signature_counts
        .values()
        .fold(Natural::zero(), |acc, c| &acc + c);
    assert_eq!(total, Natural::from(16u64));
}

#[test]
fn pp2cnf_instances_via_embedding() {
    // Provan–Ball instances run through the same pipeline.
    let phi = Pp2Cnf::new(2, 2, vec![(0, 0), (0, 1), (1, 1)]);
    let embedded = phi.to_p2cnf();
    let out = reduce_p2cnf(&catalog::h1(), &embedded, OracleMode::Factorized);
    assert_eq!(out.model_count, phi.count_models());
}
