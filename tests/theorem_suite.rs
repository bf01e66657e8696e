//! One integration test per constructive theorem/lemma of §3, run across
//! the final Type-I catalog — experiments E2–E6, E8 and E9 of the E1–E17
//! table printed by the `experiments` bin, in test form. README "Theorem ↔
//! module correspondence" maps each result to its module.

use gfomc::core::small_matrix::{
    block_small_matrix, corollary_3_18_constant, lemma_1_2_agrees, theorem_3_16_at_half,
};
use gfomc::core::transfer::{lemma_3_19_holds, proposition_3_20_holds};
use gfomc::prelude::*;

fn final_type_i_catalog() -> Vec<(&'static str, BipartiteQuery)> {
    vec![
        ("h1", catalog::h1()),
        ("h2", catalog::hk(2)),
        ("h3", catalog::hk(3)),
    ]
}

#[test]
fn e2_lemma_3_19_transfer_recurrence() {
    for (name, q) in final_type_i_catalog() {
        for p in 1..=4 {
            assert!(lemma_3_19_holds(&q, p), "{name} p={p}");
        }
    }
}

#[test]
fn e4_proposition_3_20_ordering() {
    for (name, q) in final_type_i_catalog() {
        let a1 = transfer_matrix(&q, 1);
        assert!(proposition_3_20_holds(&a1), "{name}");
    }
}

#[test]
fn e5_theorem_3_14_conditions_exact() {
    for (name, q) in final_type_i_catalog() {
        let e = EigenData::decompose(&transfer_matrix(&q, 1));
        assert!(e.theorem_3_14_conditions(), "{name}");
        // λ are irrational here (disc not a perfect square) — the exact
        // quadratic-field arithmetic is doing real work.
        assert!(
            !e.lambda1.is_rational() || !e.lambda2.is_rational(),
            "{name}"
        );
    }
}

#[test]
fn e6_big_system_nonsingular() {
    for (name, q) in final_type_i_catalog() {
        for m in 1..=3 {
            let z: Vec<Matrix<Rational>> = (1..=m + 1).map(|p| transfer_matrix(&q, p)).collect();
            let sys = big_system(&z, m);
            assert!(sys.matrix.is_invertible(), "{name} m={m}");
        }
    }
}

#[test]
fn e3_theorem_3_16_and_corollary_3_18() {
    for (name, q) in final_type_i_catalog() {
        assert!(theorem_3_16_at_half(&q), "{name}");
        if q.binary_symbols().len() <= 2 {
            // The symbolic product-form check is exponential in block size;
            // run it on the small-vocabulary queries.
            let c = corollary_3_18_constant(&q);
            assert!(c.is_some(), "{name}: f_A is not c·∏u(1-u)");
        }
    }
}

#[test]
fn e8_lemma_1_1_on_block_determinants() {
    // The determinant f_A of each catalog query admits a {0,½,1} non-root —
    // and Lemma 1.1's constructive search finds it.
    for (name, q) in final_type_i_catalog() {
        let det = block_small_matrix(&q).determinant();
        let (theta, value) = gfomc_nonroot(&det);
        assert!(!value.is_zero(), "{name}");
        assert_eq!(det.eval(&theta), value, "{name}");
    }
}

#[test]
fn e9_lemma_1_2_on_block_lineages() {
    // For final Type-I queries the p=1 block lineage connects R(u), R(v),
    // so the small matrix must be non-singular; conversely a disconnected
    // variant must be singular. Both via the generic Lemma 1.2 predicate.
    use gfomc::logic::{Clause as PClause, Cnf};
    for (name, q) in final_type_i_catalog() {
        let sm = block_small_matrix(&q);
        assert!(!sm.is_singular(), "{name}");
    }
    // A synthetic disconnected lineage.
    let f = Cnf::new([
        PClause::new([Var(0), Var(1)]),
        PClause::new([Var(2), Var(3)]),
    ]);
    assert!(lemma_1_2_agrees(&f, Var(0), Var(2)));
}

#[test]
fn e13_reduction_databases_are_model_counting_instances() {
    // Theorem 2.9 (1): hardness holds for FOMC, i.e. probabilities {½, 1}.
    let q = catalog::h1();
    let phi = P2Cnf::new(3, vec![(0, 1), (1, 2)]);
    for p1 in 1..=3 {
        for p2 in p1..=3 {
            let tid = block_database(&q, &phi, &[p1, p2]);
            assert!(tid.is_fomc_instance(), "({p1},{p2})");
            for t in tid.uncertain_tuples() {
                assert_eq!(tid.prob(&t), Rational::one_half());
            }
        }
    }
}

#[test]
fn eigenvalue_magnitudes_ordered() {
    // Theorem C.33's shape for the Type-I case: 0 < |λ2| < λ1 with our
    // ordering λ1 > λ2 (λ1 carries the trace's positive branch).
    for (name, q) in final_type_i_catalog() {
        let e = EigenData::decompose(&transfer_matrix(&q, 1));
        assert!(e.lambda1.is_positive(), "{name}");
        let diff = &e.lambda1 - &e.lambda2;
        assert!(diff.is_positive(), "{name}");
    }
}

#[test]
fn transfer_matrices_shrink_geometrically() {
    // A(p) entries decay with p (each link multiplies by probabilities <1):
    // z11(p+1) < z11(p) for the chain queries.
    let q = catalog::h1();
    let mut prev = transfer_matrix(&q, 1);
    for p in 2..=4 {
        let cur = transfer_matrix(&q, p);
        assert!(cur.get(1, 1) < prev.get(1, 1), "p={p}");
        prev = cur;
    }
}
