//! The headline construction: the Cook reduction `#P2CNF ≤ᴾ FOMC(Q)` for
//! final Type-I queries (Theorem 3.1), executable end-to-end.
//!
//! Given a P2CNF `Φ` with `m` clauses over `n` variables and a final Type-I
//! query `Q`:
//!
//! 1. build the transfer matrices `A(p)` for `p = 1..=m+1` from the path
//!    blocks of §3.3;
//! 2. for every parameter multiset `{p ≤ q}` construct the block database
//!    with parallel blocks `B_{(p,q)}` on each clause edge and query the
//!    `Pr(Q)` oracle — `C(m+2,2)` oracle calls, on databases whose
//!    probabilities all lie in `{½, 1}`;
//! 3. assemble the big system (Theorem 3.6 / [`crate::big_matrix`]) and
//!    solve `M · x = 2^n · Pr` for the undirected signature counts `#k′`;
//! 4. read off `#Φ = Σ_{k′ : k₀₀ = 0} #k′`.
//!
//! The implementation recovers not just `#Φ` but the entire signature-count
//! table, which tests compare against brute-force enumeration.

use crate::big_matrix::big_system;
use crate::block_tid::{block_database, probability_via_factorization};
use crate::p2cnf::P2Cnf;
use crate::signatures::UndirectedSignature;
use crate::transfer::transfer_matrix;
use gfomc_arith::{Natural, Rational, Sign};
use gfomc_linalg::Matrix;
use gfomc_query::BipartiteQuery;
use gfomc_tid::probability;
use std::collections::BTreeMap;

/// How the reduction obtains `Pr_∆(Q)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OracleMode {
    /// Materialize the full block database and run the exact oracle (which
    /// compiles the lineage and evaluates the circuit) — the literal oracle
    /// of the reduction. Use for small instances.
    FullWmc,
    /// Evaluate via the factorization of Theorem 3.4 (Eq. (8)) using the
    /// precomputed transfer matrices. Verified equal to `FullWmc` by the
    /// `block_tid` tests (E15).
    Factorized,
}

/// Result of a reduction run.
#[derive(Clone, Debug)]
pub struct ReductionOutcome {
    /// The recovered model count `#Φ`.
    pub model_count: Natural,
    /// The full table of undirected signature counts `#k′`.
    pub signature_counts: BTreeMap<UndirectedSignature, Natural>,
    /// Number of oracle invocations (`C(m+2,2)`).
    pub oracle_calls: usize,
    /// Dimension of the linear system solved.
    pub system_dim: usize,
}

/// Runs the reduction. `q` must be a final Type-I query (the caller can
/// check with `gfomc_safety::is_final_type_i`); the big system is verified
/// non-singular at runtime, which is what Theorem 3.6 guarantees under the
/// coefficient conditions established by Theorem 3.14.
pub fn reduce_p2cnf(q: &BipartiteQuery, phi: &P2Cnf, mode: OracleMode) -> ReductionOutcome {
    let m = phi.n_clauses();
    let n = phi.n_vars();
    if m == 0 {
        // No clauses: every assignment satisfies Φ.
        let mut counts = BTreeMap::new();
        counts.insert(
            UndirectedSignature {
                k00: 0,
                k01_10: 0,
                k11: 0,
            },
            Natural::from(2u64).pow(n as u32),
        );
        return ReductionOutcome {
            model_count: Natural::from(2u64).pow(n as u32),
            signature_counts: counts,
            oracle_calls: 0,
            system_dim: 0,
        };
    }
    // Step 1: transfer matrices A(p), p = 1..=m+1.
    let z_tables: Vec<Matrix<Rational>> = (1..=m + 1).map(|p| transfer_matrix(q, p)).collect();
    // Step 2 + 3: the big system and one oracle call per row.
    let sys = big_system(&z_tables, m);
    let two_pow_n = Rational::from_ints(2, 1).pow(n as i32);
    let mut rhs = Vec::with_capacity(sys.rows.len());
    for &(p1, p2) in &sys.rows {
        let pr = match mode {
            OracleMode::FullWmc => {
                let tid = block_database(q, phi, &[p1, p2]);
                debug_assert!(tid.is_fomc_instance());
                probability(q, &tid)
            }
            OracleMode::Factorized => probability_via_factorization(
                phi,
                &[z_tables[p1 - 1].clone(), z_tables[p2 - 1].clone()],
            ),
        };
        rhs.push(&pr * &two_pow_n);
    }
    let oracle_calls = rhs.len();
    let x = sys
        .matrix
        .solve(&rhs)
        .expect("big system is singular — query is not a final Type-I query");
    // Step 4: extract integer counts.
    let mut signature_counts = BTreeMap::new();
    let mut model_count = Natural::zero();
    for (sig, value) in sys.cols.iter().zip(x.iter()) {
        let count = rational_to_count(value);
        if count.is_zero() {
            continue;
        }
        if sig.k00 == 0 {
            model_count = &model_count + &count;
        }
        signature_counts.insert(*sig, count);
    }
    ReductionOutcome {
        model_count,
        signature_counts,
        oracle_calls,
        system_dim: sys.rows.len(),
    }
}

/// Converts an exactly-recovered count to a natural number, validating that
/// it is a nonnegative integer (any deviation indicates a broken reduction).
fn rational_to_count(r: &Rational) -> Natural {
    assert!(r.denom().is_one(), "recovered count is not integral: {r}");
    assert!(
        r.numer().sign() != Sign::Negative,
        "recovered count is negative: {r}"
    );
    r.numer().into_magnitude()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signatures::signature_counts;
    use gfomc_query::catalog;

    fn check_reduction(q: &BipartiteQuery, phi: &P2Cnf, mode: OracleMode) {
        let outcome = reduce_p2cnf(q, phi, mode);
        assert_eq!(
            outcome.model_count,
            phi.count_models(),
            "model count mismatch"
        );
        assert_eq!(
            outcome.signature_counts,
            signature_counts(phi),
            "signature table mismatch"
        );
        let m = phi.n_clauses();
        assert_eq!(outcome.oracle_calls, (m + 1) * (m + 2) / 2);
    }

    #[test]
    fn single_edge_full_wmc() {
        // The smallest nontrivial instance, with the literal WMC oracle.
        let phi = P2Cnf::new(2, vec![(0, 1)]);
        check_reduction(&catalog::h1(), &phi, OracleMode::FullWmc);
    }

    #[test]
    fn single_edge_factorized() {
        let phi = P2Cnf::new(2, vec![(0, 1)]);
        check_reduction(&catalog::h1(), &phi, OracleMode::Factorized);
    }

    #[test]
    fn path_of_three_vars() {
        let phi = P2Cnf::new(3, vec![(0, 1), (1, 2)]);
        check_reduction(&catalog::h1(), &phi, OracleMode::Factorized);
    }

    #[test]
    fn triangle() {
        let phi = P2Cnf::new(3, vec![(0, 1), (1, 2), (0, 2)]);
        check_reduction(&catalog::h1(), &phi, OracleMode::Factorized);
    }

    #[test]
    fn star_graph() {
        let phi = P2Cnf::new(4, vec![(0, 1), (0, 2), (0, 3)]);
        check_reduction(&catalog::h1(), &phi, OracleMode::Factorized);
    }

    #[test]
    fn longer_query_h2() {
        // The reduction works for every final Type-I query, not just H1.
        let phi = P2Cnf::new(3, vec![(0, 1), (1, 2)]);
        check_reduction(&catalog::hk(2), &phi, OracleMode::Factorized);
    }

    #[test]
    fn longer_query_h3_single_edge() {
        let phi = P2Cnf::new(2, vec![(0, 1)]);
        check_reduction(&catalog::hk(3), &phi, OracleMode::Factorized);
    }

    #[test]
    fn empty_formula() {
        let phi = P2Cnf::new(3, vec![]);
        let outcome = reduce_p2cnf(&catalog::h1(), &phi, OracleMode::Factorized);
        assert_eq!(outcome.model_count, Natural::from(8u64));
        assert_eq!(outcome.oracle_calls, 0);
    }

    #[test]
    fn full_wmc_path_small() {
        // Full-WMC oracle on a 2-edge path: exercises real databases.
        let phi = P2Cnf::new(3, vec![(0, 1), (1, 2)]);
        check_reduction(&catalog::h1(), &phi, OracleMode::FullWmc);
    }

    #[test]
    fn four_cycle() {
        let phi = P2Cnf::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        check_reduction(&catalog::h1(), &phi, OracleMode::Factorized);
    }

    #[test]
    fn bipartite_instance() {
        // A PP2CNF embedded as P2CNF: K_{2,2} minus an edge.
        let phi = P2Cnf::new(4, vec![(0, 2), (0, 3), (1, 2)]);
        check_reduction(&catalog::h1(), &phi, OracleMode::Factorized);
    }

    #[test]
    fn five_edges() {
        let phi = P2Cnf::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        check_reduction(&catalog::h1(), &phi, OracleMode::Factorized);
    }
}
