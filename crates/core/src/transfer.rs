//! The 2×2 transfer matrix `A(p)` of the path block (§3.3).
//!
//! `z_ab(p)` is the probability of the block lineage `Y^{(p)}(u,v)` with the
//! endpoint tuples fixed to `R(u) := a`, `R(v) := b` and every other tuple
//! at ½ (Eq. (20)). The central recurrence is Lemma 3.19:
//!
//! ```text
//! A(p) = [[z00(p), z01(p)], [z10(p), z11(p)]] = A(1)^p / 2^{p-1}
//! ```
//!
//! and Proposition 3.20 pins the qualitative shape: `z00 < z01 = z10 < z11`
//! with all entries in `(0, 1]`.

use crate::block::{path_block, ConstAlloc};
use gfomc_arith::Rational;
use gfomc_linalg::Matrix;
use gfomc_logic::{Circuit, EvalArena, Var, WeightsFromFn};
use gfomc_query::BipartiteQuery;
use gfomc_tid::{lineage, Tuple};

/// Computes `A(p)` for a Type-I query: the block lineage of `B_p(u,v)` is
/// compiled **once**, then each of the four endpoint settings of Eq. (20)
/// is one forward pass over the flattened circuit, with `R(u)`, `R(v)`
/// forced to 0/1 (the Shannon gates degenerate to the forced branch
/// arithmetically).
pub fn transfer_matrix(q: &BipartiteQuery, p: usize) -> Matrix<Rational> {
    let mut alloc = ConstAlloc::new(2, 0);
    let tid = path_block(q, 0, 1, p, &mut alloc);
    let lin = lineage(q, &tid);
    let var_u = lin
        .vars
        .lookup(&Tuple::R(0))
        .expect("R(u) must appear in a Type-I block lineage");
    let var_v = lin
        .vars
        .lookup(&Tuple::R(1))
        .expect("R(v) must appear in a Type-I block lineage");
    let flat = Circuit::compile(&lin.cnf).flatten();
    let endpoint = |on: bool| {
        if on {
            Rational::one()
        } else {
            Rational::zero()
        }
    };
    // Row-major z00, z01, z10, z11: one forward pass per endpoint setting
    // (a, b), all over one arena.
    let mut arena = EvalArena::new();
    let [z00, z01, z10, z11] =
        [(false, false), (false, true), (true, false), (true, true)].map(|(a, b)| {
            let w = WeightsFromFn(|v: Var| {
                if v == var_u {
                    endpoint(a)
                } else if v == var_v {
                    endpoint(b)
                } else {
                    lin.vars.weight(v).clone()
                }
            });
            flat.eval_exact_with(&w, &mut arena)
        });
    Matrix::from_rows(vec![vec![z00, z01], vec![z10, z11]])
}

/// Checks Lemma 3.19 for a given `p`: `A(p) · 2^{p-1} = A(1)^p`.
pub fn lemma_3_19_holds(q: &BipartiteQuery, p: usize) -> bool {
    let a1 = transfer_matrix(q, 1);
    let ap = transfer_matrix(q, p);
    let scale = Rational::from_ints(2, 1).pow(p as i32 - 1);
    ap.scale(&scale) == a1.pow(p as u32)
}

/// Checks Proposition 3.20 on `A(1)`:
/// `0 < z00 < z01 = z10 < z11 ≤ 1`.
pub fn proposition_3_20_holds(a1: &Matrix<Rational>) -> bool {
    let (z00, z01, z10, z11) = (a1.get(0, 0), a1.get(0, 1), a1.get(1, 0), a1.get(1, 1));
    z00.is_positive() && z01 == z10 && z00 < z01 && z01 < z11 && *z11 <= Rational::one()
}

/// `det A(1)` — nonzero for final Type-I queries by Theorem 3.16.
pub fn small_matrix_determinant(q: &BipartiteQuery) -> Rational {
    transfer_matrix(q, 1).det()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_query::catalog;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    #[test]
    fn h1_transfer_matrix_entries() {
        // H1 = (R∨S)(S∨T); block p=1 is u−t1−v.
        // Y(1) = (R(u)∨S(u,t))(S(u,t)∨T(t))(R(v)∨S(v,t))(S(v,t)∨T(t)).
        // z11 (both R true): Pr[(S_u∨T)(S_v∨T)] = Pr(T) + Pr(¬T)Pr(S_u)Pr(S_v)
        //   = 1/2 + 1/2·1/4 = 5/8.
        // z00: Pr[S_u ∧ S_v] = 1/4.
        // z10 = z01: Pr[S_v ∧ (S_u ∨ T)] = 1/2 · 3/4 = 3/8.
        let a1 = transfer_matrix(&catalog::h1(), 1);
        assert_eq!(*a1.get(0, 0), r(1, 4));
        assert_eq!(*a1.get(0, 1), r(3, 8));
        assert_eq!(*a1.get(1, 0), r(3, 8));
        assert_eq!(*a1.get(1, 1), r(5, 8));
    }

    #[test]
    fn lemma_3_19_on_catalog() {
        for (name, q) in [
            ("h1", catalog::h1()),
            ("h2", catalog::hk(2)),
            ("h3", catalog::hk(3)),
        ] {
            for p in 1..=4 {
                assert!(lemma_3_19_holds(&q, p), "{name}, p={p}");
            }
        }
    }

    #[test]
    fn proposition_3_20_on_catalog() {
        for (name, q) in [
            ("h1", catalog::h1()),
            ("h2", catalog::hk(2)),
            ("h3", catalog::hk(3)),
            ("type_i_braided", catalog::type_i_braided()),
        ] {
            let a1 = transfer_matrix(&q, 1);
            assert!(proposition_3_20_holds(&a1), "{name}: {a1}");
        }
    }

    #[test]
    fn small_matrix_nonsingular_for_final_queries() {
        // Theorem 3.16 instantiated at the all-½ point.
        for (name, q) in [
            ("h1", catalog::h1()),
            ("h2", catalog::hk(2)),
            ("h3", catalog::hk(3)),
        ] {
            assert!(
                !small_matrix_determinant(&q).is_zero(),
                "det A(1) = 0 for final query {name}"
            );
        }
    }

    #[test]
    fn transfer_entries_are_probabilities() {
        let a3 = transfer_matrix(&catalog::hk(2), 3);
        for i in 0..2 {
            for j in 0..2 {
                assert!(a3.get(i, j).is_probability());
            }
        }
    }

    #[test]
    fn symmetry_of_blocks() {
        // Symmetric blocks: z01 = z10 for every p (the reduction relies on
        // this to merge k01 + k10).
        for p in 1..=3 {
            let a = transfer_matrix(&catalog::hk(2), p);
            assert_eq!(a.get(0, 1), a.get(1, 0), "p={p}");
        }
    }
}
