//! Lemma 1.1: non-root assignments for low-degree polynomials.
//!
//! If `f(x₁,…,x_n) ≢ 0` has degree ≤ 2 in every variable, then for any three
//! distinct constants `c₁, c₂, c₃` there is an assignment with values among
//! them on which `f` does not vanish. This is the paper's sole source of
//! probability values: it lets every probability used by the hardness proof
//! be chosen from `{0, ½, 1}` (or `{0, c, 1}` for any fixed `c ∈ (0,1)`).
//!
//! The constructive proof *is* the algorithm: writing `f = g·x² + h·x + k`,
//! a degree-2 polynomial in `x` vanishes identically for at most two of the
//! three candidate substitutions, so a non-vanishing branch always exists.

use gfomc_arith::Rational;
use gfomc_poly::{PVar, Poly};
use std::collections::BTreeMap;

/// Finds an assignment `θ : Vars(f) → {c₁, c₂, c₃}` with `f[θ] ≠ 0`.
/// Requires `f ≢ 0`, degree ≤ 2 in every variable, and distinct constants.
/// The existence is Lemma 1.1; this function also *returns* the witness.
pub fn nonroot_assignment(f: &Poly, candidates: &[Rational; 3]) -> BTreeMap<PVar, Rational> {
    assert!(!f.is_zero(), "Lemma 1.1 requires f ≢ 0");
    assert!(
        candidates[0] != candidates[1]
            && candidates[0] != candidates[2]
            && candidates[1] != candidates[2],
        "candidates must be distinct"
    );
    let mut assignment = BTreeMap::new();
    let mut current = f.clone();
    while let Some(&v) = current.vars().iter().next() {
        assert!(
            current.degree_in(v) <= 2,
            "Lemma 1.1 requires degree ≤ 2 in every variable"
        );
        let mut found = false;
        for c in candidates {
            let restricted = current.substitute(v, c);
            if !restricted.is_zero() {
                assignment.insert(v, c.clone());
                current = restricted;
                found = true;
                break;
            }
        }
        // A univariate degree-≤2 slice vanishing at three distinct points is
        // identically zero, contradicting `current ≢ 0`.
        assert!(found, "degree-2 polynomial vanished at 3 distinct points");
    }
    debug_assert!(!current.is_zero());
    // Variables can drop out when a substitution cancels all their terms;
    // their values are then irrelevant — complete the assignment so the
    // witness covers all of Vars(f).
    for v in f.vars() {
        assignment.entry(v).or_insert_with(|| candidates[0].clone());
    }
    assignment
}

/// The paper's standard candidate set `{0, ½, 1}`.
pub fn gfomc_candidates() -> [Rational; 3] {
    [Rational::zero(), Rational::one_half(), Rational::one()]
}

/// Convenience: a witness with values in `{0, ½, 1}` plus the verified
/// nonzero value `f[θ]`.
pub fn gfomc_nonroot(f: &Poly) -> (BTreeMap<PVar, Rational>, Rational) {
    let theta = nonroot_assignment(f, &gfomc_candidates());
    let value = f.eval(&theta);
    assert!(!value.is_zero());
    (theta, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u32) -> Poly {
        Poly::var(PVar(i))
    }

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    #[test]
    fn single_variable_with_two_roots() {
        // f = x(1-x) vanishes at 0 and 1 but not at ½.
        let f = &x(0) * &(&Poly::one() - &x(0));
        let (theta, value) = gfomc_nonroot(&f);
        assert_eq!(theta[&PVar(0)], r(1, 2));
        assert_eq!(value, r(1, 4));
    }

    #[test]
    fn multivariate_product_form() {
        // f = ∏_i x_i(1-x_i) — the shape of Corollary 3.18's f_A.
        for n in [2u32, 4, 8] {
            let mut f = Poly::one();
            for i in 0..n {
                f = &f * &(&x(i) * &(&Poly::one() - &x(i)));
            }
            let (theta, value) = gfomc_nonroot(&f);
            for i in 0..n {
                assert_eq!(theta[&PVar(i)], r(1, 2), "n={n}");
            }
            assert_eq!(value, r(1, 4).pow(n as i32), "n={n}");
        }
    }

    #[test]
    fn polynomial_vanishing_at_half() {
        // f = (2x - 1): vanishes at ½, not at 0 or 1.
        let f = &x(0).scale(&r(2, 1)) - &Poly::one();
        let (theta, value) = gfomc_nonroot(&f);
        assert!(theta[&PVar(0)] == Rational::zero() || theta[&PVar(0)].is_one());
        assert!(!value.is_zero());
    }

    #[test]
    fn constant_polynomial_needs_no_assignment() {
        let f = Poly::constant(r(7, 3));
        let (theta, value) = gfomc_nonroot(&f);
        assert!(theta.is_empty());
        assert_eq!(value, r(7, 3));
    }

    #[test]
    #[should_panic]
    fn zero_polynomial_rejected() {
        let _ = gfomc_nonroot(&Poly::zero());
    }

    #[test]
    #[should_panic]
    fn degree_three_rejected() {
        let f = &(&x(0) * &x(0)) * &x(0);
        let _ = gfomc_nonroot(&f);
    }

    #[test]
    fn works_with_alternative_constants() {
        // Theorem 2.2's final claim: any {0, c, 1} works. Use c = 1/3.
        let f = &x(0) * &(&Poly::one() - &x(0));
        let theta = nonroot_assignment(&f, &[Rational::zero(), r(1, 3), Rational::one()]);
        assert_eq!(f.eval(&theta), r(2, 9));
    }

    #[test]
    fn randomized_degree_two_polynomials() {
        // Deterministic pseudo-random family: f = Σ coefficients x_i x_j +
        // quadratic terms; verify the witness on many instances.
        let mut seed = 0x12345u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % 7) as i64 - 3
        };
        for _ in 0..50 {
            let mut f = Poly::zero();
            for i in 0..3u32 {
                for j in 0..3u32 {
                    let c = next();
                    if c != 0 {
                        f = &f + &(&x(i) * &x(j)).scale(&Rational::from(c));
                    }
                }
            }
            if f.is_zero() {
                continue;
            }
            let (theta, value) = gfomc_nonroot(&f);
            assert_eq!(f.eval(&theta), value);
            assert!(!value.is_zero());
        }
    }
}
