//! Arithmetization of Boolean formulas (§1.6 of the paper).
//!
//! The *arithmetization* of a Boolean function `Y` is the unique multilinear
//! polynomial `y` agreeing with `Y` on `{0,1}ⁿ`; equivalently, `y` is the
//! probability `Pr(Y)` as a polynomial in the variable probabilities. For
//! example the lineage `Y = (R ∨ S) ∧ (S ∨ T)` has arithmetization
//! `y(r,s,t) = rt + s − rst`.
//!
//! Computed by pricing the compiled circuit of `Y` over polynomials: the
//! d-DNNF that [`gfomc_logic::Circuit::compile`] records evaluates in any
//! commutative semiring, so `Poly` is one more [`Lane`] of the flat gate
//! kernel, with each variable weighted by its own indeterminate. A
//! decision gate's variable is absent from its cofactors and product
//! children share no variables, so the result is multilinear and agrees
//! with `Y` on `{0,1}ⁿ` — the arithmetization, whatever the branching
//! order.

use crate::poly::{PVar, Poly};
use gfomc_logic::{Circuit, Cnf, Lane};

/// Computes the arithmetization of a monotone CNF. Variable `Var(i)` of the
/// formula becomes polynomial variable `PVar(i)`.
pub fn arithmetize(f: &Cnf) -> Poly {
    let flat = Circuit::compile(f).flatten();
    let weights: Vec<Poly> = flat.vars().iter().map(|v| Poly::var(PVar(v.0))).collect();
    let mut values = Vec::new();
    flat.forward(&weights, &mut values);
    values.swap_remove(flat.root() as usize)
}

/// Polynomials as a gate-kernel lane: a variable's weight is its own
/// indeterminate, and a Product stops at its first zero factor.
impl Lane for Poly {
    type Weight = Poly;

    fn constant(one: bool) -> Self {
        if one {
            Poly::one()
        } else {
            Poly::zero()
        }
    }

    fn leaf(w: &Poly) -> Self {
        w.clone()
    }

    fn times(&self, kid: &Self) -> Self {
        self * kid
    }

    fn absorbing(&self) -> bool {
        self.is_zero()
    }

    fn decide(w: &Poly, hi: &Self, lo: &Self) -> Self {
        &(w * hi) + &(&(&Poly::one() - w) * lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_arith::Rational;
    use gfomc_logic::{wmc_brute_force, Clause, UniformWeight, Var};

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    #[test]
    fn constants() {
        assert_eq!(arithmetize(&Cnf::top()), Poly::one());
        assert_eq!(arithmetize(&Cnf::bottom()), Poly::zero());
    }

    #[test]
    fn single_variable() {
        let f = Cnf::literal(Var(3));
        assert_eq!(arithmetize(&f), Poly::var(PVar(3)));
    }

    #[test]
    fn paper_intro_example() {
        // Y = (R ∨ S) ∧ (S ∨ T) with R=x0, S=x1, T=x2:
        // y = rt + s − rst.
        let f = Cnf::new([cl(&[0, 1]), cl(&[1, 2])]);
        let y = arithmetize(&f);
        let (r_, s, t) = (Poly::var(PVar(0)), Poly::var(PVar(1)), Poly::var(PVar(2)));
        let expect = &(&(&r_ * &t) + &s) - &(&(&r_ * &s) * &t);
        assert_eq!(y, expect);
        // And Pr at all-½ is 5/8 as in the paper.
        let vals = [(PVar(0), r(1, 2)), (PVar(1), r(1, 2)), (PVar(2), r(1, 2))]
            .into_iter()
            .collect();
        assert_eq!(y.eval(&vals), r(5, 8));
    }

    #[test]
    fn always_multilinear() {
        let f = Cnf::new([cl(&[0, 1, 2]), cl(&[1, 3]), cl(&[2, 3])]);
        assert!(arithmetize(&f).is_multilinear());
    }

    #[test]
    fn agrees_with_wmc_at_uniform_point() {
        let formulas = [
            Cnf::new([cl(&[0, 1]), cl(&[1, 2]), cl(&[2, 3])]),
            Cnf::new([cl(&[0]), cl(&[1, 2])]),
            Cnf::new([cl(&[0, 1, 2, 3])]),
        ];
        for f in &formulas {
            let w = UniformWeight(r(1, 3));
            let vals = f.vars().into_iter().map(|v| (PVar(v.0), r(1, 3))).collect();
            assert_eq!(arithmetize(f).eval(&vals), wmc_brute_force(f, &w), "{f:?}");
        }
    }

    #[test]
    fn boolean_points_agree_with_eval() {
        let f = Cnf::new([cl(&[0, 1]), cl(&[1, 2])]);
        let y = arithmetize(&f);
        for mask in 0u32..8 {
            let tv: std::collections::BTreeSet<Var> =
                (0..3).filter(|i| mask >> i & 1 == 1).map(Var).collect();
            let vals = (0..3)
                .map(|i| {
                    (
                        PVar(i),
                        if mask >> i & 1 == 1 {
                            Rational::one()
                        } else {
                            Rational::zero()
                        },
                    )
                })
                .collect();
            let expected = if f.eval(&tv) {
                Rational::one()
            } else {
                Rational::zero()
            };
            assert_eq!(y.eval(&vals), expected);
        }
    }

    #[test]
    fn disconnected_formula_factorizes() {
        // (x0 ∨ x1) ∧ (x2 ∨ x3): arithmetization is a product.
        let f = Cnf::new([cl(&[0, 1]), cl(&[2, 3])]);
        let y = arithmetize(&f);
        let a = arithmetize(&Cnf::new([cl(&[0, 1])]));
        let b = arithmetize(&Cnf::new([cl(&[2, 3])]));
        assert_eq!(y, &a * &b);
    }
}
