//! Exact weighted model counting (WMC) for monotone CNFs.
//!
//! `wmc(F, w)` computes `Pr(F)` when every variable `v` is independently true
//! with probability `w(v)`. This is the oracle used throughout the paper's
//! reductions: the probability of a ∀CNF query over a TID is the WMC of its
//! lineage under the tuple probabilities.
//!
//! There is one Shannon descent in the workspace, the circuit compiler's
//! ([`crate::circuit`]): component decomposition becomes a product gate
//! (exactly why the block construction of §3.1 factorizes, Theorem 3.4),
//! a Shannon split a decision gate, and cofactors are memoized. [`wmc`]
//! compiles and evaluates once; callers that price one formula under many
//! weightings keep the circuit instead. [`wmc_brute_force`] enumerates
//! assignments and shares no code with the descent, so it is the
//! independent oracle the suites check against.

use crate::circuit::Circuit;
use crate::cnf::{Cnf, Var};
use gfomc_arith::Rational;
use std::collections::{BTreeSet, HashMap};

/// Assigns a probability (weight of the positive literal) to each variable.
pub trait WeightFn {
    /// Probability that `v` is true. Must be in `[0, 1]`.
    fn weight(&self, v: Var) -> Rational;
}

impl WeightFn for HashMap<Var, Rational> {
    fn weight(&self, v: Var) -> Rational {
        self.get(&v)
            .unwrap_or_else(|| panic!("no weight for variable {v:?}"))
            .clone()
    }
}

/// A constant weight for every variable (e.g. the all-½ point used
/// throughout §3 of the paper).
pub struct UniformWeight(pub Rational);

impl WeightFn for UniformWeight {
    fn weight(&self, _v: Var) -> Rational {
        self.0.clone()
    }
}

/// Adapts a closure `Var → Rational` into a [`WeightFn`] — handy for
/// weight functions derived on the fly (tuple probabilities, endpoint
/// overrides) without materializing a map.
pub struct WeightsFromFn<F>(pub F);

impl<F: Fn(Var) -> Rational> WeightFn for WeightsFromFn<F> {
    fn weight(&self, v: Var) -> Rational {
        (self.0)(v)
    }
}

/// One-shot `Pr(f)` under `weights`: compiles `f` ([`Circuit::compile`])
/// and evaluates the circuit once.
pub fn wmc<W: WeightFn>(f: &Cnf, weights: &W) -> Rational {
    Circuit::compile(f).evaluate(weights)
}

/// Brute-force `Pr(f)` by enumerating all assignments over the support.
/// Exponential; ground truth for tests.
pub fn wmc_brute_force<W: WeightFn>(f: &Cnf, weights: &W) -> Rational {
    let vars: Vec<Var> = f.vars().into_iter().collect();
    assert!(vars.len() <= 24, "brute force limited to 24 variables");
    let mut total = Rational::zero();
    for mask in 0u64..(1u64 << vars.len()) {
        let mut tv = BTreeSet::new();
        let mut weight = Rational::one();
        for (i, &v) in vars.iter().enumerate() {
            let p = weights.weight(v);
            if mask >> i & 1 == 1 {
                tv.insert(v);
                weight = &weight * &p;
            } else {
                weight = &weight * &p.complement();
            }
        }
        if f.eval(&tv) {
            total = &total + &weight;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Clause;

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    fn half() -> UniformWeight {
        UniformWeight(Rational::one_half())
    }

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    #[test]
    fn constants() {
        assert_eq!(wmc(&Cnf::top(), &half()), Rational::one());
        assert_eq!(wmc(&Cnf::bottom(), &half()), Rational::zero());
    }

    #[test]
    fn single_literal() {
        let f = Cnf::literal(Var(1));
        assert_eq!(wmc(&f, &half()), r(1, 2));
        assert_eq!(wmc(&f, &UniformWeight(r(1, 3))), r(1, 3));
    }

    #[test]
    fn disjunction_inclusion_exclusion() {
        // Pr(x ∨ y) = 1 - (1-p)(1-q); at p=q=1/2 this is 3/4.
        let f = Cnf::new([cl(&[1, 2])]);
        assert_eq!(wmc(&f, &half()), r(3, 4));
    }

    #[test]
    fn independent_conjunction() {
        // Pr(x ∧ y) = 1/4.
        let f = Cnf::new([cl(&[1]), cl(&[2])]);
        assert_eq!(wmc(&f, &half()), r(1, 4));
    }

    #[test]
    fn paper_example_intro() {
        // §1.6: Y = (R ∨ S) ∧ (S ∨ T); Pr at all-½ is 5/8.
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        assert_eq!(wmc(&f, &half()), r(5, 8));
    }

    #[test]
    fn zero_and_one_weights_eliminate() {
        // R has prob 1, S prob 0: (R∨S)∧(S∨T) = T.
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let mut w = HashMap::new();
        w.insert(Var(1), Rational::one());
        w.insert(Var(2), Rational::zero());
        w.insert(Var(3), r(1, 3));
        assert_eq!(wmc(&f, &w), r(1, 3));
    }

    #[test]
    fn matches_brute_force_on_fixed_formulas() {
        let formulas = [
            Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4])]),
            Cnf::new([cl(&[1, 2, 3]), cl(&[2, 4]), cl(&[1, 4])]),
            Cnf::new([cl(&[1]), cl(&[2, 3]), cl(&[4, 5, 6])]),
            Cnf::new([cl(&[1, 2]), cl(&[3, 4]), cl(&[5, 6]), cl(&[1, 6])]),
        ];
        for f in &formulas {
            assert_eq!(wmc(f, &half()), wmc_brute_force(f, &half()), "{f:?}");
            let w = UniformWeight(r(1, 3));
            assert_eq!(wmc(f, &w), wmc_brute_force(f, &w), "{f:?}");
        }
    }

    #[test]
    fn component_decomposition_is_product() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[3, 4])]);
        let a = Cnf::new([cl(&[1, 2])]);
        let b = Cnf::new([cl(&[3, 4])]);
        let w = half();
        assert_eq!(wmc(&f, &w), &wmc(&a, &w) * &wmc(&b, &w));
    }

    #[test]
    fn long_path_formula() {
        // Chain (x0∨x1)(x1∨x2)...(x9∨x10): compare against brute force.
        let clauses: Vec<Clause> = (0..10).map(|i| cl(&[i, i + 1])).collect();
        let f = Cnf::new(clauses);
        assert_eq!(wmc(&f, &half()), wmc_brute_force(&f, &half()));
    }
}
