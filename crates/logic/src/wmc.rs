//! Exact weighted model counting (WMC) for monotone CNFs.
//!
//! `wmc(F, w)` computes `Pr(F)` when every variable `v` is independently true
//! with probability `w(v)`. This is the oracle used throughout the paper's
//! reductions: the probability of a ∀CNF query over a TID is the WMC of its
//! lineage under the tuple probabilities.
//!
//! The algorithm is Shannon expansion with two standard optimizations that
//! make it fast on the paper's block databases:
//!
//! 1. **Component decomposition** — variable-disjoint components are
//!    independent, so their probabilities multiply (this is exactly why the
//!    block construction of §3.1 factorizes, Theorem 3.4);
//! 2. **Memoization** — cofactors are cached per canonical CNF.
//!
//! Zero/one-probability variables are eliminated up front, matching the
//! paper's convention that "tuples with probability 1 are always present,
//! probability 0 absent".

use crate::cnf::{Cnf, Var};
use crate::intern::{CnfId, CnfInterner};
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

/// Ablation switches for the WMC engine. The defaults enable both
/// optimizations; turning one off changes the cost, never the answer.
#[derive(Clone, Copy, Debug)]
pub struct WmcConfig {
    /// Split variable-disjoint components and multiply their probabilities
    /// (the engine-level counterpart of Theorem 3.4's factorization).
    pub use_components: bool,
    /// Cache cofactor probabilities per canonical CNF.
    pub use_memo: bool,
}

impl Default for WmcConfig {
    fn default() -> Self {
        WmcConfig {
            use_components: true,
            use_memo: true,
        }
    }
}

/// Weighted model counter with a memo cache that persists across queries
/// (sound only while the weight function is unchanged).
///
/// Cofactors are interned once into a [`CnfInterner`] and the memo is
/// keyed by the resulting dense [`CnfId`] — one hash of the clause set per
/// distinct cofactor, instead of re-hashing (and cloning) the full formula
/// on every cache probe. (The circuit compiler keys its memo by the
/// bitset rows of [`crate::cofactor::BitCnf`] instead.)
pub struct ModelCounter<'w, W: WeightFn> {
    weights: &'w W,
    interner: CnfInterner,
    cache: HashMap<CnfId, Rational>,
    config: WmcConfig,
    /// Number of Shannon branchings performed (for instrumentation).
    pub branch_count: u64,
}

impl<'w, W: WeightFn> ModelCounter<'w, W> {
    /// Creates a counter over the given weight function.
    pub fn new(weights: &'w W) -> Self {
        Self::with_config(weights, WmcConfig::default())
    }

    /// Creates a counter with explicit ablation switches.
    pub fn with_config(weights: &'w W, config: WmcConfig) -> Self {
        ModelCounter {
            weights,
            interner: CnfInterner::new(),
            cache: HashMap::new(),
            config,
            branch_count: 0,
        }
    }

    /// Computes `Pr(f)` under the counter's weights.
    pub fn probability(&mut self, f: &Cnf) -> Rational {
        // Eliminate deterministic variables first so that the cache key is a
        // purely probabilistic formula. Restriction never introduces new
        // variables, so one sweep over the support suffices.
        let det: Vec<(Var, bool)> = f
            .vars()
            .into_iter()
            .filter_map(|v| {
                let w = self.weights.weight(v);
                if w.is_zero() {
                    Some((v, false))
                } else if w.is_one() {
                    Some((v, true))
                } else {
                    None
                }
            })
            .collect();
        if det.is_empty() {
            self.prob_rec(f)
        } else {
            self.prob_rec(&f.restrict_all(&det))
        }
    }

    fn prob_rec(&mut self, f: &Cnf) -> Rational {
        if f.is_true() {
            return Rational::one();
        }
        if f.is_false() {
            return Rational::zero();
        }
        let key = if self.config.use_memo {
            let id = self.interner.intern(f);
            if let Some(hit) = self.cache.get(&id) {
                return hit.clone();
            }
            Some(id)
        } else {
            None
        };
        let comps = if self.config.use_components {
            f.components()
        } else {
            vec![f.clone()]
        };
        let result = if comps.len() > 1 {
            let mut acc = Rational::one();
            for c in comps {
                acc = &acc * &self.prob_rec(&c);
                if acc.is_zero() {
                    break;
                }
            }
            acc
        } else {
            // Branch on the most frequent variable to maximize simplification.
            let v = f
                .branching_var()
                .expect("non-constant formula has variables");
            self.branch_count += 1;
            let p = self.weights.weight(v);
            assert!(p.is_probability(), "weight out of [0,1] for {v:?}");
            let hi = self.prob_rec(&f.restrict(v, true));
            let lo = self.prob_rec(&f.restrict(v, false));
            &(&p * &hi) + &(&p.complement() * &lo)
        };
        if let Some(id) = key {
            self.cache.insert(id, result.clone());
        }
        result
    }
}

/// One-shot `Pr(f)` under `weights`.
pub fn wmc<W: WeightFn>(f: &Cnf, weights: &W) -> Rational {
    ModelCounter::new(weights).probability(f)
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

/// Counts satisfying assignments over exactly the variable set `vars`
/// (unweighted #SAT relative to a chosen support).
pub fn count_models(f: &Cnf, vars: &[Var]) -> u64 {
    assert!(vars.len() <= 30, "model counting limited to 30 variables");
    let mut count = 0u64;
    for mask in 0u64..(1u64 << vars.len()) {
        let tv: BTreeSet<Var> = vars
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, &v)| v)
            .collect();
        if f.eval(&tv) {
            count += 1;
        }
    }
    count
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
    fn count_models_pp2cnf() {
        // (x1 ∨ y1): 3 of 4 assignments satisfy.
        let f = Cnf::new([cl(&[1, 2])]);
        assert_eq!(count_models(&f, &[Var(1), Var(2)]), 3);
        // Over a larger support the count scales by 2^extra.
        assert_eq!(count_models(&f, &[Var(1), Var(2), Var(3)]), 6);
    }

    #[test]
    fn counter_reuse_is_consistent() {
        let w = half();
        let mut mc = ModelCounter::new(&w);
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let p1 = mc.probability(&f);
        let p2 = mc.probability(&f);
        assert_eq!(p1, p2);
        assert_eq!(p1, r(5, 8));
    }

    #[test]
    fn ablation_configs_agree() {
        // All four on/off combinations compute the same probability.
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[4, 5]), cl(&[3, 4])]);
        let w = half();
        let expect = wmc_brute_force(&f, &w);
        for use_components in [false, true] {
            for use_memo in [false, true] {
                let cfg = WmcConfig {
                    use_components,
                    use_memo,
                };
                let mut mc = ModelCounter::with_config(&w, cfg);
                assert_eq!(mc.probability(&f), expect, "{cfg:?}");
            }
        }
    }

    #[test]
    fn components_reduce_branching() {
        // Two disjoint chains: with components the branch count is the sum,
        // without it is multiplicative.
        let clauses: Vec<Clause> = (0..5)
            .map(|i| cl(&[i, i + 1]))
            .chain((10..15).map(|i| cl(&[i, i + 1])))
            .collect();
        let f = Cnf::new(clauses);
        let w = half();
        let mut with = ModelCounter::with_config(
            &w,
            WmcConfig {
                use_components: true,
                use_memo: false,
            },
        );
        let mut without = ModelCounter::with_config(
            &w,
            WmcConfig {
                use_components: false,
                use_memo: false,
            },
        );
        let a = with.probability(&f);
        let b = without.probability(&f);
        assert_eq!(a, b);
        assert!(with.branch_count < without.branch_count);
    }

    #[test]
    fn long_path_formula() {
        // Chain (x0∨x1)(x1∨x2)...(x9∨x10): compare against brute force.
        let clauses: Vec<Clause> = (0..10).map(|i| cl(&[i, i + 1])).collect();
        let f = Cnf::new(clauses);
        assert_eq!(wmc(&f, &half()), wmc_brute_force(&f, &half()));
    }
}
