//! # gfomc-approx
//!
//! Approximate inference for the **unsafe** side of the dichotomy: a
//! Karp–Luby importance sampler over the complement-DNF of a query lineage,
//! with (ε, δ) guarantees, conservative confidence intervals, and
//! bit-reproducible estimates under a fixed seed.
//!
//! The exact stack (lifted evaluation for safe queries, compiled WMC
//! circuits for everything else) answers every query — but on the unsafe
//! side its cost can grow exponentially with the lineage, which is exactly
//! what the #P-hardness theorems predict. This crate closes the gap: query
//! probability over a TID is the weighted count of a monotone DNF union
//! (via De Morgan on the lineage CNF), and DNF counting admits an FPRAS
//! (Karp–Luby–Madras). The result is a third evaluation regime —
//! randomized, budgeted, anytime — that the `gfomc-engine` router
//! dispatches to when the dichotomy verdict and circuit-size estimate rule
//! out the exact paths.
//!
//! ```
//! use gfomc_approx::lineage_sampler;
//! use gfomc_arith::Rational;
//! use gfomc_query::catalog;
//! use gfomc_tid::{probability, Tid, Tuple};
//!
//! // H1 is unsafe — exact evaluation is #P-hard in general…
//! let q = catalog::h1();
//! let mut tid = Tid::all_present([0, 1], [10]);
//! for u in [0u32, 1] {
//!     tid.set_prob(Tuple::R(u), Rational::one_half());
//!     tid.set_prob(Tuple::S(0, u, 10), Rational::one_half());
//! }
//! tid.set_prob(Tuple::T(10), Rational::one_half());
//!
//! // …but the sampler brackets Pr(Q) with a 95% confidence interval:
//! // 2 000 draws of the chunk-seeded plan for seed 42, on one thread.
//! let sampler = lineage_sampler(&q, &tid);
//! let est = sampler.estimate_seeded(42, 2_000, 0.05, 1);
//! assert!(est.ci.contains(&probability(&q, &tid)));
//! ```
//!
//! The sampler's point estimate is computed in **exact rational
//! arithmetic** (the Karp–Luby indicator is 0/1-valued); only the
//! Hoeffding interval half-width touches floating point, and it is rounded
//! outward so reported coverage is never optimistic. Property suites check
//! empirical CI coverage against [`gfomc_logic::wmc_brute_force`] ground
//! truth at fixed seeds.
//!
//! Every draw follows one **chunk-seeded sampling plan**, and neither entry
//! point gives up determinism:
//!
//! * [`CnfSampler::estimate_seeded`] draws a fixed budget across worker
//!   threads — the estimate is a pure function of `(seed, samples)`,
//!   bit-identical for every thread count;
//! * [`CnfSampler::estimate_adaptive`] replaces the fixed worst-case
//!   budget with **empirical-Bernstein stopping rounds** ([`adaptive`](crate::AdaptiveConfig))
//!   over the same plan: it never draws more than the fixed
//!   Karp–Luby–Madras budget and exits as soon as the outward-rounded
//!   interval meets the accuracy target.

mod adaptive;
mod estimate;
mod sampler;

pub use adaptive::{AdaptiveConfig, AdaptiveEstimate};
pub use estimate::{ConfidenceInterval, Estimate};
pub use sampler::{samples_drawn_total, CnfSampler, KarpLuby, SAMPLE_CHUNK};

use gfomc_logic::Dnf;
use gfomc_query::BipartiteQuery;
use gfomc_tid::{lineage, Tid, VarTable};

/// The monotone complement-DNF of the lineage `Φ_∆(Q)` together with the
/// tuple ↔ variable table: one term per falsifiable ground clause, read
/// over complemented variables (see [`gfomc_logic::dnf`]).
pub fn lineage_dnf(q: &BipartiteQuery, tid: &Tid) -> (Dnf, VarTable) {
    let lin = lineage(q, tid);
    (Dnf::complement_of(&lin.cnf), lin.vars)
}

/// A prepared [`CnfSampler`] over the lineage of `q` on `tid`, weighted by
/// the database's own tuple probabilities.
pub fn lineage_sampler(q: &BipartiteQuery, tid: &Tid) -> CnfSampler {
    let lin = lineage(q, tid);
    CnfSampler::new(&lin.cnf, lin.vars.weights())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_arith::Rational;
    use gfomc_query::catalog;
    use gfomc_tid::{probability, Tuple};

    fn small_tid(q: &BipartiteQuery) -> Tid {
        let mut tid = Tid::all_present([0, 1], [10]);
        for u in [0u32, 1] {
            tid.set_prob(Tuple::R(u), Rational::one_half());
            for s in q.binary_symbols() {
                tid.set_prob(Tuple::S(s, u, 10), Rational::one_half());
            }
        }
        tid.set_prob(Tuple::T(10), Rational::one_half());
        tid
    }

    #[test]
    fn lineage_dnf_mirrors_lineage_clauses() {
        let q = catalog::h1();
        let tid = small_tid(&q);
        let (d, vars) = lineage_dnf(&q, &tid);
        let lin = gfomc_tid::lineage(&q, &tid);
        assert_eq!(d.len(), lin.cnf.len());
        assert_eq!(vars.len(), lin.vars.len());
    }

    #[test]
    fn lineage_sampler_brackets_exact_h1() {
        let q = catalog::h1();
        let tid = small_tid(&q);
        let exact = probability(&q, &tid);
        let est = lineage_sampler(&q, &tid).estimate_seeded(0xA99C, 2_000, 0.05, 1);
        assert!(est.ci.contains(&exact), "{est:?} vs {exact}");
        assert_eq!(est.samples, 2_000);
    }

    #[test]
    fn lineage_sampler_is_seed_deterministic() {
        let q = catalog::hk(2);
        let tid = small_tid(&q);
        let a = lineage_sampler(&q, &tid).estimate_seeded(7, 300, 0.05, 1);
        let b = lineage_sampler(&q, &tid).estimate_seeded(7, 300, 0.05, 1);
        assert_eq!(a, b);
    }
}
