//! Statistical acceptance suite for the Karp–Luby sampler.
//!
//! Two kinds of guarantees are checked, both at **fixed seeds** so the
//! suite is deterministic (it either always passes or always fails — no
//! flaky CI):
//!
//! * *empirical CI coverage*: over 100 random (formula, weights) instances
//!   the 95%-confidence interval must contain the brute-force probability
//!   at least 95 times. The Hoeffding interval is conservative, so the
//!   observed coverage sits well above the nominal level — but the assert
//!   pins exactly the advertised bar;
//! * *reproducibility*: a fixed seed yields a bit-identical [`Estimate`],
//!   and the estimate is exact-rational-arithmetic all the way through.
//!
//! Every estimate is drawn through the chunk-seeded plan the engine's
//! sampled route runs ([`CnfSampler::estimate_seeded`]).

use gfomc_approx::{CnfSampler, Estimate};
use gfomc_arith::Rational;
use gfomc_logic::{wmc_brute_force, Clause, Cnf, Var};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;

/// A random monotone CNF over ≤ `max_vars` variables with ≤ `max_clauses`
/// clauses, plus strictly-interior random weights — the same shape the
/// logic-crate property suites use, but driven by an explicit seed.
fn random_instance(seed: u64, max_vars: u32, max_clauses: usize) -> (Cnf, HashMap<Var, Rational>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_clauses = rng.gen_range(1..=max_clauses);
    let cnf = Cnf::new((0..n_clauses).map(|_| {
        let len = rng.gen_range(1..=3usize);
        Clause::new((0..len).map(|_| Var(rng.gen_range(0..max_vars))))
    }));
    let weights: HashMap<Var, Rational> = (0..max_vars)
        .map(|i| (Var(i), Rational::from_ints(rng.gen_range(1..=7i64), 8)))
        .collect();
    (cnf, weights)
}

#[test]
fn empirical_ci_coverage_is_at_least_95_percent() {
    const INSTANCES: u64 = 100;
    const SAMPLES: u64 = 800;
    let mut covered = 0usize;
    for seed in 0..INSTANCES {
        let (cnf, weights) = random_instance(seed, 8, 6);
        let truth = wmc_brute_force(&cnf, &weights);
        let sampler = CnfSampler::new(&cnf, &weights);
        let est = sampler.estimate_seeded(0xC0E0 + seed, SAMPLES, 0.05, 1);
        if est.ci.contains(&truth) {
            covered += 1;
        }
    }
    assert!(
        covered as f64 >= 0.95 * INSTANCES as f64,
        "coverage {covered}/{INSTANCES} below the 95% bar"
    );
}

#[test]
fn estimates_are_bit_identical_per_seed() {
    for seed in 0..20u64 {
        let (cnf, weights) = random_instance(seed, 8, 6);
        let sampler = CnfSampler::new(&cnf, &weights);
        let run = |rng_seed: u64| -> Estimate { sampler.estimate_seeded(rng_seed, 400, 0.05, 1) };
        assert_eq!(run(seed), run(seed), "instance {seed}");
    }
}

#[test]
fn exact_arithmetic_ties_estimate_to_hit_count() {
    // The point estimate must be exactly S·hits/samples — no float in the
    // value path.
    let (cnf, weights) = random_instance(3, 8, 6);
    let sampler = CnfSampler::new(&cnf, &weights);
    let est = sampler.estimate_seeded(17, 640, 0.05, 1);
    let lin_dnf = gfomc_logic::Dnf::complement_of(&cnf);
    let flipped = gfomc_logic::WeightsFromFn(|v: Var| weights[&v].complement());
    let s = lin_dnf.union_bound(&flipped);
    let raw = (&s * &Rational::from_ints(est.hits as i64, est.samples as i64)).complement();
    // The reported point is the raw value clamped into [0, 1].
    let reconstructed = if raw.is_negative() {
        Rational::zero()
    } else {
        raw
    };
    assert_eq!(est.estimate, reconstructed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ci_brackets_brute_force(seed in 0u64..100_000) {
        let (cnf, weights) = random_instance(seed, 8, 6);
        let truth = wmc_brute_force(&cnf, &weights);
        let sampler = CnfSampler::new(&cnf, &weights);
        let est = sampler.estimate_seeded(seed ^ 0xBEEF, 1_000, 0.05, 1);
        prop_assert!(est.ci.contains(&truth), "{:?} misses {}", est, truth);
        prop_assert!(est.ci.lo >= Rational::zero());
        prop_assert!(est.ci.hi <= Rational::one());
    }

    #[test]
    fn more_samples_never_widen_the_interval(seed in 0u64..100_000) {
        let (cnf, weights) = random_instance(seed, 6, 4);
        let sampler = CnfSampler::new(&cnf, &weights);
        prop_assume!(!sampler.is_exact());
        let coarse = sampler.estimate_seeded(seed, 200, 0.05, 1);
        let fine = sampler.estimate_seeded(seed, 3_200, 0.05, 1);
        // Hoeffding half-width scales as 1/√N (up to [0,1] clamping).
        prop_assert!(fine.ci.width() <= coarse.ci.width());
    }
}
