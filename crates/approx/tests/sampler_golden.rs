//! Golden hit counts for the seeded Karp–Luby sampler.
//!
//! The other sampler suites compare one build with itself (same seed,
//! same estimate; every thread count, same estimate). This suite pins the
//! *absolute* hit counts of fixed seeds, so a change to how a world is
//! drawn — the RNG consumption order, the forced positions of the drawn
//! term, the dyadic thresholds — fails here even when it is
//! self-consistent. Two lineages are pinned: one whose worlds fit one
//! 64-bit word and one whose worlds span three words, with terms that
//! straddle word boundaries.

use gfomc_approx::{CnfSampler, KarpLuby};
use gfomc_arith::Rational;
use gfomc_logic::{Clause, Cnf, Dnf, Var};
use std::collections::HashMap;

fn term(vs: &[u32]) -> Clause {
    Clause::new(vs.iter().map(|&i| Var(i)))
}

/// 40 variables (one world word), 30 terms of three variables each, with
/// weights in eighths.
fn one_word() -> (Dnf, HashMap<Var, Rational>) {
    let d = Dnf::new((0..30u32).map(|i| term(&[i, (i * 7 + 3) % 40, (i * 13 + 5) % 40])));
    let w = (0..40u32)
        .map(|i| (Var(i), Rational::from_ints(i64::from(i % 7) + 1, 8)))
        .collect();
    (d, w)
}

/// 150 variables (three world words), 120 terms of up to four variables
/// whose positions cross word boundaries; weights mix eighths with thirds
/// and fifths, whose dyadic thresholds round up.
fn three_words() -> (Dnf, HashMap<Var, Rational>) {
    let d = Dnf::new(
        (0..120u32).map(|i| term(&[i, (i * 37 + 11) % 150, (i * 53 + 29) % 150, (i + 64) % 150])),
    );
    let w = (0..150u32)
        .map(|i| {
            let p = match i % 3 {
                0 => Rational::from_ints(i64::from(i % 7) + 1, 8),
                1 => Rational::from_ints(1, 3),
                _ => Rational::from_ints(4, 5),
            };
            (Var(i), p)
        })
        .collect();
    (d, w)
}

/// Hits of `samples` draws at each seed, on one worker and on three.
fn hits(kl: &KarpLuby, seeds: &[u64], samples: u64) -> Vec<u64> {
    seeds
        .iter()
        .map(|&s| {
            let serial = kl.hits_in_range(s, 0, samples, 1);
            assert_eq!(serial, kl.hits_in_range(s, 0, samples, 3), "seed {s}");
            serial
        })
        .collect()
}

const SEEDS: [u64; 5] = [1, 2, 3, 7, 42];

#[test]
fn one_word_hits_are_pinned() {
    let (d, w) = one_word();
    let kl = KarpLuby::new(&d, &w);
    assert_eq!(kl.term_count(), 30);
    assert_eq!(hits(&kl, &SEEDS, 1000), [304, 317, 322, 290, 318]);
    assert_eq!(kl.hits_in_range(9, 512, 1800, 2), 391);
}

#[test]
fn three_word_hits_are_pinned() {
    let (d, w) = three_words();
    let kl = KarpLuby::new(&d, &w);
    assert_eq!(kl.term_count(), 120);
    assert_eq!(hits(&kl, &SEEDS, 1000), [110, 116, 123, 115, 113]);
    assert_eq!(kl.hits_in_range(9, 512, 1800, 2), 145);
}

#[test]
fn cnf_sampler_estimates_are_pinned() {
    // The lineage route: a CNF whose complement DNF spans two words.
    let f = Cnf::new((0..12u32).map(|i| term(&[i * 7, (i * 7 + 31) % 90, (i * 7 + 67) % 90])));
    let w: HashMap<Var, Rational> = (0..90u32)
        .map(|i| (Var(i), Rational::from_ints(i64::from(i % 5) + 2, 8)))
        .collect();
    let s = CnfSampler::new(&f, &w);
    let got: Vec<String> = SEEDS
        .iter()
        .map(|&seed| s.estimate_seeded(seed, 777, 0.05, 2).estimate.to_string())
        .collect();
    assert_eq!(
        got,
        [
            "539/2368",
            "3029/16576",
            "3401/16576",
            "3649/16576",
            "3463/16576"
        ]
    );
}
