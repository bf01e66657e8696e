//! The dichotomy as a runtime routing decision, end to end: one entry
//! point (`Engine::evaluate_auto`) sends a safe query to the PTIME lifted
//! evaluator, a small unsafe query to the exact compiled circuit, and a
//! large unsafe query to the Karp–Luby sampler — the three regimes the
//! `gfomc-approx` subsystem completes.
//!
//! Run with `cargo run --example approx_sampling`.

use gfomc::approx::{lineage_sampler, AdaptiveConfig};
use gfomc::engine::workload::{random_block_tid, unsafe_block_preset};
use gfomc::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

fn show(label: &str, routed: &Routed, elapsed: std::time::Duration) {
    match &routed.result {
        AutoResult::Exact(p) => {
            println!(
                "{label}: route {:?}, exact Pr = {p} ({elapsed:?})",
                routed.route
            );
        }
        AutoResult::Approx {
            estimate,
            ci,
            samples,
        } => {
            println!(
                "{label}: route {:?}, Pr ≈ {:.6} ∈ [{:.6}, {:.6}] at 95% ({samples} samples, {elapsed:?})",
                routed.route,
                estimate.to_f64(),
                ci.lo.to_f64(),
                ci.hi.to_f64(),
            );
        }
        AutoResult::Certified { le, threshold } => {
            let cmp = if *le { "≤" } else { ">" };
            println!(
                "{label}: route {:?}, certified Pr {cmp} {threshold} ({elapsed:?})",
                routed.route
            );
        }
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let budget = Budget::default()
        .with_samples(20_000)
        .expect("positive sample budget");
    let engine = Engine::new();

    // ------------------------------------------------------------------
    // 1. A safe query: the router never grounds a lineage — the lifted
    //    evaluator answers exactly, in PTIME, however large the domain.
    // ------------------------------------------------------------------
    let safe = catalog::safe_three_components();
    let tid = random_block_tid(&mut rng, &safe, 12, 12);
    let t0 = Instant::now();
    let routed = engine.evaluate_auto(&safe, &tid, &budget);
    show("safe 12x12      ", &routed, t0.elapsed());
    assert_eq!(routed.route, Route::Lifted);
    assert_eq!(
        routed.result,
        AutoResult::Exact(lifted_probability(&safe, &tid).unwrap())
    );

    // ------------------------------------------------------------------
    // 2. A small unsafe query: #P-hard in general, but this instance's
    //    estimated circuit cost fits the budget — still exact.
    // ------------------------------------------------------------------
    let h1 = catalog::h1();
    let small = random_block_tid(&mut rng, &h1, 2, 2);
    let t0 = Instant::now();
    let routed = engine.evaluate_auto(&h1, &small, &budget);
    show("unsafe 2x2      ", &routed, t0.elapsed());
    assert_eq!(routed.route, Route::Compiled);
    assert_eq!(routed.result, AutoResult::Exact(probability(&h1, &small)));

    // ------------------------------------------------------------------
    // 3a. A 6×6 unsafe block: the monolithic worst-case bound (~8·10¹³
    //     gates) used to chase this to the sampler, but the refined cost
    //     descent proves the block structure compiles in ~10⁴ gates — so
    //     the router keeps it **exact**.
    // ------------------------------------------------------------------
    let (mq, mtid) = unsafe_block_preset(&mut rng, 2, 6);
    let mest = gfomc::safety::circuit_cost_estimate(&gfomc::tid::lineage(&mq, &mtid).cnf);
    println!(
        "unsafe preset   : query {mq}, 6x6 block, cost refined {} vs worst-case {}",
        mest.estimated_nodes, mest.worst_case_nodes,
    );
    let t0 = Instant::now();
    let routed = engine.evaluate_auto(&mq, &mtid, &budget);
    show("unsafe 6x6      ", &routed, t0.elapsed());
    assert_eq!(routed.route, Route::Compiled);

    // ------------------------------------------------------------------
    // 3b. A 12×12 unsafe block: here even the refined bound stays above
    //     the budget (the descent's work cap dries up before proving the
    //     decomposition), so the router falls back to the seeded
    //     Karp–Luby sampler — an anytime estimate with a confidence
    //     interval instead of a possibly-exponential compilation.
    // ------------------------------------------------------------------
    let mut prng = StdRng::seed_from_u64(0xD1CE);
    let (uq, utid) = unsafe_block_preset(&mut prng, 2, 12);
    println!(
        "unsafe preset   : query {uq}, 12x12 block, lineage cost estimate {}",
        gfomc::safety::circuit_cost_estimate(&gfomc::tid::lineage(&uq, &utid).cnf).estimated_nodes,
    );
    let t0 = Instant::now();
    let routed = engine.evaluate_auto(&uq, &utid, &budget);
    show("unsafe 12x12    ", &routed, t0.elapsed());
    assert_eq!(routed.route, Route::Sampled);

    // Same seed, same answer: the estimate is bit-reproducible.
    let again = Engine::new().evaluate_auto(&uq, &utid, &budget);
    assert_eq!(routed, again);

    // ------------------------------------------------------------------
    // 4. Anytime refinement: more samples tighten the interval (the
    //    Hoeffding half-width shrinks as 1/√N), against the same sampler.
    // ------------------------------------------------------------------
    let sampler = lineage_sampler(&uq, &utid);
    for samples in [1_000u64, 10_000, 100_000] {
        let t0 = Instant::now();
        let est = sampler.estimate_seeded(7, samples, 0.05, 1);
        println!(
            "  {samples:>7} samples: Pr ≈ {:.6}, CI width {:.6} ({:?})",
            est.estimate.to_f64(),
            est.ci.width().to_f64(),
            t0.elapsed(),
        );
    }

    // ------------------------------------------------------------------
    // 5. Adaptive stopping: instead of a fixed worst-case budget, sample
    //    in rounds and stop as soon as the empirical-Bernstein interval
    //    is within ±0.05 — never more draws than the fixed KLM budget,
    //    usually far fewer.
    // ------------------------------------------------------------------
    let adaptive = sampler.estimate_adaptive(&AdaptiveConfig::new(0.05, 0.05, 7));
    println!(
        "adaptive stop   : {} samples of a {}-sample fixed budget ({} rounds, converged: {})",
        adaptive.estimate.samples,
        sampler.fpras_samples(0.05, 0.05),
        adaptive.rounds,
        adaptive.converged,
    );
    assert!(adaptive.estimate.samples <= sampler.fpras_samples(0.05, 0.05));

    // ------------------------------------------------------------------
    // 6. Parallel sampling: the chunk-seeded plan makes the estimate a
    //    pure function of (seed, sample count) — threads only split the
    //    work, so 1, 2, and 4 threads agree bit-for-bit.
    // ------------------------------------------------------------------
    let serial = sampler.estimate_seeded(7, 20_000, 0.05, 1);
    for threads in [2usize, 4] {
        assert_eq!(serial, sampler.estimate_seeded(7, 20_000, 0.05, threads));
    }
    println!(
        "parallel plan   : 1t = 2t = 4t, bit-identical ({} hits)",
        serial.hits
    );

    // ------------------------------------------------------------------
    // 7. The compilation cache: asking the engine the same (compilable)
    //    query again skips compilation entirely — the canonical lineage
    //    is the cache key and the circuit comes back as a cache hit.
    // ------------------------------------------------------------------
    let again = engine.evaluate_auto(&h1, &small, &budget);
    assert_eq!(again.result, AutoResult::Exact(probability(&h1, &small)));
    let cache = engine.cache_stats();
    println!(
        "compile cache   : {} hits / {} misses after the repeat",
        cache.hits, cache.misses
    );
    assert!(cache.hits >= 1);

    let counts = engine.route_counts();
    println!(
        "routing tally: {} lifted, {} compiled, {} sampled",
        counts.lifted, counts.compiled, counts.sampled
    );
    assert_eq!(counts.lifted + counts.compiled + counts.sampled, 5);
}
