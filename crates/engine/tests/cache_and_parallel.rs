//! Property suite for the engine's compilation cache, the tightened cost
//! bound's routing effect, and cache-first routing.
//!
//! The contracts under test:
//!
//! * **cache transparency** — a cache hit returns a circuit that evaluates
//!   bit-identically to a fresh compilation (and to a cache-disabled
//!   engine), under the database weights and under overrides;
//! * **re-routing** — the refined [`circuit_cost_estimate`] sends
//!   unsafe-but-structured lineages to the exact compiled path where the
//!   old monolithic `2^vars` bound forced them to the sampler, and the
//!   compiled answer matches the naive oracle exactly;
//! * **adaptive routing** — the router's default adaptive mode never draws
//!   more samples than the fixed mode's budget;
//! * **estimator soundness and stability** — the refined bound never
//!   undershoots the compiled gate count on random unsafe lineages, and
//!   reports exactly the figures recorded for the block presets;
//! * **cache-first routing** — a resident lineage is answered from the
//!   estimate stored with its circuit: the estimator runs once per admitted
//!   distinct lineage (counted by `engine_cost_estimates_total`), never on
//!   a budgeted hit, and every answer stays byte-identical to a fresh
//!   engine's, `cost` line included.

use gfomc_engine::workload::{random_block_tid, random_query, unsafe_block_preset, SafetyTarget};
use gfomc_engine::{AutoResult, Budget, CacheStats, Engine, EvalRequest, Route, SampleMode};
use gfomc_logic::Circuit;
use gfomc_query::BipartiteQuery;
use gfomc_safety::circuit_cost_estimate;
use gfomc_tid::{lineage, probability, Tid};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cache_hits_evaluate_identically_to_fresh_compilations(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Unsafe);
        let tid = random_block_tid(&mut rng, &q, 2, 2);

        let cached = Engine::new();
        let first = cached.compile(&q, &tid);
        let second = cached.compile(&q, &tid);
        let stats = cached.cache_stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 1);
        prop_assert_eq!(cached.compiled_count(), 1, "hit must skip compilation");

        let uncached = Engine::builder().cache_capacity(0).build();
        let fresh = uncached.compile(&q, &tid);
        prop_assert_eq!(uncached.cache_stats().hits, 0);

        prop_assert_eq!(first.evaluate_db(), fresh.evaluate_db());
        prop_assert_eq!(second.evaluate_db(), fresh.evaluate_db());

        // Overrides agree too: the cached circuit is the same function.
        let support = fresh.tuples();
        let ws = gfomc_engine::workload::random_weightings(&mut rng, &support, 3);
        for w in &ws {
            prop_assert_eq!(second.evaluate(w), fresh.evaluate(w));
        }
    }

    #[test]
    fn adaptive_routing_draws_no_more_than_the_fixed_budget(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (q, tid) = unsafe_block_preset(&mut rng, 2, 4);
        // Zero circuit budget: force the sampled route even on instances
        // the refined cost bound would happily compile.
        let adaptive = Budget::default()
            .with_max_circuit_cost(0)
            .with_mode(SampleMode::Adaptive { epsilon: 0.05 })
            .expect("epsilon in (0, 1)")
            .with_seed(seed);
        let routed = Engine::new().evaluate_auto(&q, &tid, &adaptive);
        prop_assert_eq!(routed.route, Route::Sampled);
        let AutoResult::Approx { samples, .. } = routed.result else {
            panic!("expected an approximate result, got {routed:?}");
        };
        let sampler = gfomc_approx::lineage_sampler(&q, &tid);
        let fixed = sampler.fpras_samples(0.05, 0.05);
        prop_assert!(samples <= fixed, "adaptive {} > fixed {}", samples, fixed);
    }
}

/// The repeated-query workload: one engine, the same mix of queries asked
/// again and again — the cache must convert every repeat into a hit.
#[test]
fn repeated_query_workload_has_nonzero_cache_hit_rate() {
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let mut queries = Vec::new();
    for _ in 0..3 {
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Unsafe);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        queries.push((q, tid));
    }
    let engine = Engine::new();
    let budget = Budget::default();
    let mut first_pass = Vec::new();
    for (q, tid) in &queries {
        first_pass.push(engine.evaluate_auto(q, tid, &budget));
    }
    let after_first = engine.cache_stats();
    for _ in 0..3 {
        for ((q, tid), expect) in queries.iter().zip(&first_pass) {
            let again = engine.evaluate_auto(q, tid, &budget);
            assert_eq!(&again, expect, "cached route must be bit-identical");
        }
    }
    let stats = engine.cache_stats();
    assert!(stats.hits > 0, "repeats must hit the cache: {stats:?}");
    assert_eq!(
        stats.misses, after_first.misses,
        "repeats must add no compilations"
    );
    assert_eq!(
        engine.compiled_count(),
        after_first.misses,
        "compilations = first-pass misses only"
    );
    assert!(stats.hit_rate() > 0.5, "hit rate {stats:?}");
}

/// The LRU bound holds: capacity-2 cache under three distinct lineages
/// keeps at most two circuits and evicts the least recently used.
#[test]
fn cache_eviction_respects_capacity() {
    let mut rng = StdRng::seed_from_u64(7);
    let engine = Engine::builder().cache_capacity(2).build();
    for _ in 0..3 {
        let q = random_query(&mut rng, 3, 2, SafetyTarget::Unsafe);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        engine.compile(&q, &tid);
    }
    let stats = engine.cache_stats();
    assert!(stats.entries <= 2, "{stats:?}");
    assert_eq!(stats.capacity, 2);
}

/// The headline routing win of the tightened bound: the 3×3 unsafe block
/// preset's lineage is monolithically connected, so the old worst-case
/// `clauses · 2^vars` estimate (≈ 3·10⁸ gates at 24 variables) blew every
/// reasonable budget and the router degraded it to a sampled estimate.
/// The refined bound sees through the block structure (≈ 10³ gates), the
/// instance re-routes to the exact compiled path, and the answer matches
/// the naive oracle bit-for-bit.
#[test]
fn tightened_bound_reroutes_unsafe_block_to_compiled() {
    let mut rng = StdRng::seed_from_u64(0xA55E55);
    let (q, tid) = unsafe_block_preset(&mut rng, 2, 3);
    let lin = lineage(&q, &tid);
    let est = circuit_cost_estimate(&lin.cnf);
    let budget = Budget::default();
    assert!(
        est.worst_case_nodes > budget.max_circuit_cost,
        "old bound must overflow the budget: {est:?}"
    );
    assert!(
        est.estimated_nodes <= budget.max_circuit_cost,
        "refined bound must fit the budget: {est:?}"
    );
    let routed = Engine::new().evaluate_auto(&q, &tid, &budget);
    assert_eq!(routed.route, Route::Compiled, "re-routed by the new bound");
    assert_eq!(routed.result, AutoResult::Exact(probability(&q, &tid)));
}

/// Soundness of the refined bound: it must never under-estimate the
/// circuit the compiler actually builds (the bound is on the
/// memoization-free tree, so real circuits are smaller). The engine trusts
/// a stored estimate for an entry's whole lifetime, so this runs over 216
/// seeded unsafe lineages, every domain shape from 2×2 to 4×4 with k/8
/// weights, not only hand-written formulas.
#[test]
fn refined_bound_dominates_actual_circuit_size() {
    let mut rng = StdRng::seed_from_u64(0x50DA);
    for i in 0..216u32 {
        let (nu, nv) = (2 + i % 3, 2 + i / 3 % 3);
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Unsafe);
        let tid = random_block_tid(&mut rng, &q, nu, nv);
        let cnf = lineage(&q, &tid).cnf;
        let est = circuit_cost_estimate(&cnf);
        let gates = Circuit::compile(&cnf).flatten().gate_count() as u64;
        assert!(
            est.estimated_nodes >= gates,
            "lineage {i} ({nu}×{nv}): estimate {est} under the {gates} gates compiled"
        );
    }
}

/// `(scale, seed, Display of the estimate)` for the 2-symbol unsafe block
/// presets, 3×3 to 6×6, as the estimator reported them before its
/// per-level work was deduplicated. The estimate is stored with a cached
/// circuit and echoed on the wire as the `cost` line, so any drift would
/// change responses byte for byte.
#[rustfmt::skip]
const PINNED_PRESETS: [(u32, u64, &str); 12] = [
    (3, 0x5EED, "vars 15 clauses 18 components 1 estimated 384 worst 589824"),
    (3, 0xB10C, "vars 24 clauses 18 components 1 estimated 4254 worst 301989888"),
    (3, 0xC057, "vars 24 clauses 18 components 1 estimated 753 worst 301989888"),
    (4, 0x5EED, "vars 40 clauses 32 components 1 estimated 2138 worst 35184372088832"),
    (4, 0xB10C, "vars 40 clauses 32 components 1 estimated 2138 worst 35184372088832"),
    (4, 0xC057, "vars 40 clauses 32 components 1 estimated 2258 worst 35184372088832"),
    (5, 0x5EED, "vars 60 clauses 50 components 1 estimated 5253 worst 54975581388800"),
    (5, 0xB10C, "vars 35 clauses 50 components 1 estimated 8488 worst 1717986918400"),
    (5, 0xC057, "vars 35 clauses 50 components 1 estimated 8488 worst 1717986918400"),
    (6, 0x5EED, "vars 84 clauses 72 components 1 estimated 12218 worst 79164837199872"),
    (6, 0xB10C, "vars 84 clauses 72 components 1 estimated 11462 worst 79164837199872"),
    (6, 0xC057, "vars 48 clauses 72 components 1 estimated 31388 worst 79164837199872"),
];

#[test]
fn estimates_match_recorded_values_on_unsafe_block_presets() {
    for (scale, seed, expected) in PINNED_PRESETS {
        let mut rng = StdRng::seed_from_u64(seed + u64::from(scale));
        let (q, tid) = unsafe_block_preset(&mut rng, 2, scale);
        let est = circuit_cost_estimate(&lineage(&q, &tid).cnf);
        assert_eq!(est.to_string(), expected, "{scale}×{scale}, seed {seed:#X}");
    }
}

/// Lineages that split into several components exercise the summed
/// bounds: `(position in the seeded stream, Display of the estimate)`,
/// recorded like [`PINNED_PRESETS`].
#[rustfmt::skip]
const PINNED_MULTI_COMPONENT: [(usize, &str); 6] = [
    (1, "vars 30 clauses 45 components 3 estimated 1771 worst 46080"),
    (2, "vars 30 clauses 18 components 12 estimated 64 worst 1170"),
    (4, "vars 30 clauses 27 components 3 estimated 64 worst 27648"),
    (13, "vars 27 clauses 27 components 3 estimated 1051 worst 13824"),
    (27, "vars 30 clauses 18 components 3 estimated 190 worst 18432"),
    (33, "vars 33 clauses 27 components 15 estimated 306 worst 306"),
];

#[test]
fn estimates_match_recorded_values_on_multi_component_lineages() {
    let mut rng = StdRng::seed_from_u64(0xA11);
    let estimates: Vec<String> = (0..34)
        .map(|_| {
            let q = random_query(&mut rng, 3, 3, SafetyTarget::Any);
            let tid = random_block_tid(&mut rng, &q, 3, 3);
            circuit_cost_estimate(&lineage(&q, &tid).cnf).to_string()
        })
        .collect();
    for (i, expected) in PINNED_MULTI_COMPONENT {
        assert_eq!(estimates[i], expected, "lineage {i} of the stream");
    }
}

/// Estimator calls the engine has made on the request path.
fn estimates(engine: &Engine) -> u64 {
    engine
        .registry()
        .counter_value("engine_cost_estimates_total", &[])
}

/// `count` seeded unsafe 2×2 block workloads with pairwise distinct
/// lineages, all within the default budget.
fn distinct_unsafe(seed: u64, count: usize) -> Vec<(BipartiteQuery, Tid)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    while out.len() < count {
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Unsafe);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        if seen.insert(lineage(&q, &tid).cnf) {
            out.push((q, tid));
        }
    }
    out
}

/// The `/eval` wire answer, as the server would send it.
fn wire(engine: &Engine, q: &BipartiteQuery, tid: &Tid, budget: &Budget) -> String {
    let body = EvalRequest::new(q.clone(), tid.clone())
        .with_budget(budget.clone())
        .to_string();
    engine.evaluate_wire(&body).expect("valid request")
}

#[test]
fn hot_routed_answers_match_a_fresh_engine_byte_for_byte() {
    let engine = Engine::new();
    let plain = Budget::default();
    let certify = Budget::default()
        .with_threshold(gfomc_arith::Rational::one_half())
        .unwrap();
    for (q, tid) in distinct_unsafe(0xB17E, 4) {
        for budget in [&plain, &certify] {
            let fresh = wire(&Engine::new(), &q, &tid, budget);
            assert!(fresh.contains("\ncost vars "), "{fresh}");
            for _ in 0..3 {
                assert_eq!(wire(&engine, &q, &tid, budget), fresh);
            }
        }
    }
    let stats = engine.cache_stats();
    assert_eq!((stats.misses, stats.hits), (4, 20), "{stats:?}");
    assert_eq!(estimates(&engine), 4, "one estimate per admitted lineage");
}

#[test]
fn resident_lineage_under_a_tighter_budget_samples_and_leaves_the_cache_alone() {
    let (q, tid) = distinct_unsafe(0x71647, 1).pop().unwrap();
    let engine = Engine::new();
    let compiled = engine.evaluate_auto(&q, &tid, &Budget::default());
    assert_eq!(compiled.route, Route::Compiled);
    let stored = compiled.cost.expect("unsafe routes carry their estimate");
    let tight = Budget::default()
        .with_max_circuit_cost(stored.estimated_nodes - 1)
        .with_samples(500)
        .unwrap();
    let before: CacheStats = engine.cache_stats();
    let sampled = engine.evaluate_auto(&q, &tid, &tight);
    assert_eq!(sampled.route, Route::Sampled);
    assert_eq!(sampled.cost, Some(stored));
    assert_eq!(sampled, Engine::new().evaluate_auto(&q, &tid, &tight));
    assert_eq!(engine.cache_stats(), before, "no hit, no miss, no eviction");
    assert_eq!(
        estimates(&engine),
        1,
        "the stored estimate decided the verdict"
    );
    // A session open under the same cap is refused with the same figure,
    // again without estimating.
    let req = EvalRequest::new(q, tid).with_budget(tight);
    assert_eq!(
        engine.open_session(&req),
        Err(gfomc_engine::SessionError::Cost {
            estimated: stored.estimated_nodes,
            cap: stored.estimated_nodes - 1,
        })
    );
    assert_eq!(engine.cache_stats(), before);
    assert_eq!(estimates(&engine), 1);
}

#[test]
fn entry_admitted_by_compile_adopts_its_estimate_on_the_first_routed_hit() {
    let (q, tid) = distinct_unsafe(0xC0DE, 1).pop().unwrap();
    let engine = Engine::new();
    engine.compile(&q, &tid);
    assert_eq!(estimates(&engine), 0, "Engine::compile never estimates");
    let budget = Budget::default();
    let expected = circuit_cost_estimate(&lineage(&q, &tid).cnf);
    for round in 0..3 {
        let routed = engine.evaluate_auto(&q, &tid, &budget);
        assert_eq!(routed.route, Route::Compiled);
        assert_eq!(routed.cost, Some(expected), "round {round}");
        assert_eq!(estimates(&engine), 1, "estimated once, then stored");
    }
    let stats = engine.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 3), "{stats:?}");
    // A session open on the now-resident lineage reuses the stored estimate.
    engine
        .open_session(&EvalRequest::new(q, tid))
        .expect("within budget");
    assert_eq!(estimates(&engine), 1);
}

#[test]
fn an_evicted_lineage_is_estimated_again() {
    // Capacity 1: the 4×4 newcomer's compile cost outweighs the 2×2
    // resident, which is evicted; its next request starts from scratch.
    let mut rng = StdRng::seed_from_u64(0xE71C7);
    let q = gfomc_query::catalog::h1();
    let small = random_block_tid(&mut rng, &q, 2, 2);
    let big = random_block_tid(&mut rng, &q, 4, 4);
    let engine = Engine::builder().cache_capacity(1).build();
    let budget = Budget::default();
    engine.evaluate_auto(&q, &small, &budget);
    engine.evaluate_auto(&q, &small, &budget);
    assert_eq!(estimates(&engine), 1);
    engine.evaluate_auto(&q, &big, &budget);
    assert_eq!(
        engine.cache_stats().evictions,
        1,
        "{:?}",
        engine.cache_stats()
    );
    assert_eq!(estimates(&engine), 2);
    let again = engine.evaluate_auto(&q, &small, &budget);
    assert_eq!(
        estimates(&engine),
        3,
        "evicted lineages pay for a new estimate"
    );
    assert_eq!(again, Engine::new().evaluate_auto(&q, &small, &budget));
}

#[test]
fn disabled_cache_estimates_every_request() {
    let engine = Engine::builder().cache_capacity(0).build();
    let workloads = distinct_unsafe(0x0FF, 2);
    for _ in 0..3 {
        for (q, tid) in &workloads {
            let routed = engine.evaluate_auto(q, tid, &Budget::default());
            assert_eq!(
                routed,
                Engine::new().evaluate_auto(q, tid, &Budget::default())
            );
        }
    }
    assert_eq!(estimates(&engine), 6);
    assert_eq!(engine.cache_stats().hits, 0);
}

#[test]
fn hot_requests_estimate_once_per_distinct_lineage() {
    const DISTINCT: usize = 5;
    const ROUNDS: usize = 6;
    let workloads = distinct_unsafe(0xD15C, DISTINCT);
    let engine = Engine::new();
    for _ in 0..ROUNDS {
        for (q, tid) in &workloads {
            assert_eq!(
                engine.evaluate_auto(q, tid, &Budget::default()).route,
                Route::Compiled
            );
        }
    }
    assert_eq!(estimates(&engine), DISTINCT as u64);
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, DISTINCT);
    assert_eq!(stats.hits, DISTINCT * (ROUNDS - 1));
    // The counter is exported with the rest of the registry.
    let metrics = engine.registry().render_prometheus();
    assert!(
        metrics.contains(&format!("engine_cost_estimates_total {DISTINCT}")),
        "{metrics}"
    );
}
