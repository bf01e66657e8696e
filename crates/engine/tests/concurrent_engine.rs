//! Concurrency suite for the shared `Engine`: many OS threads driving one
//! engine must observe exactly the behavior of a serial run.
//!
//! The contracts under test:
//!
//! * **shared-engine determinism** — a hammer of threads routing a mixed
//!   workload (safe / compiled / sampled) through one `Engine` produces
//!   results bit-identical to a serial pass over the same workload, and
//!   the route/cache counters add up to the serial totals;
//! * **one compilation per lineage** — concurrent callers of the same
//!   lineage serialize on its cache shard, so exactly one compiles and
//!   every other caller hits;
//! * **capacity bound under concurrency** — `cache_stats().entries`
//!   never exceeds the configured capacity, no matter how many threads
//!   compile and evict concurrently (the sharded cost-aware LRU splits
//!   the capacity exactly across shards);
//! * **budget hygiene** — a `Budget` built as a struct literal with
//!   `threads: 0` (bypassing the `with_threads` clamp) is normalized at
//!   the point of use and routes like a serial budget.

use gfomc_engine::workload::{random_block_tid, random_query, SafetyTarget};
use gfomc_engine::{Budget, Engine, Routed, SampleMode};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

use gfomc_query::BipartiteQuery;
use gfomc_tid::Tid;

/// A mixed workload: safe queries (lifted route), small unsafe queries
/// (compiled route), and unsafe queries under a zeroed circuit budget
/// handled separately by the caller (sampled route).
fn mixed_workload(seed: u64, n: usize) -> Vec<(BipartiteQuery, Tid)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let target = match i % 3 {
                0 => SafetyTarget::Safe,
                _ => SafetyTarget::Unsafe,
            };
            let q = random_query(&mut rng, 2, 2, target);
            let tid = random_block_tid(&mut rng, &q, 2, 2);
            (q, tid)
        })
        .collect()
}

/// Serial reference pass: one `evaluate_auto` per query on a fresh engine.
fn serial_reference(workload: &[(BipartiteQuery, Tid)], budget: &Budget) -> Vec<Routed> {
    let engine = Engine::new();
    workload
        .iter()
        .map(|(q, tid)| engine.evaluate_auto(q, tid, budget))
        .collect()
}

#[test]
fn hammered_shared_engine_is_bit_identical_to_serial() {
    const THREADS: usize = 8;
    let workload = mixed_workload(0xBEEF, 12);
    // Route a third of the unsafe queries to the sampler by alternating
    // budgets: a zero circuit budget forces Route::Sampled.
    let compiled_budget = Budget::default();
    let sampled_budget = Budget::default()
        .with_max_circuit_cost(0)
        .with_mode(SampleMode::Adaptive { epsilon: 0.1 })
        .expect("epsilon in (0, 1)");
    let budget_of = |i: usize| {
        if i % 3 == 2 {
            &sampled_budget
        } else {
            &compiled_budget
        }
    };
    let expected: Vec<Routed> = {
        let engine = Engine::new();
        workload
            .iter()
            .enumerate()
            .map(|(i, (q, tid))| engine.evaluate_auto(q, tid, budget_of(i)))
            .collect()
    };
    let serial_routes = {
        let engine = Engine::new();
        for (i, (q, tid)) in workload.iter().enumerate() {
            engine.evaluate_auto(q, tid, budget_of(i));
        }
        engine.route_counts()
    };

    // The hammer: every thread walks the whole workload through ONE shared
    // engine, in its own order, all at once.
    let shared = Engine::new();
    let mismatches = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = &shared;
            let workload = &workload;
            let expected = &expected;
            let mismatches = &mismatches;
            let budget_of = &budget_of;
            scope.spawn(move || {
                // Stagger the starting offset so threads collide on
                // different queries at different times.
                for k in 0..workload.len() {
                    let i = (k + t * 5) % workload.len();
                    let (q, tid) = &workload[i];
                    let got = shared.evaluate_auto(q, tid, budget_of(i));
                    if got != expected[i] {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "a shared engine must answer bit-identically to the serial pass"
    );

    // Counter totals: THREADS full passes ≡ THREADS × the serial counts.
    let counts = shared.route_counts();
    assert_eq!(counts.lifted, THREADS * serial_routes.lifted);
    assert_eq!(counts.compiled, THREADS * serial_routes.compiled);
    assert_eq!(counts.sampled, THREADS * serial_routes.sampled);
    let stats = shared.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        THREADS * serial_routes.compiled,
        "every compiled route is exactly one cache lookup: {stats:?}"
    );
    assert!(
        stats.misses < THREADS * serial_routes.compiled,
        "concurrent repeats must share compilations: {stats:?}"
    );
    assert!(stats.entries <= stats.capacity, "{stats:?}");
}

#[test]
fn auto_batch_shares_the_cache_across_workers() {
    // The same unsafe query from 4 threads at once, 3 calls each:
    // whichever call takes the shard lock first compiles, and every other
    // call waits on that lock and hits.
    const THREADS: usize = 4;
    const PER_THREAD: usize = 3;
    let mut rng = StdRng::seed_from_u64(42);
    let q = random_query(&mut rng, 2, 2, SafetyTarget::Unsafe);
    let tid = random_block_tid(&mut rng, &q, 2, 2);
    let engine = Engine::new();
    let budget = Budget::default();
    let results: Vec<Routed> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    (0..PER_THREAD)
                        .map(|_| engine.evaluate_auto(&q, &tid, &budget))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    let n = THREADS * PER_THREAD;
    let stats = engine.cache_stats();
    assert_eq!(
        stats.misses, 1,
        "one compilation serves every caller: {stats:?}"
    );
    assert_eq!(stats.hits, n - 1, "{stats:?}");
}

#[test]
fn zero_thread_budget_literal_is_normalized_at_the_point_of_use() {
    // A struct literal bypasses `with_threads`' clamp; the router must
    // normalize it rather than hand a zero to the pool.
    let budget = Budget {
        threads: 0,
        ..Budget::default()
    };
    let workload = mixed_workload(0x5EED5, 4);
    let engine = Engine::new();
    let serial = serial_reference(&workload, &Budget::default());
    for ((q, tid), expect) in workload.iter().zip(&serial) {
        assert_eq!(&engine.evaluate_auto(q, tid, &budget), expect);
    }
    // Sampled route with a zeroed thread count: must not panic either.
    let sampled = Budget {
        threads: 0,
        max_circuit_cost: 0,
        ..Budget::default()
    };
    let mut rng = StdRng::seed_from_u64(3);
    let q = random_query(&mut rng, 2, 2, SafetyTarget::Unsafe);
    let tid = random_block_tid(&mut rng, &q, 2, 2);
    let routed = engine.evaluate_auto(&q, &tid, &sampled);
    assert_eq!(
        routed,
        Engine::new().evaluate_auto(&q, &tid, &sampled.clone().with_threads(1))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under concurrent compiles of distinct lineages with a small cache,
    /// the capacity bound holds at every observation point.
    #[test]
    fn entries_never_exceed_capacity_under_concurrent_eviction(
        seed in 0u64..10_000,
        capacity in 1usize..6,
    ) {
        let engine = Engine::builder().cache_capacity(capacity).build();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lineages = Vec::new();
        for _ in 0..6 {
            let q = random_query(&mut rng, 3, 2, SafetyTarget::Unsafe);
            let tid = random_block_tid(&mut rng, &q, 2, 2);
            lineages.push((q, tid));
        }
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let engine = &engine;
                let lineages = &lineages;
                scope.spawn(move || {
                    for k in 0..lineages.len() {
                        let (q, tid) = &lineages[(k + t) % lineages.len()];
                        engine.compile(q, tid);
                        let stats = engine.cache_stats();
                        assert!(
                            stats.entries <= capacity,
                            "capacity {capacity} exceeded: {stats:?}"
                        );
                    }
                });
            }
        });
        let stats = engine.cache_stats();
        prop_assert!(stats.entries <= capacity, "{stats:?}");
        prop_assert_eq!(stats.capacity, capacity);
    }
}
