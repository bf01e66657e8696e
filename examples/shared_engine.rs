//! One `Engine`, many threads: the serving setup.
//!
//! `Engine` is `Send + Sync` with every method on `&self`, so a single
//! engine — one compilation cache, one route ledger, one worker pool —
//! can sit behind a server and answer queries from as many threads as the
//! hardware offers — `gfomc-serve` answers every connection thread from
//! one engine this way. This example demonstrates the two guarantees the
//! "Concurrency & serving" README section describes:
//!
//! 1. concurrent callers share one cache (the second thread to ask for a
//!    lineage gets the first thread's circuit) and answer bit-identically
//!    to a serial run;
//! 2. determinism across thread counts: the sampled route fans its rounds
//!    across the engine's pool, and its seeded estimate is the same
//!    whatever `Budget::threads` says.

use gfomc_engine::workload::{random_block_tid, random_query, SafetyTarget};
use gfomc_engine::{Budget, Engine};
use gfomc_query::BipartiteQuery;
use gfomc_tid::Tid;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // A mixed workload: safe and unsafe queries over random block TIDs.
    let mut rng = StdRng::seed_from_u64(0x5E4E);
    let mut workload: Vec<(BipartiteQuery, Tid)> = Vec::new();
    for i in 0..9 {
        let target = if i % 3 == 0 {
            SafetyTarget::Safe
        } else {
            SafetyTarget::Unsafe
        };
        let q = random_query(&mut rng, 2, 2, target);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        workload.push((q, tid));
    }
    let budget = Budget::default().with_threads(4);

    // The serial reference: one engine, one thread, one pass.
    let reference_engine = Engine::new();
    let reference: Vec<_> = workload
        .iter()
        .map(|(q, tid)| reference_engine.evaluate_auto(q, tid, &budget))
        .collect();

    // (1) Many OS threads drive ONE shared engine directly.
    let shared = Engine::new();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let shared = &shared;
            let workload = &workload;
            let reference = &reference;
            let budget = &budget;
            scope.spawn(move || {
                for ((q, tid), expect) in workload.iter().zip(reference) {
                    let routed = shared.evaluate_auto(q, tid, budget);
                    assert_eq!(&routed, expect, "shared engine must match serial run");
                }
            });
        }
    });
    let stats = shared.cache_stats();
    println!("4 threads × {} queries through one engine:", workload.len());
    println!(
        "  cache: {} hits / {} misses (hit rate {:.2}) — {} circuits resident",
        stats.hits,
        stats.misses,
        stats.hit_rate(),
        stats.entries
    );
    println!("  routes: {:?}", shared.route_counts());
    assert!(
        stats.hits > 0,
        "concurrent repeats of one lineage share a single compilation"
    );

    // (2) A zero circuit budget sends every unsafe query to the sampler,
    // whose seeded estimate does not depend on the worker count.
    let sampled = Budget::default().with_max_circuit_cost(0);
    println!("1 vs 4 sampler threads: bit-identical results");
    for (i, (q, tid)) in workload.iter().enumerate().take(3) {
        let one = shared.evaluate_auto(q, tid, &sampled.clone().with_threads(1));
        let four = shared.evaluate_auto(q, tid, &sampled.clone().with_threads(4));
        assert_eq!(one, four, "the thread count never changes a result");
        println!(
            "  query {i}: route {:?}, Pr = {}",
            four.route,
            four.result.point()
        );
    }
}
