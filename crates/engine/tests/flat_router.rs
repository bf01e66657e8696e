//! Routing-stability and flat≡tree oracles for the flat evaluation core.
//!
//! The PR that introduced [`gfomc_logic::FlatCircuit`] rewired the
//! engine's compiled path (cache payloads, admission costs, every
//! evaluate entry point) without touching the routing *policy*. These
//! suites pin that claim:
//!
//! * the route picked by `Engine::evaluate_auto` on seeded 3×3 through
//!   6×6 block presets equals the pre-refactor oracle recomputed from
//!   first principles (`is_safe` → lifted; otherwise the refined cost
//!   bound against the budget — neither ever looks at a flat circuit);
//! * on every exact route the reported probability is bit-identical to
//!   an independently compiled **tree** circuit evaluated by the
//!   original recursive evaluator.
//!
//! Two contracts of the flat core are pinned on one real lineage, the
//! seeded 3×3 unsafe-block preset (83 flat gates):
//!
//! * an incremental weight update re-prices a dirty cone strictly
//!   smaller than the circuit, and leaves the value bit-identical to a
//!   fresh exact pass;
//! * the flat forward pass is no slower than the tree evaluator it
//!   replaced. This is a timing gate, so it only runs in release
//!   builds: `cargo test --release -p gfomc-engine --test flat_router`.

use gfomc_arith::Rational;
use gfomc_engine::workload::{random_block_tid, random_query, unsafe_block_preset, SafetyTarget};
use gfomc_engine::{Budget, Engine, Route};
use gfomc_logic::{Circuit, PricedCircuit};
use gfomc_safety::{circuit_cost_estimate, is_safe};
use gfomc_tid::{lineage, Lineage};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// The routing decision exactly as the pre-flat router made it: safety
/// first, then the refined cost bound against the budget. Neither input
/// changed in the refactor, so this *is* the pre-refactor oracle.
fn oracle_route(q: &gfomc_query::BipartiteQuery, tid: &gfomc_tid::Tid, budget: &Budget) -> Route {
    if is_safe(q) {
        return Route::Lifted;
    }
    let lin = lineage(q, tid);
    if circuit_cost_estimate(&lin.cnf).within(budget.max_circuit_cost) {
        Route::Compiled
    } else {
        Route::Sampled
    }
}

#[test]
fn router_decisions_match_pre_refactor_oracle_on_block_presets() {
    let budget = Budget::default();
    let engine = Engine::new();
    let mut routes = [0usize; 3];
    for scale in 3..=6u32 {
        let mut rng = StdRng::seed_from_u64(0xF1A7_0000 + scale as u64);
        for _ in 0..4 {
            let q = random_query(&mut rng, 2, 2, SafetyTarget::Any);
            let tid = random_block_tid(&mut rng, &q, scale, scale);
            let expected = oracle_route(&q, &tid, &budget);
            let routed = engine.evaluate_auto(&q, &tid, &budget);
            assert_eq!(routed.route, expected, "{scale}×{scale}: {q:?}");
            routes[match routed.route {
                Route::Lifted => 0,
                Route::Compiled => 1,
                Route::Sampled => 2,
            }] += 1;
        }
    }
    // The sweep must actually exercise every regime, or the oracle
    // comparison proves nothing.
    assert!(
        routes.iter().all(|&n| n > 0),
        "degenerate sweep: {routes:?}"
    );
    let counts = engine.route_counts();
    assert_eq!(counts.lifted, routes[0]);
    assert_eq!(counts.compiled, routes[1]);
    assert_eq!(counts.sampled, routes[2]);
}

#[test]
fn compiled_route_is_bit_identical_to_the_tree_evaluator() {
    // Unsafe 2-symbol queries at small scale stay under the default cost
    // budget, so they route to the compiled (now flat) path; the tree
    // circuit compiled from the same lineage must price every database
    // identically.
    let budget = Budget::default();
    let engine = Engine::new();
    let mut rng = StdRng::seed_from_u64(0xF1A7_BEEF);
    let mut checked = 0usize;
    for _ in 0..6 {
        let (q, tid) = unsafe_block_preset(&mut rng, 2, 2);
        let routed = engine.evaluate_auto(&q, &tid, &budget);
        if routed.route != Route::Compiled {
            continue;
        }
        let lin = lineage(&q, &tid);
        let tree = Circuit::compile(&lin.cnf);
        let expect = tree.evaluate(lin.vars.weights());
        assert_eq!(
            routed.result,
            gfomc_engine::AutoResult::Exact(expect),
            "flat-backed route diverged from the tree evaluator on {q:?}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no preset took the compiled route");
}

#[test]
fn routes_are_stable_across_repeated_evaluation_and_caching() {
    // Same (query, TID, budget) must route identically whether the
    // lineage is compiled fresh or served from the flat-circuit cache.
    let budget = Budget::default();
    let engine = Engine::new();
    let mut rng = StdRng::seed_from_u64(0xF1A7_CAFE);
    let q = random_query(&mut rng, 2, 2, SafetyTarget::Unsafe);
    let tid = random_block_tid(&mut rng, &q, 3, 3);
    let first = engine.evaluate_auto(&q, &tid, &budget);
    let second = engine.evaluate_auto(&q, &tid, &budget);
    assert_eq!(first, second);
    assert_eq!(first.route, oracle_route(&q, &tid, &budget));
}

/// The seeded 3×3 unsafe-block preset's lineage, compiled as a tree.
fn preset_lineage() -> (Lineage, Circuit) {
    let mut rng = StdRng::seed_from_u64(0xA55E55);
    let (q, tid) = unsafe_block_preset(&mut rng, 2, 3);
    let lin = lineage(&q, &tid);
    let tree = Circuit::compile(&lin.cnf);
    (lin, tree)
}

#[test]
fn incremental_updates_reprice_less_than_the_whole_preset_lineage() {
    let (lin, tree) = preset_lineage();
    let flat = Arc::new(tree.flatten());
    let mut current = lin.vars.weights().clone();
    let base: Vec<Rational> = flat
        .vars()
        .iter()
        .map(|v| current[v.0 as usize].clone())
        .collect();
    let mut priced = PricedCircuit::new(Arc::clone(&flat), &base);
    assert_eq!(priced.value(), tree.evaluate(&current));
    // Four passes over every slot with pass- and slot-dependent weights,
    // so most steps are a real change, each with its own dirty cone.
    let slots = base.len();
    let stream: Vec<(u32, Rational)> = (0..slots * 4)
        .map(|i| {
            let slot = (i % slots) as u32;
            let w = Rational::from_ints((i / slots) as i64 % 2 + 1, (i % 7) as i64 + 3);
            (slot, w)
        })
        .collect();
    let (mut repriced, mut changes) = (0usize, 0usize);
    for (step, (slot, w)) in stream.iter().enumerate() {
        let stats = priced.update_weight(*slot, w.clone());
        // A step that repeats a slot's weight re-prices nothing, so only
        // real changes count toward the mean.
        let var = flat.vars()[*slot as usize];
        let old = std::mem::replace(&mut current[var.0 as usize], w.clone());
        if old != *w {
            repriced += stats.repriced;
            changes += 1;
        }
        assert_eq!(
            priced.value(),
            flat.eval_exact(&current),
            "step {step}: update at slot {slot} diverged from a full recompute"
        );
    }
    let mean = repriced as f64 / changes as f64;
    assert!(
        mean < flat.gate_count() as f64,
        "mean dirty cone {mean:.1} reached the full gate count {}: \
         updates are secretly full recomputes",
        flat.gate_count()
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn flat_pass_is_no_slower_than_the_tree_evaluator() {
    let (lin, tree) = preset_lineage();
    let flat = tree.flatten();
    let w = lin.vars.weights();
    assert_eq!(flat.eval_exact(w), tree.evaluate(w));
    let time = |f: &dyn Fn()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    // Interleaved, so host drift lands on both sides alike.
    let (mut flat_secs, mut tree_secs) = (Vec::new(), Vec::new());
    for _ in 0..51 {
        flat_secs.push(time(&|| {
            std::hint::black_box(flat.eval_exact(w));
        }));
        tree_secs.push(time(&|| {
            std::hint::black_box(tree.evaluate(w));
        }));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (flat_med, tree_med) = (median(&mut flat_secs), median(&mut tree_secs));
    assert!(
        tree_med >= flat_med,
        "flat pass slower than the tree: {:.2}x (flat {flat_med:.3e}s, tree {tree_med:.3e}s)",
        tree_med / flat_med
    );
}
