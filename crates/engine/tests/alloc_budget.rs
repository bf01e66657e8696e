//! Heap-allocation budgets of the hot paths.
//!
//! A counting global allocator tallies the allocations made by the
//! current thread, so the counts below are deterministic: they do not
//! depend on the host, on timing or on other tests running in parallel.
//!
//! * A warm `/eval` request of the `eval_hot` shape (an unsafe query over
//!   a 3×3 block, tuple weights in eighths, its circuit already cached)
//!   stays within a fixed allocation budget: parse, ground, cache lookup,
//!   flat evaluation and serialization together.
//! * Pricing a cached circuit at the paper's ½ weights allocates nothing
//!   once the arena has grown: every weight, gate value and the root fit
//!   one machine word each, and word-sized rationals live inline.

use gfomc_arith::Rational;
use gfomc_engine::workload::{random_block_tid, random_query, unsafe_block_preset, SafetyTarget};
use gfomc_engine::{Engine, EvalRequest};
use gfomc_logic::{Circuit, EvalArena, UniformWeight};
use gfomc_safety::circuit_cost_estimate;
use gfomc_tid::lineage;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

/// The system allocator, counting `alloc`/`realloc` calls per thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Warm `eval_hot` requests allocate at most this many times each on
/// average (1950 with two heap vectors per rational; 1257 with word-sized
/// rationals inline). What remains is mostly the bignum path — lineages
/// past about 21 variables at weights in eighths outgrow a 64-bit
/// denominator, and each bignum gcd allocates per step — and query
/// minimization while parsing.
const WARM_EVAL_BUDGET: u64 = 1300;

/// `count` bodies drawn as the load benchmark's `eval_hot` draws them:
/// unsafe 3×3 shapes from its fixed shape stream whose lineages are
/// pairwise distinct with an estimated circuit cost of at most 1000
/// gates, each asked over one fresh block TID (weights in eighths).
fn eval_hot_bodies(count: usize) -> Vec<String> {
    let mut shapes = StdRng::seed_from_u64(0x6F0C_2021);
    let mut rng = StdRng::seed_from_u64(1);
    let mut seen = HashSet::new();
    let mut bodies = Vec::new();
    while bodies.len() < count {
        let q = random_query(&mut shapes, 3, 3, SafetyTarget::Unsafe);
        let _one_domain: usize = shapes.gen_range(0..1);
        let cnf = lineage(&q, &random_block_tid(&mut shapes, &q, 3, 3)).cnf;
        if circuit_cost_estimate(&cnf).estimated_nodes <= 1000 && seen.insert(cnf) {
            for _ in 0..2 {
                let tid = random_block_tid(&mut rng, &q, 3, 3);
                bodies.push(EvalRequest::new(q.clone(), tid).to_string());
            }
        }
    }
    bodies
}

#[test]
fn warm_eval_hot_request_stays_within_its_allocation_budget() {
    let engine = Engine::new();
    let bodies = eval_hot_bodies(64);
    let mut total = 0u64;
    for body in &bodies {
        let cold = engine.evaluate_wire(body).expect("cold request");
        let hits = engine.cache_stats().hits;
        let (n, warm) = allocations(|| engine.evaluate_wire(body).expect("warm request"));
        assert_eq!(warm, cold, "a warm reply differs from the cold one");
        assert_eq!(
            engine.cache_stats().hits,
            hits + 1,
            "the warm request missed"
        );
        total += n;
    }
    let mean = total / bodies.len() as u64;
    assert!(
        mean <= WARM_EVAL_BUDGET,
        "a warm eval_hot request allocates {mean} times on average (budget {WARM_EVAL_BUDGET})"
    );
}

#[test]
fn pricing_at_one_half_allocates_nothing_once_warm() {
    let (q, tid) = unsafe_block_preset(&mut StdRng::seed_from_u64(0xA55E55), 2, 3);
    let flat = Circuit::compile(&lineage(&q, &tid).cnf).flatten();
    let half = UniformWeight(Rational::one_half());
    let mut arena = EvalArena::new();
    let warm = flat.eval_exact_with(&half, &mut arena);
    let (n, again) = allocations(|| flat.eval_exact_with(&half, &mut arena));
    assert_eq!(again, warm);
    assert_eq!(
        n,
        0,
        "pricing {} variables / {} gates at ½ allocated",
        flat.vars().len(),
        flat.gate_count()
    );
}

#[test]
fn rationals_are_three_words() {
    assert!(std::mem::size_of::<Rational>() <= 24);
}
