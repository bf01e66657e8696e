//! The engine's headline claim: compile-once / evaluate-many beats N
//! independent WMC runs on a block-TID workload.
//!
//! The workload is the paper's own shape (§3, Theorem 3.4): one block
//! database, one lineage, *many* weight assignments. The `independent_wmc`
//! series re-grounds the query and re-runs Shannon expansion for every
//! assignment (what callers did before `gfomc-engine`); the
//! `compile_once` series compiles the lineage once and prices every
//! assignment with a bottom-up circuit pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gfomc_arith::Rational;
use gfomc_engine::workload::{random_block_tid, random_weightings, unsafe_block_preset};
use gfomc_engine::{Engine, TupleWeights};
use gfomc_logic::{wmc, Circuit};
use gfomc_query::{catalog, BipartiteQuery};
use gfomc_tid::{lineage, Tid};
use rand::{rngs::StdRng, SeedableRng};

/// Number of weight assignments per workload — the acceptance bar is ≥ 10.
const N_WEIGHTS: usize = 12;

fn workload(q: &BipartiteQuery, nu: u32, nv: u32) -> (Tid, Vec<TupleWeights>) {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let tid = random_block_tid(&mut rng, q, nu, nv);
    let support = Engine::new().compile(q, &tid).tuples();
    let weightings = random_weightings(&mut rng, &support, N_WEIGHTS);
    (tid, weightings)
}

/// The legacy path: one full lineage + Shannon expansion per assignment.
fn independent_wmc(q: &BipartiteQuery, tid: &Tid, weightings: &[TupleWeights]) -> usize {
    let mut out = 0;
    for w in weightings {
        let mut db = tid.clone();
        for (&t, p) in w.iter() {
            db.set_prob(t, p.clone());
        }
        let lin = lineage(q, &db);
        let p = wmc(&lin.cnf, lin.vars.weights());
        out += usize::from(!p.is_zero());
    }
    out
}

/// The compiled path: one compilation, then one circuit pass per assignment.
fn compile_once(q: &BipartiteQuery, tid: &Tid, weightings: &[TupleWeights]) -> usize {
    let compiled = Engine::new().compile(q, tid);
    compiled
        .evaluate_batch(weightings)
        .iter()
        .filter(|p| !p.is_zero())
        .count()
}

fn bench_engine_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_batch_h1");
    for (nu, nv) in [(2u32, 2u32), (3, 3)] {
        let q = catalog::h1();
        let (tid, weightings) = workload(&q, nu, nv);
        group.bench_with_input(
            BenchmarkId::new("compile_once", format!("{nu}x{nv}x{N_WEIGHTS}")),
            &(),
            |b, ()| b.iter(|| compile_once(&q, &tid, &weightings)),
        );
        group.bench_with_input(
            BenchmarkId::new("independent_wmc", format!("{nu}x{nv}x{N_WEIGHTS}")),
            &(),
            |b, ()| b.iter(|| independent_wmc(&q, &tid, &weightings)),
        );
    }
    group.finish();
}

/// The compilation cache on a repeated-compile workload: the second and
/// later `Engine::compile` calls for the same canonical lineage are cache
/// hits (an `Arc` bump plus a fresh var table), not recompilations.
fn bench_engine_cache(c: &mut Criterion) {
    let q = catalog::h1();
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let tid = random_block_tid(&mut rng, &q, 3, 3);
    let mut group = c.benchmark_group("engine_compile_cache_h1_3x3");
    group.bench_function("cold", |b| {
        b.iter(|| {
            Engine::builder()
                .cache_capacity(0)
                .build()
                .compile(&q, &tid)
        })
    });
    let engine = Engine::new();
    engine.compile(&q, &tid);
    group.bench_function("hit", |b| b.iter(|| engine.compile(&q, &tid)));
    group.finish();
    assert!(engine.cache_stats().hits > 0);
}

fn bench_engine_batch_h2(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_batch_h2");
    let q = catalog::hk(2);
    let (tid, weightings) = workload(&q, 2, 2);
    group.bench_function(BenchmarkId::new("compile_once", N_WEIGHTS), |b| {
        b.iter(|| compile_once(&q, &tid, &weightings))
    });
    group.bench_function(BenchmarkId::new("independent_wmc", N_WEIGHTS), |b| {
        b.iter(|| independent_wmc(&q, &tid, &weightings))
    });
    group.finish();
}

/// The flat struct-of-arrays forward pass against the recursive tree
/// evaluator, on the same compiled lineage (the seeded 3×3 unsafe-block
/// preset). Both rows return the same `Rational` bit-for-bit — only the
/// traversal differs: dense slices and packed children vs pointer-chased
/// `Box`ed nodes.
fn bench_flat_vs_tree(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xA55E55);
    let (q, tid) = unsafe_block_preset(&mut rng, 2, 3);
    let lin = lineage(&q, &tid);
    let tree = Circuit::compile(&lin.cnf);
    let flat = tree.flatten();
    let w = lin.vars.weights();
    assert_eq!(flat.eval_exact(w), tree.evaluate(w));
    let mut group = c.benchmark_group("flat_vs_tree_unsafe_3x3");
    group.bench_function("flat_eval_exact", |b| b.iter(|| flat.eval_exact(w)));
    group.bench_function("tree_evaluate", |b| b.iter(|| tree.evaluate(w)));
    group.finish();
}

/// The interval fast path against the exact rational pass on the compiled
/// preset: a full threshold sweep certified from f64 intervals (with exact
/// fallback only where the interval is inconclusive) vs pricing the exact
/// value once and comparing rationally.
fn bench_interval_vs_exact(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xA55E55);
    let (q, tid) = unsafe_block_preset(&mut rng, 2, 3);
    let compiled = Engine::new().compile(&q, &tid);
    let thresholds: Vec<Rational> = (0..=16).map(|k| Rational::from_ints(k, 16)).collect();
    let exact = compiled.evaluate_db();
    for t in &thresholds {
        assert_eq!(compiled.certify_le_db(t).0, &exact <= t);
    }
    let mut group = c.benchmark_group("interval_vs_exact_unsafe_3x3");
    group.bench_function("interval_certify_sweep", |b| {
        b.iter(|| {
            thresholds
                .iter()
                .filter(|t| compiled.certify_le_db(t).0)
                .count()
        })
    });
    group.bench_function("exact_eval_sweep", |b| {
        b.iter(|| {
            let p = compiled.evaluate_db();
            thresholds.iter().filter(|t| &p <= t).count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_batch,
    bench_engine_cache,
    bench_engine_batch_h2,
    bench_flat_vs_tree,
    bench_interval_vs_exact
);
criterion_main!(benches);
