//! Workload generation: random block TIDs and random bipartite queries at
//! controlled safety, shared by the test suites and the load benchmark
//! (`benchmark/`).
//!
//! Everything here is seeded ([`rand::rngs::StdRng`] from the vendored,
//! deterministic `rand` stand-in), so test and benchmark workloads are
//! reproducible across runs and platforms.

use crate::TupleWeights;
use gfomc_arith::Rational;
use gfomc_query::{BipartiteQuery, Clause};
use gfomc_safety::{is_safe, is_unsafe};
use gfomc_tid::{Tid, Tuple};
use rand::Rng;

/// The safety class a generated query must land in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SafetyTarget {
    /// Only safe queries (no symbol-connected component mixes left and
    /// right clauses) — generated one-sided, so safety holds by shape.
    Safe,
    /// Only unsafe queries — a left and a right clause are forced to share
    /// a binary symbol, creating a left-right path.
    Unsafe,
    /// No constraint.
    Any,
}

/// A random bipartite query with `n_clauses` clauses over binary symbols
/// `0..n_symbols`, in the requested safety class.
///
/// Clause shapes are drawn from the Definition 2.3 menu (left/right Type I,
/// left/right Type II with two subclauses, middle). `SafetyTarget::Unsafe`
/// requires `n_clauses >= 2` (a left-right path needs a left and a right
/// clause) and `SafetyTarget::Safe` generates one-sided queries, which are
/// safe by construction; both are `debug_assert`-checked against the
/// [`gfomc_safety`] classifier.
pub fn random_query<R: Rng>(
    rng: &mut R,
    n_symbols: u32,
    n_clauses: usize,
    target: SafetyTarget,
) -> BipartiteQuery {
    assert!(n_symbols > 0, "need at least one binary symbol");
    assert!(n_clauses > 0, "need at least one clause");
    let q = match target {
        SafetyTarget::Any => {
            let clauses: Vec<Clause> = (0..n_clauses)
                .map(|_| random_clause(rng, n_symbols, 0..5))
                .collect();
            BipartiteQuery::new(clauses)
        }
        SafetyTarget::Safe => {
            // One-sided: every clause is leftish (or every clause rightish),
            // so no component can contain both roles.
            let leftish = rng.gen_bool(0.5);
            let shapes = if leftish { 0..3 } else { 2..5 };
            let clauses: Vec<Clause> = (0..n_clauses)
                .map(|_| random_clause(rng, n_symbols, shapes.clone()))
                .collect();
            let q = BipartiteQuery::new(clauses);
            debug_assert!(is_safe(&q), "one-sided query must be safe: {q:?}");
            q
        }
        SafetyTarget::Unsafe => {
            assert!(n_clauses >= 2, "an unsafe query needs >= 2 clauses");
            // A left and a right Type-I clause sharing `bridge` form a
            // left-right path of length one; the rest is unconstrained.
            // Query minimization can absorb a bridge clause into a random
            // extra one (dropping the path), so reject and resample until
            // the classifier confirms unsafety — almost always immediate.
            let mut attempts = 0;
            loop {
                let bridge = rng.gen_range(0..n_symbols);
                let mut clauses = vec![
                    Clause::left_i(symbol_set(rng, n_symbols, Some(bridge))),
                    Clause::right_i(symbol_set(rng, n_symbols, Some(bridge))),
                ];
                clauses.extend((0..n_clauses - 2).map(|_| random_clause(rng, n_symbols, 0..5)));
                let q = BipartiteQuery::new(clauses);
                if is_unsafe(&q) {
                    break q;
                }
                attempts += 1;
                assert!(attempts < 1000, "could not generate an unsafe query");
            }
        }
    };
    q
}

/// One random clause; `shapes` indexes the menu
/// `[left_i, left_ii, middle, right_ii, right_i]` (ordered so that any
/// prefix is leftish-only and any suffix rightish-only).
fn random_clause<R: Rng>(rng: &mut R, n_symbols: u32, shapes: core::ops::Range<u8>) -> Clause {
    match rng.gen_range(shapes) {
        0 => Clause::left_i(symbol_set(rng, n_symbols, None)),
        1 => {
            let a = symbol_set(rng, n_symbols, None);
            let b = symbol_set(rng, n_symbols, None);
            Clause::left_ii(&[&a, &b])
        }
        2 => Clause::middle(symbol_set(rng, n_symbols, None)),
        3 => {
            let a = symbol_set(rng, n_symbols, None);
            let b = symbol_set(rng, n_symbols, None);
            Clause::right_ii(&[&a, &b])
        }
        _ => Clause::right_i(symbol_set(rng, n_symbols, None)),
    }
}

/// A nonempty random subset of `0..n_symbols`, forced to contain `must`.
fn symbol_set<R: Rng>(rng: &mut R, n_symbols: u32, must: Option<u32>) -> Vec<u32> {
    let mut out: Vec<u32> = (0..n_symbols).filter(|_| rng.gen_bool(0.4)).collect();
    if let Some(s) = must {
        if !out.contains(&s) {
            out.push(s);
        }
    }
    if out.is_empty() {
        out.push(rng.gen_range(0..n_symbols));
    }
    out.sort_unstable();
    out
}

/// A random block TID for `q` over an `nu × nv` domain: every relevant
/// tuple (`R(u)`, `T(v)`, and each `S_s(u,v)` cell) gets an independent
/// probability `k/8`, `k ∈ 1..=7` — strictly uncertain, so the whole block
/// structure survives into the lineage.
pub fn random_block_tid<R: Rng>(rng: &mut R, q: &BipartiteQuery, nu: u32, nv: u32) -> Tid {
    block_tid_with(rng, q, nu, nv, |rng| {
        Rational::from_ints(rng.gen_range(1..=7i64), 8)
    })
}

/// A random *GFOMC-instance* block TID: probabilities drawn from
/// `{0, ½, 1}` (the input class of generalized model counting), biased
/// toward ½ so lineages stay non-degenerate.
pub fn random_gfomc_block_tid<R: Rng>(rng: &mut R, q: &BipartiteQuery, nu: u32, nv: u32) -> Tid {
    let tid = block_tid_with(rng, q, nu, nv, |rng| match rng.gen_range(0..4u8) {
        0 => Rational::zero(),
        1 => Rational::one(),
        _ => Rational::one_half(),
    });
    debug_assert!(tid.is_gfomc_instance());
    tid
}

fn block_tid_with<R: Rng>(
    rng: &mut R,
    q: &BipartiteQuery,
    nu: u32,
    nv: u32,
    mut prob: impl FnMut(&mut R) -> Rational,
) -> Tid {
    assert!(nu > 0 && nv > 0, "domains must be nonempty");
    let left: Vec<u32> = (0..nu).collect();
    let right: Vec<u32> = (1000..1000 + nv).collect();
    let mut tid = Tid::all_present(left.clone(), right.clone());
    for &u in &left {
        tid.set_prob(Tuple::R(u), prob(rng));
        for &v in &right {
            for s in q.binary_symbols() {
                tid.set_prob(Tuple::S(s, u, v), prob(rng));
            }
        }
    }
    for &v in &right {
        tid.set_prob(Tuple::T(v), prob(rng));
    }
    tid
}

/// The unsafe-query / large-block preset: a random **unsafe** query over
/// `n_symbols` binary symbols together with a `scale × scale` random block
/// TID whose tuples are all strictly uncertain.
///
/// This is the first-class benchmark scenario for the approximate-inference
/// stack: the lineage has `Θ(n_symbols · scale²)` variables, so from
/// `scale ≳ 3` its worst-case Shannon cost bound blows through any
/// reasonable circuit budget and `Engine::evaluate_auto` routes to the
/// Karp–Luby sampler. Seeded like everything else here — the same `rng`
/// state reproduces the same (query, TID) pair exactly.
pub fn unsafe_block_preset<R: Rng>(
    rng: &mut R,
    n_symbols: u32,
    scale: u32,
) -> (BipartiteQuery, Tid) {
    let q = random_query(rng, n_symbols, 2, SafetyTarget::Unsafe);
    let tid = random_block_tid(rng, &q, scale, scale);
    (q, tid)
}

/// `count` full random weight assignments over `support`: every tuple gets
/// an independent probability `k/8`, `k ∈ 1..=7`.
///
/// The draws are strictly interior on purpose — a weighting sweep models
/// varying tuple *probabilities* over a fixed database, which is the
/// compile-once/evaluate-many workload. Conditioning a tuple to 0/1 is a
/// different operation (build a [`TupleWeights`] with explicit endpoint
/// overrides, as the transfer-matrix oracle does); interior draws also keep
/// the comparison against the legacy counter honest, since that path
/// eliminates deterministic variables before expanding.
pub fn random_weightings<R: Rng>(
    rng: &mut R,
    support: &[Tuple],
    count: usize,
) -> Vec<TupleWeights> {
    (0..count)
        .map(|_| {
            support
                .iter()
                .map(|&t| (t, Rational::from_ints(rng.gen_range(1..=7i64), 8)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn safe_target_is_safe() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let q = random_query(&mut rng, 3, 3, SafetyTarget::Safe);
            assert!(is_safe(&q), "{q:?}");
        }
    }

    #[test]
    fn unsafe_target_is_unsafe() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let q = random_query(&mut rng, 3, 3, SafetyTarget::Unsafe);
            assert!(is_unsafe(&q), "{q:?}");
        }
    }

    #[test]
    fn any_target_produces_both_classes() {
        let mut rng = StdRng::seed_from_u64(3);
        let classes: Vec<bool> = (0..60)
            .map(|_| is_safe(&random_query(&mut rng, 3, 3, SafetyTarget::Any)))
            .collect();
        assert!(classes.iter().any(|&s| s));
        assert!(classes.iter().any(|&s| !s));
    }

    #[test]
    fn block_tids_cover_the_query_vocabulary() {
        let mut rng = StdRng::seed_from_u64(4);
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Any);
        let tid = random_block_tid(&mut rng, &q, 2, 3);
        assert_eq!(tid.left_domain().len(), 2);
        assert_eq!(tid.right_domain().len(), 3);
        for s in q.binary_symbols() {
            let p = tid.prob(&Tuple::S(s, 0, 1000));
            assert!(!p.is_zero() && !p.is_one());
        }
    }

    #[test]
    fn gfomc_block_tids_are_gfomc_instances() {
        let mut rng = StdRng::seed_from_u64(5);
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Any);
        let tid = random_gfomc_block_tid(&mut rng, &q, 2, 2);
        assert!(tid.is_gfomc_instance());
    }

    #[test]
    fn unsafe_preset_is_unsafe_and_interior() {
        let mut rng = StdRng::seed_from_u64(8);
        let (q, tid) = unsafe_block_preset(&mut rng, 2, 4);
        assert!(is_unsafe(&q), "{q:?}");
        assert_eq!(tid.left_domain().len(), 4);
        assert_eq!(tid.right_domain().len(), 4);
        for (_, p) in tid.explicit_tuples() {
            assert!(!p.is_zero() && !p.is_one());
        }
    }

    #[test]
    fn weightings_are_deterministic_per_seed() {
        let q = gfomc_query::catalog::h1();
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut rng_b = StdRng::seed_from_u64(6);
        let tid = random_block_tid(&mut rng_a, &q, 1, 1);
        let tid_b = random_block_tid(&mut rng_b, &q, 1, 1);
        assert_eq!(tid, tid_b);
        let support = crate::compile(&q, &tid).tuples();
        let ws_a = random_weightings(&mut rng_a, &support, 5);
        let ws_b = random_weightings(&mut rng_b, &support, 5);
        assert_eq!(ws_a, ws_b);
        assert_eq!(ws_a.len(), 5);
        assert!(ws_a.iter().all(|w| w.len() == support.len()));
    }
}
