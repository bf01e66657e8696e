//! The zig-zag rewriting `zg(Q)` of Lemma 2.6 / Appendix A (Figure 2).
//!
//! Given a bipartite unsafe query `Q` of type `A–B` and length `k`, `zg(Q)`
//! is a bipartite unsafe query of type `A–A` and length `≥ 2k` over a new
//! vocabulary of `n` *branches*, such that `GFOMC(zg(Q)) ≤ᴾₘ GFOMC(Q)`:
//! every database `∆` for `zg(Q)` maps to a database `zg(∆)` for `Q` with
//! `Pr_∆(zg(Q)) = Pr_{zg(∆)}(Q)` (Lemma A.1) — with identical probability
//! *values*, so the reduction stays within `{0, ½, 1}`.
//!
//! Branch count: `n = 2` when `Q_right` is Type I, else
//! `n = max(3, largest subclause count of a right clause)`.
//!
//! Vocabulary mapping (Appendix A): each original binary `S_j` gets copies
//! `S_j^{(1..n)}`; if `Q` has `R` then `R^{(1)}` stays unary-left (our `R`),
//! `R^{(n)}` becomes unary-right (our `T`), and `R^{(2..n−1)}` become binary;
//! if `Q` has `T` it becomes the binary `T^{(12)}`.

use gfomc_arith::Rational;
use gfomc_query::{BipartiteQuery, Clause, ClauseShape, Pred};
use gfomc_tid::{Tid, Tuple};
use std::collections::{BTreeMap, BTreeSet};

/// A symbol of the zig-zag vocabulary.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ZgSym {
    /// Branch copy `S_j^{(i)}` of original binary symbol `j` (`1 ≤ i ≤ n`).
    S { orig: u32, branch: usize },
    /// The binary middle copies `R^{(i)}`, `2 ≤ i ≤ n−1`.
    RMid { branch: usize },
    /// The binary image `T^{(12)}` of the original `T`.
    T12,
}

/// The vocabulary registry of a zig-zag query.
#[derive(Clone, Debug)]
pub struct ZgVocab {
    /// Branch count `n`.
    pub n: usize,
    /// True iff the original query had `R` (then zg has unary `R`, `T`).
    pub has_r: bool,
    /// True iff the original query had `T` (then zg has `T^{(12)}`).
    pub has_t: bool,
    index: BTreeMap<ZgSym, u32>,
}

impl ZgVocab {
    fn build(orig_syms: &BTreeSet<u32>, n: usize, has_r: bool, has_t: bool) -> Self {
        let mut index = BTreeMap::new();
        let mut next = 0u32;
        for &j in orig_syms {
            for i in 1..=n {
                index.insert(ZgSym::S { orig: j, branch: i }, next);
                next += 1;
            }
        }
        if has_r {
            for i in 2..n {
                index.insert(ZgSym::RMid { branch: i }, next);
                next += 1;
            }
        }
        if has_t {
            index.insert(ZgSym::T12, next);
        }
        ZgVocab {
            n,
            has_r,
            has_t,
            index,
        }
    }

    /// The binary index of a zig-zag symbol in the rewritten query.
    pub fn code(&self, sym: ZgSym) -> u32 {
        *self
            .index
            .get(&sym)
            .unwrap_or_else(|| panic!("symbol {sym:?} not in zg vocabulary"))
    }

    fn branch_set(&self, j: &BTreeSet<u32>, branch: usize) -> Vec<u32> {
        j.iter()
            .map(|&s| self.code(ZgSym::S { orig: s, branch }))
            .collect()
    }
}

/// The rewritten query together with its vocabulary.
#[derive(Clone, Debug)]
pub struct ZigzagQuery {
    /// `zg(Q)`.
    pub query: BipartiteQuery,
    /// The symbol registry.
    pub vocab: ZgVocab,
}

/// Constructs `zg(Q)`. Requires `Q` to be of bipartite shape with both left
/// and right clauses (a type `A–B` query).
pub fn zg_query(q: &BipartiteQuery) -> ZigzagQuery {
    assert!(
        q.is_bipartite_shape() && q.query_type().is_some(),
        "zg requires a typed bipartite query"
    );
    // Branch count (Appendix A).
    let right_shapes: Vec<ClauseShape> = q.right_clauses().iter().map(|c| c.shape()).collect();
    let right_is_type_i = right_shapes
        .iter()
        .all(|s| matches!(s, ClauseShape::RightI(_)));
    let n = if right_is_type_i {
        2
    } else {
        right_shapes
            .iter()
            .map(|s| match s {
                ClauseShape::RightII(subs) => subs.len(),
                _ => 0,
            })
            .max()
            .unwrap()
            .max(3)
    };
    let has_r = q.symbols().contains(&Pred::R);
    let has_t = q.symbols().contains(&Pred::T);
    let vocab = ZgVocab::build(&q.binary_symbols(), n, has_r, has_t);
    let mut clauses: Vec<Clause> = Vec::new();
    for c in q.clauses() {
        match c.shape() {
            // Left Type I: (38)–(39).
            ClauseShape::LeftI(j) => {
                clauses.push(Clause::left_i(vocab.branch_set(&j, 1)));
                for i in 2..n {
                    let mut js = vocab.branch_set(&j, i);
                    js.push(vocab.code(ZgSym::RMid { branch: i }));
                    clauses.push(Clause::middle(js));
                }
                clauses.push(Clause::right_i(vocab.branch_set(&j, n)));
            }
            // Left Type II: (40)–(41).
            ClauseShape::LeftII(subs) => {
                let branch_subs = |branch: usize| -> Vec<Vec<u32>> {
                    subs.iter().map(|j| vocab.branch_set(j, branch)).collect()
                };
                let s1 = branch_subs(1);
                clauses.push(Clause::left_ii(
                    &s1.iter().map(Vec::as_slice).collect::<Vec<_>>(),
                ));
                for i in 2..n {
                    let union: Vec<u32> = branch_subs(i).into_iter().flatten().collect();
                    clauses.push(Clause::middle(union));
                }
                let sn = branch_subs(n);
                clauses.push(Clause::right_ii(
                    &sn.iter().map(Vec::as_slice).collect::<Vec<_>>(),
                ));
            }
            // Middle: (42).
            ClauseShape::Middle(j) => {
                for i in 1..=n {
                    clauses.push(Clause::middle(vocab.branch_set(&j, i)));
                }
            }
            // Right Type I: (43)–(44), with n = 2.
            ClauseShape::RightI(j) => {
                debug_assert_eq!(n, 2);
                for i in 1..=2 {
                    let mut js = vocab.branch_set(&j, i);
                    js.push(vocab.code(ZgSym::T12));
                    clauses.push(Clause::middle(js));
                }
            }
            // Right Type II: (45) — one middle clause per φ : [ℓ] → [n].
            ClauseShape::RightII(subs) => {
                let l = subs.len();
                let mut phi = vec![1usize; l];
                loop {
                    let union: Vec<u32> = subs
                        .iter()
                        .zip(phi.iter())
                        .flat_map(|(j, &b)| vocab.branch_set(j, b))
                        .collect();
                    clauses.push(Clause::middle(union));
                    // Advance φ in mixed radix over [1..n].
                    let mut pos = 0;
                    loop {
                        if pos == l {
                            break;
                        }
                        phi[pos] += 1;
                        if phi[pos] <= n {
                            break;
                        }
                        phi[pos] = 1;
                        pos += 1;
                    }
                    if pos == l {
                        break;
                    }
                }
            }
            ClauseShape::Other => panic!("zg cannot rewrite clause {c}"),
        }
    }
    ZigzagQuery {
        query: BipartiteQuery::new(clauses),
        vocab,
    }
}

/// Maps a database for `zg(Q)` to the database `zg(∆)` for `Q`
/// (Appendix A; Figure 2). Constant layout in `zg(∆)`:
///
/// * left: original left constants `u` (unchanged), original right
///   constants `v` (offset), and dead-end constants `f^{(i)}_{uv}`;
/// * right: one `e_{uv}` per pair.
///
/// Probability values are copied 1-to-1, so `{0, ½, 1}`-ness is preserved.
pub fn zg_database(zq: &ZigzagQuery, delta: &Tid) -> Tid {
    let n = zq.vocab.n;
    let v1: Vec<u32> = delta.left_domain().to_vec();
    let v2: Vec<u32> = delta.right_domain().to_vec();
    // Fresh constant layout.
    let left_u = |u: u32| u; // assume original ids < 10_000
    let base_v = 10_000u32;
    let left_v = |v: u32| base_v + v;
    let mut next_left = 20_000u32;
    let mut f_ids: BTreeMap<(usize, u32, u32), u32> = BTreeMap::new();
    for &u in &v1 {
        for &v in &v2 {
            for i in 2..n {
                f_ids.insert((i, u, v), next_left);
                next_left += 1;
            }
        }
    }
    let mut e_ids: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    let mut next_right = 0u32;
    for &u in &v1 {
        for &v in &v2 {
            e_ids.insert((u, v), next_right);
            next_right += 1;
        }
    }
    let mut lefts: Vec<u32> = v1.iter().map(|&u| left_u(u)).collect();
    lefts.extend(v2.iter().map(|&v| left_v(v)));
    lefts.extend(f_ids.values().copied());
    let mut out = Tid::all_present(lefts, e_ids.values().copied());
    let code = |sym: ZgSym| zq.vocab.code(sym);
    // Unary tuples.
    if zq.vocab.has_r {
        for &u in &v1 {
            out.set_prob(Tuple::R(left_u(u)), delta.prob(&Tuple::R(u)));
        }
        for &v in &v2 {
            out.set_prob(Tuple::R(left_v(v)), delta.prob(&Tuple::T(v)));
        }
        for (&(i, u, v), &f) in &f_ids {
            out.set_prob(
                Tuple::R(f),
                delta.prob(&Tuple::S(code(ZgSym::RMid { branch: i }), u, v)),
            );
        }
    }
    if zq.vocab.has_t {
        for (&(u, v), &e) in &e_ids {
            out.set_prob(Tuple::T(e), delta.prob(&Tuple::S(code(ZgSym::T12), u, v)));
        }
    }
    // Binary tuples: branch 1 at u, branches 2..n−1 at f's, branch n at v̄.
    let orig_syms: BTreeSet<u32> = zq
        .vocab
        .index
        .keys()
        .filter_map(|s| match s {
            ZgSym::S { orig, .. } => Some(*orig),
            _ => None,
        })
        .collect();
    for &u in &v1 {
        for &v in &v2 {
            let e = e_ids[&(u, v)];
            for &j in &orig_syms {
                out.set_prob(
                    Tuple::S(j, left_u(u), e),
                    delta.prob(&Tuple::S(code(ZgSym::S { orig: j, branch: 1 }), u, v)),
                );
                for i in 2..n {
                    out.set_prob(
                        Tuple::S(j, f_ids[&(i, u, v)], e),
                        delta.prob(&Tuple::S(code(ZgSym::S { orig: j, branch: i }), u, v)),
                    );
                }
                out.set_prob(
                    Tuple::S(j, left_v(v), e),
                    delta.prob(&Tuple::S(code(ZgSym::S { orig: j, branch: n }), u, v)),
                );
            }
        }
    }
    out
}

/// Convenience for tests: a database for `zg(Q)` with probabilities chosen
/// by a deterministic pseudo-random pick from `{0, ½, 1}` (biased toward ½
/// and 1 to keep lineages satisfiable and small).
pub fn pseudo_random_delta(zq: &ZigzagQuery, nu: u32, nv: u32, seed: u64) -> Tid {
    let left: Vec<u32> = (0..nu).collect();
    let right: Vec<u32> = (0..nv).collect();
    let mut tid = Tid::all_present(left.clone(), right.clone());
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut pick = || -> Rational {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match (state >> 33) % 4 {
            0 => Rational::one(),
            _ => Rational::one_half(),
        }
    };
    let zg_syms: Vec<u32> = zq.query.binary_symbols().into_iter().collect();
    if zq.vocab.has_r {
        for &u in &left {
            tid.set_prob(Tuple::R(u), pick());
        }
        for &v in &right {
            tid.set_prob(Tuple::T(v), pick());
        }
    }
    for &u in &left {
        for &v in &right {
            for &s in &zg_syms {
                tid.set_prob(Tuple::S(s, u, v), pick());
            }
        }
    }
    tid
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_query::{catalog, PartType};
    use gfomc_safety::{is_unsafe, query_length};
    use gfomc_tid::probability;

    #[test]
    fn zg_h1_is_a_chain_of_length_three() {
        // zg(H1) = (R∨S⁽¹⁾)(S⁽¹⁾∨T¹²)(T¹²∨S⁽²⁾)(S⁽²⁾∨T): length 3 = 2k+1.
        let zq = zg_query(&catalog::h1());
        assert_eq!(zq.vocab.n, 2);
        assert!(is_unsafe(&zq.query));
        assert_eq!(query_length(&zq.query), Some(3));
        let t = zq.query.query_type().unwrap();
        assert_eq!((t.left, t.right), (PartType::I, PartType::I));
    }

    #[test]
    fn zg_type_mapping_i_ii_to_i_i() {
        // Example A.3 is Type I–II; zg makes it I–I with n = 3.
        let q = catalog::example_a3();
        let t = q.query_type().unwrap();
        assert_eq!((t.left, t.right), (PartType::I, PartType::II));
        let zq = zg_query(&q);
        assert_eq!(zq.vocab.n, 3);
        let zt = zq.query.query_type().unwrap();
        assert_eq!((zt.left, zt.right), (PartType::I, PartType::I));
        assert!(is_unsafe(&zq.query));
    }

    #[test]
    fn zg_type_mapping_ii_ii_stays_ii_ii() {
        let q = catalog::example_c15();
        let zq = zg_query(&q);
        let zt = zq.query.query_type().unwrap();
        assert_eq!((zt.left, zt.right), (PartType::II, PartType::II));
        assert!(is_unsafe(&zq.query));
    }

    #[test]
    fn zg_length_at_least_doubles() {
        for (name, q) in [
            ("h1", catalog::h1()),
            ("h2", catalog::hk(2)),
            ("c15", catalog::example_c15()),
        ] {
            let k = query_length(&q).unwrap();
            let zk = query_length(&zg_query(&q).query).unwrap();
            assert!(zk >= 2 * k, "{name}: k={k}, zg length={zk}");
        }
    }

    #[test]
    fn lemma_a1_h1_small_domains() {
        let zq = zg_query(&catalog::h1());
        for seed in [0u64, 1, 2, 3, 42] {
            let delta = pseudo_random_delta(&zq, 2, 2, seed);
            let lhs = probability(&zq.query, &delta);
            let zdb = zg_database(&zq, &delta);
            let rhs = probability(&catalog::h1(), &zdb);
            assert_eq!(lhs, rhs, "seed {seed}");
        }
    }

    #[test]
    fn lemma_a1_h2() {
        let q = catalog::hk(2);
        let zq = zg_query(&q);
        let delta = pseudo_random_delta(&zq, 2, 1, 7);
        assert_eq!(
            probability(&zq.query, &delta),
            probability(&q, &zg_database(&zq, &delta)),
        );
    }

    #[test]
    fn lemma_a1_type_ii() {
        let q = catalog::example_c15();
        let zq = zg_query(&q);
        for seed in 0..3u64 {
            let delta = pseudo_random_delta(&zq, 1, 2, seed);
            assert_eq!(
                probability(&zq.query, &delta),
                probability(&q, &zg_database(&zq, &delta)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn lemma_a1_type_i_ii_with_dead_ends() {
        // Example A.3: n = 3, so the construction exercises the dead-end
        // branches f⁽²⁾ and the middle R⁽²⁾ copies.
        let q = catalog::example_a3();
        let zq = zg_query(&q);
        let delta = pseudo_random_delta(&zq, 1, 1, 3);
        assert_eq!(
            probability(&zq.query, &delta),
            probability(&q, &zg_database(&zq, &delta)),
        );
    }

    #[test]
    fn zg_preserves_gfomc_probability_values() {
        let zq = zg_query(&catalog::h1());
        let delta = pseudo_random_delta(&zq, 2, 2, 11);
        assert!(delta.is_gfomc_instance());
        let zdb = zg_database(&zq, &delta);
        assert!(zdb.is_gfomc_instance());
    }
}
