//! The Type-II zig-zag block `B^{(p)}(u,v)` of Definition C.21 (Figure 3).
//!
//! For Type-II queries the block endpoints live on opposite sides
//! (`u ∈ U` left, `v ∈ V` right) and the gadget is built from *elementary
//! blocks* `B(a,b) = {S₁(a,b), …, S_t(a,b)}`:
//!
//! * a **prefix** of `r` parallel branches `B(u, t_pref,i) ∪ B(r₀, t_pref,i)`;
//! * a **zig-zag** `B(r₀,t₀) ∪ B(r₁,t₀) ∪ B(r₁,t₁) ∪ … ∪ B(r_p,t_p)`;
//! * a **suffix** of `r` parallel branches `B(r_suff,i, t_p) ∪ B(r_suff,i, v)`;
//! * `m−2` **dead-end** branches per interior node (`m` = the largest
//!   subclause count of a left/right clause), which keep the grounded
//!   clauses of Eq. (45) non-redundant (Example A.3's phenomenon).
//!
//! All elementary-block tuples take probability ½ (the consistent
//! assignment of Theorem C.31); everything else is 1. The structural
//! facts verified in tests: the lineages `Y^{(p)}_{αβ}` are connected
//! (Lemma C.23), the map `(α,β) ↦ Y^{(p)}_{αβ}` is injective (Lemma C.22),
//! and the probabilities `y_{αβ}(p)` obey a single order-2 linear
//! recurrence shared across all `(α,β)` — the rank-2 transfer structure of
//! §C.8 (Eq. (79)).

use crate::block::ConstAlloc;
use crate::reduction_type2::type_ii_lattices;
use gfomc_arith::Rational;
use gfomc_logic::{wmc, Clause as PClause, Cnf, Var};
use gfomc_query::{BipartiteQuery, ClauseShape};
use gfomc_tid::{lineage, Tid, Tuple, VarTable};

/// The materialized Type-II block with its distinguished endpoints.
#[derive(Clone, Debug)]
pub struct Type2Block {
    /// The block database (all probabilities in {½, 1}).
    pub tid: Tid,
    /// The left endpoint `u`.
    pub u: u32,
    /// The right endpoint `v`.
    pub v: u32,
}

/// The largest subclause count of any left/right clause — the paper's `m`
/// (number of dead-end branches is `m − 2`).
pub fn max_subclause_count(q: &BipartiteQuery) -> usize {
    q.clauses()
        .iter()
        .map(|c| match c.shape() {
            ClauseShape::LeftII(subs) | ClauseShape::RightII(subs) => subs.len(),
            _ => 1,
        })
        .max()
        .unwrap_or(1)
}

/// Builds `B^{(p)}(u,v)` with `r` prefix/suffix branches.
pub fn type2_block(
    q: &BipartiteQuery,
    u: u32,
    v: u32,
    p: usize,
    r: usize,
    alloc: &mut ConstAlloc,
) -> Type2Block {
    let symbols: Vec<u32> = q.binary_symbols().into_iter().collect();
    let m = max_subclause_count(q);
    let dead_ends = m.saturating_sub(2);
    let half = Rational::one_half();
    let mut left_nodes = vec![u];
    let mut right_nodes = vec![v];
    let mut cells: Vec<(u32, u32)> = Vec::new();
    // Zig-zag spine nodes r_0..r_p (left) and t_0..t_p (right).
    let r_spine: Vec<u32> = (0..=p).map(|_| alloc.fresh_left()).collect();
    let t_spine: Vec<u32> = (0..=p).map(|_| alloc.fresh_right()).collect();
    left_nodes.extend(&r_spine);
    right_nodes.extend(&t_spine);
    // Prefix branches: u — t_pref,i — r_0.
    for _ in 0..r {
        let t_pref = alloc.fresh_right();
        right_nodes.push(t_pref);
        cells.push((u, t_pref));
        cells.push((r_spine[0], t_pref));
    }
    // Zig-zag: B(r_0,t_0), then B(r_i,t_{i-1}) ∪ B(r_i,t_i).
    cells.push((r_spine[0], t_spine[0]));
    for i in 1..=p {
        cells.push((r_spine[i], t_spine[i - 1]));
        cells.push((r_spine[i], t_spine[i]));
    }
    // Suffix branches: t_p — r_suff,i — v.
    for _ in 0..r {
        let r_suff = alloc.fresh_left();
        left_nodes.push(r_suff);
        cells.push((r_suff, t_spine[p]));
        cells.push((r_suff, v));
    }
    // Dead ends: per r_i, `dead_ends` fresh right nodes; per t_i, fresh left.
    for &ri in &r_spine {
        for _ in 0..dead_ends {
            let e = alloc.fresh_right();
            right_nodes.push(e);
            cells.push((ri, e));
        }
    }
    for &ti in &t_spine {
        for _ in 0..dead_ends {
            let f = alloc.fresh_left();
            left_nodes.push(f);
            cells.push((f, ti));
        }
    }
    let mut tid = Tid::all_present(left_nodes, right_nodes);
    for (a, b) in cells {
        for &s in &symbols {
            tid.set_prob(Tuple::S(s, a, b), half.clone());
        }
    }
    Type2Block { tid, u, v }
}

/// Grounds a per-cell CNF over symbols at a concrete cell, mapped into the
/// block's variable table (extending it with any missing ½-tuples).
fn ground_at_cell(cnf: &Cnf, a: u32, b: u32, tid: &Tid, vars: &mut VarTable) -> Cnf {
    Cnf::new(cnf.clauses().iter().filter_map(|c| {
        let mut lits = Vec::new();
        for &Var(s) in c.vars() {
            let t = Tuple::S(s, a, b);
            let p = tid.prob(&t);
            if p.is_one() {
                return None; // satisfied clause
            }
            if p.is_zero() {
                continue;
            }
            lits.push(vars.var_for(t, &p));
        }
        Some(PClause::new(lits))
    }))
}

/// The lineage `Y^{(p)}_{αβ}(u,v) = Φ_B(G_α(u) ∧ Q ∧ H_β(v))` over the
/// block, as a pair (CNF, weights). `g_alpha`/`h_beta` are per-cell CNFs
/// over symbol variables (from the lattices).
pub fn y_alpha_beta(
    q: &BipartiteQuery,
    block: &Type2Block,
    g_alpha: &Cnf,
    h_beta: &Cnf,
) -> (Cnf, VarTable) {
    // Q's lineage over the block.
    let lin = lineage(q, &block.tid);
    let mut vars = lin.vars;
    let mut parts = vec![lin.cnf];
    // G_α(u) = ∀y G_α(u, y): ground at every right node.
    for &b in block.tid.right_domain() {
        parts.push(ground_at_cell(g_alpha, block.u, b, &block.tid, &mut vars));
    }
    // H_β(v) = ∀x H_β(x, v): ground at every left node.
    for &a in block.tid.left_domain() {
        parts.push(ground_at_cell(h_beta, a, block.v, &block.tid, &mut vars));
    }
    (Cnf::and_all(parts), vars)
}

/// The probability table `y_{αβ}(p)` over the strict lattice supports, at
/// the all-½ assignment. Each cell is compiled on its own: every cell
/// builds its own [`VarTable`], so one `Var` can name different tuples in
/// different cells, and a shared compiler pool would mix them up.
pub fn y_table(q: &BipartiteQuery, p: usize, r: usize) -> Vec<Vec<Rational>> {
    let lats = type_ii_lattices(q);
    let mut alloc = ConstAlloc::new(10, 10);
    let block = type2_block(q, 0, 0, p, r, &mut alloc);
    let left0 = lats.left.strict_support();
    let right0 = lats.right.strict_support();
    let mut out = Vec::with_capacity(left0.len());
    for a in &left0 {
        let mut row = Vec::with_capacity(right0.len());
        for b in &right0 {
            let (cnf, vars) = y_alpha_beta(q, &block, &a.formula, &b.formula);
            row.push(wmc(&cnf, vars.weights()));
        }
        out.push(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_query::catalog;

    #[test]
    fn block_shape_counts() {
        let q = catalog::example_c15();
        let mut alloc = ConstAlloc::new(10, 10);
        let b = type2_block(&q, 0, 0, 2, 1, &mut alloc);
        // m = 2 for C.15, so no dead ends; spine 3+3, prefix 1 right node +
        // suffix 1 left node, endpoints u,v.
        assert_eq!(b.tid.left_domain().len(), 1 + 3 + 1);
        assert_eq!(b.tid.right_domain().len(), 1 + 3 + 1);
        assert!(b.tid.is_fomc_instance());
    }

    #[test]
    fn dead_ends_appear_for_wider_queries() {
        // A Type-II query with a 3-subclause right clause gets m−2 = 1
        // dead-end branch per spine node.
        let q = BipartiteQuery::new([
            gfomc_query::Clause::left_ii(&[&[0], &[1]]),
            gfomc_query::Clause::middle([0, 2]),
            gfomc_query::Clause::right_ii(&[&[2], &[3], &[4]]),
        ]);
        assert_eq!(max_subclause_count(&q), 3);
        let mut alloc = ConstAlloc::new(10, 10);
        let b = type2_block(&q, 0, 0, 1, 1, &mut alloc);
        // Spine: 2 left + 2 right; dead ends: 2 right (for r_i), 2 left
        // (for t_i); prefix/suffix 1 each; endpoints 2.
        assert_eq!(b.tid.left_domain().len(), 1 + 2 + 1 + 2);
        assert_eq!(b.tid.right_domain().len(), 1 + 2 + 1 + 2);
    }

    #[test]
    fn lemma_c23_lineages_connected() {
        // For the forbidden query C.15 every Y_αβ is connected.
        let q = catalog::example_c15();
        let lats = type_ii_lattices(&q);
        let mut alloc = ConstAlloc::new(10, 10);
        let block = type2_block(&q, 0, 0, 1, 1, &mut alloc);
        for a in lats.left.strict_support() {
            for b in lats.right.strict_support() {
                let (cnf, _) = y_alpha_beta(&q, &block, &a.formula, &b.formula);
                assert!(!cnf.is_false());
                assert!(
                    cnf.is_connected(),
                    "Y_αβ disconnected for α={:?}, β={:?}",
                    a.set,
                    b.set
                );
            }
        }
    }

    #[test]
    fn lemma_c22_injectivity() {
        // Distinct (α,β) give distinct lineages over the same block.
        let q = catalog::example_c15();
        let lats = type_ii_lattices(&q);
        let mut alloc = ConstAlloc::new(10, 10);
        let block = type2_block(&q, 0, 0, 1, 1, &mut alloc);
        let mut seen: Vec<Cnf> = Vec::new();
        for a in lats.left.strict_support() {
            for b in lats.right.strict_support() {
                let (cnf, _) = y_alpha_beta(&q, &block, &a.formula, &b.formula);
                assert!(!seen.contains(&cnf), "duplicate lineage");
                seen.push(cnf);
            }
        }
    }

    #[test]
    fn y_values_are_probabilities_and_monotone_in_alpha() {
        let q = catalog::example_c15();
        let table = y_table(&q, 1, 1);
        for row in &table {
            for y in row {
                assert!(y.is_probability());
                assert!(y.is_positive());
            }
        }
    }

    #[test]
    fn rank_two_recurrence_shared_across_pairs() {
        // §C.8 (Eq. 79): every y_αβ(p) is a·λ₁^p + b·λ₂^p with λ's
        // independent of (α,β), so all sequences satisfy one order-2 linear
        // recurrence y(p+2) = c1·y(p+1) + c2·y(p). Fit c1, c2 from the first
        // pair and check every other pair, exactly.
        let q = catalog::example_c15();
        let tables: Vec<Vec<Vec<Rational>>> = (1..=4).map(|p| y_table(&q, p, 1)).collect();
        let seq = |ai: usize, bi: usize| -> Vec<Rational> {
            tables.iter().map(|t| t[ai][bi].clone()).collect()
        };
        // Solve the 2×2 system from pair (0,0):
        //   y3 = c1 y2 + c2 y1 ; y4 = c1 y3 + c2 y2.
        let s = seq(0, 0);
        let det = &(&s[1] * &s[1]) - &(&s[2] * &s[0]);
        assert!(!det.is_zero(), "degenerate base sequence");
        let c1 = &(&(&s[2] * &s[1]) - &(&s[3] * &s[0])) / &det;
        let c2 = &(&(&s[3] * &s[1]) - &(&s[2] * &s[2])) / &det;
        let n_left = tables[0].len();
        let n_right = tables[0][0].len();
        for ai in 0..n_left {
            for bi in 0..n_right {
                let s = seq(ai, bi);
                for p in 0..2 {
                    let predicted = &(&c1 * &s[p + 1]) + &(&c2 * &s[p]);
                    assert_eq!(
                        predicted,
                        s[p + 2],
                        "recurrence broken at pair ({ai},{bi}), step {p}"
                    );
                }
            }
        }
    }
}
