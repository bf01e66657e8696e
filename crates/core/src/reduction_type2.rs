//! Type-II machinery: the Möbius block formula of Theorem C.19 and the
//! `Q_αβ` family (Eqs. (51)–(53), Lemma C.10).
//!
//! For Type-II queries there are no unary atoms to Shannon-expand on;
//! instead the proof rewrites `Q_left` as `∀x (G₁(x) ∨ … ∨ G_m(x))`
//! (Eq. (47)) and applies the Möbius inversion formula over the CNF lattice
//! of `{Gᵢ ∧ C}` (Definition C.8) — and symmetrically on the right. Over a
//! disjoint union of blocks the probability becomes a signed sum over
//! lattice-colorings of the endpoints (Theorem C.19):
//!
//! ```text
//! Pr(Q) = (−1)^{|U|+|V|} Σ_{σ: U→L₀(G), τ: V→L₀(H)}
//!         (∏_u µ(σ(u))) (∏_v µ(τ(v))) ∏_{u,v} Pr(Y_{σ(u)τ(v)}(u,v))
//! ```
//!
//! This module instantiates the formula with *elementary* blocks (a single
//! `S`-cell per endpoint pair, probabilities in `{0, ½, 1}`) and verifies it
//! against the direct lineage probability — the computational content of the
//! Type-II hardness pipeline short of the (existential) prefix/suffix branch
//! choices of Theorem C.38.

use gfomc_arith::Rational;
use gfomc_logic::{Cnf, Compiler, EvalArena, NodeId, Valuation, Var, WeightsFromFn};
use gfomc_query::{cnf_implies, BipartiteQuery, ClauseShape, MobiusLattice};
use gfomc_tid::{probability, Tid, Tuple};
use std::collections::HashMap;

/// The two lattices of a Type-II query: `L(G)` over `{Gᵢ ∧ C}` and `L(H)`
/// over `{C ∧ Hⱼ}` (Definition C.8).
#[derive(Clone, Debug)]
pub struct TypeIiLattices {
    /// The left lattice `L̂(G)`.
    pub left: MobiusLattice,
    /// The right lattice `L̂(H)`.
    pub right: MobiusLattice,
}

/// Builds both lattices for a Type-II query.
pub fn type_ii_lattices(q: &BipartiteQuery) -> TypeIiLattices {
    let c = q.middle_cnf();
    let left_formulas: Vec<Cnf> = q.left_dnf().into_iter().map(|g| g.and(&c)).collect();
    let right_formulas: Vec<Cnf> = q.right_dnf().into_iter().map(|h| c.and(&h)).collect();
    TypeIiLattices {
        left: MobiusLattice::build(&left_formulas),
        right: MobiusLattice::build(&right_formulas),
    }
}

/// The grounding of a Type-II query at a single cell `(u, v)`: every clause
/// collapses to the union of its subclause symbol sets (over variables
/// `Var(symbol index)`).
pub fn cell_cnf_of_query(q: &BipartiteQuery) -> Cnf {
    Cnf::new(q.clauses().iter().map(|c| {
        let j: std::collections::BTreeSet<u32> = match c.shape() {
            ClauseShape::Middle(j) => j,
            ClauseShape::LeftII(subs) | ClauseShape::RightII(subs) => {
                subs.into_iter().flatten().collect()
            }
            other => panic!("cell grounding requires a Type II-II query, got {other:?}"),
        };
        gfomc_logic::Clause::new(j.into_iter().map(Var))
    }))
}

/// The cell formula of `Q_αβ = G_α(x) ∧ Q ∧ H_β(y)` (Eq. (53)) at one cell:
/// `α`/`β` formulas come from the lattices (the top `1̂` contributes nothing
/// beyond `Q` itself, per Eq. (55)).
pub fn qab_cell_cnf(q_cell: &Cnf, g_alpha: &Cnf, h_beta: &Cnf) -> Cnf {
    g_alpha.and(q_cell).and(h_beta)
}

/// Lemma C.10-style invertibility of `(α, β) ↦ Q_αβ` at the cell level:
/// distinct lattice-element pairs give distinct cell CNFs, and implication
/// between them respects the lattice orders.
pub fn qab_map_is_invertible(q: &BipartiteQuery) -> bool {
    let lats = type_ii_lattices(q);
    let q_cell = cell_cnf_of_query(q);
    let mut seen: Vec<(usize, usize, Cnf)> = Vec::new();
    for (ai, a) in lats.left.elements.iter().enumerate() {
        for (bi, b) in lats.right.elements.iter().enumerate() {
            let f = qab_cell_cnf(&q_cell, &a.formula, &b.formula);
            for (aj, bj, g) in &seen {
                if g == &f && (*aj, *bj) != (ai, bi) {
                    return false;
                }
                // Implication must respect the (reverse-inclusion) orders:
                // Q_{α1β1} ⇒ Q_{α2β2} requires α1 ≤ α2 and β1 ≤ β2, i.e.
                // set2 ⊆ set1 on both coordinates.
                if cnf_implies(&f, g)
                    && !(lats.left.elements[*aj].set.is_subset(&a.set)
                        && lats.right.elements[*bj].set.is_subset(&b.set))
                {
                    return false;
                }
            }
            seen.push((ai, bi, f));
        }
    }
    true
}

/// A database of elementary blocks: one `S`-cell per `(u,v) ∈ U × V`, with
/// per-cell symbol probabilities supplied by `prob(sym, u, v)`.
pub fn elementary_block_tid(
    q: &BipartiteQuery,
    nu: u32,
    nv: u32,
    prob: &impl Fn(u32, u32, u32) -> Rational,
) -> Tid {
    let left: Vec<u32> = (0..nu).collect();
    let right: Vec<u32> = (1000..1000 + nv).collect();
    let mut tid = Tid::all_present(left.clone(), right.clone());
    for &u in &left {
        for &v in &right {
            for s in q.binary_symbols() {
                tid.set_prob(Tuple::S(s, u, v), prob(s, u, v - 1000));
            }
        }
    }
    tid
}

/// The right-hand side of Theorem C.19 over elementary blocks: the signed
/// Möbius sum over lattice colorings of the endpoints.
pub fn mobius_formula_probability(
    q: &BipartiteQuery,
    nu: u32,
    nv: u32,
    prob: &impl Fn(u32, u32, u32) -> Rational,
) -> Rational {
    let lats = type_ii_lattices(q);
    let q_cell = cell_cnf_of_query(q);
    let left0 = lats.left.strict_support();
    let right0 = lats.right.strict_support();
    // Compile every cell formula `Q_αβ` once, into one shared pool — the
    // cells are conjunctions over the same symbol variables, so their
    // cofactors overlap heavily. One bottom-up pass per `(u, v)` then
    // prices *all* of them under that cell's probabilities, instead of one
    // Shannon expansion per (pair, α, β).
    let mut compiler = Compiler::new();
    let roots: Vec<Vec<NodeId>> = left0
        .iter()
        .map(|a| {
            right0
                .iter()
                .map(|b| compiler.compile(&qab_cell_cnf(&q_cell, &a.formula, &b.formula)))
                .collect()
        })
        .collect();
    // All cells are compiled; flatten the frozen pool once, then price it
    // under *every* (u, v) cell's probabilities — one forward pass per
    // Möbius cell, all over one arena.
    let flat = compiler.finish_flat();
    let mut arena = EvalArena::new();
    let valuations: HashMap<(u32, u32), Valuation> = (0..nu)
        .flat_map(|u| (0..nv).map(move |v| (u, v)))
        .map(|(u, v)| {
            let w = WeightsFromFn(|var: Var| prob(var.0, u, v));
            ((u, v), flat.evaluate_all_with(&w, &mut arena))
        })
        .collect();
    let y = |u: u32, v: u32, ai: usize, bi: usize| -> Rational {
        valuations[&(u, v)].value(roots[ai][bi]).clone()
    };
    let mut total = Rational::zero();
    let mut sigma = vec![0usize; nu as usize];
    loop {
        let mut tau = vec![0usize; nv as usize];
        loop {
            let mut term = Rational::one();
            for &ai in &sigma {
                term = &term * &Rational::from(left0[ai].mobius.clone());
            }
            for &bi in &tau {
                term = &term * &Rational::from(right0[bi].mobius.clone());
            }
            if !term.is_zero() {
                'pairs: for u in 0..nu {
                    for v in 0..nv {
                        term = &term * &y(u, v, sigma[u as usize], tau[v as usize]);
                        if term.is_zero() {
                            break 'pairs;
                        }
                    }
                }
                total = &total + &term;
            }
            if !increment(&mut tau, right0.len()) {
                break;
            }
        }
        if !increment(&mut sigma, left0.len()) {
            break;
        }
    }
    // (−1)^{|U| + |V|}.
    if (nu + nv) % 2 == 1 {
        total = -total;
    }
    total
}

fn increment(digits: &mut [usize], radix: usize) -> bool {
    for d in digits.iter_mut() {
        *d += 1;
        if *d < radix {
            return true;
        }
        *d = 0;
    }
    false
}

/// Theorem C.19 as a checkable equation: direct lineage probability equals
/// the Möbius formula on elementary blocks.
pub fn theorem_c19_holds(
    q: &BipartiteQuery,
    nu: u32,
    nv: u32,
    prob: &impl Fn(u32, u32, u32) -> Rational,
) -> bool {
    let tid = elementary_block_tid(q, nu, nv, prob);
    let direct = probability(q, &tid);
    let mobius = mobius_formula_probability(q, nu, nv, prob);
    direct == mobius
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_arith::Integer;
    use gfomc_query::catalog;

    fn uniform_half(_s: u32, _u: u32, _v: u32) -> Rational {
        Rational::one_half()
    }

    #[test]
    fn lattices_of_c15() {
        // One left clause with two subclauses: G-formulas = {G1∧C, G2∧C},
        // strict support of size 3 ({0}, {1}, {0,1}); same on the right.
        let lats = type_ii_lattices(&catalog::example_c15());
        assert_eq!(lats.left.strict_support().len(), 3);
        assert_eq!(lats.right.strict_support().len(), 3);
        // µ values: −1, −1, +1.
        let mus: Vec<Integer> = lats
            .left
            .strict_support()
            .iter()
            .map(|e| e.mobius.clone())
            .collect();
        assert_eq!(
            mus.iter().filter(|m| **m == Integer::from(-1i64)).count(),
            2
        );
        assert_eq!(mus.iter().filter(|m| **m == Integer::one()).count(), 1);
    }

    #[test]
    fn cell_cnf_shape_c15() {
        // Left clause → (S0∨S1∨S2); middle → (S1∨S2∨S3∨S4);
        // right → (S3∨S4∨S5). The middle clause is absorbed by neither.
        let cell = cell_cnf_of_query(&catalog::example_c15());
        assert_eq!(cell.len(), 3);
    }

    #[test]
    fn qab_map_invertible_for_c15() {
        assert!(qab_map_is_invertible(&catalog::example_c15()));
    }

    #[test]
    fn theorem_c19_uniform_1x1() {
        assert!(theorem_c19_holds(
            &catalog::example_c15(),
            1,
            1,
            &uniform_half
        ));
    }

    #[test]
    fn theorem_c19_uniform_2x1_and_1x2() {
        assert!(theorem_c19_holds(
            &catalog::example_c15(),
            2,
            1,
            &uniform_half
        ));
        assert!(theorem_c19_holds(
            &catalog::example_c15(),
            1,
            2,
            &uniform_half
        ));
    }

    #[test]
    fn theorem_c19_uniform_2x2() {
        assert!(theorem_c19_holds(
            &catalog::example_c15(),
            2,
            2,
            &uniform_half
        ));
    }

    #[test]
    fn theorem_c19_nonuniform_gfomc_probs() {
        // Probabilities in {0, ½, 1} varying per cell — the GFOMC setting.
        let prob = |s: u32, u: u32, v: u32| -> Rational {
            match (s + 2 * u + 3 * v) % 4 {
                0 => Rational::one(),
                1 | 2 => Rational::one_half(),
                _ => Rational::one_half(),
            }
        };
        assert!(theorem_c19_holds(&catalog::example_c15(), 2, 2, &prob));
        let prob_with_zero = |s: u32, u: u32, v: u32| -> Rational {
            // Zeroing a non-critical symbol still must satisfy the identity.
            if s == 1 && u == 0 && v == 0 {
                Rational::zero()
            } else {
                Rational::one_half()
            }
        };
        assert!(theorem_c19_holds(
            &catalog::example_c15(),
            2,
            2,
            &prob_with_zero
        ));
    }

    #[test]
    fn theorem_c19_on_example_c9() {
        // Example C.9 is unsafe Type II (not forbidden); the Möbius identity
        // holds for any Type-II query over disjoint blocks.
        assert!(theorem_c19_holds(
            &catalog::example_c9(),
            2,
            2,
            &uniform_half
        ));
    }
}
