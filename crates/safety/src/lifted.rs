//! Lifted (PTIME) evaluation of safe bipartite queries.
//!
//! This is the tractable side of the dichotomy (Theorem 2.1). A bipartite
//! query is safe iff no symbol-connected component of its clause set has
//! both left and right clauses (§2, discussion before Definition 2.4). Then:
//!
//! * components use disjoint symbols, hence disjoint tuples, hence are
//!   independent: `Pr(Q) = ∏ Pr(Q_component)`;
//! * a component with no right clauses has `x` in every atom, so the
//!   groundings `Q[a/x]` are independent across `a ∈ U`:
//!   `Pr = ∏_a Pr(Q[a/x])` — and each `Pr(Q[a/x])` is computed by Shannon
//!   expansion on `R(a)` followed by inclusion–exclusion over the
//!   `∀y`-subclause choices, whose events factorize over `b ∈ V`;
//! * a component with no left clauses is symmetric.
//!
//! The inclusion–exclusion is exponential only in the *query* size (number
//! of subclause choices), never in the database — the hallmark of lifted
//! inference.

use crate::paths::clause_role;
use gfomc_arith::Rational;
use gfomc_logic::{Clause as PropClause, Cnf, Compiler, EvalArena, NodeId, Var, WeightsFromFn};
use gfomc_query::{Atom, BipartiteQuery, CVar, Clause, Pred};
use gfomc_tid::{Tid, Tuple};
use std::collections::{BTreeSet, HashMap};

/// Error returned when the query is not safe (no PTIME plan exists unless
/// FP = #P, by Theorem 2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsafeQueryError;

impl std::fmt::Display for UnsafeQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query is unsafe: no polynomial-time lifted plan exists")
    }
}

impl std::error::Error for UnsafeQueryError {}

/// Evaluates a *safe* bipartite query in polynomial time in the database.
/// Returns [`UnsafeQueryError`] if the query has a left-right path.
pub fn lifted_probability(q: &BipartiteQuery, tid: &Tid) -> Result<Rational, UnsafeQueryError> {
    if q.is_false() {
        return Ok(Rational::zero());
    }
    if q.is_true() {
        return Ok(Rational::one());
    }
    let mut result = Rational::one();
    for comp in symbol_components(q) {
        let roles: Vec<_> = comp.iter().map(clause_role).collect();
        let has_left = roles.iter().any(|r| r.leftish);
        let has_right = roles.iter().any(|r| r.rightish);
        let p = match (has_left, has_right) {
            (true, true) => return Err(UnsafeQueryError),
            // No right clauses: x occurs in every atom; product over U.
            (_, false) => side_product(&comp, tid, Side::Left),
            // No left clauses: y occurs in every atom; product over V.
            (false, true) => side_product(&comp, tid, Side::Right),
        };
        result = &result * &p;
    }
    Ok(result)
}

/// Splits the clause set into symbol-connected components.
fn symbol_components(q: &BipartiteQuery) -> Vec<Vec<Clause>> {
    let clauses = q.clauses();
    let n = clauses.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    let mut owner: HashMap<Pred, usize> = HashMap::new();
    for (i, c) in clauses.iter().enumerate() {
        for p in c.symbols() {
            match owner.get(&p) {
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
                None => {
                    owner.insert(p, i);
                }
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<Clause>> = Default::default();
    for (i, c) in clauses.iter().enumerate() {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(c.clone());
    }
    groups.into_values().collect()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// `∏_{a ∈ side domain} Pr(component[a/x])` for a one-sided component.
fn side_product(clauses: &[Clause], tid: &Tid, side: Side) -> Rational {
    let outer: Vec<u32> = match side {
        Side::Left => tid.left_domain().to_vec(),
        Side::Right => tid.right_domain().to_vec(),
    };
    let mut acc = Rational::one();
    for &a in &outer {
        acc = &acc * &per_element_probability(clauses, tid, side, a);
        if acc.is_zero() {
            break;
        }
    }
    acc
}

/// One clause of a one-sided component, grounded at the outer element `a`:
/// an optional unary disjunct plus `∀`-subclauses over the inner domain.
struct GroundedClause {
    /// True iff the clause contains the unary symbol (`R` on the left side).
    has_unary: bool,
    /// The symbol sets `J_ℓ` of the subclauses `∀ inner S_{J_ℓ}`.
    subclauses: Vec<BTreeSet<u32>>,
}

/// `Pr(component[a/x])` by Shannon expansion on the unary tuple followed by
/// inclusion–exclusion over subclause choices.
fn per_element_probability(clauses: &[Clause], tid: &Tid, side: Side, a: u32) -> Rational {
    let grounded: Vec<GroundedClause> = clauses.iter().map(|c| ground_one_sided(c, side)).collect();
    let unary_tuple = match side {
        Side::Left => Tuple::R(a),
        Side::Right => Tuple::T(a),
    };
    let unary_prob = tid.prob(&unary_tuple);
    let uses_unary = grounded.iter().any(|g| g.has_unary);
    let mut total = Rational::zero();
    let branches: &[bool] = if uses_unary { &[false, true] } else { &[false] };
    for &unary_true in branches {
        let weight = if !uses_unary {
            Rational::one()
        } else if unary_true {
            unary_prob.clone()
        } else {
            unary_prob.complement()
        };
        if weight.is_zero() {
            continue;
        }
        // Clauses satisfied by the unary tuple drop out.
        let active: Vec<&GroundedClause> = grounded
            .iter()
            .filter(|g| !(unary_true && g.has_unary))
            .collect();
        total = &total + &(&weight * &conjunction_of_disjunctions(&active, tid, side, a));
    }
    total
}

/// Decomposes a one-sided clause into unary flag + subclause symbol sets.
fn ground_one_sided(c: &Clause, side: Side) -> GroundedClause {
    let mut has_unary = false;
    let mut groups: std::collections::BTreeMap<CVar, BTreeSet<u32>> = Default::default();
    for atom in c.atoms() {
        match (*atom, side) {
            (Atom::R(_), Side::Left) | (Atom::T(_), Side::Right) => has_unary = true,
            (Atom::S(i, _, y), Side::Left) => {
                groups.entry(y).or_default().insert(i);
            }
            (Atom::S(i, x, _), Side::Right) => {
                groups.entry(x).or_default().insert(i);
            }
            _ => panic!("clause is not one-sided for the chosen side"),
        }
    }
    GroundedClause {
        has_unary,
        subclauses: groups.into_values().collect(),
    }
}

/// `Pr(∧_i ∨_ℓ E_{J_iℓ})` where `E_J = ∧_{b ∈ inner} S_J(a,b)` (resp.
/// `S_J(b,a)`), by DNF distribution + inclusion–exclusion. Exponential in
/// the number of DNF disjuncts (a query constant), linear in the data.
fn conjunction_of_disjunctions(
    active: &[&GroundedClause],
    tid: &Tid,
    side: Side,
    a: u32,
) -> Rational {
    // A clause with no subclauses and no unary escape is false.
    if active.iter().any(|g| g.subclauses.is_empty()) {
        return Rational::zero();
    }
    if active.is_empty() {
        return Rational::one();
    }
    // DNF disjuncts: one subclause choice per clause; each disjunct is the
    // CNF (over symbol indices) of its chosen Js.
    let mut disjuncts: Vec<Cnf> = vec![Cnf::top()];
    for g in active {
        let mut next = Vec::with_capacity(disjuncts.len() * g.subclauses.len());
        for d in &disjuncts {
            for j in &g.subclauses {
                next.push(d.and(&Cnf::of_clause(PropClause::new(j.iter().map(|&i| Var(i))))));
            }
        }
        next.sort_by_key(|c| format!("{c:?}"));
        next.dedup();
        disjuncts = next;
    }
    let n = disjuncts.len();
    assert!(
        n <= 16,
        "query has too many subclause combinations for inclusion-exclusion"
    );
    // Compile every inclusion–exclusion cell `∧_{i ∈ mask} D_i` once, into
    // one shared pool: the cells are conjunctions of subsets of the same
    // disjunct CNFs over the same symbol variables, so their cofactors
    // overlap heavily and the pool stays small.
    let mut compiler = Compiler::new();
    let roots: Vec<NodeId> = (1u32..(1u32 << n))
        .map(|mask| {
            let cell_cnf = Cnf::and_all(
                (0..n)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| disjuncts[i].clone()),
            );
            compiler.compile(&cell_cnf)
        })
        .collect();
    // Evaluate-many: `Pr(∀ b ∈ inner: cell holds at (a,b))` factorizes over
    // `b`, and one bottom-up pass per `b` prices *all* cells at once. The
    // pool is frozen here, so it flattens once into the struct-of-arrays
    // form and every pass runs the dense forward loop over one arena.
    let flat = compiler.finish_flat();
    let inner: Vec<u32> = match side {
        Side::Left => tid.right_domain().to_vec(),
        Side::Right => tid.left_domain().to_vec(),
    };
    let mut cell_probs = vec![Rational::one(); roots.len()];
    let mut arena = EvalArena::new();
    for &b in &inner {
        let w = WeightsFromFn(|v: Var| {
            let t = match side {
                Side::Left => Tuple::S(v.0, a, b),
                Side::Right => Tuple::S(v.0, b, a),
            };
            tid.prob(&t)
        });
        let values = flat.evaluate_all_with(&w, &mut arena);
        for (acc, &root) in cell_probs.iter_mut().zip(&roots) {
            if !acc.is_zero() {
                *acc = &*acc * values.value(root);
            }
        }
        // Once every cell is zero no later `b` can move the product.
        if cell_probs.iter().all(Rational::is_zero) {
            break;
        }
    }
    // Signed inclusion–exclusion sum over the nonempty subsets of disjuncts.
    let mut total = Rational::zero();
    for (mask, p) in (1u32..(1u32 << n)).zip(&cell_probs) {
        if mask.count_ones() % 2 == 1 {
            total = &total + p;
        } else {
            total = &total - p;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_query::catalog;
    use gfomc_tid::probability;

    fn half() -> Rational {
        Rational::one_half()
    }

    fn uniform_tid(q: &BipartiteQuery, nu: u32, nv: u32) -> Tid {
        let left: Vec<u32> = (0..nu).collect();
        let right: Vec<u32> = (100..100 + nv).collect();
        let mut tid = Tid::all_present(left.clone(), right.clone());
        for &u in &left {
            tid.set_prob(Tuple::R(u), half());
            for &v in &right {
                for s in q.binary_symbols() {
                    tid.set_prob(Tuple::S(s, u, v), half());
                }
            }
        }
        for &v in &right {
            tid.set_prob(Tuple::T(v), half());
        }
        tid
    }

    #[test]
    fn unsafe_queries_rejected() {
        let q = catalog::h1();
        let tid = uniform_tid(&q, 1, 1);
        assert_eq!(lifted_probability(&q, &tid), Err(UnsafeQueryError));
    }

    #[test]
    fn safe_catalog_matches_wmc() {
        for (name, q) in catalog::safe_catalog() {
            for (nu, nv) in [(1, 1), (2, 2), (3, 2)] {
                let tid = uniform_tid(&q, nu, nv);
                let lifted = lifted_probability(&q, &tid).expect(name);
                let exact = probability(&q, &tid);
                assert_eq!(lifted, exact, "{name} at {nu}x{nv}");
            }
        }
    }

    #[test]
    fn safe_type_ii_left_only() {
        // ∀x (∀y S0 ∨ ∀y S1): safe (no right clauses), inclusion-exclusion
        // must handle the two subclauses.
        let q = BipartiteQuery::new([gfomc_query::Clause::left_ii(&[&[0], &[1]])]);
        for (nu, nv) in [(1, 2), (2, 2), (2, 3)] {
            let tid = uniform_tid(&q, nu, nv);
            let lifted = lifted_probability(&q, &tid).unwrap();
            let exact = probability(&q, &tid);
            assert_eq!(lifted, exact, "{nu}x{nv}");
        }
    }

    #[test]
    fn safe_right_only_component() {
        // ∀y (S0 ∨ T): safe, product over V.
        let q = BipartiteQuery::new([gfomc_query::Clause::right_i([0])]);
        let tid = uniform_tid(&q, 2, 3);
        assert_eq!(lifted_probability(&q, &tid).unwrap(), probability(&q, &tid));
    }

    #[test]
    fn middle_only_component() {
        // ∀x∀y (S0 ∨ S1): safe; treated as a left-side product.
        let q = BipartiteQuery::new([gfomc_query::Clause::middle([0, 1])]);
        let tid = uniform_tid(&q, 3, 2);
        assert_eq!(lifted_probability(&q, &tid).unwrap(), probability(&q, &tid));
    }

    #[test]
    fn rewriting_of_unsafe_query_evaluates() {
        // H2[S0 := 1] is safe; its lifted value must match exact WMC.
        let q = catalog::hk(2).set_symbol(Pred::S(0), true);
        let tid = uniform_tid(&catalog::hk(2), 2, 2);
        assert_eq!(lifted_probability(&q, &tid).unwrap(), probability(&q, &tid));
    }

    #[test]
    fn nonuniform_probabilities() {
        let q = catalog::safe_no_right();
        let mut tid = uniform_tid(&q, 2, 2);
        tid.set_prob(Tuple::R(0), Rational::zero());
        tid.set_prob(Tuple::S(0, 0, 100), Rational::from_ints(1, 3));
        tid.set_prob(Tuple::S(1, 1, 101), Rational::one());
        assert_eq!(lifted_probability(&q, &tid).unwrap(), probability(&q, &tid));
    }

    #[test]
    fn constants() {
        let tid = uniform_tid(&catalog::h1(), 1, 1);
        assert_eq!(
            lifted_probability(&BipartiteQuery::top(), &tid),
            Ok(Rational::one())
        );
        assert_eq!(
            lifted_probability(&BipartiteQuery::bottom(), &tid),
            Ok(Rational::zero())
        );
    }

    #[test]
    fn scales_to_large_domains() {
        // The whole point: 30×30 is far beyond brute force but instant for
        // the lifted plan.
        let q = catalog::safe_three_components();
        for n in [4, 8, 16, 30, 32] {
            let tid = uniform_tid(&q, n, n);
            let p = lifted_probability(&q, &tid).unwrap();
            assert!(p.is_probability(), "{n}×{n}");
            assert!(!p.is_zero(), "{n}×{n}");
        }
    }
}
