//! Lineage construction: grounding a ∀CNF query over a TID.
//!
//! The lineage `Φ_∆(Q)` (§2, footnote 4) is the monotone CNF obtained by
//! grounding every clause of `Q` over the database domain, one propositional
//! variable per ground tuple. Deterministic tuples are folded in during
//! grounding: a probability-1 tuple satisfies its ground clause outright, a
//! probability-0 tuple disappears from it.
//!
//! Grounding works on domain positions. A clause's variables are canonical
//! (`x0 … x(nx-1)`, `y0 … y(ny-1)`), so an assignment is one array of left
//! positions and one of right positions, and every ground tuple has a slot
//! number computed from its symbol and positions. Only explicitly listed
//! tuples can be uncertain, so one per-request table holds them, sorted by
//! slot and found by binary search, and records the variable each one was
//! given on first use. Its size follows the listed tuples, not the domain.
//! Variables are numbered in order of first use, as the grounding loops
//! meet them.

use crate::database::{Tid, Tuple};
use gfomc_arith::Rational;
use gfomc_logic::{Clause as PropClause, Cnf, Var};
use gfomc_query::clause::MAX_SORT_VARS;
use gfomc_query::{Atom, BipartiteQuery, CVar, Clause};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The ground tuples of a lineage and their probabilities, indexed by
/// propositional variable; the weights are a [`gfomc_logic::WeightFn`].
///
/// The tuple → variable index is built on the first [`VarTable::lookup`]
/// or [`VarTable::var_for`] and kept up to date from then on. Grounding
/// interns through its own positional table, so a lineage built for one
/// evaluation never hashes a tuple.
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    tuples: Vec<Tuple>,
    weights: Vec<Rational>,
    index: OnceLock<HashMap<Tuple, Var>>,
}

impl VarTable {
    /// An empty table with room for `n` tuples.
    fn with_capacity(n: usize) -> VarTable {
        VarTable {
            tuples: Vec::with_capacity(n),
            weights: Vec::with_capacity(n),
            index: OnceLock::new(),
        }
    }

    fn index(&self) -> &HashMap<Tuple, Var> {
        self.index.get_or_init(|| {
            (0..self.tuples.len() as u32)
                .map(|i| (self.tuples[i as usize], Var(i)))
                .collect()
        })
    }

    /// Interns a tuple, assigning it the next variable id.
    pub fn var_for(&mut self, t: Tuple, prob: &Rational) -> Var {
        match self.index().get(&t) {
            Some(&v) => v,
            None => self.push(t, prob.clone()),
        }
    }

    /// Appends a tuple not yet in the table.
    fn push(&mut self, t: Tuple, prob: Rational) -> Var {
        let v = Var(self.tuples.len() as u32);
        self.tuples.push(t);
        self.weights.push(prob);
        if let Some(index) = self.index.get_mut() {
            index.insert(t, v);
        }
        v
    }

    /// Looks up the variable of a tuple, if interned.
    pub fn lookup(&self, t: &Tuple) -> Option<Var> {
        self.index().get(t).copied()
    }

    /// The tuple of a variable.
    pub fn tuple_of(&self, v: Var) -> Tuple {
        self.tuples[v.0 as usize]
    }

    /// The weight (tuple probability) of a variable.
    pub fn weight(&self, v: Var) -> &Rational {
        &self.weights[v.0 as usize]
    }

    /// The weights for the WMC engine, indexed by variable.
    pub fn weights(&self) -> &Vec<Rational> {
        &self.weights
    }

    /// Number of interned tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff no tuples are interned.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// The lineage of a query over a TID, together with the variable table.
#[derive(Clone, Debug)]
pub struct Lineage {
    /// The ground CNF `Φ_∆(Q)`.
    pub cnf: Cnf,
    /// Tuple ↔ variable mapping with probabilities.
    pub vars: VarTable,
}

/// Computes the lineage `Φ_∆(Q)`.
///
/// Probability-1 tuples are *not* interned (their ground clauses are
/// satisfied or the atom is constant-true only if it satisfies the clause —
/// a true disjunct makes the whole ground clause true); probability-0 tuples
/// are dropped from their clauses. The resulting CNF thus mentions only
/// tuples with probability in `(0, 1)`.
pub fn lineage(q: &BipartiteQuery, tid: &Tid) -> Lineage {
    let mut vars = VarTable::with_capacity(tid.explicit_tuples().size_hint().0);
    let bottom = |vars| Lineage {
        cnf: Cnf::bottom(),
        vars,
    };
    if q.is_false() {
        return bottom(vars);
    }
    let mut grounder = Grounder::new(q, tid);
    let mut clauses: Vec<PropClause> = Vec::new();
    for clause in q.clauses() {
        // Early exit: a false ground clause makes the lineage false.
        if !grounder.ground_clause(clause, &mut vars, &mut clauses) {
            return bottom(vars);
        }
    }
    Lineage {
        cnf: Cnf::new(clauses),
        vars,
    }
}

/// An explicitly listed tuple of a symbol the query mentions.
struct Listed<'a> {
    slot: usize,
    tuple: Tuple,
    prob: &'a Rational,
    /// Its variable once interned.
    var: Option<Var>,
}

/// The per-request grounding state. Slots number the ground tuples by
/// position: `R(u)` at `u`, `T(v)` at `|U| + v`, and `S_i(u, v)` at
/// `|U| + |V| + (k·|U| + u)·|V| + v`, where `u`, `v` are domain positions
/// and `k` is the rank of `i` among the query's binary symbols.
struct Grounder<'a> {
    tid: &'a Tid,
    /// The query's binary symbols, sorted.
    symbols: Vec<u32>,
    /// Sorted by slot.
    listed: Vec<Listed<'a>>,
    /// The literals of the ground clause being built; a satisfied ground
    /// clause is dropped without allocating.
    lits: Vec<Var>,
}

impl<'a> Grounder<'a> {
    fn new(q: &BipartiteQuery, tid: &'a Tid) -> Grounder<'a> {
        let mut symbols: Vec<u32> = q
            .clauses()
            .iter()
            .flat_map(|c| c.atoms())
            .filter_map(|a| match *a {
                Atom::S(i, _, _) => Some(i),
                _ => None,
            })
            .collect();
        symbols.sort_unstable();
        symbols.dedup();
        let mut g = Grounder {
            tid,
            symbols,
            listed: Vec::with_capacity(tid.explicit_tuples().size_hint().0),
            lits: Vec::new(),
        };
        for (&tuple, prob) in tid.explicit_tuples() {
            if let Some(slot) = g.slot_of(tuple) {
                g.listed.push(Listed {
                    slot,
                    tuple,
                    prob,
                    var: None,
                });
            }
        }
        // The database lists tuples in slot order already (`R`, `T`, then
        // `S` by symbol and constants); sorting does not rely on it.
        g.listed.sort_unstable_by_key(|l| l.slot);
        g
    }

    /// The slot of a listed tuple, if its symbol occurs in the query.
    fn slot_of(&self, t: Tuple) -> Option<usize> {
        let left = |u: u32| self.tid.left_domain().binary_search(&u).ok();
        let right = |v: u32| self.tid.right_domain().binary_search(&v).ok();
        match t {
            Tuple::R(u) => left(u).map(|u| self.r_slot(u)),
            Tuple::T(v) => right(v).map(|v| self.t_slot(v)),
            Tuple::S(i, u, v) => {
                let k = self.symbols.binary_search(&i).ok()?;
                Some(self.s_slot(k, left(u)?, right(v)?))
            }
        }
    }

    fn r_slot(&self, u: usize) -> usize {
        u
    }

    fn t_slot(&self, v: usize) -> usize {
        self.tid.left_domain().len() + v
    }

    fn s_slot(&self, k: usize, u: usize, v: usize) -> usize {
        let (nu, nv) = (self.tid.left_domain().len(), self.tid.right_domain().len());
        nu + nv + (k * nu + u) * nv + v
    }

    /// Grounds one query clause over all assignments of its sorted
    /// variables, left positions outermost and the first variable of each
    /// sort fastest. False iff a ground clause came out empty.
    fn ground_clause(
        &mut self,
        clause: &Clause,
        vars: &mut VarTable,
        out: &mut Vec<PropClause>,
    ) -> bool {
        let (nx, ny) = clause.var_counts();
        let (nu, nv) = (self.tid.left_domain().len(), self.tid.right_domain().len());
        // With an empty domain on a quantified sort, the universal clause is
        // vacuously true: no groundings.
        if (nx > 0 && nu == 0) || (ny > 0 && nv == 0) {
            return true;
        }
        let mut xs = [0usize; MAX_SORT_VARS];
        let mut nonempty = true;
        loop {
            let mut ys = [0usize; MAX_SORT_VARS];
            loop {
                nonempty &= self.ground_one(clause, &xs, &ys, vars, out);
                if !increment(&mut ys[..ny], nv) {
                    break;
                }
            }
            if !increment(&mut xs[..nx], nu) {
                break;
            }
        }
        nonempty
    }

    /// Grounds the clause at one assignment of positions. False iff the
    /// ground clause is empty (every disjunct impossible).
    fn ground_one(
        &mut self,
        clause: &Clause,
        xs: &[usize],
        ys: &[usize],
        vars: &mut VarTable,
        out: &mut Vec<PropClause>,
    ) -> bool {
        let pos = |v: CVar| match v {
            CVar::X(i) => xs[usize::from(i)],
            CVar::Y(i) => ys[usize::from(i)],
        };
        self.lits.clear();
        for atom in clause.atoms() {
            let slot = match *atom {
                Atom::R(x) => self.r_slot(pos(x)),
                Atom::T(y) => self.t_slot(pos(y)),
                Atom::S(i, x, y) => {
                    let k = self
                        .symbols
                        .binary_search(&i)
                        .expect("symbols lists every atom's");
                    self.s_slot(k, pos(x), pos(y))
                }
            };
            let Ok(e) = self.listed.binary_search_by_key(&slot, |l| l.slot) else {
                if self.tid.default_prob().is_one() {
                    // An unlisted tuple is certain: the clause is satisfied.
                    return true;
                }
                // An unlisted tuple is impossible: drop it.
                continue;
            };
            let entry = &mut self.listed[e];
            if entry.prob.is_one() {
                // A certain disjunct: the whole ground clause is satisfied.
                return true;
            }
            if entry.prob.is_zero() {
                // An impossible disjunct: drop it.
                continue;
            }
            let var = *entry
                .var
                .get_or_insert_with(|| vars.push(entry.tuple, entry.prob.clone()));
            self.lits.push(var);
        }
        out.push(PropClause::new(self.lits.iter().copied()));
        !self.lits.is_empty()
    }
}

/// Advances a mixed-radix counter; false when it wraps to all-zero.
fn increment(digits: &mut [usize], radix: usize) -> bool {
    if radix == 0 {
        return false;
    }
    for d in digits.iter_mut() {
        *d += 1;
        if *d < radix {
            return true;
        }
        *d = 0;
    }
    false
}

/// The grounding this module replaced, kept as a test oracle: tuples
/// interned through a `HashMap`, probabilities read from the database map
/// per ground atom. Returns the CNF and each variable's tuple and weight.
#[cfg(test)]
pub(crate) fn lineage_reference(q: &BipartiteQuery, tid: &Tid) -> (Cnf, Vec<(Tuple, Rational)>) {
    let mut index: HashMap<Tuple, Var> = HashMap::new();
    let mut table: Vec<(Tuple, Rational)> = Vec::new();
    if q.is_false() {
        return (Cnf::bottom(), table);
    }
    let (u, v) = (tid.left_domain(), tid.right_domain());
    let mut clauses: Vec<PropClause> = Vec::new();
    for clause in q.clauses() {
        let xs: Vec<CVar> = clause.vars().into_iter().filter(CVar::is_x).collect();
        let ys: Vec<CVar> = clause.vars().into_iter().filter(CVar::is_y).collect();
        if (!xs.is_empty() && u.is_empty()) || (!ys.is_empty() && v.is_empty()) {
            continue;
        }
        let mut x_assign = vec![0usize; xs.len()];
        loop {
            let mut y_assign = vec![0usize; ys.len()];
            loop {
                let lookup = |cv: CVar| -> u32 {
                    match cv {
                        CVar::X(_) => u[x_assign[xs.iter().position(|&w| w == cv).unwrap()]],
                        CVar::Y(_) => v[y_assign[ys.iter().position(|&w| w == cv).unwrap()]],
                    }
                };
                let mut lits: Vec<Var> = Vec::new();
                let mut satisfied = false;
                for atom in clause.atoms() {
                    let tuple = match *atom {
                        Atom::R(x) => Tuple::R(lookup(x)),
                        Atom::T(y) => Tuple::T(lookup(y)),
                        Atom::S(i, x, y) => Tuple::S(i, lookup(x), lookup(y)),
                    };
                    let p = tid.prob(&tuple);
                    if p.is_one() {
                        satisfied = true;
                        break;
                    }
                    if p.is_zero() {
                        continue;
                    }
                    let var = *index.entry(tuple).or_insert_with(|| {
                        table.push((tuple, p.clone()));
                        Var(table.len() as u32 - 1)
                    });
                    lits.push(var);
                }
                if !satisfied {
                    clauses.push(PropClause::new(lits));
                }
                if !increment(&mut y_assign, v.len()) {
                    break;
                }
            }
            if !increment(&mut x_assign, u.len()) {
                break;
            }
        }
        if clauses.iter().any(|c| c.is_empty()) {
            return (Cnf::bottom(), table);
        }
    }
    (Cnf::new(clauses), table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_arith::Rational;
    use gfomc_query::catalog;

    fn half() -> Rational {
        Rational::one_half()
    }

    /// The standard small database: U = {0,1}, V = {10}, all tuples at ½.
    fn small_tid(q: &BipartiteQuery) -> Tid {
        let mut tid = Tid::all_present([0, 1], [10]);
        for u in [0u32, 1] {
            tid.set_prob(Tuple::R(u), half());
            for s in q.binary_symbols() {
                tid.set_prob(Tuple::S(s, u, 10), half());
            }
        }
        tid.set_prob(Tuple::T(10), half());
        tid
    }

    #[test]
    fn h1_lineage_shape() {
        // H1 = (R∨S0)(S0∨T) over U={0,1}, V={10}: 4 ground clauses.
        let q = catalog::h1();
        let tid = small_tid(&q);
        let lin = lineage(&q, &tid);
        assert_eq!(lin.cnf.len(), 4);
        // Variables: R(0), R(1), S0(0,10), S0(1,10), T(10) = 5.
        assert_eq!(lin.vars.len(), 5);
    }

    #[test]
    fn prob_one_tuples_satisfy_clauses() {
        let q = catalog::h1();
        let mut tid = small_tid(&q);
        tid.set_prob(Tuple::S(0, 0, 10), Rational::one());
        let lin = lineage(&q, &tid);
        // Clauses touching S0(0,10) are gone: only the x=1 groundings remain.
        assert_eq!(lin.cnf.len(), 2);
    }

    #[test]
    fn prob_zero_tuples_drop_from_clauses() {
        let q = catalog::h1();
        let mut tid = small_tid(&q);
        tid.set_prob(Tuple::S(0, 0, 10), Rational::zero());
        let lin = lineage(&q, &tid);
        // Ground clause (R(0) ∨ S0(0,10)) became unit R(0).
        assert!(lin.cnf.clauses().iter().any(|c| c.len() == 1));
    }

    #[test]
    fn all_zero_middle_clause_gives_false() {
        let q = BipartiteQuery::new([gfomc_query::Clause::middle([0])]);
        let mut tid = Tid::all_present([0], [10]);
        tid.set_prob(Tuple::S(0, 0, 10), Rational::zero());
        let lin = lineage(&q, &tid);
        assert!(lin.cnf.is_false());
    }

    #[test]
    fn false_query_has_false_lineage() {
        let tid = Tid::all_present([0], [10]);
        let lin = lineage(&BipartiteQuery::bottom(), &tid);
        assert!(lin.cnf.is_false());
    }

    #[test]
    fn true_query_has_true_lineage() {
        let tid = Tid::all_present([0], [10]);
        let lin = lineage(&BipartiteQuery::top(), &tid);
        assert!(lin.cnf.is_true());
    }

    #[test]
    fn type_ii_clause_grounds_over_y_pairs() {
        // ∀x (∀y S0 ∨ ∀y S1) over U={0}, V={10,11}: prenex has y0,y1, so
        // 4 ground clauses (some may be subsumed after minimization).
        let q = catalog::example_c9();
        let mut tid = Tid::all_present([0], [10, 11]);
        for s in q.binary_symbols() {
            for v in [10u32, 11] {
                tid.set_prob(Tuple::S(s, 0, v), half());
            }
        }
        let lin = lineage(&q, &tid);
        assert!(!lin.cnf.is_false());
        assert!(!lin.cnf.is_true());
        // S0(0,10)∨S1(0,10), S0(0,10)∨S1(0,11), S0(0,11)∨S1(0,10),
        // S0(0,11)∨S1(0,11) from the left clause, plus middle and right.
        assert!(lin.cnf.len() >= 4);
    }

    #[test]
    fn var_table_roundtrip() {
        let q = catalog::h1();
        let tid = small_tid(&q);
        let lin = lineage(&q, &tid);
        for v in lin.cnf.vars() {
            let t = lin.vars.tuple_of(v);
            assert_eq!(lin.vars.lookup(&t), Some(v));
            assert_eq!(*lin.vars.weight(v), tid.prob(&t));
        }
    }

    #[test]
    fn var_table_index_follows_later_interning() {
        let q = catalog::h1();
        let tid = small_tid(&q);
        let mut vars = lineage(&q, &tid).vars;
        let n = vars.len() as u32;
        let first = vars.tuple_of(Var(0));
        // The first lookup builds the index; interning extends it.
        assert_eq!(vars.lookup(&first), Some(Var(0)));
        let fresh = Tuple::S(7, 0, 0);
        assert_eq!(vars.lookup(&fresh), None);
        assert_eq!(vars.var_for(fresh, &half()), Var(n));
        assert_eq!(vars.var_for(fresh, &Rational::one()), Var(n));
        assert_eq!(vars.lookup(&fresh), Some(Var(n)));
        assert_eq!(*vars.weight(Var(n)), half());
        assert_eq!(vars.var_for(first, &half()), Var(0));
        assert_eq!(vars.len(), n as usize + 1);
    }
}
