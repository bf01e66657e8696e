//! Monotone CNF formulas over integer-indexed Boolean variables.
//!
//! All lineages of ∀CNF queries are monotone (negation-free) CNFs, so this is
//! the workspace's canonical propositional representation. A formula is a set
//! of clauses, each clause a set of positive literals. Canonical form:
//! clauses are sorted and subsumption-minimal, which makes syntactic equality
//! coincide with logical equivalence *at the clause level* (two minimal
//! monotone CNFs are logically equivalent iff they have the same clause set —
//! the classical uniqueness of the prime-implicate form of monotone
//! functions).

use std::collections::BTreeSet;
use std::fmt;

/// A Boolean variable, identified by index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

/// A clause: a disjunction of positive literals (sorted, deduplicated).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clause {
    vars: Vec<Var>,
}

impl Clause {
    /// Builds a clause from an iterator of variables.
    pub fn new(vars: impl IntoIterator<Item = Var>) -> Self {
        let mut vars: Vec<Var> = vars.into_iter().collect();
        vars.sort_unstable();
        vars.dedup();
        Clause { vars }
    }

    /// The empty clause (logical `false`).
    pub fn empty() -> Self {
        Clause { vars: Vec::new() }
    }

    /// True iff this is the empty (unsatisfiable) clause.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The variables of this clause, sorted.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True iff the clause contains `v` (binary search).
    pub fn contains(&self, v: Var) -> bool {
        self.vars.binary_search(&v).is_ok()
    }

    /// True iff every literal of `self` appears in `other`
    /// (i.e. `self` subsumes `other`: `self ⊆ other` implies `other` is
    /// redundant in a CNF containing `self`).
    pub fn subsumes(&self, other: &Clause) -> bool {
        if self.vars.len() > other.vars.len() {
            return false;
        }
        self.vars.iter().all(|v| other.contains(*v))
    }

    /// Removes a variable (the `v := false` cofactor of the clause).
    pub fn without(&self, v: Var) -> Clause {
        Clause {
            vars: self.vars.iter().copied().filter(|&w| w != v).collect(),
        }
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, "∨")?;
            }
            write!(f, "x{}", v.0)?;
        }
        write!(f, ")")
    }
}

/// A monotone CNF: a conjunction of [`Clause`]s.
///
/// Invariants after minimization (enforced by all constructors):
/// clauses sorted, deduplicated, and subsumption-minimal. The formula `true`
/// is the empty clause set; `false` is the singleton set of the empty clause.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cnf {
    clauses: Vec<Clause>,
}

impl Cnf {
    /// The constant `true`.
    pub fn top() -> Self {
        Cnf {
            clauses: Vec::new(),
        }
    }

    /// The constant `false`.
    pub fn bottom() -> Self {
        Cnf {
            clauses: vec![Clause::empty()],
        }
    }

    /// Builds a minimized CNF from clauses.
    pub fn new(clauses: impl IntoIterator<Item = Clause>) -> Self {
        let mut cnf = Cnf {
            clauses: clauses.into_iter().collect(),
        };
        cnf.minimize();
        cnf
    }

    /// A single-clause formula.
    pub fn of_clause(c: Clause) -> Self {
        Cnf::new([c])
    }

    /// A single positive literal.
    pub fn literal(v: Var) -> Self {
        Cnf::of_clause(Clause::new([v]))
    }

    /// True iff the formula is the constant `true`.
    pub fn is_true(&self) -> bool {
        self.clauses.is_empty()
    }

    /// True iff the formula is the constant `false`
    /// (for monotone CNF: contains the empty clause).
    pub fn is_false(&self) -> bool {
        self.clauses.first().is_some_and(|c| c.is_empty())
    }

    /// The clauses, in canonical order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// True iff there are no clauses (same as [`Cnf::is_true`]).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The set of variables occurring in the formula.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.clauses
            .iter()
            .flat_map(|c| c.vars().iter().copied())
            .collect()
    }

    /// True iff `v` occurs in some clause.
    pub fn mentions(&self, v: Var) -> bool {
        self.clauses.iter().any(|c| c.contains(v))
    }

    /// Restores canonical form: sort, dedupe, drop subsumed clauses,
    /// collapse to `false` if an empty clause is present.
    fn minimize(&mut self) {
        if self.clauses.iter().any(|c| c.is_empty()) {
            self.clauses = vec![Clause::empty()];
            return;
        }
        self.clauses.sort();
        self.clauses.dedup();
        // Remove subsumed clauses (a clause is redundant if a subset of it is
        // also present). Sorting puts shorter-or-equal prefixes first but not
        // strictly by length, so do a quadratic sweep — clause counts here are
        // small (lineages of two-variable queries).
        let mut keep = vec![true; self.clauses.len()];
        for i in 0..self.clauses.len() {
            if !keep[i] {
                continue;
            }
            for (j, keep_j) in keep.iter_mut().enumerate() {
                if i == j || !*keep_j {
                    continue;
                }
                if self.clauses[i].subsumes(&self.clauses[j])
                    && (self.clauses[i].len() < self.clauses[j].len() || i < j)
                {
                    *keep_j = false;
                }
            }
        }
        let mut idx = 0;
        self.clauses.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }

    /// Conjunction of two formulas.
    pub fn and(&self, other: &Cnf) -> Cnf {
        if self.is_false() || other.is_false() {
            return Cnf::bottom();
        }
        Cnf::new(self.clauses.iter().chain(other.clauses.iter()).cloned())
    }

    /// Conjunction of many formulas.
    pub fn and_all(parts: impl IntoIterator<Item = Cnf>) -> Cnf {
        let mut clauses = Vec::new();
        for p in parts {
            if p.is_false() {
                return Cnf::bottom();
            }
            clauses.extend(p.clauses);
        }
        Cnf::new(clauses)
    }

    /// Disjunction (by clause-wise distribution; exponential in general, used
    /// only on small formulas such as per-grounding query clauses).
    pub fn or(&self, other: &Cnf) -> Cnf {
        if self.is_true() || other.is_true() {
            return Cnf::top();
        }
        if self.is_false() {
            return other.clone();
        }
        if other.is_false() {
            return self.clone();
        }
        let mut clauses = Vec::with_capacity(self.clauses.len() * other.clauses.len());
        for c1 in &self.clauses {
            for c2 in &other.clauses {
                clauses.push(Clause::new(
                    c1.vars().iter().chain(c2.vars().iter()).copied(),
                ));
            }
        }
        Cnf::new(clauses)
    }

    /// The cofactor `self[v := value]`.
    pub fn restrict(&self, v: Var, value: bool) -> Cnf {
        let mut clauses = Vec::with_capacity(self.clauses.len());
        for c in &self.clauses {
            if c.contains(v) {
                if value {
                    // Clause satisfied: drop it.
                    continue;
                }
                clauses.push(c.without(v));
            } else {
                clauses.push(c.clone());
            }
        }
        Cnf::new(clauses)
    }

    /// Simultaneous restriction by a partial assignment.
    pub fn restrict_all(&self, assignment: &[(Var, bool)]) -> Cnf {
        let mut cur = self.clone();
        for &(v, b) in assignment {
            cur = cur.restrict(v, b);
        }
        cur
    }

    /// Renames variables via `f` (must be injective on the support to
    /// preserve semantics).
    pub fn rename(&self, mut f: impl FnMut(Var) -> Var) -> Cnf {
        Cnf::new(
            self.clauses
                .iter()
                .map(|c| Clause::new(c.vars().iter().map(|&v| f(v)))),
        )
    }

    /// Evaluates under a total assignment (variables absent from
    /// `true_vars` are false).
    pub fn eval(&self, true_vars: &BTreeSet<Var>) -> bool {
        self.clauses
            .iter()
            .all(|c| c.vars().iter().any(|v| true_vars.contains(v)))
    }

    /// Splits the formula into variable-disjoint connected components
    /// (clauses sharing a variable are in the same component).
    /// `true` has no components; `false` is a single component.
    pub fn components(&self) -> Vec<Cnf> {
        if self.clauses.is_empty() {
            return Vec::new();
        }
        // Union-find over clause indices.
        let n = self.clauses.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let r = find(parent, parent[i]);
                parent[i] = r;
            }
            parent[i]
        }
        let mut owner: std::collections::HashMap<Var, usize> = Default::default();
        for (i, c) in self.clauses.iter().enumerate() {
            for &v in c.vars() {
                match owner.get(&v) {
                    Some(&j) => {
                        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                        if ri != rj {
                            parent[ri] = rj;
                        }
                    }
                    None => {
                        owner.insert(v, i);
                    }
                }
            }
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<Clause>> = Default::default();
        for (i, c) in self.clauses.iter().enumerate() {
            let r = find(&mut parent, i);
            groups.entry(r).or_default().push(c.clone());
        }
        groups
            .into_values()
            .map(|cs| Cnf { clauses: cs }) // already minimal: a sub-multiset of a minimal set
            .collect()
    }

    /// True iff the formula has at most one connected component
    /// (constants count as connected).
    pub fn is_connected(&self) -> bool {
        self.components().len() <= 1
    }

    /// The preferred Shannon-branching variable: the most frequent one
    /// (ties broken toward the smallest index), or `None` for constants.
    /// The circuit compiler and the cost estimate branch on
    /// [`crate::cofactor::BitCnf::branching_bit`], which picks the same
    /// variable; this method is the reference the kernel is tested
    /// against, so all of them explore the same cofactor trees.
    pub fn branching_var(&self) -> Option<Var> {
        let mut counts: std::collections::HashMap<Var, usize> = Default::default();
        for c in &self.clauses {
            for &v in c.vars() {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(Var(i), n)| (n, std::cmp::Reverse(i)))
            .map(|(v, _)| v)
    }
}

impl fmt::Debug for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_true() {
            return write!(f, "⊤");
        }
        if self.is_false() {
            return write!(f, "⊥");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, "∧")?;
            }
            write!(f, "{c:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    #[test]
    fn clause_canonical_order() {
        assert_eq!(cl(&[3, 1, 2, 1]), cl(&[1, 2, 3]));
    }

    #[test]
    fn subsumption() {
        assert!(cl(&[1]).subsumes(&cl(&[1, 2])));
        assert!(!cl(&[1, 3]).subsumes(&cl(&[1, 2])));
        assert!(cl(&[1, 2]).subsumes(&cl(&[1, 2])));
    }

    #[test]
    fn minimize_removes_subsumed() {
        let f = Cnf::new([cl(&[1]), cl(&[1, 2]), cl(&[2, 3])]);
        assert_eq!(f.clauses(), &[cl(&[1]), cl(&[2, 3])]);
    }

    #[test]
    fn constants() {
        assert!(Cnf::top().is_true());
        assert!(Cnf::bottom().is_false());
        assert!(!Cnf::top().is_false());
        let f = Cnf::new([cl(&[1]), Clause::empty()]);
        assert!(f.is_false());
    }

    #[test]
    fn and_or_basic() {
        let a = Cnf::literal(v(1));
        let b = Cnf::literal(v(2));
        let and = a.and(&b);
        assert_eq!(and.clauses(), &[cl(&[1]), cl(&[2])]);
        let or = a.or(&b);
        assert_eq!(or.clauses(), &[cl(&[1, 2])]);
    }

    #[test]
    fn or_distributes() {
        // (x1 ∧ x2) ∨ x3 = (x1∨x3) ∧ (x2∨x3)
        let a = Cnf::new([cl(&[1]), cl(&[2])]);
        let b = Cnf::literal(v(3));
        assert_eq!(a.or(&b).clauses(), &[cl(&[1, 3]), cl(&[2, 3])]);
    }

    #[test]
    fn or_with_constants() {
        let a = Cnf::literal(v(1));
        assert!(a.or(&Cnf::top()).is_true());
        assert_eq!(a.or(&Cnf::bottom()), a);
        assert_eq!(Cnf::bottom().or(&a), a);
    }

    #[test]
    fn restrict_true_and_false() {
        // (x1 ∨ x2) ∧ (x2 ∨ x3)
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        assert_eq!(f.restrict(v(2), true), Cnf::top());
        let f0 = f.restrict(v(2), false);
        assert_eq!(f0.clauses(), &[cl(&[1]), cl(&[3])]);
        // restricting the last variable of a unit clause gives false
        let g = Cnf::literal(v(5));
        assert!(g.restrict(v(5), false).is_false());
    }

    #[test]
    fn eval_matches_semantics() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[3])]);
        let mut tv = BTreeSet::new();
        tv.insert(v(1));
        assert!(!f.eval(&tv)); // clause (3) unsatisfied
        tv.insert(v(3));
        assert!(f.eval(&tv));
    }

    #[test]
    fn components_split() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[4, 5])]);
        let comps = f.components();
        assert_eq!(comps.len(), 2);
        assert!(!f.is_connected());
        let g = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        assert!(g.is_connected());
        assert!(Cnf::top().is_connected());
    }

    #[test]
    fn components_preserve_conjunction() {
        let f = Cnf::new([cl(&[1]), cl(&[2]), cl(&[3, 4])]);
        let comps = f.components();
        let rejoined = Cnf::and_all(comps);
        assert_eq!(rejoined, f);
    }

    #[test]
    fn rename_shifts_support() {
        let f = Cnf::new([cl(&[1, 2])]);
        let g = f.rename(|Var(i)| Var(i + 10));
        assert_eq!(g.clauses(), &[cl(&[11, 12])]);
    }

    #[test]
    fn vars_collects_support() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 5])]);
        let vs: Vec<u32> = f.vars().into_iter().map(|Var(i)| i).collect();
        assert_eq!(vs, vec![1, 2, 5]);
    }

    #[test]
    fn mentions_checks_occurrence() {
        let f = Cnf::new([cl(&[1, 2])]);
        assert!(f.mentions(v(1)));
        assert!(!f.mentions(v(3)));
    }
}
