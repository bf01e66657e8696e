//! Bipartite ∀CNF queries (Definition 2.3) and their rewritings.

use crate::atom::Pred;
use crate::clause::{Clause, ClauseShape};
use gfomc_logic::{Clause as PropClause, Cnf, Var};
use std::collections::BTreeSet;
use std::fmt;

/// Type of the left or right part of a bipartite query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartType {
    /// Clauses contain the unary symbol (`R` on the left, `T` on the right).
    I,
    /// Clauses are disjunctions of `∀`-subclauses without unary symbols.
    II,
}

/// The type `A–B` of a bipartite query (§2, Definition 2.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueryType {
    /// Type of the left clauses.
    pub left: PartType,
    /// Type of the right clauses.
    pub right: PartType,
}

/// A ∀CNF query over the bipartite vocabulary: a conjunction of
/// universally-quantified clauses, kept minimized and non-redundant.
///
/// The constant `false` query is represented by a single empty clause;
/// the constant `true` query by an empty clause list.
#[derive(Clone, PartialEq, Eq)]
pub struct BipartiteQuery {
    clauses: Vec<Clause>,
}

impl BipartiteQuery {
    /// Builds a query from clauses, minimizing each clause and removing
    /// redundant clauses (those reachable by a homomorphism from another).
    pub fn new(clauses: impl IntoIterator<Item = Clause>) -> Self {
        let mut cs: Vec<Clause> = clauses.into_iter().map(Clause::into_minimized).collect();
        if cs.iter().any(Clause::is_false) {
            return BipartiteQuery::bottom();
        }
        cs.sort_unstable();
        cs.dedup();
        // Remove redundant clauses: C_j is redundant if some other C_i has a
        // homomorphism C_i → C_j.
        let mut keep = vec![true; cs.len()];
        for j in 0..cs.len() {
            keep[j] = !(0..cs.len()).any(|i| i != j && keep[i] && cs[i].homomorphism_to(&cs[j]));
        }
        let mut idx = 0;
        cs.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        BipartiteQuery { clauses: cs }
    }

    /// [`BipartiteQuery::new`] over the reference clause searches, as a
    /// test oracle: the surviving clauses in order.
    #[cfg(test)]
    pub(crate) fn new_reference(clauses: impl IntoIterator<Item = Clause>) -> Vec<Clause> {
        use crate::clause::reference;
        let mut cs: Vec<Clause> = clauses
            .into_iter()
            .map(|c| reference::minimize(&c))
            .collect();
        if cs.iter().any(Clause::is_false) {
            return BipartiteQuery::bottom().clauses;
        }
        cs.sort();
        cs.dedup();
        let mut keep = vec![true; cs.len()];
        for j in 0..cs.len() {
            for i in 0..cs.len() {
                if i == j || !keep[i] {
                    continue;
                }
                if reference::homomorphism_to(&cs[i], &cs[j]) {
                    keep[j] = false;
                    break;
                }
            }
        }
        let mut idx = 0;
        cs.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        cs
    }

    /// The constant `true` query.
    pub fn top() -> Self {
        BipartiteQuery {
            clauses: Vec::new(),
        }
    }

    /// The constant `false` query.
    pub fn bottom() -> Self {
        BipartiteQuery {
            clauses: vec![Clause::new([])],
        }
    }

    /// True iff the constant `true`.
    pub fn is_true(&self) -> bool {
        self.clauses.is_empty()
    }

    /// True iff the constant `false`.
    pub fn is_false(&self) -> bool {
        self.clauses.first().is_some_and(Clause::is_false)
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// All predicate symbols.
    pub fn symbols(&self) -> BTreeSet<Pred> {
        self.clauses.iter().flat_map(|c| c.symbols()).collect()
    }

    /// The binary symbol indices used.
    pub fn binary_symbols(&self) -> BTreeSet<u32> {
        self.symbols()
            .into_iter()
            .filter_map(|p| match p {
                Pred::S(i) => Some(i),
                _ => None,
            })
            .collect()
    }

    /// The left clauses.
    pub fn left_clauses(&self) -> Vec<&Clause> {
        self.clauses.iter().filter(|c| c.is_left()).collect()
    }

    /// The middle clauses.
    pub fn middle_clauses(&self) -> Vec<&Clause> {
        self.clauses.iter().filter(|c| c.is_middle()).collect()
    }

    /// The right clauses.
    pub fn right_clauses(&self) -> Vec<&Clause> {
        self.clauses.iter().filter(|c| c.is_right()).collect()
    }

    /// True iff every clause is a left, middle, or right clause of
    /// Definition 2.3 (e.g. `H₀ = R∨S∨T` is *not* of this shape).
    pub fn is_bipartite_shape(&self) -> bool {
        self.clauses
            .iter()
            .all(|c| !matches!(c.shape(), ClauseShape::Other))
    }

    /// The `A–B` type of the query, if it has uniformly-typed left clauses
    /// and uniformly-typed right clauses (and at least one of each).
    pub fn query_type(&self) -> Option<QueryType> {
        let mut left = None;
        let mut right = None;
        for c in &self.clauses {
            match c.shape() {
                ClauseShape::LeftI(_) => match left {
                    None | Some(PartType::I) => left = Some(PartType::I),
                    _ => return None,
                },
                ClauseShape::LeftII(_) => match left {
                    None | Some(PartType::II) => left = Some(PartType::II),
                    _ => return None,
                },
                ClauseShape::RightI(_) => match right {
                    None | Some(PartType::I) => right = Some(PartType::I),
                    _ => return None,
                },
                ClauseShape::RightII(_) => match right {
                    None | Some(PartType::II) => right = Some(PartType::II),
                    _ => return None,
                },
                ClauseShape::Middle(_) => {}
                ClauseShape::Other => return None,
            }
        }
        Some(QueryType {
            left: left?,
            right: right?,
        })
    }

    /// The rewriting `Q[p := value]` of Lemma 2.7: replaces every occurrence
    /// of the symbol `p` by the constant, then re-minimizes.
    pub fn set_symbol(&self, p: Pred, value: bool) -> BipartiteQuery {
        if self.is_false() {
            return BipartiteQuery::bottom();
        }
        if value {
            // Atoms of p become true: clauses mentioning p become true.
            BipartiteQuery::new(self.clauses.iter().filter(|c| !c.mentions(p)).cloned())
        } else {
            // Atoms of p disappear from every clause.
            BipartiteQuery::new(self.clauses.iter().map(|c| c.drop_pred(p)))
        }
    }

    /// Decomposes `Q_left` into the DNF of Eq. (47):
    /// `Q_left ≡ ∀x (G₁(x) ∨ … ∨ G_m(x))` where each `G_i(x,y)` is a CNF over
    /// the binary symbols (one subclause chosen from every left clause).
    /// The returned CNFs use `Var(i)` for binary symbol `S_i`. Minimized and
    /// deduplicated; absorbed disjuncts (implied by another) are *kept* —
    /// lattice construction handles logical equivalence.
    ///
    /// Only meaningful for Type-II left parts; Type-I clauses contribute
    /// their single subclause `R ∨ S_J` without the `R` (callers handling
    /// Type I use the Shannon expansion on `R` instead).
    pub fn left_dnf(&self) -> Vec<Cnf> {
        let subclause_sets: Vec<Vec<BTreeSet<u32>>> = self
            .left_clauses()
            .iter()
            .map(|c| match c.shape() {
                ClauseShape::LeftI(j) => vec![j],
                ClauseShape::LeftII(subs) => subs,
                _ => unreachable!(),
            })
            .collect();
        cross_product_cnfs(&subclause_sets)
    }

    /// Symmetric decomposition of `Q_right` (Eq. (49)).
    pub fn right_dnf(&self) -> Vec<Cnf> {
        let subclause_sets: Vec<Vec<BTreeSet<u32>>> = self
            .right_clauses()
            .iter()
            .map(|c| match c.shape() {
                ClauseShape::RightI(j) => vec![j],
                ClauseShape::RightII(subs) => subs,
                _ => unreachable!(),
            })
            .collect();
        cross_product_cnfs(&subclause_sets)
    }

    /// The middle part `C(x,y)` as a CNF over binary symbols (Eq. (48)).
    pub fn middle_cnf(&self) -> Cnf {
        Cnf::new(self.middle_clauses().iter().map(|c| match c.shape() {
            ClauseShape::Middle(j) => PropClause::new(j.into_iter().map(Var)),
            _ => unreachable!(),
        }))
    }
}

/// Expands a conjunction of disjunctions-of-subclauses into the list of CNFs
/// obtained by choosing one subclause per clause (CNF → DNF distribution,
/// as in Example C.5).
fn cross_product_cnfs(subclause_sets: &[Vec<BTreeSet<u32>>]) -> Vec<Cnf> {
    let mut result: Vec<Cnf> = vec![Cnf::top()];
    for options in subclause_sets {
        let mut next = Vec::with_capacity(result.len() * options.len());
        for partial in &result {
            for j in options {
                let clause = PropClause::new(j.iter().copied().map(Var));
                next.push(partial.and(&Cnf::of_clause(clause)));
            }
        }
        result = next;
    }
    result.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    result.dedup();
    result
}

impl fmt::Display for BipartiteQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_true() {
            return write!(f, "true");
        }
        if self.is_false() {
            return write!(f, "false");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "[{c}]")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BipartiteQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A catalog of named queries from the paper, used across tests, examples,
/// and benchmarks.
pub mod catalog {
    use super::*;
    use crate::atom::{Atom, CVar};

    /// `H₀ = ∀x∀y (R(x) ∨ S₀(x,y) ∨ T(y))` — the canonical hard query
    /// (§2, Theorem 2.5). Not of bipartite shape (one clause holds both
    /// unary symbols).
    pub fn h0() -> BipartiteQuery {
        BipartiteQuery::new([Clause::new([
            Atom::R(CVar::X(0)),
            Atom::S(0, CVar::X(0), CVar::Y(0)),
            Atom::T(CVar::Y(0)),
        ])])
    }

    /// `H₁ = ∀x∀y (R ∨ S₀) ∧ (S₀ ∨ T)` — the shortest final Type-I query
    /// (the intro's running example; length 1).
    pub fn h1() -> BipartiteQuery {
        BipartiteQuery::new([Clause::left_i([0]), Clause::right_i([0])])
    }

    /// The chain query `H_k`: `(R∨S₀)(S₀∨S₁)…(S_{k-1}∨T)` with `k ≥ 1`
    /// binary symbols — final Type-I of length `k`.
    pub fn hk(k: usize) -> BipartiteQuery {
        assert!(k >= 1);
        let mut clauses = vec![Clause::left_i([0])];
        for i in 0..k - 1 {
            clauses.push(Clause::middle([i as u32, i as u32 + 1]));
        }
        clauses.push(Clause::right_i([k as u32 - 1]));
        BipartiteQuery::new(clauses)
    }

    /// An unsafe Type-I query with a wide middle clause:
    /// `(R∨S₀) ∧ (S₀∨S₁∨S₂) ∧ (S₂∨T)`. Not final: `S₁ := 0` shortens the
    /// middle clause while preserving unsafety.
    pub fn type_i_wide() -> BipartiteQuery {
        BipartiteQuery::new([
            Clause::left_i([0]),
            Clause::middle([0, 1, 2]),
            Clause::right_i([2]),
        ])
    }

    /// A Type-I query with multi-symbol left/right clauses:
    /// `(R∨S₀∨S₁) ∧ (S₁∨S₂) ∧ (S₂∨S₃) ∧ (S₃∨S₀∨T)` — unsafe; the shared
    /// symbol `S₀` gives a direct left-right path of length 1.
    pub fn type_i_braided() -> BipartiteQuery {
        BipartiteQuery::new([
            Clause::left_i([0, 1]),
            Clause::middle([1, 2]),
            Clause::middle([2, 3]),
            Clause::right_i([3, 0]),
        ])
    }

    /// Example C.9 from the paper (Type II–II, unsafe, not forbidden):
    /// `∀x(∀yS₁ ∨ ∀yS₂) ∧ ∀x∀y(S₁∨S₃) ∧ ∀y(∀xS₃ ∨ ∀xS₄)`
    /// with S₁..S₄ renamed to S₀..S₃.
    pub fn example_c9() -> BipartiteQuery {
        BipartiteQuery::new([
            Clause::left_ii(&[&[0], &[1]]),
            Clause::middle([0, 2]),
            Clause::right_ii(&[&[2], &[3]]),
        ])
    }

    /// Example C.15 (a forbidden Type-II query) with symbols renamed:
    /// `U → S₀`, `S₁..S₄ → S₁..S₄`, `V → S₅`:
    /// `∀x(∀y(S₀∨S₁) ∨ ∀y(S₀∨S₂)) ∧ ∀x∀y(S₁∨S₂∨S₃∨S₄) ∧
    ///  ∀y(∀x(S₅∨S₃) ∨ ∀x(S₅∨S₄))`.
    pub fn example_c15() -> BipartiteQuery {
        BipartiteQuery::new([
            Clause::left_ii(&[&[0, 1], &[0, 2]]),
            Clause::middle([1, 2, 3, 4]),
            Clause::right_ii(&[&[5, 3], &[5, 4]]),
        ])
    }

    /// A safe query: no right clauses at all —
    /// `(R∨S₀) ∧ (S₀∨S₁)`.
    pub fn safe_no_right() -> BipartiteQuery {
        BipartiteQuery::new([Clause::left_i([0]), Clause::middle([0, 1])])
    }

    /// A safe query with both left and right clauses but on disjoint
    /// symbols: `(R∨S₀) ∧ (S₁∨T)`.
    pub fn safe_disconnected() -> BipartiteQuery {
        BipartiteQuery::new([Clause::left_i([0]), Clause::right_i([1])])
    }

    /// A safe query with a middle clause bridging nothing:
    /// `(R∨S₀) ∧ (S₁∨S₂) ∧ (S₃∨T)`.
    pub fn safe_three_components() -> BipartiteQuery {
        BipartiteQuery::new([
            Clause::left_i([0]),
            Clause::middle([1, 2]),
            Clause::right_i([3]),
        ])
    }

    /// Example A.3's base query (Type I–II with a ternary middle clause and a
    /// ubiquitous right symbol), renamed: `S₀..S₃` as in the paper,
    /// `U → S₄`:
    /// `(R∨S₀) ∧ (S₀∨S₁) ∧ (S₁∨S₂∨S₃) ∧
    ///  ∀y(∀x(S₄∨S₁∨S₂) ∨ ∀x(S₄∨S₁∨S₃) ∨ ∀x(S₄∨S₂∨S₃))`.
    pub fn example_a3() -> BipartiteQuery {
        BipartiteQuery::new([
            Clause::left_i([0]),
            Clause::middle([0, 1]),
            Clause::middle([1, 2, 3]),
            Clause::right_ii(&[&[4, 1, 2], &[4, 1, 3], &[4, 2, 3]]),
        ])
    }

    /// Example C.18 (a final Type-II query with *two* left-ubiquitous
    /// symbols, both occurring in middle clauses), renamed:
    /// `U → S₀`, `U′ → S₁`, `S₁..S₅ → S₂..S₆`, `V → S₇`.
    pub fn example_c18() -> BipartiteQuery {
        BipartiteQuery::new([
            Clause::left_ii(&[&[0, 1, 2, 3], &[0, 1, 3, 4], &[0, 1, 2, 4]]),
            Clause::middle([2, 3, 4, 5, 6]),
            Clause::right_ii(&[&[7, 5], &[7, 6]]),
            Clause::middle([0, 2, 3, 4]),
            Clause::middle([1, 2, 3, 4]),
        ])
    }

    /// Every unsafe catalog query paired with its name.
    pub fn unsafe_catalog() -> Vec<(&'static str, BipartiteQuery)> {
        vec![
            ("h0", h0()),
            ("h1", h1()),
            ("h2", hk(2)),
            ("h3", hk(3)),
            ("type_i_wide", type_i_wide()),
            ("type_i_braided", type_i_braided()),
            ("example_c9", example_c9()),
            ("example_c15", example_c15()),
            ("example_a3", example_a3()),
            ("example_c18", example_c18()),
        ]
    }

    /// Every safe catalog query paired with its name.
    pub fn safe_catalog() -> Vec<(&'static str, BipartiteQuery)> {
        vec![
            ("safe_no_right", safe_no_right()),
            ("safe_disconnected", safe_disconnected()),
            ("safe_three_components", safe_three_components()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::catalog::*;
    use super::*;

    #[test]
    fn redundant_clause_removed() {
        // Middle S_{0} makes middle S_{0,1} redundant.
        let q = BipartiteQuery::new([Clause::middle([0]), Clause::middle([0, 1])]);
        assert_eq!(q.clauses().len(), 1);
        assert_eq!(q.clauses()[0], Clause::middle([0]));
    }

    #[test]
    fn middle_makes_left_redundant() {
        // S_{0}(x,y) → R(x) ∨ S_{0,1}(x,y): left clause redundant.
        let q = BipartiteQuery::new([Clause::middle([0]), Clause::left_i([0, 1])]);
        assert_eq!(q.clauses().len(), 1);
        assert!(q.left_clauses().is_empty());
    }

    #[test]
    fn constants() {
        assert!(BipartiteQuery::top().is_true());
        assert!(BipartiteQuery::bottom().is_false());
        let q = BipartiteQuery::new([Clause::new([])]);
        assert!(q.is_false());
    }

    #[test]
    fn query_types() {
        assert_eq!(
            h1().query_type(),
            Some(QueryType {
                left: PartType::I,
                right: PartType::I
            })
        );
        assert_eq!(
            example_c9().query_type(),
            Some(QueryType {
                left: PartType::II,
                right: PartType::II
            })
        );
        assert_eq!(h0().query_type(), None); // not bipartite shape
        assert_eq!(safe_no_right().query_type(), None); // no right part
    }

    #[test]
    fn bipartite_shape_flags() {
        assert!(!h0().is_bipartite_shape());
        assert!(h1().is_bipartite_shape());
        assert!(example_c15().is_bipartite_shape());
    }

    #[test]
    fn set_symbol_true_drops_clauses() {
        let q = hk(2); // (R∨S0)(S0∨S1)(S1∨T)
        let q1 = q.set_symbol(Pred::S(0), true);
        // Clauses with S0 dropped: left clause and first middle are gone.
        assert_eq!(q1.clauses().len(), 1);
        assert!(q1.clauses()[0].is_right());
    }

    #[test]
    fn set_symbol_false_rewrites() {
        let q = hk(2);
        let q0 = q.set_symbol(Pred::S(0), false);
        // (R)(S1)(S1∨T) minimizes: S1 middle makes (S1∨T) redundant; R(x)
        // clause shape becomes Other (bare unary).
        assert!(q0.clauses().iter().any(|c| c.mentions(Pred::R)));
        assert!(!q0.is_false());
        // Setting the only symbol of a middle clause to false yields ⊥.
        let m = BipartiteQuery::new([Clause::middle([0])]);
        assert!(m.set_symbol(Pred::S(0), false).is_false());
    }

    #[test]
    fn example_c9_left_dnf_matches_paper() {
        // Left part of Example C.9: G1 = S0, G2 = S1 (singleton CNFs).
        let q = example_c9();
        let dnf = q.left_dnf();
        assert_eq!(dnf.len(), 2);
        let symbols: Vec<Vec<u32>> = dnf
            .iter()
            .map(|g| g.vars().into_iter().map(|Var(i)| i).collect())
            .collect();
        assert!(symbols.contains(&vec![0]));
        assert!(symbols.contains(&vec![1]));
    }

    #[test]
    fn left_dnf_of_two_clauses_is_cross_product() {
        // Example C.5 has two left clauses: the DNF crosses their subclauses.
        let q = BipartiteQuery::new([
            Clause::left_ii(&[&[0, 1], &[0, 2]]),
            Clause::left_ii(&[&[0], &[1, 2]]),
            // keep a right clause so the query shape is bipartite
            Clause::right_i([3]),
        ]);
        let dnf = q.left_dnf();
        // 2 × 2 = 4 choices, some possibly collapsing after minimization.
        assert!(dnf.len() <= 4 && dnf.len() >= 2, "got {}", dnf.len());
    }

    #[test]
    fn middle_cnf_collects_middles() {
        let q = example_c9();
        let c = q.middle_cnf();
        assert_eq!(c.clauses().len(), 1);
        assert_eq!(c.clauses()[0].vars(), &[Var(0), Var(2)]);
    }

    #[test]
    fn catalog_is_nonempty_and_wellformed() {
        for (name, q) in unsafe_catalog() {
            assert!(!q.is_true() && !q.is_false(), "{name}");
            assert!(!q.clauses().is_empty(), "{name}");
        }
        for (name, q) in safe_catalog() {
            assert!(!q.is_true() && !q.is_false(), "{name}");
        }
    }

    #[test]
    fn hk_has_expected_clause_count() {
        assert_eq!(hk(1).clauses().len(), 2);
        assert_eq!(hk(3).clauses().len(), 4);
        assert_eq!(hk(3).binary_symbols().len(), 3);
    }

    #[test]
    fn display_roundtrip_readable() {
        let s = h1().to_string();
        assert!(s.contains("R(x0)"));
        assert!(s.contains("T(y0)"));
    }
}
