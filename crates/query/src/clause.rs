//! Universally-quantified clauses of ∀CNF queries, with homomorphisms,
//! core minimization, and classification into the shapes of Definition 2.3.
//!
//! A clause is a disjunction of atoms with all variables universally
//! quantified (prenex per clause). Following the paper:
//!
//! * a homomorphism `C → C'` is a sort-preserving variable mapping sending
//!   every atom of `C` to an atom of `C'`; its existence implies
//!   `∀C ⇒ ∀C'`, making `C'` redundant in a conjunction containing `C`;
//! * a clause is *minimized* if every homomorphism `C → C` is a bijection;
//!   the core is computed by greedily dropping atoms `a` such that
//!   `C → C∖{a}` exists.
//!
//! Every clause is stored in canonical form: atoms sorted and
//! deduplicated, the variables of each sort named `x0, x1, …` and
//! `y0, y1, …` without gaps, at most [`MAX_SORT_VARS`] of each. The
//! searches lean on it. A candidate homomorphism is a fixed-size array
//! from variable indices to target indices, and each mapped atom is looked
//! up in the target's sorted atom slice by binary search, so neither the
//! search nor minimization allocates per candidate. A clause with at most
//! one variable per sort is its own core (the identity is its only
//! sort-preserving map into itself), so minimization returns it at once.

use crate::atom::{Atom, CVar, Pred};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The most variables of one sort a clause may hold. Definition 2.3's
/// shapes need far fewer; canonicalization tries all `n!·m!` renamings.
pub const MAX_SORT_VARS: usize = 6;

/// A universally quantified clause (disjunction of atoms).
///
/// The constant `true` clause is not representable (true clauses are dropped
/// from queries); the empty clause is `false`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clause {
    atoms: Vec<Atom>,
}

/// A set of variable indices (`0..=255`, the parser's range).
#[derive(Clone, Copy, Default)]
struct IndexSet([u64; 4]);

impl IndexSet {
    fn of(vars: impl Iterator<Item = CVar>) -> IndexSet {
        let mut set = IndexSet::default();
        for v in vars {
            let i = v.index();
            set.0[usize::from(i >> 6)] |= 1 << (i & 63);
        }
        set
    }

    fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The members in increasing order.
    fn iter(self) -> impl Iterator<Item = u8> {
        (0..4u8).flat_map(move |w| {
            let mut bits = self.0[usize::from(w)];
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as u8;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }

    /// The members in increasing order, in a fixed array (at most
    /// [`MAX_SORT_VARS`] of them).
    fn members(self) -> ([u8; MAX_SORT_VARS], usize) {
        let mut out = [0; MAX_SORT_VARS];
        let mut n = 0;
        for i in self.iter() {
            out[n] = i;
            n += 1;
        }
        (out, n)
    }
}

/// The `x`- and `y`-variable index sets of `atoms`.
fn var_sets<'a>(atoms: impl Iterator<Item = &'a Atom> + Clone) -> (IndexSet, IndexSet) {
    (
        IndexSet::of(atoms.clone().filter_map(Atom::x_var)),
        IndexSet::of(atoms.filter_map(Atom::y_var)),
    )
}

/// Renames bound variables to the lexicographically-least α-variant:
/// the minimum sorted atom vector over all injective renamings of the
/// `x`- and `y`-variables onto `0..n`. Variable counts per clause are tiny
/// (Definition 2.3 shapes), so permutation search is cheap; it reuses two
/// buffers, one for the renaming under test and one for the best so far.
fn canonicalize_vars(mut atoms: Vec<Atom>) -> Vec<Atom> {
    let (xs, ys) = var_sets(atoms.iter());
    if xs.len() <= 1 && ys.len() <= 1 {
        // Fast path: a single variable of each sort just becomes index 0,
        // which keeps the atoms sorted.
        for a in &mut atoms {
            *a = a.map_vars(&mut |v| match v {
                CVar::X(_) => CVar::X(0),
                CVar::Y(_) => CVar::Y(0),
            });
        }
        return atoms;
    }
    assert!(
        xs.len() <= MAX_SORT_VARS && ys.len() <= MAX_SORT_VARS,
        "clause has too many variables to canonicalize"
    );
    let ((xs, nx), (ys, ny)) = (xs.members(), ys.members());
    let rank = |sorted: &[u8], i: u8| sorted.iter().position(|&w| w == i).unwrap();
    let mut best: Vec<Atom> = Vec::new();
    let mut renamed: Vec<Atom> = Vec::with_capacity(atoms.len());
    for_each_permutation(nx, &mut |xperm| {
        for_each_permutation(ny, &mut |yperm| {
            renamed.clear();
            renamed.extend(atoms.iter().map(|a| {
                a.map_vars(&mut |v| match v {
                    CVar::X(i) => CVar::X(xperm[rank(&xs[..nx], i)]),
                    CVar::Y(i) => CVar::Y(yperm[rank(&ys[..ny], i)]),
                })
            }));
            renamed.sort_unstable();
            if best.is_empty() || renamed < best {
                std::mem::swap(&mut best, &mut renamed);
            }
        });
    });
    best
}

/// Calls `f` on every permutation of `0..n` (`n ≤ MAX_SORT_VARS`) by
/// Heap's algorithm, which reaches each permutation by one swap.
fn for_each_permutation(n: usize, f: &mut impl FnMut(&[u8])) {
    let mut p: [u8; MAX_SORT_VARS] = std::array::from_fn(|i| i as u8);
    let mut c = [0usize; MAX_SORT_VARS];
    f(&p[..n]);
    let mut i = 1;
    while i < n {
        if c[i] < i {
            p.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
            f(&p[..n]);
            c[i] += 1;
            i = 1;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

/// A homomorphism search from a canonical clause's atoms `from` into the
/// sorted, deduplicated atoms `to`, leaving out `to[skip]` if given.
///
/// Variables are assigned in the order `x0, x1, …, y0, y1, …`, each to a
/// variable of the same sort in `to`. An atom is checked as soon as its
/// last variable in that order is bound (its `y`-argument if it has one),
/// so every partial map that fails on a bound atom is cut at once.
struct HomSearch<'a> {
    from: &'a [Atom],
    to: &'a [Atom],
    skip: Option<usize>,
    nx: usize,
    ny: usize,
    to_xs: IndexSet,
    to_ys: IndexSet,
    x_image: [u8; MAX_SORT_VARS],
    y_image: [u8; MAX_SORT_VARS],
}

impl<'a> HomSearch<'a> {
    fn exists(from: &'a [Atom], to: &'a [Atom], skip: Option<usize>) -> bool {
        let (xs, ys) = var_sets(from.iter());
        debug_assert!(
            xs.iter().eq(0..xs.len() as u8) && ys.iter().eq(0..ys.len() as u8),
            "homomorphism search needs canonical variable names"
        );
        let kept = to
            .iter()
            .enumerate()
            .filter(|&(j, _)| Some(j) != skip)
            .map(|(_, a)| a);
        let (to_xs, to_ys) = var_sets(kept);
        HomSearch {
            from,
            to,
            skip,
            nx: xs.len(),
            ny: ys.len(),
            to_xs,
            to_ys,
            x_image: [0; MAX_SORT_VARS],
            y_image: [0; MAX_SORT_VARS],
        }
        .search_from(0)
    }

    /// Binds the `k`-th variable to each candidate in turn.
    fn search_from(&mut self, k: usize) -> bool {
        if k == self.nx + self.ny {
            return true;
        }
        let var = if k < self.nx {
            CVar::X(k as u8)
        } else {
            CVar::Y((k - self.nx) as u8)
        };
        let candidates = if var.is_x() { self.to_xs } else { self.to_ys };
        for c in candidates.iter() {
            match var {
                CVar::X(i) => self.x_image[usize::from(i)] = c,
                CVar::Y(i) => self.y_image[usize::from(i)] = c,
            }
            if self.bound_atoms_map(var) && self.search_from(k + 1) {
                return true;
            }
        }
        false
    }

    /// True iff every atom whose last variable is `var` maps into `to`.
    fn bound_atoms_map(&self, var: CVar) -> bool {
        self.from
            .iter()
            .filter(|a| a.y_var().or_else(|| a.x_var()) == Some(var))
            .all(|a| {
                let image = a.map_vars(&mut |v| match v {
                    CVar::X(i) => CVar::X(self.x_image[usize::from(i)]),
                    CVar::Y(i) => CVar::Y(self.y_image[usize::from(i)]),
                });
                self.to
                    .binary_search(&image)
                    .is_ok_and(|j| Some(j) != self.skip)
            })
    }
}

/// Shape classification of a clause per Definition 2.3.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ClauseShape {
    /// `∀x∀y (R(x) ∨ S_J(x,y))` — left clause of Type I; `J` is the set of
    /// binary symbol indices.
    LeftI(BTreeSet<u32>),
    /// `∀x (∨_ℓ ∀y S_{J_ℓ}(x,y))` — left clause of Type II; one `J_ℓ` per
    /// `y`-variable.
    LeftII(Vec<BTreeSet<u32>>),
    /// `∀x∀y S_J(x,y)` — middle clause.
    Middle(BTreeSet<u32>),
    /// `∀x∀y (S_J(x,y) ∨ T(y))` — right clause of Type I.
    RightI(BTreeSet<u32>),
    /// `∀y (∨_ℓ ∀x S_{J_ℓ}(x,y))` — right clause of Type II.
    RightII(Vec<BTreeSet<u32>>),
    /// Anything else (e.g. `R(x) ∨ T(y) ∨ …` before simplification).
    Other,
}

impl Clause {
    /// Builds a clause, sorting and deduplicating atoms and canonicalizing
    /// bound-variable names (α-equivalent clauses compare equal).
    /// Panics on ill-sorted atoms.
    pub fn new(atoms: impl IntoIterator<Item = Atom>) -> Self {
        let mut atoms: Vec<Atom> = atoms.into_iter().collect();
        assert!(
            atoms.iter().all(Atom::is_well_sorted),
            "ill-sorted atom in clause"
        );
        atoms.sort_unstable();
        atoms.dedup();
        Clause {
            atoms: canonicalize_vars(atoms),
        }
    }

    /// Convenience: the middle clause `∀x∀y S_J(x,y)`.
    pub fn middle(j: impl IntoIterator<Item = u32>) -> Self {
        Clause::new(j.into_iter().map(|i| Atom::S(i, CVar::X(0), CVar::Y(0))))
    }

    /// Convenience: the left Type-I clause `∀x∀y (R(x) ∨ S_J(x,y))`.
    pub fn left_i(j: impl IntoIterator<Item = u32>) -> Self {
        Clause::new(
            std::iter::once(Atom::R(CVar::X(0)))
                .chain(j.into_iter().map(|i| Atom::S(i, CVar::X(0), CVar::Y(0)))),
        )
    }

    /// Convenience: the right Type-I clause `∀x∀y (S_J(x,y) ∨ T(y))`.
    pub fn right_i(j: impl IntoIterator<Item = u32>) -> Self {
        Clause::new(
            std::iter::once(Atom::T(CVar::Y(0)))
                .chain(j.into_iter().map(|i| Atom::S(i, CVar::X(0), CVar::Y(0)))),
        )
    }

    /// Convenience: the left Type-II clause `∀x (∨_ℓ ∀y S_{J_ℓ}(x,y))`,
    /// realized in prenex form with one `y`-variable per subclause.
    pub fn left_ii(subclauses: &[&[u32]]) -> Self {
        assert!(subclauses.len() > 1, "type II clause needs > 1 subclause");
        Clause::new(subclauses.iter().enumerate().flat_map(|(l, js)| {
            js.iter()
                .map(move |&i| Atom::S(i, CVar::X(0), CVar::Y(l as u8)))
        }))
    }

    /// Convenience: the right Type-II clause `∀y (∨_ℓ ∀x S_{J_ℓ}(x,y))`.
    pub fn right_ii(subclauses: &[&[u32]]) -> Self {
        assert!(subclauses.len() > 1, "type II clause needs > 1 subclause");
        Clause::new(subclauses.iter().enumerate().flat_map(|(l, js)| {
            js.iter()
                .map(move |&i| Atom::S(i, CVar::X(l as u8), CVar::Y(0)))
        }))
    }

    /// The atoms, sorted.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// True iff the clause has no atoms (the constant `false`).
    pub fn is_false(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The set of predicate symbols — `Symb(C)` in the paper.
    pub fn symbols(&self) -> BTreeSet<Pred> {
        self.atoms.iter().map(Atom::pred).collect()
    }

    /// The set of variables.
    pub fn vars(&self) -> BTreeSet<CVar> {
        self.atoms.iter().flat_map(|a| a.vars()).collect()
    }

    /// True iff the clause contains the given predicate.
    pub fn mentions(&self, p: Pred) -> bool {
        self.atoms.iter().any(|a| a.pred() == p)
    }

    /// Drops all atoms with predicate `p` (the `p := false` rewriting).
    /// May produce the empty (false) clause.
    pub fn drop_pred(&self, p: Pred) -> Clause {
        Clause::new(self.atoms.iter().copied().filter(|a| a.pred() != p))
    }

    /// True iff a homomorphism from `self` to `target` exists: a
    /// sort-preserving variable mapping sending every atom of `self` into
    /// `target`.
    pub fn homomorphism_to(&self, target: &Clause) -> bool {
        HomSearch::exists(&self.atoms, &target.atoms, None)
    }

    /// The number of distinct `x`- and `y`-variables. By canonical naming
    /// they are `x0 … x(nx-1)` and `y0 … y(ny-1)`.
    pub fn var_counts(&self) -> (usize, usize) {
        let (xs, ys) = var_sets(self.atoms.iter());
        (xs.len(), ys.len())
    }

    /// Core minimization: repeatedly removes atoms `a` such that a
    /// homomorphism `C → C∖{a}` exists (then `C ≡ C∖{a}` as clauses).
    pub fn minimize(&self) -> Clause {
        self.clone().into_minimized()
    }

    /// [`Clause::minimize`] by value: a clause that is already its own
    /// core comes back without a copy.
    pub(crate) fn into_minimized(self) -> Clause {
        let mut cur = self;
        'outer: loop {
            let (nx, ny) = cur.var_counts();
            if nx <= 1 && ny <= 1 {
                // The identity is the only sort-preserving map into
                // `cur`, and it misses every `C∖{a}`. This covers a single
                // atom, whose `C∖{a}` is the false clause.
                return cur;
            }
            for i in 0..cur.atoms.len() {
                if HomSearch::exists(&cur.atoms, &cur.atoms, Some(i)) {
                    let mut atoms = cur.atoms;
                    atoms.remove(i);
                    cur = Clause::new(atoms);
                    continue 'outer;
                }
            }
            return cur;
        }
    }

    /// True iff every homomorphism `C → C` is a bijection — equivalently,
    /// here, the core equals the clause.
    pub fn is_minimized(&self) -> bool {
        self.minimize().atoms.len() == self.atoms.len()
    }

    /// Classifies the clause per Definition 2.3 (assumes it is minimized).
    pub fn shape(&self) -> ClauseShape {
        let has_r = self.mentions(Pred::R);
        let has_t = self.mentions(Pred::T);
        let (nx, ny) = self.var_counts();
        let s_by_y = |_: ()| -> Vec<BTreeSet<u32>> {
            let mut groups: BTreeMap<CVar, BTreeSet<u32>> = BTreeMap::new();
            for a in &self.atoms {
                if let Atom::S(i, _, y) = a {
                    groups.entry(*y).or_default().insert(*i);
                }
            }
            groups.into_values().collect()
        };
        let s_by_x = |_: ()| -> Vec<BTreeSet<u32>> {
            let mut groups: BTreeMap<CVar, BTreeSet<u32>> = BTreeMap::new();
            for a in &self.atoms {
                if let Atom::S(i, x, _) = a {
                    groups.entry(*x).or_default().insert(*i);
                }
            }
            groups.into_values().collect()
        };
        match (has_r, has_t, nx, ny) {
            (true, false, 1, 1) => {
                let j: BTreeSet<u32> = self
                    .atoms
                    .iter()
                    .filter_map(|a| match a {
                        Atom::S(i, _, _) => Some(*i),
                        _ => None,
                    })
                    .collect();
                if j.is_empty() {
                    ClauseShape::Other // bare R(x): degenerate
                } else {
                    ClauseShape::LeftI(j)
                }
            }
            (false, true, 1, 1) => {
                let j: BTreeSet<u32> = self
                    .atoms
                    .iter()
                    .filter_map(|a| match a {
                        Atom::S(i, _, _) => Some(*i),
                        _ => None,
                    })
                    .collect();
                if j.is_empty() {
                    ClauseShape::Other
                } else {
                    ClauseShape::RightI(j)
                }
            }
            (false, false, 1, 1) => ClauseShape::Middle(
                self.atoms
                    .iter()
                    .filter_map(|a| match a {
                        Atom::S(i, _, _) => Some(*i),
                        _ => None,
                    })
                    .collect(),
            ),
            (false, false, 1, _) if ny > 1 => ClauseShape::LeftII(s_by_y(())),
            (false, false, _, 1) if nx > 1 => ClauseShape::RightII(s_by_x(())),
            _ => ClauseShape::Other,
        }
    }

    /// True iff a left clause (Type I or II).
    pub fn is_left(&self) -> bool {
        matches!(self.shape(), ClauseShape::LeftI(_) | ClauseShape::LeftII(_))
    }

    /// True iff a right clause (Type I or II).
    pub fn is_right(&self) -> bool {
        matches!(
            self.shape(),
            ClauseShape::RightI(_) | ClauseShape::RightII(_)
        )
    }

    /// True iff a middle clause.
    pub fn is_middle(&self) -> bool {
        matches!(self.shape(), ClauseShape::Middle(_))
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "false");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " v ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "∀({self})")
    }
}

/// The tree-map implementations this module replaced, kept as test
/// oracles for the allocation-free searches above.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// `Clause::new` with the permutation-vector canonicalization.
    pub fn new(atoms: impl IntoIterator<Item = Atom>) -> Clause {
        let mut atoms: Vec<Atom> = atoms.into_iter().collect();
        atoms.sort();
        atoms.dedup();
        Clause {
            atoms: canonicalize_vars(atoms),
        }
    }

    fn canonicalize_vars(atoms: Vec<Atom>) -> Vec<Atom> {
        let xs: Vec<CVar> = dedup_vars(atoms.iter().flat_map(|a| a.vars()).filter(CVar::is_x));
        let ys: Vec<CVar> = dedup_vars(atoms.iter().flat_map(|a| a.vars()).filter(CVar::is_y));
        if xs.len() <= 1 && ys.len() <= 1 {
            return atoms
                .into_iter()
                .map(|a| {
                    a.map_vars(&mut |v| match v {
                        CVar::X(_) => CVar::X(0),
                        CVar::Y(_) => CVar::Y(0),
                    })
                })
                .collect();
        }
        let mut best: Option<Vec<Atom>> = None;
        for xperm in permutations(xs.len()) {
            for yperm in permutations(ys.len()) {
                let mut renamed: Vec<Atom> = atoms
                    .iter()
                    .map(|a| {
                        a.map_vars(&mut |v| match v {
                            CVar::X(_) => {
                                let i = xs.iter().position(|&w| w == v).unwrap();
                                CVar::X(xperm[i] as u8)
                            }
                            CVar::Y(_) => {
                                let i = ys.iter().position(|&w| w == v).unwrap();
                                CVar::Y(yperm[i] as u8)
                            }
                        })
                    })
                    .collect();
                renamed.sort();
                if best.as_ref().is_none_or(|b| renamed < *b) {
                    best = Some(renamed);
                }
            }
        }
        best.unwrap_or_default()
    }

    fn dedup_vars(it: impl Iterator<Item = CVar>) -> Vec<CVar> {
        let mut out = Vec::new();
        for v in it {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for rest in permutations(n - 1) {
            for pos in 0..=rest.len() {
                let mut p = rest.clone();
                p.insert(pos, n - 1);
                out.push(p);
            }
        }
        out
    }

    /// The backtracking search over a `BTreeMap` assignment, checked
    /// against a `BTreeSet` of target atoms.
    pub fn homomorphism_to(from: &Clause, target: &Clause) -> bool {
        let my_vars: Vec<CVar> = from.vars().into_iter().collect();
        let target_xs: Vec<CVar> = target.vars().into_iter().filter(CVar::is_x).collect();
        let target_ys: Vec<CVar> = target.vars().into_iter().filter(CVar::is_y).collect();
        let target_atoms: BTreeSet<Atom> = target.atoms.iter().copied().collect();
        let mut assignment: BTreeMap<CVar, CVar> = BTreeMap::new();
        fn search(
            vars: &[CVar],
            idx: usize,
            target_xs: &[CVar],
            target_ys: &[CVar],
            atoms: &[Atom],
            target_atoms: &BTreeSet<Atom>,
            assignment: &mut BTreeMap<CVar, CVar>,
        ) -> bool {
            if idx == vars.len() {
                return atoms.iter().all(|a| {
                    let mapped = a.map_vars(&mut |v| assignment[&v]);
                    target_atoms.contains(&mapped)
                });
            }
            let v = vars[idx];
            let candidates = if v.is_x() { target_xs } else { target_ys };
            for &c in candidates {
                assignment.insert(v, c);
                let ok = atoms.iter().all(|a| {
                    let avars = a.vars();
                    if avars.iter().all(|w| assignment.contains_key(w)) {
                        let mapped = a.map_vars(&mut |w| assignment[&w]);
                        target_atoms.contains(&mapped)
                    } else {
                        true
                    }
                });
                if ok
                    && search(
                        vars,
                        idx + 1,
                        target_xs,
                        target_ys,
                        atoms,
                        target_atoms,
                        assignment,
                    )
                {
                    return true;
                }
                assignment.remove(&v);
            }
            false
        }
        search(
            &my_vars,
            0,
            &target_xs,
            &target_ys,
            &from.atoms,
            &target_atoms,
            &mut assignment,
        )
    }

    /// Minimization that clones the clause once per candidate atom.
    pub fn minimize(c: &Clause) -> Clause {
        let mut cur = c.clone();
        'outer: loop {
            for i in 0..cur.atoms.len() {
                let mut atoms = cur.atoms.clone();
                atoms.remove(i);
                let smaller = Clause { atoms };
                if smaller.is_false() {
                    continue;
                }
                if homomorphism_to(&cur, &smaller) {
                    cur = new(smaller.atoms);
                    continue 'outer;
                }
            }
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_shapes() {
        assert_eq!(
            Clause::middle([0, 1]).shape(),
            ClauseShape::Middle([0, 1].into())
        );
        assert_eq!(
            Clause::left_i([0, 2]).shape(),
            ClauseShape::LeftI([0, 2].into())
        );
        assert_eq!(
            Clause::right_i([1]).shape(),
            ClauseShape::RightI([1].into())
        );
        assert_eq!(
            Clause::left_ii(&[&[0], &[1]]).shape(),
            ClauseShape::LeftII(vec![[0].into(), [1].into()])
        );
        assert_eq!(
            Clause::right_ii(&[&[2], &[3]]).shape(),
            ClauseShape::RightII(vec![[2].into(), [3].into()])
        );
    }

    #[test]
    fn left_right_middle_predicates() {
        assert!(Clause::left_i([0]).is_left());
        assert!(!Clause::left_i([0]).is_right());
        assert!(Clause::right_ii(&[&[0], &[1]]).is_right());
        assert!(Clause::middle([0]).is_middle());
    }

    #[test]
    fn homomorphism_middle_to_middle() {
        // S_{0} → S_{0,1}: J ⊆ J' gives a homomorphism.
        let c1 = Clause::middle([0]);
        let c2 = Clause::middle([0, 1]);
        assert!(c1.homomorphism_to(&c2));
        assert!(!c2.homomorphism_to(&c1));
    }

    #[test]
    fn homomorphism_middle_to_left_i() {
        // S_0(x,y) maps into R(x) ∨ S_0(x,y) ∨ S_1(x,y).
        let m = Clause::middle([0]);
        let l = Clause::left_i([0, 1]);
        assert!(m.homomorphism_to(&l));
        // But the left clause cannot map back (R has no target).
        assert!(!l.homomorphism_to(&m));
    }

    #[test]
    fn homomorphism_into_type_ii_picks_branch() {
        // Middle S_1 maps into ∀y S_{0,1} ∨ ∀y S_{1,2} via either branch.
        let m = Clause::middle([1]);
        let l = Clause::left_ii(&[&[0, 1], &[1, 2]]);
        assert!(m.homomorphism_to(&l));
        // Middle S_3 does not.
        let m2 = Clause::middle([3]);
        assert!(!m2.homomorphism_to(&l));
    }

    #[test]
    fn homomorphism_left_ii_to_right_ii_requires_union() {
        // Left II ∨_ℓ ∀y S_{J_ℓ}(x,y_ℓ) maps into right II iff some right
        // subclause contains the union of all left subclauses (x maps to a
        // single x_k).
        let l = Clause::left_ii(&[&[0], &[1]]);
        let r_good = Clause::right_ii(&[&[0, 1, 2], &[3]]);
        let r_bad = Clause::right_ii(&[&[0], &[1]]);
        assert!(l.homomorphism_to(&r_good));
        assert!(!l.homomorphism_to(&r_bad));
    }

    #[test]
    fn minimize_drops_absorbed_subclause() {
        // ∀y S_{0}(x,y0) ∨ ∀y S_{0,1}(x,y1): the first subclause implies the
        // second, so the clause minimizes to ∀y S_{0,1} — i.e. J maximal kept.
        let c = Clause::left_ii(&[&[0], &[0, 1]]);
        let m = c.minimize();
        assert_eq!(m.shape(), ClauseShape::Middle([0, 1].into()));
        assert!(!c.is_minimized());
    }

    #[test]
    fn minimize_keeps_antichain() {
        let c = Clause::left_ii(&[&[0, 1], &[1, 2]]);
        assert!(c.is_minimized());
        assert_eq!(c.minimize(), c);
    }

    #[test]
    fn drop_pred_rewrites() {
        let c = Clause::left_i([0, 1]);
        let without_r = c.drop_pred(Pred::R);
        assert_eq!(without_r.shape(), ClauseShape::Middle([0, 1].into()));
        let without_s0 = c.drop_pred(Pred::S(0));
        assert_eq!(without_s0.shape(), ClauseShape::LeftI([1].into()));
        // Dropping everything gives the false clause.
        let f = Clause::middle([0]).drop_pred(Pred::S(0));
        assert!(f.is_false());
    }

    #[test]
    fn symbols_and_vars() {
        let c = Clause::left_ii(&[&[0], &[1]]);
        assert_eq!(c.symbols(), [Pred::S(0), Pred::S(1)].into_iter().collect());
        assert_eq!(c.vars().len(), 3); // x0, y0, y1
    }

    #[test]
    fn self_homomorphism_always_exists() {
        for c in [
            Clause::middle([0, 1]),
            Clause::left_i([0]),
            Clause::left_ii(&[&[0, 1], &[2]]),
        ] {
            assert!(c.homomorphism_to(&c));
        }
    }
}
