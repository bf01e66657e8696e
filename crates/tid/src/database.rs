//! Tuple-independent probabilistic databases over the bipartite vocabulary.
//!
//! A bipartite TID (§2 of the paper) has a domain `Dom = U ∪ V` and assigns
//! a probability to every ground tuple `R(u)`, `T(v)`, `S_i(u,v)`. Following
//! the paper's gadget constructions, tuples not explicitly listed take a
//! configurable *default* probability: `1` for the block databases of §3.3
//! ("otherwise, Pr(S(a,b)) = 1") and `0` for ordinary databases.

use gfomc_arith::Rational;
use std::collections::BTreeMap;
use std::fmt;

/// A ground tuple. Left and right constants live in separate namespaces
/// (the domain is a disjoint union `U ∪ V`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Tuple {
    /// `R(u)` for a left constant `u`.
    R(u32),
    /// `T(v)` for a right constant `v`.
    T(u32),
    /// `S_i(u, v)`.
    S(u32, u32, u32),
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tuple::R(u) => write!(f, "R(u{u})"),
            Tuple::T(v) => write!(f, "T(v{v})"),
            Tuple::S(i, u, v) => write!(f, "S{i}(u{u},v{v})"),
        }
    }
}

/// A bipartite tuple-independent probabilistic database.
#[derive(Clone, PartialEq)]
pub struct Tid {
    left: Vec<u32>,
    right: Vec<u32>,
    probs: BTreeMap<Tuple, Rational>,
    default_prob: Rational,
}

impl Tid {
    /// Creates a TID over the given domains. Unlisted tuples take
    /// `default_prob` (must be 0 or 1 so that possible worlds stay
    /// enumerable over the explicitly probabilistic tuples).
    pub fn new(
        left: impl IntoIterator<Item = u32>,
        right: impl IntoIterator<Item = u32>,
        default_prob: Rational,
    ) -> Self {
        assert!(
            default_prob.is_zero() || default_prob.is_one(),
            "default probability must be 0 or 1"
        );
        let mut left: Vec<u32> = left.into_iter().collect();
        let mut right: Vec<u32> = right.into_iter().collect();
        left.sort_unstable();
        left.dedup();
        right.sort_unstable();
        right.dedup();
        Tid {
            left,
            right,
            probs: BTreeMap::new(),
            default_prob,
        }
    }

    /// A TID where all unlisted tuples are present with probability 1
    /// (the convention of the paper's block constructions).
    pub fn all_present(
        left: impl IntoIterator<Item = u32>,
        right: impl IntoIterator<Item = u32>,
    ) -> Self {
        Tid::new(left, right, Rational::one())
    }

    /// A TID where all unlisted tuples are absent (probability 0).
    pub fn all_absent(
        left: impl IntoIterator<Item = u32>,
        right: impl IntoIterator<Item = u32>,
    ) -> Self {
        Tid::new(left, right, Rational::zero())
    }

    /// The left domain `U`.
    pub fn left_domain(&self) -> &[u32] {
        &self.left
    }

    /// The right domain `V`.
    pub fn right_domain(&self) -> &[u32] {
        &self.right
    }

    /// Sets the probability of a tuple. Panics if the tuple's constants are
    /// not in the domain, or the probability is not in `[0,1]`.
    pub fn set_prob(&mut self, t: Tuple, p: Rational) {
        assert!(p.is_probability(), "probability out of [0,1]");
        match t {
            Tuple::R(u) => assert!(self.left.contains(&u), "unknown left constant"),
            Tuple::T(v) => assert!(self.right.contains(&v), "unknown right constant"),
            Tuple::S(_, u, v) => {
                assert!(self.left.contains(&u), "unknown left constant");
                assert!(self.right.contains(&v), "unknown right constant");
            }
        }
        self.probs.insert(t, p);
    }

    /// The probability of a tuple.
    pub fn prob(&self, t: &Tuple) -> Rational {
        self.probs
            .get(t)
            .cloned()
            .unwrap_or_else(|| self.default_prob.clone())
    }

    /// True iff the tuple's probability was set explicitly.
    pub fn is_explicit(&self, t: &Tuple) -> bool {
        self.probs.contains_key(t)
    }

    /// The explicitly-set tuples with their probabilities.
    pub fn explicit_tuples(&self) -> impl Iterator<Item = (&Tuple, &Rational)> {
        self.probs.iter()
    }

    /// The probability of unlisted tuples (0 or 1 by construction) —
    /// together with [`Tid::left_domain`], [`Tid::right_domain`], and
    /// [`Tid::explicit_tuples`] this is the full observable state of the
    /// database, which is what a wire serialization must carry.
    pub fn default_prob(&self) -> &Rational {
        &self.default_prob
    }

    /// The tuples whose probability is strictly between 0 and 1 — the
    /// "random variables" of the database.
    pub fn uncertain_tuples(&self) -> Vec<Tuple> {
        self.probs
            .iter()
            .filter(|(_, p)| !p.is_zero() && !p.is_one())
            .map(|(t, _)| *t)
            .collect()
    }

    /// True iff every tuple probability lies in `{0, ½, 1}` — the input
    /// class of the *generalized model counting* problem `GFOMC`.
    pub fn is_gfomc_instance(&self) -> bool {
        self.probs
            .values()
            .all(|p| p.is_zero() || p.is_one() || *p == Rational::one_half())
    }

    /// True iff every tuple probability lies in `{½, 1}` (equivalently, no
    /// explicit 0s and default 1) — the input class of *model counting*
    /// `FOMC` for ∀CNF (§1.3: duals restrict probabilities to {½, 1}).
    pub fn is_fomc_instance(&self) -> bool {
        self.default_prob.is_one()
            && self
                .probs
                .values()
                .all(|p| p.is_one() || *p == Rational::one_half())
    }

    /// Disjoint union of two TIDs: domains are unioned; explicitly-set
    /// tuples must agree on any overlap; defaults must match.
    pub fn union(&self, other: &Tid) -> Tid {
        assert_eq!(
            self.default_prob, other.default_prob,
            "union requires identical default probabilities"
        );
        let mut out = Tid::new(
            self.left.iter().chain(other.left.iter()).copied(),
            self.right.iter().chain(other.right.iter()).copied(),
            self.default_prob.clone(),
        );
        for (t, p) in self.probs.iter().chain(other.probs.iter()) {
            if let Some(existing) = out.probs.get(t) {
                assert_eq!(existing, p, "conflicting probability for {t}");
            }
            out.probs.insert(*t, p.clone());
        }
        out
    }

    /// Union of many TIDs.
    pub fn union_all(tids: impl IntoIterator<Item = Tid>) -> Tid {
        let mut it = tids.into_iter();
        let first = it.next().expect("union of no TIDs");
        it.fold(first, |acc, t| acc.union(&t))
    }
}

impl fmt::Debug for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Tid(U={:?}, V={:?}, default={})",
            self.left, self.right, self.default_prob
        )?;
        for (t, p) in &self.probs {
            writeln!(f, "  {t} := {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half() -> Rational {
        Rational::one_half()
    }

    #[test]
    fn defaults_apply() {
        let tid = Tid::all_present([0, 1], [10]);
        assert_eq!(tid.prob(&Tuple::S(0, 0, 10)), Rational::one());
        let tid0 = Tid::all_absent([0], [10]);
        assert_eq!(tid0.prob(&Tuple::R(0)), Rational::zero());
    }

    #[test]
    fn set_and_get() {
        let mut tid = Tid::all_present([0], [10]);
        tid.set_prob(Tuple::S(0, 0, 10), half());
        assert_eq!(tid.prob(&Tuple::S(0, 0, 10)), half());
        assert_eq!(tid.uncertain_tuples(), vec![Tuple::S(0, 0, 10)]);
    }

    #[test]
    #[should_panic]
    fn unknown_constant_rejected() {
        let mut tid = Tid::all_present([0], [10]);
        tid.set_prob(Tuple::R(7), half());
    }

    #[test]
    #[should_panic]
    fn out_of_range_probability_rejected() {
        let mut tid = Tid::all_present([0], [10]);
        tid.set_prob(Tuple::R(0), Rational::from_ints(3, 2));
    }

    #[test]
    fn gfomc_and_fomc_classification() {
        let mut tid = Tid::all_present([0], [10]);
        tid.set_prob(Tuple::R(0), half());
        assert!(tid.is_gfomc_instance());
        assert!(tid.is_fomc_instance());
        tid.set_prob(Tuple::T(10), Rational::zero());
        assert!(tid.is_gfomc_instance());
        assert!(!tid.is_fomc_instance());
        tid.set_prob(Tuple::S(0, 0, 10), Rational::from_ints(1, 3));
        assert!(!tid.is_gfomc_instance());
    }

    #[test]
    fn union_merges_domains() {
        let mut a = Tid::all_present([0], [10]);
        a.set_prob(Tuple::R(0), half());
        let mut b = Tid::all_present([1], [11]);
        b.set_prob(Tuple::R(1), half());
        let u = a.union(&b);
        assert_eq!(u.left_domain(), &[0, 1]);
        assert_eq!(u.right_domain(), &[10, 11]);
        assert_eq!(u.prob(&Tuple::R(0)), half());
        assert_eq!(u.prob(&Tuple::R(1)), half());
    }

    #[test]
    #[should_panic]
    fn union_conflict_panics() {
        let mut a = Tid::all_present([0], [10]);
        a.set_prob(Tuple::R(0), half());
        let mut b = Tid::all_present([0], [10]);
        b.set_prob(Tuple::R(0), Rational::zero());
        let _ = a.union(&b);
    }

    #[test]
    fn domains_deduplicate() {
        let tid = Tid::all_present([1, 0, 1], [5, 5]);
        assert_eq!(tid.left_domain(), &[0, 1]);
        assert_eq!(tid.right_domain(), &[5]);
    }
}
