//! The cofactor kernel: canonical monotone CNFs packed as bitset rows.
//!
//! Knowledge compilation ([`crate::circuit::Compiler`]) and the router's
//! cost estimate (`gfomc_safety::circuit_cost_estimate`) run the same
//! descent: split a formula into variable-disjoint components, Shannon-
//! branch a connected one on its most frequent variable, recurse on both
//! cofactors. On [`Cnf`]'s `Vec<Clause>` form every restriction
//! re-allocates each clause and re-runs a quadratic subsumption sweep.
//! [`BitCnf`] stores one row of `u64` words per clause, all rows in a
//! single `Vec<u64>`; bit `i` of a row is the `i`-th variable of a
//! [`VarIndex`], which lists variables in `Var` order. Restriction,
//! component splitting, the branching variable, the variable count and
//! hashing are then word operations (the packed-clause technique of
//! model counters such as sharpSAT; Thurley, SAT 2006). Rows have as many
//! words as the index needs, so one code path serves every width.
//!
//! **Same cofactors as [`Cnf`].** The kernel keeps `Cnf`'s canonical form
//! and every order the descent depends on:
//!
//! * rows are subsumption-minimal and sorted in the lexicographic order
//!   of their sorted variable lists, which the row comparator reproduces
//!   because bit order is `Var` order;
//! * components come out grouped by union-find root, in the order
//!   [`Cnf::components`] produces;
//! * the branching variable is the most frequent one, ties going to the
//!   smallest `Var`, as in [`Cnf::branching_var`].
//!
//! So a descent over [`BitCnf`] visits exactly the cofactors, in exactly
//! the order, that a descent over [`Cnf::restrict`], [`Cnf::components`]
//! and [`Cnf::branching_var`] visits. Those methods stay the reference the
//! kernel is tested against.

use crate::cnf::{Cnf, Var};
use std::cmp::Ordering;

/// The variables of a family of formulas, in `Var` order: bit `i` of a
/// [`BitCnf`] row is `vars[i]`.
#[derive(Clone, Debug, Default)]
pub struct VarIndex {
    vars: Vec<Var>,
}

impl VarIndex {
    /// The dense index of `f`'s variables.
    pub fn of(f: &Cnf) -> VarIndex {
        let mut index = VarIndex::default();
        index.absorb(f);
        index
    }

    /// Adds `f`'s variables. Returns `None` when every one was already
    /// indexed; otherwise the new bit of every old bit (the index stays in
    /// `Var` order, so new variables can shift old ones).
    pub(crate) fn absorb(&mut self, f: &Cnf) -> Option<Vec<u32>> {
        let mut fresh: Vec<Var> = f
            .clauses()
            .iter()
            .flat_map(|c| c.vars().iter().copied())
            .filter(|v| self.vars.binary_search(v).is_err())
            .collect();
        if fresh.is_empty() {
            return None;
        }
        fresh.sort_unstable();
        fresh.dedup();
        let old = std::mem::take(&mut self.vars);
        let mut moved = Vec::with_capacity(old.len());
        let mut fresh = fresh.into_iter().peekable();
        for v in old {
            while let Some(w) = fresh.next_if(|&w| w < v) {
                self.vars.push(w);
            }
            moved.push(self.vars.len() as u32);
            self.vars.push(v);
        }
        self.vars.extend(fresh);
        Some(moved)
    }

    /// The variable behind `bit`.
    pub fn var(&self, bit: u32) -> Var {
        self.vars[bit as usize]
    }

    /// Words per row: enough for every indexed variable, and at least one
    /// so that `⊥` (a single empty row) has a row to store.
    pub(crate) fn words(&self) -> usize {
        self.vars.len().div_ceil(64).max(1)
    }

    fn bit(&self, v: Var) -> usize {
        self.vars
            .binary_search(&v)
            .expect("variable missing from the index")
    }
}

/// A canonical monotone CNF as bitset rows over a [`VarIndex`].
///
/// Invariants, as for [`Cnf`]: rows are distinct, subsumption-minimal and
/// sorted in the lexicographic order of their variable lists; `⊤` has no
/// rows and `⊥` is one empty row. Equal formulas over one index therefore
/// have equal rows, which makes a `BitCnf` a memo key as it stands.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BitCnf {
    words: usize,
    rows: Vec<u64>,
}

impl BitCnf {
    /// Packs `f` over `index`, which must hold every variable of `f`.
    /// `f` is canonical and the index keeps `Var` order, so the rows come
    /// out canonical without re-sorting.
    pub fn pack(f: &Cnf, index: &VarIndex) -> BitCnf {
        let words = index.words();
        let mut rows = vec![0u64; f.len() * words];
        for (row, clause) in rows.chunks_exact_mut(words).zip(f.clauses()) {
            for &v in clause.vars() {
                let bit = index.bit(v);
                row[bit / 64] |= 1 << (bit % 64);
            }
        }
        BitCnf { words, rows }
    }

    fn bottom(words: usize) -> BitCnf {
        BitCnf {
            words,
            rows: vec![0; words],
        }
    }

    fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.rows.chunks_exact(self.words)
    }

    /// Number of clauses.
    pub fn clause_count(&self) -> usize {
        self.rows.len() / self.words
    }

    /// True iff the formula is the constant `true` (no clauses).
    pub fn is_true(&self) -> bool {
        self.rows.is_empty()
    }

    /// True iff the formula is the constant `false`. An empty row
    /// subsumes every other, so it is the whole formula and sorts first.
    pub fn is_false(&self) -> bool {
        !self.is_true() && self.rows[..self.words].iter().all(|&w| w == 0)
    }

    /// True iff the formula is a single positive literal.
    pub(crate) fn is_literal(&self) -> bool {
        self.clause_count() == 1 && self.rows.iter().map(|w| w.count_ones()).sum::<u32>() == 1
    }

    /// Number of distinct variables (one OR per word column).
    pub fn var_count(&self) -> usize {
        (0..self.words)
            .map(|w| {
                let column = self.rows.iter().skip(w).step_by(self.words);
                column.fold(0, |acc, &x| acc | x).count_ones() as usize
            })
            .sum()
    }

    /// The Shannon-branching bit: the most frequent variable, ties going
    /// to the smallest bit (= smallest `Var`), or `None` for `⊤` and `⊥`.
    /// The compiler and the cost estimate both branch here.
    pub fn branching_bit(&self) -> Option<u32> {
        let mut best: Option<(u32, u32)> = None;
        let mut counts = [0u32; 64];
        for w in 0..self.words {
            counts.fill(0);
            for &x in self.rows.iter().skip(w).step_by(self.words) {
                for_each_bit(x, |b| counts[b as usize] += 1);
            }
            for (b, &n) in counts.iter().enumerate() {
                if n > 0 && best.is_none_or(|(m, _)| n > m) {
                    best = Some((n, (w * 64 + b) as u32));
                }
            }
        }
        best.map(|(_, bit)| bit)
    }

    /// The cofactor `self[bit := value]`, canonical.
    ///
    /// `value = true` drops the rows holding `bit`; what remains is a
    /// subsequence of a canonical row list, so it is canonical. `value =
    /// false` clears `bit` in those rows. A cleared row can only subsume
    /// rows that never held `bit` (anything else would contradict the
    /// minimality of `self`), and clearing keeps the relative order of the
    /// cleared rows, so one subsumption filter and one merge of two sorted
    /// runs restore canonical form.
    pub fn restrict(&self, bit: u32, value: bool) -> BitCnf {
        let (word, mask) = (bit as usize / 64, 1u64 << (bit % 64));
        let words = self.words;
        if value {
            let mut rows = Vec::with_capacity(self.rows.len());
            for row in self.rows().filter(|row| row[word] & mask == 0) {
                rows.extend_from_slice(row);
            }
            return BitCnf { words, rows };
        }
        let mut cleared_rows = Vec::new();
        for row in self.rows().filter(|row| row[word] & mask != 0) {
            let at = cleared_rows.len();
            cleared_rows.extend_from_slice(row);
            cleared_rows[at + word] &= !mask;
        }
        if cleared_rows.is_empty() {
            return self.clone();
        }
        let cleared_run = || cleared_rows.chunks_exact(words);
        if cleared_run().any(|row| row.iter().all(|&x| x == 0)) {
            return BitCnf::bottom(words);
        }
        let mut kept = self
            .rows()
            .filter(|row| row[word] & mask == 0)
            .filter(|row| !cleared_run().any(|c| subsumes(c, row)))
            .peekable();
        let mut cleared = cleared_run().peekable();
        let mut rows = Vec::with_capacity(self.rows.len());
        loop {
            let next = match (kept.peek(), cleared.peek()) {
                (Some(k), Some(c)) if row_cmp(k, c) == Ordering::Less => kept.next(),
                (Some(_), Some(_)) | (None, Some(_)) => cleared.next(),
                (Some(_), None) => kept.next(),
                (None, None) => break,
            };
            rows.extend_from_slice(next.expect("peeked row"));
        }
        BitCnf { words, rows }
    }

    /// Splits the formula into variable-disjoint components, or `None`
    /// when it has fewer than two (`⊤`, `⊥` and connected formulas).
    ///
    /// Runs [`Cnf::components`]' union-find step for step — rows in order,
    /// each row's variables in ascending order, a shared variable joining
    /// the row's root under the root of the variable's first row — so the
    /// roots, and with them the component order (ascending root row) and
    /// the row order inside each component, are the same.
    pub fn split_components(&self) -> Option<Vec<BitCnf>> {
        let n = self.clause_count();
        if n < 2 {
            return None;
        }
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut owner = vec![u32::MAX; self.words * 64];
        for (i, row) in self.rows().enumerate() {
            for (w, &x) in row.iter().enumerate() {
                for_each_bit(x, |b| {
                    let slot = &mut owner[w * 64 + b as usize];
                    if *slot == u32::MAX {
                        *slot = i as u32;
                    } else {
                        let (ri, rj) = (find(&mut parent, i as u32), find(&mut parent, *slot));
                        if ri != rj {
                            parent[ri as usize] = rj;
                        }
                    }
                });
            }
        }
        // Component number of each root, in ascending root order.
        let mut group = vec![u32::MAX; n];
        let mut groups = 0;
        for r in 0..n {
            if parent[r] == r as u32 {
                group[r] = groups;
                groups += 1;
            }
        }
        if groups == 1 {
            return None;
        }
        let mut parts = vec![
            BitCnf {
                words: self.words,
                rows: Vec::new(),
            };
            groups as usize
        ];
        for (i, row) in self.rows().enumerate() {
            let r = find(&mut parent, i as u32);
            parts[group[r as usize] as usize]
                .rows
                .extend_from_slice(row);
        }
        Some(parts)
    }

    /// The same formula over a wider index: `moved[b]` is the new bit of
    /// old bit `b`. The map keeps bit order, so rows stay canonical.
    pub(crate) fn remap(&self, moved: &[u32], words: usize) -> BitCnf {
        let mut rows = vec![0u64; self.clause_count() * words];
        for (new, old) in rows.chunks_exact_mut(words).zip(self.rows()) {
            for (w, &x) in old.iter().enumerate() {
                for_each_bit(x, |b| {
                    let bit = moved[w * 64 + b as usize] as usize;
                    new[bit / 64] |= 1 << (bit % 64);
                });
            }
        }
        BitCnf { words, rows }
    }
}

/// Calls `f` on every set bit of `x`, lowest first.
fn for_each_bit(mut x: u64, mut f: impl FnMut(u32)) {
    while x != 0 {
        f(x.trailing_zeros());
        x &= x - 1;
    }
}

/// Union-find root of `i`, with path halving.
fn find(parent: &mut [u32], mut i: u32) -> u32 {
    while parent[i as usize] != i {
        let grand = parent[parent[i as usize] as usize];
        parent[i as usize] = grand;
        i = grand;
    }
    i
}

/// True iff row `a`'s variables are a subset of row `b`'s.
fn subsumes(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
}

/// The lexicographic order of the rows' sorted variable lists.
///
/// Below the lowest differing bit `d` the lists agree. The row holding `d`
/// continues with `d`; the other continues with its next variable, which
/// is above `d`, or ends. So the row holding `d` is smaller iff the other
/// row has a variable above `d`; otherwise the other is its prefix.
fn row_cmp(a: &[u64], b: &[u64]) -> Ordering {
    for w in 0..a.len() {
        let diff = a[w] ^ b[w];
        if diff == 0 {
            continue;
        }
        let d = diff & diff.wrapping_neg();
        let above = !((d << 1).wrapping_sub(1));
        let a_has_d = a[w] & d != 0;
        let other = if a_has_d { b } else { a };
        let other_continues = other[w] & above != 0 || other[w + 1..].iter().any(|&x| x != 0);
        return if a_has_d == other_continues {
            Ordering::Less
        } else {
            Ordering::Greater
        };
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Clause;

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    #[test]
    fn row_order_is_clause_order() {
        let clauses = [
            cl(&[]),
            cl(&[1]),
            cl(&[1, 2]),
            cl(&[1, 2, 70]),
            cl(&[1, 3]),
            cl(&[1, 70]),
            cl(&[2]),
            cl(&[2, 130]),
            cl(&[70]),
            cl(&[130]),
        ];
        let index = VarIndex::of(&Cnf::new([cl(&[1, 2, 3, 70, 130])]));
        for a in &clauses {
            for b in &clauses {
                let pa = BitCnf::pack(&Cnf::new([a.clone()]), &index);
                let pb = BitCnf::pack(&Cnf::new([b.clone()]), &index);
                let (ra, rb) = (&pa.rows[..pa.words], &pb.rows[..pb.words]);
                assert_eq!(row_cmp(ra, rb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn absorb_keeps_var_order() {
        let mut index = VarIndex::of(&Cnf::new([cl(&[2, 5])]));
        let moved = index.absorb(&Cnf::new([cl(&[1, 3, 7])])).expect("new vars");
        assert_eq!(index.vars, [1, 2, 3, 5, 7].map(Var));
        assert_eq!(moved, [1, 3]);
        assert!(index.absorb(&Cnf::new([cl(&[3, 5])])).is_none());
    }

    #[test]
    fn remap_widens_rows() {
        let f = Cnf::new([cl(&[2, 5]), cl(&[5])]);
        let mut index = VarIndex::of(&f);
        let packed = BitCnf::pack(&f, &index);
        let wide = Cnf::new([cl(&(0..150).collect::<Vec<_>>())]);
        let moved = index.absorb(&wide).expect("new vars");
        let remapped = packed.remap(&moved, index.words());
        assert_eq!(remapped, BitCnf::pack(&f, &index));
    }

    #[test]
    fn constants() {
        let index = VarIndex::default();
        let top = BitCnf::pack(&Cnf::top(), &index);
        let bottom = BitCnf::pack(&Cnf::bottom(), &index);
        assert!(top.is_true() && !top.is_false());
        assert!(bottom.is_false() && !bottom.is_true());
        assert_eq!(top.branching_bit(), None);
        assert_eq!(bottom.branching_bit(), None);
        assert!(bottom.split_components().is_none());
    }
}
