//! Interned canonical CNFs: dense integer ids for cofactor caches.
//!
//! The engine caches compiled circuits per canonical lineage. Keying that
//! map by the full [`Cnf`] value hashes the entire clause set on every
//! lookup *and* every insert, and clones the formula into the table. The
//! interner hoists that cost: each distinct canonical CNF is hashed once
//! when first seen and assigned a dense [`CnfId`]; the cache keys on the
//! copy-free id. (The circuit compiler's memo keys on the bitset rows of
//! [`crate::cofactor::BitCnf`] instead.)

use crate::cnf::Cnf;
use std::collections::HashMap;
use std::sync::Arc;

/// Dense identifier of an interned canonical CNF.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CnfId(pub u32);

/// An intern table mapping canonical CNFs to dense [`CnfId`]s.
///
/// Formulas are stored behind [`Arc`] so the id → formula direction shares
/// the allocation with the hash-map key instead of cloning twice, and so
/// tables (and caches keyed on their ids) stay `Send` for the parallel
/// evaluation paths.
///
/// Callers whose downstream cache is *bounded* (e.g. the engine's LRU of
/// compiled circuits) can [`CnfInterner::forget`] an id when they evict
/// its entry, releasing the retained formula and recycling the slot —
/// otherwise the table would grow with every distinct formula ever seen,
/// defeating the cache bound.
#[derive(Clone, Debug, Default)]
pub struct CnfInterner {
    ids: HashMap<Arc<Cnf>, CnfId>,
    /// Id → formula; `None` marks a forgotten slot awaiting reuse.
    formulas: Vec<Option<Arc<Cnf>>>,
    /// Forgotten slots available for recycling, so the table's footprint
    /// is bounded by the number of *live* formulas.
    free: Vec<u32>,
}

impl CnfInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `f`, returning its id. Hashes `f` exactly once; clones it
    /// only the first time it is seen. A previously forgotten slot may be
    /// recycled, so a formula interned after a [`CnfInterner::forget`]
    /// can receive a numerically reused id.
    pub fn intern(&mut self, f: &Cnf) -> CnfId {
        if let Some(&id) = self.ids.get(f) {
            return id;
        }
        let shared = Arc::new(f.clone());
        let id = match self.free.pop() {
            Some(slot) => {
                self.formulas[slot as usize] = Some(Arc::clone(&shared));
                CnfId(slot)
            }
            None => {
                let id = CnfId(self.formulas.len() as u32);
                self.formulas.push(Some(Arc::clone(&shared)));
                id
            }
        };
        self.ids.insert(shared, id);
        id
    }

    /// Looks up the id of `f` without interning it.
    pub fn lookup(&self, f: &Cnf) -> Option<CnfId> {
        self.ids.get(f).copied()
    }

    /// The formula behind an id. Panics if the id was forgotten.
    pub fn resolve(&self, id: CnfId) -> &Cnf {
        self.formulas[id.0 as usize]
            .as_deref()
            .expect("resolve of a forgotten CnfId")
    }

    /// Releases the formula behind `id` and recycles the slot: a later
    /// [`CnfInterner::intern`] may hand the same numeric id to a
    /// *different* formula. Callers must therefore purge any external
    /// state keyed by `id` **before** forgetting it, and must forget each
    /// id at most once — a stale second `forget` would release whatever
    /// formula has since been recycled into the slot. (The engine's
    /// circuit cache removes its entry and forgets in one step, so both
    /// conditions hold there.) No-op while the slot is still empty.
    pub fn forget(&mut self, id: CnfId) {
        if let Some(formula) = self.formulas[id.0 as usize].take() {
            self.ids.remove(&formula);
            self.free.push(id.0);
        }
    }

    /// Number of live (not forgotten) interned formulas.
    pub fn len(&self) -> usize {
        self.formulas.len() - self.free.len()
    }

    /// True iff nothing live is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Clause, Var};

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    #[test]
    fn intern_is_idempotent() {
        let mut it = CnfInterner::new();
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let a = it.intern(&f);
        let b = it.intern(&f);
        assert_eq!(a, b);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn distinct_formulas_get_distinct_ids() {
        let mut it = CnfInterner::new();
        let a = it.intern(&Cnf::new([cl(&[1])]));
        let b = it.intern(&Cnf::new([cl(&[2])]));
        assert_ne!(a, b);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut it = CnfInterner::new();
        let f = Cnf::new([cl(&[1, 2])]);
        let id = it.intern(&f);
        assert_eq!(it.resolve(id), &f);
        assert_eq!(it.lookup(&f), Some(id));
        assert_eq!(it.lookup(&Cnf::top()), None);
    }

    #[test]
    fn forget_releases_and_recycles() {
        let mut it = CnfInterner::new();
        let f = Cnf::new([cl(&[1, 2])]);
        let g = Cnf::new([cl(&[3])]);
        let h = Cnf::new([cl(&[4, 5])]);
        let fid = it.intern(&f);
        let gid = it.intern(&g);
        it.forget(fid);
        assert_eq!(it.len(), 1);
        assert_eq!(it.lookup(&f), None);
        // g is untouched; a new formula recycles f's slot, so the table
        // footprint stays bounded by the live count.
        assert_eq!(it.resolve(gid), &g);
        let hid = it.intern(&h);
        assert_eq!(hid, fid, "freed slot must be recycled");
        assert_eq!(it.resolve(hid), &h);
        assert_eq!(it.len(), 2);
        // Re-interning the forgotten formula allocates a new slot.
        let fid2 = it.intern(&f);
        assert_ne!(fid2, hid);
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn forget_on_an_empty_slot_is_a_noop() {
        let mut it = CnfInterner::new();
        let f = Cnf::new([cl(&[1])]);
        let fid = it.intern(&f);
        it.forget(fid);
        it.forget(fid); // slot still empty: nothing to release
        assert_eq!(it.len(), 0);
        assert!(it.is_empty());
    }

    #[test]
    fn canonical_equality_collapses() {
        // Syntactically different inputs with the same canonical form
        // intern to the same id.
        let mut it = CnfInterner::new();
        let a = it.intern(&Cnf::new([cl(&[2, 1]), cl(&[1, 2])]));
        let b = it.intern(&Cnf::new([cl(&[1, 2])]));
        assert_eq!(a, b);
    }
}
