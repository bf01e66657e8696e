//! Stateful priced circuits: incremental re-pricing and derivatives.
//!
//! [`crate::flat::FlatCircuit`] is a *stateless* evaluator: every call
//! prices all gates from a weight function and throws the interior away.
//! That is the right shape for compile-once / evaluate-many batches, but
//! the two workloads the ROADMAP calls out on top of it — tuple weight
//! *updates* and per-tuple *explanation* queries — both want the interior
//! kept around:
//!
//! * **Incremental re-pricing.** A d-DNNF-style circuit is a DAG, so a
//!   change to one variable's weight can only move the values of that
//!   variable's gates and their ancestors. [`PricedCircuit`] persists
//!   one exact [`Rational`] per gate, plus a reverse
//!   topology (parent lists mirroring the packed `children` vector), and
//!   [`PricedCircuit::update_weight`] re-prices only the dirty cone —
//!   ascending gate order via a min-heap, so every gate is recomputed at
//!   most once per update and only after all its changed children.
//!   Values are **bit-identical** to a fresh full evaluation by
//!   construction: a re-priced gate goes through the very gate kernel the
//!   forward pass runs (over the persisted children), and propagation
//!   stops only where the exact value is unchanged (a `Rational` is
//!   inline exactly when it fits a machine word, so equal values also
//!   share their representation).
//!   When the dirty frontier grows past half the
//!   circuit the update abandons the heap and falls back to the plain
//!   full pass — same values, better constant.
//!
//! * **Derivatives.** `Pr(F, w)` is multilinear in the weights, and for
//!   a smooth d-DNNF one upward pass (already persisted) plus one
//!   downward pass yields ∂Pr/∂p_t for *every* distinct variable — the
//!   classic circuit-differentiation trick. [`PricedCircuit::gradients`]
//!   implements the downward pass in exact rational arithmetic:
//!   products distribute their adjoint via prefix/suffix partial
//!   products (zero-exact — no division, so zero-valued children are
//!   handled verbatim), decisions route `d·p` / `d·(1−p)` to their
//!   branches and credit `d·(val(hi) − val(lo))` to their variable.
//!   By multilinearity the result equals the exact finite difference
//!   `(Pr|p+h − Pr|p−h) / 2h` for any `h` — the property suite checks
//!   precisely that, in exact rationals.
//!
//! The engine's sessions (`gfomc-engine`) wrap one [`PricedCircuit`]
//! per open session and layer tuple-name resolution, top-k influence
//! ranking, and what-if bands on top.

use crate::cnf::Var;
use crate::flat::{FlatCircuit, Op, ReverseTopology, SlotW, NO_SLOT};
use gfomc_arith::Rational;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// What one [`PricedCircuit::update_weight`] call actually did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateStats {
    /// Gates re-priced by this update. `0` for a no-op update (same
    /// weight), the full gate count when the update fell back to a full
    /// pass, and the dirty-cone size otherwise.
    pub repriced: usize,
    /// Whether the dirty frontier exceeded the fallback threshold and
    /// the update finished as a plain full evaluation.
    pub full_pass: bool,
}

/// A [`FlatCircuit`] with its valuation held live: per-gate exact lanes,
/// current per-slot weights, a reverse
/// topology for dirty-path propagation, and a slot→gates index seeding
/// each update. See the module docs for the two workloads this serves.
#[derive(Clone, Debug)]
pub struct PricedCircuit {
    circuit: Arc<FlatCircuit>,
    rev: ReverseTopology,
    /// CSR slot→gates index: gates reading slot `s` (its leaves and
    /// decisions) at `slot_gates[slot_gates_off[s]..slot_gates_off[s+1]]`.
    slot_gates_off: Vec<u32>,
    slot_gates: Vec<u32>,
    /// Distinct-variable → slot (inverse of `FlatCircuit::vars`).
    slot_of: HashMap<Var, u32>,
    /// Current weights, resolved per slot (weight + complement).
    slots: Vec<SlotW>,
    /// The persisted upward pass: one exact value per gate.
    cells: Vec<Rational>,
    /// Min-heap of dirty gate ids (scratch, kept to reuse the allocation).
    dirty: BinaryHeap<Reverse<u32>>,
    /// Membership mask for `dirty` (a gate is pushed at most once).
    dirty_mark: Vec<bool>,
}

impl PricedCircuit {
    /// Prices `circuit` under `weights` (slot order, one probability per
    /// distinct variable of [`FlatCircuit::vars`]) and persists the full
    /// valuation. Cost: one exact pass + one reverse-topology build.
    ///
    /// # Panics
    /// If `weights.len()` differs from the distinct-variable count or
    /// any weight is outside `[0, 1]`.
    pub fn new(circuit: Arc<FlatCircuit>, weights: &[Rational]) -> PricedCircuit {
        assert_eq!(
            weights.len(),
            circuit.vars().len(),
            "one weight per distinct variable, in slot order"
        );
        let slots: Vec<SlotW> = weights
            .iter()
            .map(|p| {
                assert!(p.is_probability(), "weight out of [0,1]: {p}");
                SlotW::new(p.clone())
            })
            .collect();
        let mut cells = Vec::new();
        circuit.forward(&slots, &mut cells);
        let rev = circuit.reverse_topology();
        let n = circuit.gate_count();
        let nslots = circuit.vars().len();
        let mut counts = vec![0u32; nslots];
        for g in 0..n {
            let s = circuit.var_slot[g];
            if s != NO_SLOT {
                counts[s as usize] += 1;
            }
        }
        let mut slot_gates_off = Vec::with_capacity(nslots + 1);
        let mut acc = 0u32;
        for &c in &counts {
            slot_gates_off.push(acc);
            acc += c;
        }
        slot_gates_off.push(acc);
        let mut cursor = slot_gates_off[..nslots].to_vec();
        let mut slot_gates = vec![0u32; acc as usize];
        for g in 0..n {
            let s = circuit.var_slot[g];
            if s != NO_SLOT {
                let at = &mut cursor[s as usize];
                slot_gates[*at as usize] = g as u32;
                *at += 1;
            }
        }
        let slot_of = circuit
            .vars()
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        PricedCircuit {
            rev,
            slot_gates_off,
            slot_gates,
            slot_of,
            slots,
            cells,
            dirty: BinaryHeap::new(),
            dirty_mark: vec![false; n],
            circuit,
        }
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Arc<FlatCircuit> {
        &self.circuit
    }

    /// Gate count of the underlying circuit.
    pub fn gate_count(&self) -> usize {
        self.circuit.gate_count()
    }

    /// Distinct variables, in slot order (delegates to the circuit).
    pub fn vars(&self) -> &[Var] {
        self.circuit.vars()
    }

    /// The slot of a distinct variable, if the circuit mentions it.
    pub fn slot_of(&self, v: Var) -> Option<u32> {
        self.slot_of.get(&v).copied()
    }

    /// The current weight of a slot.
    pub fn weight(&self, slot: u32) -> &Rational {
        &self.slots[slot as usize].p
    }

    /// `Pr(F, w)` under the current weights — just a read of the
    /// persisted root value.
    pub fn value(&self) -> Rational {
        self.cells[self.circuit.root() as usize].clone()
    }

    /// Exact value of an arbitrary gate under the current weights.
    pub fn gate_value(&self, gate: u32) -> Rational {
        self.cells[gate as usize].clone()
    }

    /// Sets slot `slot`'s weight to `p` and re-prices the dirty cone.
    ///
    /// Only ancestors of the slot's gates are visited, in ascending gate
    /// id (children strictly before parents, so each gate is recomputed
    /// at most once, after all its changed inputs). A gate whose exact
    /// value comes out unchanged stops propagation. If more than half the
    /// circuit goes dirty the update falls back to a plain full pass.
    /// Either way the persisted state afterwards is bit-identical to a
    /// fresh [`PricedCircuit::new`] under the updated weights.
    ///
    /// # Panics
    /// If `slot` is out of range or `p` is outside `[0, 1]`.
    pub fn update_weight(&mut self, slot: u32, p: Rational) -> UpdateStats {
        assert!(p.is_probability(), "weight out of [0,1]: {p}");
        let si = slot as usize;
        if self.slots[si].p == p {
            // Same exact weight ⇒ nothing can move.
            return UpdateStats {
                repriced: 0,
                full_pass: false,
            };
        }
        self.slots[si] = SlotW::new(p);
        let n = self.circuit.gate_count();
        let threshold = (n / 2).max(1);
        let (lo, hi) = (
            self.slot_gates_off[si] as usize,
            self.slot_gates_off[si + 1] as usize,
        );
        for i in lo..hi {
            let g = self.slot_gates[i] as usize;
            if !self.dirty_mark[g] {
                self.dirty_mark[g] = true;
                self.dirty.push(Reverse(g as u32));
            }
        }
        let mut repriced = 0usize;
        while let Some(Reverse(g)) = self.dirty.pop() {
            let gi = g as usize;
            self.dirty_mark[gi] = false;
            if repriced >= threshold {
                while let Some(Reverse(h)) = self.dirty.pop() {
                    self.dirty_mark[h as usize] = false;
                }
                self.circuit.forward(&self.slots, &mut self.cells);
                return UpdateStats {
                    repriced: n,
                    full_pass: true,
                };
            }
            // The forward pass's own gate kernel over the persisted
            // children: bit-identical to the same gate of a fresh forward
            // pass.
            let value = self
                .circuit
                .price(gi, &self.slots, |k| &self.cells[k as usize]);
            repriced += 1;
            let changed = value != self.cells[gi];
            self.cells[gi] = value;
            if changed {
                for &par in self.rev.parents(g) {
                    let pi = par as usize;
                    if !self.dirty_mark[pi] {
                        self.dirty_mark[pi] = true;
                        self.dirty.push(Reverse(par));
                    }
                }
            }
        }
        UpdateStats {
            repriced,
            full_pass: false,
        }
    }

    /// The downward derivative pass: `∂Pr/∂p_s` for every slot `s`, in
    /// slot order, from the persisted upward values — one sweep in exact
    /// rational arithmetic (see the module docs for the recurrences).
    /// Gradients can be negative: raising a weight can lower `Pr` when
    /// the variable appears under a decision whose `lo` branch is
    /// heavier.
    pub fn gradients(&self) -> Vec<Rational> {
        let c = &*self.circuit;
        let n = c.gate_count();
        let mut out = vec![Rational::zero(); c.vars().len()];
        if n == 0 {
            return out;
        }
        // Adjoints: d[g] = ∂(root value)/∂(gate g's value).
        let mut d = vec![Rational::zero(); n];
        d[c.root() as usize] = Rational::one();
        let mut suffix: Vec<Rational> = Vec::new();
        for g in (0..n).rev() {
            if d[g].is_zero() {
                continue;
            }
            match c.ops[g] {
                Op::True | Op::False => {}
                Op::Leaf => {
                    let s = c.var_slot[g] as usize;
                    out[s] = &out[s] + &d[g];
                }
                Op::Product => {
                    // ∂P/∂cᵢ = Π_{j≠i} val(cⱼ): prefix × suffix partial
                    // products — no division, so zero children are exact.
                    let kids = c.kids(g);
                    suffix.clear();
                    suffix.resize(kids.len() + 1, Rational::one());
                    for i in (0..kids.len()).rev() {
                        suffix[i] = &self.cells[kids[i] as usize] * &suffix[i + 1];
                    }
                    let mut prefix = Rational::one();
                    for (i, &k) in kids.iter().enumerate() {
                        let partial = &prefix * &suffix[i + 1];
                        if !partial.is_zero() {
                            let term = &d[g] * &partial;
                            let ki = k as usize;
                            d[ki] = &d[ki] + &term;
                        }
                        prefix = &prefix * &self.cells[k as usize];
                        if prefix.is_zero() {
                            // Every later partial has this zero prefix.
                            break;
                        }
                    }
                }
                Op::Decision => {
                    let s = c.var_slot[g] as usize;
                    let kids = c.kids(g);
                    let (hi, lo) = (kids[0] as usize, kids[1] as usize);
                    let dh = &d[g] * &self.slots[s].p;
                    let dl = &d[g] * &self.slots[s].pc;
                    d[hi] = &d[hi] + &dh;
                    d[lo] = &d[lo] + &dl;
                    let diff = &self.cells[hi] - &self.cells[lo];
                    if !diff.is_zero() {
                        let term = &d[g] * &diff;
                        out[s] = &out[s] + &term;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::cnf::{Clause, Cnf};
    use crate::wmc::UniformWeight;

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    fn priced(f: &Cnf, w: Rational) -> PricedCircuit {
        let flat = Arc::new(Circuit::compile(f).flatten());
        let weights = vec![w; flat.vars().len()];
        PricedCircuit::new(flat, &weights)
    }

    #[test]
    fn construction_matches_stateless_evaluation() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4])]);
        let flat = Circuit::compile(&f).flatten();
        let w = UniformWeight(r(1, 3));
        let pc = priced(&f, r(1, 3));
        assert_eq!(pc.value(), flat.eval_exact(&w));
    }

    #[test]
    fn reverse_topology_mirrors_children() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[1, 3])]);
        let flat = Circuit::compile(&f).flatten();
        let rev = flat.reverse_topology();
        let mut forward_edges = 0usize;
        for g in 0..flat.gate_count() {
            for &k in flat.kids(g) {
                forward_edges += 1;
                assert!(
                    rev.parents(k).contains(&(g as u32)),
                    "edge {g}→{k} missing from reverse topology"
                );
            }
        }
        assert_eq!(rev.edge_count(), forward_edges);
        for g in 0..flat.gate_count() as u32 {
            for &p in rev.parents(g) {
                assert!(flat.kids(p as usize).contains(&g));
            }
        }
    }

    #[test]
    fn update_is_bit_identical_to_fresh_pricing() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4]), cl(&[1, 4])]);
        let flat = Arc::new(Circuit::compile(&f).flatten());
        let mut weights = vec![r(1, 2); flat.vars().len()];
        let mut pc = PricedCircuit::new(flat.clone(), &weights);
        let stream = [(0u32, r(1, 7)), (2, r(6, 7)), (0, r(1, 7)), (1, r(0, 1))];
        for (slot, p) in stream {
            pc.update_weight(slot, p.clone());
            weights[slot as usize] = p;
            let fresh = PricedCircuit::new(flat.clone(), &weights);
            assert_eq!(pc.value(), fresh.value());
            for g in 0..flat.gate_count() as u32 {
                assert_eq!(pc.gate_value(g), fresh.gate_value(g), "gate {g}");
            }
        }
    }

    #[test]
    fn noop_update_reprices_nothing() {
        let mut pc = priced(&Cnf::new([cl(&[1, 2]), cl(&[2, 3])]), r(1, 2));
        let stats = pc.update_weight(0, r(1, 2));
        assert_eq!(
            stats,
            UpdateStats {
                repriced: 0,
                full_pass: false
            }
        );
    }

    #[test]
    fn update_touches_fewer_gates_than_full_pass_on_disjoint_parts() {
        // Two independent clauses: updating a variable of one must not
        // re-price the other's cone.
        let f = Cnf::new([cl(&[1, 2]), cl(&[3, 4])]);
        let mut pc = priced(&f, r(1, 2));
        let slot = pc.slot_of(Var(1)).expect("var 1 present");
        let stats = pc.update_weight(slot, r(1, 3));
        assert!(stats.repriced > 0);
        assert!(
            stats.full_pass || stats.repriced < pc.gate_count(),
            "update re-priced all {} gates without declaring a full pass",
            pc.gate_count()
        );
    }

    #[test]
    fn gradients_match_finite_differences() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4])]);
        let flat = Arc::new(Circuit::compile(&f).flatten());
        let weights: Vec<Rational> = (0..flat.vars().len())
            .map(|i| r(i as i64 + 1, flat.vars().len() as i64 + 2))
            .collect();
        let pc = PricedCircuit::new(flat.clone(), &weights);
        let grads = pc.gradients();
        let h = r(1, 64);
        for s in 0..weights.len() {
            let mut up = weights.clone();
            up[s] = &up[s] + &h;
            let mut dn = weights.clone();
            dn[s] = &dn[s] - &h;
            let vu = PricedCircuit::new(flat.clone(), &up).value();
            let vd = PricedCircuit::new(flat.clone(), &dn).value();
            let fd = &(&vu - &vd) * &r(32, 1); // ÷ 2h = × 32
            assert_eq!(grads[s], fd, "slot {s}");
        }
    }
}
