//! Flat struct-of-arrays circuits and their exact evaluation.
//!
//! The pointer-y [`Node`] tree of [`crate::circuit`] is the *compilation*
//! representation: easy to grow, memoize, and extract. It is a poor
//! *evaluation* representation — every `Product` owns a heap
//! `Vec<NodeId>`, every gate visit chases it, and every leaf and decision
//! re-queries the weight function (a hash lookup plus a `Rational` clone
//! per gate per weighting). [`FlatCircuit`] is the evaluation form the
//! compile-once / evaluate-many workloads of the paper's §3 block
//! constructions deserve:
//!
//! * **dense `u32` ids in topological order** — gate `g`'s children all
//!   have ids `< g`, so evaluation is one forward loop, no recursion, no
//!   hashing;
//! * **struct-of-arrays layout** — parallel slices `ops` / `var_slot` /
//!   `(off, len)` spans into one packed `children` vector: no per-gate
//!   allocation anywhere;
//! * **a distinct-variable slot table** — weights are resolved *once per
//!   distinct variable* into a dense slice, and the per-gate loop just
//!   indexes it;
//! * **one gate kernel** — the two gate formulas, `Product = Π children`
//!   and `Decision = p·hi + (1 − p)·lo`, are written once, generic over a
//!   value [`Lane`]: the hybrid exact lane (machine-word rationals that
//!   spill to bignum) or (in `gfomc-poly`) polynomials for the
//!   arithmetization. The forward pass on either lane and incremental
//!   re-pricing ([`crate::priced::PricedCircuit`]) all price gates
//!   through it, so their results agree by construction; evaluate-many
//!   callers loop that one forward pass over their weightings, reusing
//!   one [`EvalArena`];
//! * **exact values only** — every evaluation materializes the exact
//!   root `Rational`, and a caller that needs a comparison compares that
//!   value. On the paper's `{0, ½, 1}` weights the hybrid lane stays in
//!   machine words (every op on the seeded unsafe-block preset takes the
//!   small path), so an approximate pre-pass would not pay for itself.
//!
//! Exactness contract: for every circuit and every weight function,
//! `flat.eval_exact(w) == tree.evaluate(w) == wmc_brute_force(f, w)`
//! (`Rational` equality, i.e. bit identity in lowest terms) — enforced by
//! `tests/flat_suite.rs` and the engine's property suites.

use crate::circuit::{Circuit, Compiler, Node, Valuation};
use crate::cnf::Var;
use crate::wmc::WeightFn;
use gfomc_arith::{Rat64, Rational};
use std::collections::HashMap;

/// One gate value of the hybrid exact pass: machine words while every
/// intermediate fits ([`Rat64`]), exact bignum from the first overflow on.
/// Both forms are in lowest terms, so materializing a lane via
/// [`LaneVal::to_rational`] is bit-identical to an all-bignum evaluation.
#[derive(Clone, Debug)]
pub(crate) enum LaneVal {
    /// Machine-word value (the common case: no heap traffic at all).
    S(Rat64),
    /// Spilled to exact bignum.
    B(Rational),
}

impl LaneVal {
    /// The exact value, materialized (canonical lowest terms either way).
    #[inline]
    pub(crate) fn to_rational(&self) -> Rational {
        match self {
            LaneVal::S(r) => Rational::from(*r),
            LaneVal::B(r) => r.clone(),
        }
    }
}

/// One distinct variable's weight, resolved once per weighting: the exact
/// probability, its complement (computed once here instead of once per
/// decision gate), and their machine-word forms when they fit.
#[derive(Clone, Debug)]
pub(crate) struct SlotW {
    pub(crate) p: Rational,
    pub(crate) pc: Rational,
    pub(crate) ps: Option<Rat64>,
    pub(crate) pcs: Option<Rat64>,
}

impl SlotW {
    pub(crate) fn new(p: Rational) -> SlotW {
        let pc = p.complement();
        SlotW {
            ps: p.to_rat64(),
            pcs: pc.to_rat64(),
            p,
            pc,
        }
    }
}

/// A value lane of the gate kernel: the arithmetic one gate formula
/// needs, and nothing else — any commutative semiring with a Shannon
/// gate. Here: the hybrid exact lane (machine-word rationals that spill
/// to bignum); `gfomc-poly` adds the polynomial lane of the
/// arithmetization. A lane runs through [`FlatCircuit::forward`].
pub trait Lane {
    /// One distinct variable's resolved weight.
    type Weight;
    /// The constant gate: `1` when `one`, else `0`.
    fn constant(one: bool) -> Self;
    /// The leaf value `w(v)`.
    fn leaf(w: &Self::Weight) -> Self;
    /// One step of a Product: `self · kid`.
    fn times(&self, kid: &Self) -> Self;
    /// Whether a Product may stop here: no later factor can move the value.
    fn absorbing(&self) -> bool;
    /// The Shannon gate `w·hi + (1 − w)·lo`.
    fn decide(w: &Self::Weight, hi: &Self, lo: &Self) -> Self;
}

/// Exact arithmetic in machine words unless an operand already spilled or
/// an op overflows. A Product stops at its first zero factor.
impl Lane for LaneVal {
    type Weight = SlotW;

    #[inline]
    fn constant(one: bool) -> Self {
        LaneVal::S(if one { Rat64::ONE } else { Rat64::ZERO })
    }

    #[inline]
    fn leaf(w: &SlotW) -> Self {
        match w.ps {
            Some(r) => LaneVal::S(r),
            None => LaneVal::B(w.p.clone()),
        }
    }

    #[inline]
    fn times(&self, kid: &Self) -> Self {
        match (self, kid) {
            (LaneVal::S(x), LaneVal::S(y)) => match x.checked_mul(*y) {
                Some(r) => LaneVal::S(r),
                None => LaneVal::B(&Rational::from(*x) * &Rational::from(*y)),
            },
            (a, b) => LaneVal::B(&a.to_rational() * &b.to_rational()),
        }
    }

    #[inline]
    fn absorbing(&self) -> bool {
        match self {
            LaneVal::S(r) => r.is_zero(),
            LaneVal::B(r) => r.is_zero(),
        }
    }

    #[inline]
    fn decide(w: &SlotW, hi: &Self, lo: &Self) -> Self {
        if let (Some(p), Some(pc), LaneVal::S(h), LaneVal::S(l)) = (w.ps, w.pcs, hi, lo) {
            if let Some(t1) = p.checked_mul(*h) {
                if let Some(t2) = pc.checked_mul(*l) {
                    if let Some(r) = t1.checked_add(t2) {
                        return LaneVal::S(r);
                    }
                }
            }
        }
        let hi = hi.to_rational();
        let lo = lo.to_rational();
        LaneVal::B(&(&w.p * &hi) + &(&w.pc * &lo))
    }
}

/// Gate opcode of a [`FlatCircuit`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Op {
    /// The constant `0` (`⊥`).
    False,
    /// The constant `1` (`⊤`).
    True,
    /// A positive literal: value `w(v)` for the gate's slot variable.
    Leaf,
    /// Decomposable product of the gate's children.
    Product,
    /// Shannon split `w(v)·hi + (1 − w(v))·lo`; children are `[hi, lo]`.
    Decision,
}

/// Slot sentinel for gates without a variable.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A flat, topologically ordered, struct-of-arrays arithmetic circuit.
///
/// Produced by [`Circuit::flatten`] (single root) or
/// [`Compiler::finish_flat`] (whole multi-rooted pool, ids preserved).
/// Gate ids are dense `u32`s with children before parents; the layout is
/// four parallel slices plus one packed child vector — no per-gate heap
/// allocation:
///
/// ```text
/// gate g:   ops[g]       opcode
///           var_slot[g]  index into vars() for Leaf/Decision, unused otherwise
///           off[g]..off[g]+len[g]   g's children inside `children`
/// ```
#[derive(Clone, Debug)]
pub struct FlatCircuit {
    pub(crate) ops: Vec<Op>,
    pub(crate) var_slot: Vec<u32>,
    off: Vec<u32>,
    len: Vec<u32>,
    children: Vec<u32>,
    vars: Vec<Var>,
    root: u32,
}

impl FlatCircuit {
    fn from_pool(nodes: &[Node], root: u32) -> FlatCircuit {
        let n = nodes.len();
        let mut ops = Vec::with_capacity(n);
        let mut var_slot = Vec::with_capacity(n);
        let mut off = Vec::with_capacity(n);
        let mut len = Vec::with_capacity(n);
        let mut children = Vec::new();
        let mut vars: Vec<Var> = Vec::new();
        let mut slot_of: HashMap<Var, u32> = HashMap::new();
        let intern = |v: Var, vars: &mut Vec<Var>, slot_of: &mut HashMap<Var, u32>| {
            *slot_of.entry(v).or_insert_with(|| {
                vars.push(v);
                (vars.len() - 1) as u32
            })
        };
        for node in nodes {
            let start = children.len() as u32;
            let (op, slot) = match node {
                Node::False => (Op::False, NO_SLOT),
                Node::True => (Op::True, NO_SLOT),
                Node::Leaf(v) => (Op::Leaf, intern(*v, &mut vars, &mut slot_of)),
                Node::Product(kids) => {
                    children.extend(kids.iter().map(|k| k.0));
                    (Op::Product, NO_SLOT)
                }
                Node::Decision { var, hi, lo } => {
                    children.push(hi.0);
                    children.push(lo.0);
                    (Op::Decision, intern(*var, &mut vars, &mut slot_of))
                }
            };
            ops.push(op);
            var_slot.push(slot);
            off.push(start);
            len.push(children.len() as u32 - start);
        }
        FlatCircuit {
            ops,
            var_slot,
            off,
            len,
            children,
            vars,
            root,
        }
    }

    /// Number of gates (including the two constants) — the unit of the
    /// engine's cache-admission cost and of
    /// `gfomc_safety::CircuitCostEstimate`.
    pub fn gate_count(&self) -> usize {
        self.ops.len()
    }

    /// The root gate id.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The opcode of a gate.
    pub fn op(&self, gate: u32) -> Op {
        self.ops[gate as usize]
    }

    /// The distinct variables of the circuit, in slot order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of Shannon-split gates.
    pub fn decision_count(&self) -> usize {
        self.ops.iter().filter(|o| **o == Op::Decision).count()
    }

    /// The packed children of a gate.
    #[inline]
    pub(crate) fn kids(&self, g: usize) -> &[u32] {
        let off = self.off[g] as usize;
        &self.children[off..off + self.len[g] as usize]
    }

    /// Resolves `w` into one [`SlotW`] per distinct variable, appended to
    /// `out` in slot order — the one place a weight function enters the
    /// flat evaluator, checking each weight is a probability.
    fn resolve<W: WeightFn>(&self, w: &W, out: &mut Vec<SlotW>) {
        out.extend(self.vars.iter().map(|&v| {
            let p = w.weight(v);
            assert!(p.is_probability(), "weight out of [0,1] for {v:?}");
            SlotW::new(p)
        }));
    }

    /// The gate kernel: gate `g`'s value on lane `L`, from the per-slot
    /// weights `w` and its children's values `val(child)`. Every pricing
    /// pass — the forward pass on both lanes and incremental re-pricing —
    /// runs this one function, so their values agree by construction.
    #[inline]
    pub(crate) fn price<'a, L: Lane + 'a>(
        &self,
        g: usize,
        w: &[L::Weight],
        val: impl Fn(u32) -> &'a L,
    ) -> L {
        match self.ops[g] {
            Op::False => L::constant(false),
            Op::True => L::constant(true),
            Op::Leaf => L::leaf(&w[self.var_slot[g] as usize]),
            Op::Product => {
                let mut acc = L::constant(true);
                for &k in self.kids(g) {
                    acc = acc.times(val(k));
                    if acc.absorbing() {
                        break;
                    }
                }
                acc
            }
            Op::Decision => {
                let kids = self.kids(g);
                L::decide(&w[self.var_slot[g] as usize], val(kids[0]), val(kids[1]))
            }
        }
    }

    /// The forward pass on lane `L`: every gate priced by the gate kernel
    /// in id order (children before parents), one value per gate into
    /// `out`. `w` holds one weight per distinct variable, in the slot
    /// order of [`FlatCircuit::vars`].
    pub fn forward<L: Lane>(&self, w: &[L::Weight], out: &mut Vec<L>) {
        out.clear();
        out.reserve(self.ops.len());
        for g in 0..self.ops.len() {
            let v = self.price(g, w, |k| &out[k as usize]);
            out.push(v);
        }
    }

    /// `Pr(F, w)` exactly, reusing the arena's slabs across weightings.
    /// Bit-identical to [`Circuit::evaluate`] on the tree form; only the
    /// root value is materialized as a [`Rational`] — interior gates stay
    /// in the hybrid machine-word lane.
    pub fn eval_exact_with<W: WeightFn>(&self, w: &W, arena: &mut EvalArena) -> Rational {
        arena.slots.clear();
        self.resolve(w, &mut arena.slots);
        self.forward(&arena.slots, &mut arena.cells);
        arena.cells[self.root as usize].to_rational()
    }

    /// `Pr(F, w)` exactly, with a throwaway arena.
    pub fn eval_exact<W: WeightFn>(&self, w: &W) -> Rational {
        self.eval_exact_with(w, &mut EvalArena::new())
    }

    /// Evaluates **every** gate exactly under `w` in one forward pass —
    /// the flat analogue of [`Compiler::evaluate_all`] for multi-rooted
    /// pools built by [`Compiler::finish_flat`] (ids are preserved, so
    /// `NodeId`s returned by [`Compiler::compile`] index the result).
    pub fn evaluate_all<W: WeightFn>(&self, w: &W) -> Valuation {
        self.evaluate_all_with(w, &mut EvalArena::new())
    }

    /// [`FlatCircuit::evaluate_all`] reusing the arena's slabs, for
    /// callers that price one pool under many weightings.
    pub fn evaluate_all_with<W: WeightFn>(&self, w: &W, arena: &mut EvalArena) -> Valuation {
        self.eval_exact_with(w, arena);
        Valuation {
            values: arena.cells.iter().map(LaneVal::to_rational).collect(),
        }
    }

    /// Builds the parent index of the circuit: for every gate, the gates
    /// that consume it, in the same packed CSR layout as `children` (one
    /// counting pass, one prefix sum, one scatter — no per-gate
    /// allocation). Each edge of `children` appears exactly once, so
    /// `rev.edge_count() == children.len()`; a gate referenced twice by
    /// the same parent (a `Decision` with `hi == lo` after extraction)
    /// lists that parent twice, mirroring the forward multiplicity.
    pub fn reverse_topology(&self) -> ReverseTopology {
        let n = self.ops.len();
        let mut counts = vec![0u32; n];
        for &k in &self.children {
            counts[k as usize] += 1;
        }
        let mut off = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for &c in &counts {
            off.push(acc);
            acc += c;
        }
        off.push(acc);
        let mut cursor = off[..n].to_vec();
        let mut parents = vec![0u32; self.children.len()];
        for g in 0..n {
            for &k in self.kids(g) {
                let slot = &mut cursor[k as usize];
                parents[*slot as usize] = g as u32;
                *slot += 1;
            }
        }
        ReverseTopology { off, parents }
    }
}

/// The parent index of a [`FlatCircuit`]: for each gate, the gates that
/// consume it, packed CSR-style exactly like the forward `children`
/// vector. Parents of gate `g` live at `off[g]..off[g+1]` inside
/// `parents`, in ascending forward-scan order (the order parent gates
/// were visited while counting), so walking a gate's parents is one
/// slice index — the structural half of incremental re-pricing.
#[derive(Clone, Debug)]
pub struct ReverseTopology {
    off: Vec<u32>,
    parents: Vec<u32>,
}

impl ReverseTopology {
    /// The gates consuming `g` (with forward multiplicity: a parent
    /// referencing `g` twice appears twice).
    #[inline]
    pub fn parents(&self, g: u32) -> &[u32] {
        let gi = g as usize;
        &self.parents[self.off[gi] as usize..self.off[gi + 1] as usize]
    }

    /// Total parent edges — always equal to the forward `children` count.
    pub fn edge_count(&self) -> usize {
        self.parents.len()
    }
}

/// Reusable evaluation buffers of the flat evaluator.
///
/// Bottom-up evaluation needs one slot per gate. Allocating those vectors
/// anew for every weight assignment dominated the evaluate-many profile;
/// an arena created once and threaded through
/// [`FlatCircuit::eval_exact_with`] / [`FlatCircuit::evaluate_all_with`]
/// keeps the capacity across weightings. The slabs:
///
/// * `slots` — the weighting resolved once per *distinct variable*
///   (weight, complement, and their machine-word forms), so the per-gate
///   loop indexes a dense slice instead of re-querying the weight function
///   at every leaf and decision;
/// * `cells` — one hybrid exact value per gate (machine words until an op
///   overflows, exact bignum after).
#[derive(Clone, Debug, Default)]
pub struct EvalArena {
    slots: Vec<SlotW>,
    cells: Vec<LaneVal>,
}

impl EvalArena {
    /// An empty arena; it grows to the circuit size on first use.
    pub fn new() -> Self {
        EvalArena::default()
    }
}

impl Circuit {
    /// Flattens a self-contained circuit into its struct-of-arrays
    /// evaluation form. Gate ids and the gate count are preserved 1:1.
    pub fn flatten(&self) -> FlatCircuit {
        FlatCircuit::from_pool(self.nodes(), self.root().0)
    }
}

impl Compiler {
    /// Flattens the compiler's entire multi-rooted pool, preserving ids —
    /// `NodeId`s handed out by [`Compiler::compile`] remain valid gate
    /// ids of the result (the nominal root is the last gate; use
    /// [`FlatCircuit::evaluate_all`] and index by compile-time ids).
    pub fn finish_flat(&self) -> FlatCircuit {
        let root = (self.node_count() - 1) as u32;
        FlatCircuit::from_pool(self.nodes(), root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Clause, Cnf};
    use crate::wmc::UniformWeight;

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    #[test]
    fn flatten_preserves_counts_and_values() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4])]);
        let tree = Circuit::compile(&f);
        let flat = tree.flatten();
        assert_eq!(flat.gate_count(), tree.node_count());
        assert_eq!(flat.decision_count(), tree.decision_count());
        assert_eq!(flat.root(), tree.root().0);
        for k in 0..=4 {
            let w = UniformWeight(r(k, 4));
            assert_eq!(flat.eval_exact(&w), tree.evaluate(&w));
        }
    }

    #[test]
    fn pool_flattening_preserves_compile_ids() {
        let mut comp = Compiler::new();
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let g = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[4])]);
        let rf = comp.compile(&f);
        let rg = comp.compile(&g);
        let flat = comp.finish_flat();
        assert_eq!(flat.gate_count(), comp.node_count());
        let w = UniformWeight(Rational::one_half());
        let flat_vals = flat.evaluate_all(&w);
        let tree_vals = comp.evaluate_all(&w);
        assert_eq!(flat_vals.value(rf), tree_vals.value(rf));
        assert_eq!(flat_vals.value(rg), tree_vals.value(rg));
    }
}
