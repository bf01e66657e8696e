//! Knowledge compilation: monotone CNF → d-DNNF-style arithmetic circuit.
//!
//! This is the workspace's one Shannon descent. The paper's block
//! constructions (§3, Theorem 3.4) evaluate the *same* lineage under *many*
//! weight assignments, which is exactly the workload knowledge compilation
//! amortizes: [`Compiler::compile`] runs the expansion **once**, recording
//! its trace as a circuit whose internal nodes are
//!
//! * **products** of variable-disjoint sub-circuits (component
//!   decomposition — decomposable conjunction), and
//! * **decisions** `w(v)·hi + (1 − w(v))·lo` (Shannon splits —
//!   deterministic disjunction),
//!
//! after which `Pr(F, w)` for *any* weight function `w` is a single
//! bottom-up pass, linear in the circuit size, with no hashing, no clause
//! manipulation, and no re-canonicalization. Compilation is
//! weight-independent, and a d-DNNF evaluates in any commutative semiring:
//! one-shot [`wmc`](crate::wmc()) is compile + evaluate, and the
//! multilinear arithmetization (`gfomc_poly::arithmetize`) is the same
//! circuit priced over polynomials. The descent runs on the bitset rows of
//! the [`crate::cofactor`] kernel, which visits the cofactors a descent
//! over [`Cnf::restrict`] / [`Cnf::components`] / [`Cnf::branching_var`]
//! would visit, in the same order, so pools are gate-for-gate those of
//! the `Cnf`-level reference descent.

use crate::cnf::{Cnf, Var};
use crate::cofactor::{BitCnf, VarIndex};
use crate::wmc::WeightFn;
use gfomc_arith::Rational;
use std::collections::HashMap;

/// Index of a node in a [`Circuit`] or [`Compiler`] pool.
///
/// Children always precede parents, so a single forward pass over the pool
/// evaluates every node bottom-up.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// One gate of the arithmetic circuit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// The constant `1` (the formula `⊤`).
    True,
    /// The constant `0` (the formula `⊥`).
    False,
    /// A single positive literal: evaluates to `w(v)`.
    Leaf(Var),
    /// Decomposable conjunction: variable-disjoint children, value is the
    /// product of child values (Theorem 3.4's factorization as a gate).
    Product(Vec<NodeId>),
    /// Shannon split on `var`: `w(var)·hi + (1 − w(var))·lo`. Valid for
    /// every `w(var) ∈ [0, 1]`, including the deterministic endpoints.
    Decision {
        /// The split variable.
        var: Var,
        /// The `var := true` cofactor.
        hi: NodeId,
        /// The `var := false` cofactor.
        lo: NodeId,
    },
}

/// Node id 0: the constant `⊥`.
const FALSE_ID: NodeId = NodeId(0);
/// Node id 1: the constant `⊤`.
const TRUE_ID: NodeId = NodeId(1);

/// Compiles CNFs into a growing multi-rooted circuit pool.
///
/// The pool, the per-cofactor memo, and the variable index persist across
/// [`Compiler::compile`] calls, so formulas sharing cofactors (e.g. the
/// `Q_αβ` cell family of the Type-II machinery) share sub-circuits. All
/// formulas compiled by one `Compiler` must use a common variable
/// namespace. The memo is keyed by the cofactors' bitset rows over one
/// `Var`-ordered [`VarIndex`] of every variable seen so far; a formula
/// bringing new variables widens the index and re-keys the memo.
#[derive(Clone, Debug)]
pub struct Compiler {
    index: VarIndex,
    memo: HashMap<BitCnf, NodeId>,
    nodes: Vec<Node>,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

impl Compiler {
    /// An empty compiler (pool holds only the two constants).
    pub fn new() -> Self {
        Compiler {
            index: VarIndex::default(),
            memo: HashMap::new(),
            nodes: vec![Node::False, Node::True],
        }
    }

    /// Compiles `f`, returning the id of its root gate. Repeated calls on
    /// the same (or overlapping) formulas hit the memo.
    pub fn compile(&mut self, f: &Cnf) -> NodeId {
        if f.is_true() {
            return TRUE_ID;
        }
        if f.is_false() {
            return FALSE_ID;
        }
        if let Some(moved) = self.index.absorb(f) {
            let words = self.index.words();
            self.memo = std::mem::take(&mut self.memo)
                .into_iter()
                .map(|(rows, n)| (rows.remap(&moved, words), n))
                .collect();
        }
        self.descend(BitCnf::pack(f, &self.index))
    }

    /// The Shannon descent: components become a product gate, a connected
    /// formula a decision on the kernel's branching variable.
    fn descend(&mut self, f: BitCnf) -> NodeId {
        if f.is_true() {
            return TRUE_ID;
        }
        if f.is_false() {
            return FALSE_ID;
        }
        if let Some(&n) = self.memo.get(&f) {
            return n;
        }
        let node = match f.split_components() {
            Some(parts) => Node::Product(parts.into_iter().map(|c| self.descend(c)).collect()),
            None => {
                let bit = f.branching_bit().expect("non-constant CNF has variables");
                let var = self.index.var(bit);
                // A lone unit clause compiles to a leaf: Pr = w(v).
                if f.is_literal() {
                    Node::Leaf(var)
                } else {
                    let hi = self.descend(f.restrict(bit, true));
                    let lo = self.descend(f.restrict(bit, false));
                    Node::Decision { var, hi, lo }
                }
            }
        };
        let n = self.push(node);
        self.memo.insert(f, n);
        n
    }

    fn push(&mut self, node: Node) -> NodeId {
        let n = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        n
    }

    /// The node pool (children precede parents).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Total pool size, including the two constants.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Evaluates **every** pooled gate under `w` in one bottom-up pass.
    ///
    /// This is the batched form for many formulas × one weight function:
    /// after compiling a family of formulas over a shared variable
    /// namespace, a single pass prices all of them, with shared
    /// sub-circuits evaluated once.
    pub fn evaluate_all<W: WeightFn>(&self, w: &W) -> Valuation {
        Valuation {
            values: evaluate_pool(&self.nodes, w),
        }
    }

    /// Extracts the self-contained sub-circuit rooted at `root` (gates are
    /// renumbered; unreachable pool nodes are dropped).
    pub fn extract(&self, root: NodeId) -> Circuit {
        // Iterative post-order DFS to keep child-before-parent ordering.
        let mut renumber: HashMap<NodeId, NodeId> = HashMap::new();
        let mut nodes: Vec<Node> = vec![Node::False, Node::True];
        renumber.insert(FALSE_ID, FALSE_ID);
        renumber.insert(TRUE_ID, TRUE_ID);
        let mut stack = vec![(root, false)];
        while let Some((n, expanded)) = stack.pop() {
            if renumber.contains_key(&n) {
                continue;
            }
            let node = &self.nodes[n.0 as usize];
            if !expanded {
                stack.push((n, true));
                match node {
                    Node::Product(kids) => stack.extend(kids.iter().map(|&k| (k, false))),
                    Node::Decision { hi, lo, .. } => {
                        stack.push((*hi, false));
                        stack.push((*lo, false));
                    }
                    _ => {}
                }
            } else {
                let remapped = match node {
                    Node::Product(kids) => {
                        Node::Product(kids.iter().map(|k| renumber[k]).collect())
                    }
                    Node::Decision { var, hi, lo } => Node::Decision {
                        var: *var,
                        hi: renumber[hi],
                        lo: renumber[lo],
                    },
                    other => other.clone(),
                };
                let new_id = NodeId(nodes.len() as u32);
                nodes.push(remapped);
                renumber.insert(n, new_id);
            }
        }
        Circuit {
            nodes,
            root: renumber[&root],
        }
    }
}

/// The values of every pooled gate under one weight function
/// (see [`Compiler::evaluate_all`]).
#[derive(Clone, Debug)]
pub struct Valuation {
    pub(crate) values: Vec<Rational>,
}

impl Valuation {
    /// The value of a gate.
    pub fn value(&self, id: NodeId) -> &Rational {
        &self.values[id.0 as usize]
    }
}

/// A compiled, self-contained arithmetic circuit for one formula.
///
/// Obtained from [`Circuit::compile`] (one-shot) or [`Compiler::extract`]
/// (from a shared pool). Evaluation under any weight function is one
/// bottom-up pass — `Pr(F, w)` in time linear in the circuit size.
#[derive(Clone, Debug)]
pub struct Circuit {
    nodes: Vec<Node>,
    root: NodeId,
}

impl Circuit {
    /// One-shot compilation of a single formula.
    pub fn compile(f: &Cnf) -> Circuit {
        let mut c = Compiler::new();
        let root = c.compile(f);
        Circuit {
            nodes: c.nodes,
            root,
        }
    }

    /// `Pr(F, w)`: evaluates the circuit bottom-up under `w` — the
    /// reference oracle the flat evaluator is checked against.
    pub fn evaluate<W: WeightFn>(&self, w: &W) -> Rational {
        evaluate_pool(&self.nodes, w).swap_remove(self.root.0 as usize)
    }

    /// The root gate.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The gates, children before parents.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of gates (including the two constants).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of Shannon-split gates: the branchings of the descent that
    /// compiled the circuit, each cofactor counted once.
    pub fn decision_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Decision { .. }))
            .count()
    }
}

/// Bottom-up evaluation of a child-before-parent node pool: one value
/// per gate.
fn evaluate_pool<W: WeightFn>(nodes: &[Node], w: &W) -> Vec<Rational> {
    let mut values = Vec::with_capacity(nodes.len());
    for node in nodes {
        let val = match node {
            Node::True => Rational::one(),
            Node::False => Rational::zero(),
            Node::Leaf(v) => {
                let p = w.weight(*v);
                assert!(p.is_probability(), "weight out of [0,1] for {v:?}");
                p
            }
            Node::Product(kids) => {
                let mut acc = Rational::one();
                for k in kids {
                    acc = &acc * &values[k.0 as usize];
                    if acc.is_zero() {
                        break;
                    }
                }
                acc
            }
            Node::Decision { var, hi, lo } => {
                let p = w.weight(*var);
                assert!(p.is_probability(), "weight out of [0,1] for {var:?}");
                let hi = &values[hi.0 as usize];
                let lo = &values[lo.0 as usize];
                &(&p * hi) + &(&p.complement() * lo)
            }
        };
        values.push(val);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Clause;
    use crate::wmc::{wmc_brute_force, UniformWeight};

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    fn half() -> UniformWeight {
        UniformWeight(Rational::one_half())
    }

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    #[test]
    fn constants_compile_to_constants() {
        assert_eq!(
            Circuit::compile(&Cnf::top()).evaluate(&half()),
            Rational::one()
        );
        assert_eq!(
            Circuit::compile(&Cnf::bottom()).evaluate(&half()),
            Rational::zero()
        );
    }

    #[test]
    fn literal_is_a_leaf() {
        let c = Circuit::compile(&Cnf::literal(Var(3)));
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.evaluate(&UniformWeight(r(1, 3))), r(1, 3));
    }

    #[test]
    fn paper_intro_example() {
        // (R ∨ S)(S ∨ T) at all-½ is 5/8 (§1.6).
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let c = Circuit::compile(&f);
        assert_eq!(c.evaluate(&half()), r(5, 8));
    }

    #[test]
    fn matches_wmc_on_fixed_formulas() {
        let formulas = [
            Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4])]),
            Cnf::new([cl(&[1, 2, 3]), cl(&[2, 4]), cl(&[1, 4])]),
            Cnf::new([cl(&[1]), cl(&[2, 3]), cl(&[4, 5, 6])]),
            Cnf::new([cl(&[1, 2]), cl(&[3, 4]), cl(&[5, 6]), cl(&[1, 6])]),
        ];
        for f in &formulas {
            let c = Circuit::compile(f);
            for w in [r(1, 2), r(1, 3), r(3, 4), r(0, 1), r(1, 1)] {
                let w = UniformWeight(w);
                assert_eq!(c.evaluate(&w), wmc_brute_force(f, &w), "{f:?}");
            }
        }
    }

    #[test]
    fn deterministic_weights_are_exact() {
        // The circuit handles 0/1-weight variables arithmetically: the
        // Shannon gate degenerates to the forced branch.
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let c = Circuit::compile(&f);
        let mut w = std::collections::HashMap::new();
        w.insert(Var(1), Rational::one());
        w.insert(Var(2), Rational::zero());
        w.insert(Var(3), r(1, 3));
        assert_eq!(c.evaluate(&w), wmc_brute_force(&f, &w));
    }

    #[test]
    fn compile_once_evaluate_many() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4]), cl(&[1, 4])]);
        let c = Circuit::compile(&f);
        let weights: Vec<UniformWeight> = (0..=8).map(|k| UniformWeight(r(k, 8))).collect();
        for w in &weights {
            assert_eq!(c.evaluate(w), wmc_brute_force(&f, w));
        }
    }

    #[test]
    fn component_split_compiles_to_product() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[3, 4])]);
        let c = Circuit::compile(&f);
        assert!(matches!(
            c.nodes()[c.root().0 as usize],
            Node::Product(ref kids) if kids.len() == 2
        ));
    }

    #[test]
    fn pool_sharing_across_formulas() {
        // Two formulas sharing a cofactor compile into one pool without
        // duplicating the shared part.
        let mut comp = Compiler::new();
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let g = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[4])]);
        let rf = comp.compile(&f);
        let before = comp.node_count();
        let rg = comp.compile(&g);
        // g = f ∧ x4: only the leaf for x4 and the product gate are new.
        assert_eq!(comp.node_count(), before + 2);
        let vals = comp.evaluate_all(&half());
        assert_eq!(vals.value(rf), &r(5, 8));
        assert_eq!(vals.value(rg), &(&r(5, 8) * &r(1, 2)));
    }

    #[test]
    fn extract_is_self_contained() {
        let mut comp = Compiler::new();
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let g = Cnf::new([cl(&[4, 5])]);
        let rf = comp.compile(&f);
        let _rg = comp.compile(&g);
        let circuit = comp.extract(rf);
        // The extracted circuit drops g's gates…
        assert!(circuit.node_count() < comp.node_count());
        // …and still evaluates f correctly.
        assert_eq!(circuit.evaluate(&half()), r(5, 8));
    }

    #[test]
    fn decision_count_matches_structure() {
        let f = Cnf::new([cl(&[1, 2])]);
        let c = Circuit::compile(&f);
        assert_eq!(c.decision_count(), 1);
    }
}
