//! Differential suite for the cofactor kernel ([`gfomc_logic::BitCnf`]).
//!
//! The compiler descends on bitset rows; the reference below descends on
//! [`Cnf`] with [`Cnf::components`], [`Cnf::branching_var`] and
//! [`Cnf::restrict`], memoizing per canonical `Cnf`. The contract is gate
//! identity: the same node pool (gate order, children, variables) and the
//! same roots, for one-shot compiles and for a multi-call pool alike. The
//! kernel's single steps are checked against the same `Cnf` methods.

use gfomc_engine::workload::{
    random_block_tid, random_gfomc_block_tid, random_query, SafetyTarget,
};
use gfomc_logic::{BitCnf, Circuit, Clause, Cnf, Compiler, Node, NodeId, Var, VarIndex};
use gfomc_tid::lineage;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;

/// The `Cnf`-level Shannon descent the kernel must reproduce gate for gate.
struct Reference {
    memo: HashMap<Cnf, NodeId>,
    nodes: Vec<Node>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            memo: HashMap::new(),
            nodes: vec![Node::False, Node::True],
        }
    }

    fn compile(&mut self, f: &Cnf) -> NodeId {
        if f.is_true() {
            return NodeId(1);
        }
        if f.is_false() {
            return NodeId(0);
        }
        if let Some(&n) = self.memo.get(f) {
            return n;
        }
        let comps = f.components();
        let node = if comps.len() > 1 {
            Node::Product(comps.iter().map(|c| self.compile(c)).collect())
        } else {
            let v = f.branching_var().expect("non-constant CNF has variables");
            if f.len() == 1 && f.clauses()[0].len() == 1 {
                Node::Leaf(v)
            } else {
                let hi = self.compile(&f.restrict(v, true));
                let lo = self.compile(&f.restrict(v, false));
                Node::Decision { var: v, hi, lo }
            }
        };
        let n = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.memo.insert(f.clone(), n);
        n
    }
}

fn cl(vs: &[u32]) -> Clause {
    Clause::new(vs.iter().map(|&i| Var(i)))
}

/// One-shot compile ≡ reference, gate for gate.
fn assert_one_shot_identity(f: &Cnf) {
    let circuit = Circuit::compile(f);
    let mut reference = Reference::new();
    let root = reference.compile(f);
    assert_eq!(circuit.nodes(), &reference.nodes[..], "pool of {f:?}");
    assert_eq!(circuit.root(), root, "root of {f:?}");
}

/// A multi-call pool ≡ one reference fed the same formulas in order.
fn assert_pool_identity(formulas: &[Cnf]) {
    let mut compiler = Compiler::new();
    let mut reference = Reference::new();
    for f in formulas {
        assert_eq!(compiler.compile(f), reference.compile(f), "root of {f:?}");
    }
    assert_eq!(compiler.nodes(), &reference.nodes[..]);
}

/// Every kernel step on `f` ≡ the `Cnf` method, compared as packed rows
/// over `f`'s dense index (bit `i` is the `i`-th variable of `f`).
fn assert_steps_match(f: &Cnf) {
    let index = VarIndex::of(f);
    let packed = BitCnf::pack(f, &index);
    let pack = |g: &Cnf| BitCnf::pack(g, &index);
    assert_eq!(packed.clause_count(), f.len());
    assert_eq!(packed.var_count(), f.vars().len());
    assert_eq!(packed.is_true(), f.is_true());
    assert_eq!(packed.is_false(), f.is_false());
    assert_eq!(
        packed.branching_bit().map(|b| index.var(b)),
        f.branching_var()
    );
    for (bit, v) in f.vars().into_iter().enumerate() {
        assert_eq!(index.var(bit as u32), v);
        for value in [true, false] {
            assert_eq!(
                packed.restrict(bit as u32, value),
                pack(&f.restrict(v, value)),
                "{f:?}[{v:?} := {value}]"
            );
        }
    }
    let comps = f.components();
    let expected = (comps.len() > 1).then(|| comps.iter().map(pack).collect::<Vec<_>>());
    assert_eq!(packed.split_components(), expected, "components of {f:?}");
}

/// Random monotone CNF over sparse variables up to 200, so rows span one
/// to four words.
fn arb_wide_cnf() -> impl Strategy<Value = Cnf> {
    proptest::collection::vec(proptest::collection::btree_set(0u32..200, 1..5), 0..9).prop_map(
        |clauses| {
            Cnf::new(
                clauses
                    .into_iter()
                    .map(|c| Clause::new(c.into_iter().map(Var))),
            )
        },
    )
}

/// Random monotone CNF over 10 variables: dense enough for subsumption,
/// shared variables and several Shannon levels.
fn arb_dense_cnf() -> impl Strategy<Value = Cnf> {
    proptest::collection::vec(proptest::collection::btree_set(0u32..10, 1..4), 0..10).prop_map(
        |clauses| {
            Cnf::new(
                clauses
                    .into_iter()
                    .map(|c| Clause::new(c.into_iter().map(Var))),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_steps_match_cnf_on_dense_formulas(f in arb_dense_cnf()) {
        assert_steps_match(&f);
    }

    #[test]
    fn kernel_steps_match_cnf_on_wide_formulas(f in arb_wide_cnf()) {
        assert_steps_match(&f);
    }

    #[test]
    fn one_shot_pools_match_the_reference(f in arb_dense_cnf()) {
        assert_one_shot_identity(&f);
    }

    #[test]
    fn one_shot_pools_match_the_reference_on_wide_formulas(f in arb_wide_cnf()) {
        assert_one_shot_identity(&f);
    }

    #[test]
    fn pools_match_the_reference_as_the_index_grows(
        fs in proptest::collection::vec(arb_wide_cnf(), 1..5),
    ) {
        assert_pool_identity(&fs);
    }
}

/// Unsafe-query lineages from `engine::workload`: 2×2 to 4×4 domains, 1–3
/// symbols, 2–3 clauses, alternating `k/8` TIDs and GFOMC `{0, ½, 1}`
/// TIDs.
#[test]
fn workload_lineages_compile_to_the_reference_pool() {
    let mut rng = StdRng::seed_from_u64(0xB175);
    for i in 0..162u32 {
        let (nu, nv, symbols) = (2 + i % 3, 2 + i / 3 % 3, 1 + i / 9 % 3);
        let clauses = 2 + i as usize / 27 % 2;
        let q = random_query(&mut rng, symbols, clauses, SafetyTarget::Unsafe);
        let tid = if i % 2 == 0 {
            random_block_tid(&mut rng, &q, nu, nv)
        } else {
            random_gfomc_block_tid(&mut rng, &q, nu, nv)
        };
        let f = lineage(&q, &tid).cnf;
        assert_steps_match(&f);
        assert_one_shot_identity(&f);
    }
}

/// Formulas over more than 128 variables, so rows span three words: a
/// chain over sparse ids, a chain whose links jump between words, and a
/// comb whose teeth reach into the second and third words and back.
#[test]
fn multi_word_formulas_compile_to_the_reference_pool() {
    let chain = Cnf::new((0..150).map(|i| cl(&[3 * i, 3 * (i + 1)])));
    let jumps = Cnf::new((0..150).map(|i| cl(&[i * 67 % 151, (i + 1) * 67 % 151])));
    let comb = Cnf::new((0..50).flat_map(|i| {
        [
            cl(&[i, i + 1]),
            cl(&[i, 51 + i]),
            cl(&[51 + i, 101 + i]),
            cl(&[i + 1, 101 + i]),
        ]
    }));
    for f in [&chain, &jumps, &comb] {
        assert!(f.vars().len() > 128);
        assert_steps_match(f);
        assert_one_shot_identity(f);
    }
}

/// A Type-II-style cell family: every conjunction of a subset of four
/// disjunct CNFs over symbol variables, compiled into one pool in mask
/// order — later cells bring variables the first ones lack, so the index
/// grows (across a word boundary) and the memo is re-keyed mid-pool.
#[test]
fn cell_family_pool_matches_the_reference() {
    let disjuncts = [
        Cnf::new([cl(&[0, 1]), cl(&[1, 2])]),
        Cnf::new([cl(&[2, 3]), cl(&[0, 4])]),
        Cnf::new([cl(&[1, 5]), cl(&[5, 70])]),
        Cnf::new([cl(&[3, 70]), cl(&[6, 140]), cl(&[0, 6])]),
    ];
    let cells: Vec<Cnf> = (1u32..16)
        .map(|mask| {
            Cnf::and_all(
                (0..4)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| disjuncts[i].clone()),
            )
        })
        .collect();
    assert_pool_identity(&cells);
    // The same family in reverse order starts from the widest cell.
    let reversed: Vec<Cnf> = cells.iter().rev().cloned().collect();
    assert_pool_identity(&reversed);
}
