//! Differential suite for the cost estimate on the cofactor kernel.
//!
//! [`circuit_cost_estimate`] descends on [`gfomc_logic::BitCnf`] rows; the
//! reference below is the same descent over [`Cnf::components`],
//! [`Cnf::branching_var`] and [`Cnf::restrict`]. All five fields of the
//! estimate must agree, since the estimate is stored with each cached
//! circuit and echoed on the wire as the `cost` line.

use gfomc_engine::workload::{
    random_block_tid, random_gfomc_block_tid, random_query, SafetyTarget,
};
use gfomc_logic::{Clause, Cnf, Var};
use gfomc_safety::{circuit_cost_estimate, CircuitCostEstimate};
use gfomc_tid::lineage;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// The estimate's work budget and leaf size, as in `cost.rs`.
const WORK_BUDGET: u32 = 600;
const LEAF_VARS: usize = 6;

fn pow2_clamped(e: usize) -> u64 {
    1u64 << e.min(40)
}

/// `(refined, leaf, vars)` of the formula whose components are `comps`.
fn reference_split(comps: &[Cnf], work: &mut u32) -> (u64, u64, usize) {
    let mut refined = u64::from(comps.len() != 1);
    let (mut leaf_sum, mut vars_sum) = (0u64, 0usize);
    for c in comps {
        let vars = c.vars().len();
        let leaf = (c.len().max(1) as u64).saturating_mul(pow2_clamped(vars));
        let r = if vars <= LEAF_VARS || *work == 0 {
            leaf
        } else {
            *work -= 1;
            let v = c.branching_var().expect("non-constant CNF has variables");
            let hi = reference_split(&c.restrict(v, true).components(), work).0;
            let lo = reference_split(&c.restrict(v, false).components(), work).0;
            hi.saturating_add(lo).saturating_add(1).min(leaf)
        };
        refined = refined.saturating_add(r);
        leaf_sum = leaf_sum.saturating_add(leaf);
        vars_sum += vars;
    }
    (refined, leaf_sum, vars_sum)
}

/// The `Cnf`-level estimate the kernel must reproduce field for field.
fn reference_estimate(f: &Cnf) -> CircuitCostEstimate {
    let comps = f.components();
    let mut work = WORK_BUDGET;
    let (refined, leaf, vars) = reference_split(&comps, &mut work);
    CircuitCostEstimate {
        vars,
        clauses: f.len(),
        components: comps.len(),
        estimated_nodes: refined.min(leaf),
        worst_case_nodes: leaf,
    }
}

fn cl(vs: &[u32]) -> Clause {
    Clause::new(vs.iter().map(|&i| Var(i)))
}

fn assert_identity(f: &Cnf) {
    assert_eq!(circuit_cost_estimate(f), reference_estimate(f), "{f:?}");
}

fn arb_cnf(vars: u32, clauses: usize) -> impl Strategy<Value = Cnf> {
    proptest::collection::vec(
        proptest::collection::btree_set(0u32..vars, 1..5),
        0..clauses,
    )
    .prop_map(|clauses| {
        Cnf::new(
            clauses
                .into_iter()
                .map(|c| Clause::new(c.into_iter().map(Var))),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn estimate_matches_the_reference_on_dense_formulas(f in arb_cnf(14, 16)) {
        assert_identity(&f);
    }

    #[test]
    fn estimate_matches_the_reference_on_wide_formulas(f in arb_cnf(200, 40)) {
        assert_identity(&f);
    }
}

/// Unsafe-query lineages from `engine::workload`, alternating `k/8` TIDs
/// and GFOMC `{0, ½, 1}` TIDs over 2×2 to 4×4 domains, 1–3 symbols and
/// 2–3 clauses; then 5×5 to 7×7 domains, whose lineages run past 64 and
/// 128 variables and where the work budget runs dry.
#[test]
fn workload_lineages_estimate_like_the_reference() {
    let mut rng = StdRng::seed_from_u64(0xE571);
    for i in 0..162u32 {
        let (nu, nv, symbols) = (2 + i % 3, 2 + i / 3 % 3, 1 + i / 9 % 3);
        let clauses = 2 + i as usize / 27 % 2;
        let q = random_query(&mut rng, symbols, clauses, SafetyTarget::Unsafe);
        let tid = if i % 2 == 0 {
            random_block_tid(&mut rng, &q, nu, nv)
        } else {
            random_gfomc_block_tid(&mut rng, &q, nu, nv)
        };
        assert_identity(&lineage(&q, &tid).cnf);
    }
    let mut widest = 0;
    for scale in [5u32, 6, 7] {
        for symbols in 2..=3 {
            let q = random_query(&mut rng, symbols, 3, SafetyTarget::Unsafe);
            let f = lineage(&q, &random_block_tid(&mut rng, &q, scale, scale)).cnf;
            widest = widest.max(f.vars().len());
            assert_identity(&f);
        }
    }
    assert!(widest > 128, "widest lineage has {widest} variables");
}

/// Hand-built formulas over more than 64 and more than 128 variables.
#[test]
fn multi_word_formulas_estimate_like_the_reference() {
    let chain = |n: u32| Cnf::new((0..n).map(|i| cl(&[3 * i, 3 * (i + 1)])));
    let jumps = Cnf::new((0..150).map(|i| cl(&[i * 67 % 151, (i + 1) * 67 % 151])));
    let circulant =
        Cnf::new((0..70).flat_map(|i| [cl(&[i, (i + 1) % 70]), cl(&[i, (i + 35) % 70])]));
    for f in [chain(80), chain(150), jumps, circulant] {
        assert!(f.vars().len() > 64);
        assert_identity(&f);
    }
}
