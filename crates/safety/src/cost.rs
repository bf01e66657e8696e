//! Circuit-size estimation for the dichotomy-aware query router.
//!
//! The dichotomy gives a *static* verdict (safe ⇒ lifted PTIME plan,
//! unsafe ⇒ #P-hard in general), but on the unsafe side every concrete
//! instance still admits exact evaluation by knowledge compilation — the
//! only question is whether the circuit stays affordable. This module
//! supplies the router's second input: a deterministic, work-bounded
//! upper-bound estimate of the Shannon-compilation cost of a lineage, so
//! callers can decide *before* compiling whether to take the exact circuit
//! path or fall back to the `gfomc-approx` sampler. The estimate is a pure
//! function of the canonical CNF, so the engine computes it once per
//! cached lineage and stores it next to the circuit.
//!
//! Two bounds are reported. [`CircuitCostEstimate::worst_case_nodes`] is
//! the monolithic classic: `Σ_components clauses_c · 2^vars_c` — one
//! cofactor per variable subset, with component decomposition the only
//! structural saving credited. That bound is so loose on block-structured
//! lineages that it used to misroute compilable instances to the sampler,
//! degrading exact answers to (ε, δ)-approximate ones for no reason.
//!
//! [`CircuitCostEstimate::estimated_nodes`] tightens it by *simulating the
//! decomposition the compiler will actually perform*, without building any
//! circuit: recursively split into variable-disjoint components (costs
//! **add**), Shannon-branch single components on exactly the variable the
//! compiler itself will branch on ([`BitCnf::branching_bit`], the one
//! branching function of the cofactor kernel both descents run on — the
//! cheapest split the compiler realizes, which is what makes the min over
//! its two cofactors a *sound* upper bound of the real expansion), and
//! only at a fixed work budget or at small subformulas fall back to the
//! `clauses · 2^vars` leaf bound. Restriction exposes the component
//! structure that the monolithic bound cannot see — on the paper's block
//! databases a handful of splits decouples the `S_s(u, v)` cells and the
//! bound collapses from `2^(#tuples)` to a low-degree polynomial. The
//! estimate stays a bound on the *memoization-free* expansion tree along
//! the compiler's actual branch choices, so it over-approximates every
//! circuit the (memoizing) compiler can produce. (Minimizing over
//! *alternative* branch variables was considered and rejected: the
//! compiler does not take the min, so such an estimate could undershoot
//! the real cost and route an exponential compilation to the exact path —
//! the one failure this module exists to prevent.)
//!
//! **Cost.** The descent runs on the bitset rows of
//! [`gfomc_logic::cofactor`], the same kernel the compiler descends on,
//! so components, restrictions and the branching variable are word
//! operations rather than clause-vector rebuilds. It reports the same
//! five fields as the descent over [`Cnf`]'s own methods, which
//! `tests/estimate_suite.rs` checks field for field.
//!
//! **Units.** Both bounds are denominated in *flat gates* — entries of the
//! struct-of-arrays [`gfomc_logic::FlatCircuit`] the engine actually
//! caches, one per compiled Shannon node (constants, leaves, products,
//! decisions alike), exactly [`gfomc_logic::FlatCircuit::gate_count`].
//! The engine's cost-aware cache admission prices entries in the same
//! unit, so a budget passed to [`CircuitCostEstimate::within`] and a
//! cache capacity measured in gates are directly comparable.

use gfomc_logic::{BitCnf, Cnf, VarIndex};

/// Exponent clamp: beyond 2^40 estimated gates every budget is blown, so
/// the arithmetic saturates instead of overflowing.
const EXPONENT_CLAMP: usize = 40;

/// Total decision expansions the refined descent may spend before falling
/// back to leaf bounds — caps the estimate's work whatever the lineage.
/// The cap bounds the descent, not its price next to a compilation: on
/// the load benchmark's unsafe `eval_mixed` lineages one estimate costs
/// about 35–40% of compiling the lineage outright (~35 µs against
/// ~90 µs on a 2-vCPU host, both on the bitset cofactor kernel), which is
/// why the engine stores each estimate with its cached circuit instead of
/// recomputing it per request.
const WORK_BUDGET: u32 = 600;

/// Single components at most this many variables take the closed-form leaf
/// bound instead of recursing further.
const LEAF_VARS: usize = 6;

/// Shannon-cost summary of a lineage CNF, produced by
/// [`circuit_cost_estimate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CircuitCostEstimate {
    /// Number of distinct variables (uncertain tuples) in the lineage.
    pub vars: usize,
    /// Number of clauses after canonicalization.
    pub clauses: usize,
    /// Number of variable-disjoint connected components.
    pub components: usize,
    /// The refined bound, in flat-gate units (see the module docs): an
    /// upper bound on [`gfomc_logic::FlatCircuit::gate_count`] of the
    /// compiled lineage, simulated per-component recursively along the
    /// compiler's own branch variable
    /// ([`gfomc_logic::BitCnf::branching_bit`] — never a min over other
    /// candidates, which would be unsound; see the module docs),
    /// saturating at 2^40 per term.
    pub estimated_nodes: u64,
    /// The monolithic worst-case bound
    /// `Σ_components clauses_c · 2^min(vars_c, 40)` — kept for reporting
    /// and for measuring how much the refinement buys.
    pub worst_case_nodes: u64,
}

impl CircuitCostEstimate {
    /// True iff the refined estimate fits within `budget` gates.
    pub fn within(&self, budget: u64) -> bool {
        self.estimated_nodes <= budget
    }

    /// The refined bound in the unit the engine's cache admission charges:
    /// flat gates ([`gfomc_logic::FlatCircuit::gate_count`]). An alias of
    /// [`CircuitCostEstimate::estimated_nodes`] that names the unit at the
    /// call site.
    pub fn flat_gate_units(&self) -> u64 {
        self.estimated_nodes
    }
}

impl core::fmt::Display for CircuitCostEstimate {
    /// The stable wire form of a cost estimate, round-tripping through
    /// [`FromStr`](core::str::FromStr):
    /// `vars 9 clauses 12 components 1 estimated 420 worst 49152`.
    /// Every field is a decimal integer, so the round-trip is exact.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "vars {} clauses {} components {} estimated {} worst {}",
            self.vars, self.clauses, self.components, self.estimated_nodes, self.worst_case_nodes
        )
    }
}

/// Failure to parse a [`CircuitCostEstimate`] from its wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseCostError(pub String);

impl core::fmt::Display for ParseCostError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "malformed cost estimate: {}", self.0)
    }
}

impl std::error::Error for ParseCostError {}

impl core::str::FromStr for CircuitCostEstimate {
    type Err = ParseCostError;

    /// Parses the exact [`Display`](core::fmt::Display) form back; field
    /// order is fixed and all five fields are required.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut words = s.split_whitespace();
        let mut field = |name: &str| -> Result<u64, ParseCostError> {
            match (words.next(), words.next()) {
                (Some(key), Some(value)) if key == name => value
                    .parse::<u64>()
                    .map_err(|_| ParseCostError(format!("bad value for '{name}': {value}"))),
                _ => Err(ParseCostError(format!("expected field '{name}'"))),
            }
        };
        let vars = field("vars")? as usize;
        let clauses = field("clauses")? as usize;
        let components = field("components")? as usize;
        let estimated_nodes = field("estimated")?;
        let worst_case_nodes = field("worst")?;
        if words.next().is_some() {
            return Err(ParseCostError("trailing input".into()));
        }
        Ok(CircuitCostEstimate {
            vars,
            clauses,
            components,
            estimated_nodes,
            worst_case_nodes,
        })
    }
}

/// Estimates the worst-case Shannon-compilation cost of a monotone CNF.
///
/// Constants cost nothing: `⊤` has no components and estimate 0, `⊥` is a
/// single empty component with estimate 1. Everything else gets both the
/// monolithic per-component bound and the refined recursive bound (see the
/// module docs); [`CircuitCostEstimate::within`] — the router's question —
/// is answered by the refined one.
///
/// Deterministic and bounded by construction: the descent performs a fixed
/// maximum number of decision expansions regardless of the lineage, then
/// degrades to the closed-form leaf bound. Each level of the descent splits
/// its formula into components once and reads every component's variables
/// once; both bounds and the variable count come out of that one split.
pub fn circuit_cost_estimate(f: &Cnf) -> CircuitCostEstimate {
    let packed = BitCnf::pack(f, &VarIndex::of(f));
    let mut work = WORK_BUDGET;
    let bounds = split_bounds(&packed, &mut work);
    CircuitCostEstimate {
        vars: bounds.vars,
        clauses: packed.clause_count(),
        components: bounds.components,
        estimated_nodes: bounds.refined.min(bounds.leaf),
        worst_case_nodes: bounds.leaf,
    }
}

/// `2^min(e, 40)`, saturating.
fn pow2_clamped(e: usize) -> u64 {
    1u64 << e.min(EXPONENT_CLAMP)
}

/// Both bounds of one formula, computed from its components.
struct Bounds {
    /// The refined recursive bound.
    refined: u64,
    /// The closed-form bound `Σ_components clauses_c · 2^min(vars_c, 40)`:
    /// each of the up to `2^vars` cofactors of a component touches every
    /// clause at most once; components are independent, so their bounds
    /// add.
    leaf: u64,
    /// Variables of the formula (components are variable-disjoint, so
    /// their counts add).
    vars: usize,
    /// Number of connected components.
    components: usize,
}

/// [`Bounds`] of `f`, from its connected components. A single component
/// is priced on its own; several cost one product gate plus the sum of
/// their parts. `⊤` (no components) has closed form 0 and refined bound 1;
/// `⊥` (one empty component) has both bounds 1.
fn split_bounds(f: &BitCnf, work: &mut u32) -> Bounds {
    let parts = f.split_components();
    let comps: &[BitCnf] = match &parts {
        Some(parts) => parts,
        None if f.is_true() => &[],
        None => std::slice::from_ref(f),
    };
    let mut bounds = Bounds {
        // The product gate joining several components (`⊤`'s lone gate
        // when there are none); a single component needs no join.
        refined: u64::from(comps.len() != 1),
        leaf: 0,
        vars: 0,
        components: comps.len(),
    };
    for c in comps {
        let vars = c.var_count();
        let leaf = (c.clause_count().max(1) as u64).saturating_mul(pow2_clamped(vars));
        let refined = refined_component(c, vars, leaf, work);
        bounds.refined = bounds.refined.saturating_add(refined);
        bounds.leaf = bounds.leaf.saturating_add(leaf);
        bounds.vars += vars;
    }
    bounds
}

/// The refined bound of one connected component with `vars` variables and
/// closed-form bound `leaf`, following exactly the branch variable the
/// compiler will use ([`BitCnf::branching_bit`]) so the result is a sound
/// upper bound of the compiler's memoization-free expansion. `work` is the
/// shared expansion budget; when it runs dry, subtrees fall back to their
/// closed form.
fn refined_component(f: &BitCnf, vars: usize, leaf: u64, work: &mut u32) -> u64 {
    if vars <= LEAF_VARS || *work == 0 {
        return leaf;
    }
    *work -= 1;
    let bit = f.branching_bit().expect("non-constant CNF has variables");
    let hi = split_bounds(&f.restrict(bit, true), work).refined;
    let lo = split_bounds(&f.restrict(bit, false), work).refined;
    // The refinement may never exceed what the closed form promises.
    hi.saturating_add(lo).saturating_add(1).min(leaf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_logic::{Clause, Var};

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    #[test]
    fn constants_are_free() {
        let top = circuit_cost_estimate(&Cnf::top());
        assert_eq!(top.estimated_nodes, 0);
        assert_eq!(top.worst_case_nodes, 0);
        assert_eq!(top.components, 0);
        let bot = circuit_cost_estimate(&Cnf::bottom());
        assert_eq!(bot.components, 1);
        assert_eq!(bot.estimated_nodes, 1);
    }

    #[test]
    fn components_add_instead_of_multiplying() {
        // Two disjoint 2-var clauses: 1·2² + 1·2² = 8, not 1·2⁴ = 16.
        let f = Cnf::new([cl(&[1, 2]), cl(&[3, 4])]);
        let est = circuit_cost_estimate(&f);
        assert_eq!(est.components, 2);
        assert_eq!(est.worst_case_nodes, 8);
        assert!(est.estimated_nodes <= 8);
        let connected = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4])]);
        assert_eq!(circuit_cost_estimate(&connected).worst_case_nodes, 3 << 4);
    }

    #[test]
    fn refined_bound_tightens_connected_formulas() {
        // A 14-var chain is connected, so the monolithic bound pays 2^14 —
        // but one Shannon split decouples it into two short chains, which
        // the refined descent discovers.
        let f = Cnf::new((0..13).map(|i| cl(&[i, i + 1])));
        let est = circuit_cost_estimate(&f);
        assert_eq!(est.components, 1);
        assert!(
            est.estimated_nodes < est.worst_case_nodes / 4,
            "refined {} vs worst case {}",
            est.estimated_nodes,
            est.worst_case_nodes
        );
    }

    #[test]
    fn refined_bound_never_exceeds_worst_case() {
        for n in [2u32, 5, 9, 14, 20] {
            let chain = Cnf::new((0..n).map(|i| cl(&[i, i + 1])));
            let est = circuit_cost_estimate(&chain);
            assert!(est.estimated_nodes <= est.worst_case_nodes, "chain {n}");
            let clique = Cnf::new((0..n).flat_map(|i| (i + 1..n).map(move |j| cl(&[i, j]))));
            let est = circuit_cost_estimate(&clique);
            assert!(est.estimated_nodes <= est.worst_case_nodes, "clique {n}");
        }
    }

    #[test]
    fn estimate_is_monotone_in_growth() {
        let small = Cnf::new((0..4).map(|i| cl(&[i, i + 1])));
        let big = Cnf::new((0..12).map(|i| cl(&[i, i + 1])));
        assert!(
            circuit_cost_estimate(&small).estimated_nodes
                < circuit_cost_estimate(&big).estimated_nodes
        );
    }

    #[test]
    fn exponent_clamp_saturates_gracefully() {
        // A 60-variable clique of clauses must not overflow.
        let f = Cnf::new((0..60).map(|i| cl(&[i, (i + 1) % 60])));
        let est = circuit_cost_estimate(&f);
        assert_eq!(est.vars, 60);
        assert_eq!(est.worst_case_nodes, 60u64 << 40);
        assert!(est.estimated_nodes > 0);
        assert!(est.estimated_nodes <= est.worst_case_nodes);
    }

    #[test]
    fn within_compares_against_the_refined_bound() {
        let f = Cnf::new([cl(&[1, 2])]);
        let est = circuit_cost_estimate(&f);
        assert_eq!(est.estimated_nodes, 4);
        assert!(est.within(4));
        assert!(!est.within(3));
    }

    #[test]
    fn estimate_bounds_the_flat_gate_count() {
        // The estimate is denominated in flat gates: for every non-constant
        // formula it must dominate the gate count of the circuit the
        // compiler actually builds — the quantity the engine cache charges.
        // (Constants are excluded: the flat pool pre-seeds the two constant
        // gates even when the estimate rounds them to 0 or 1.)
        use gfomc_logic::Circuit;
        let catalog = [
            Cnf::new([cl(&[1, 2])]),
            Cnf::new([cl(&[1, 2]), cl(&[3, 4])]),
            Cnf::new((0..9).map(|i| cl(&[i, i + 1]))),
            Cnf::new((0..5).flat_map(|i| (i + 1..5).map(move |j| cl(&[i, j])))),
            Cnf::new([cl(&[1]), cl(&[2, 3]), cl(&[3, 4, 5])]),
        ];
        for f in &catalog {
            let est = circuit_cost_estimate(f);
            let gates = Circuit::compile(f).flatten().gate_count() as u64;
            assert!(
                gates <= est.estimated_nodes,
                "{f:?}: {gates} flat gates vs estimate {}",
                est.estimated_nodes
            );
            assert_eq!(est.flat_gate_units(), est.estimated_nodes);
        }
    }
}
