//! The Coloring Count Problem `CCP(m,n)` (Definition C.2) and the reduction
//! `#PP2CNF ≤ᴾ CCP(m,n)` (Theorem C.3).
//!
//! For a bipartite graph `(U, V, E)` a coloring is a pair of functions
//! `σ : U → [m]`, `τ : V → [n]`. Its *signature* counts, for every color
//! pair `(α, β)`, the edges with endpoint colors `(α, β)`, plus per-color
//! node counts (indexed by the reserved symbol `1̂` in the paper). `CCP`
//! asks for the number of colorings realizing each signature. The Type-II
//! hardness proof reduces `CCP(m̄, n̄)` to `GFOMC(Q)`; here we provide the
//! problem itself, brute-force counting, and the extraction of `#PP2CNF`
//! from a `CCP` oracle.

use crate::p2cnf::Pp2Cnf;
use gfomc_arith::Natural;
use std::collections::BTreeMap;

/// A bipartite graph instance for `CCP`.
#[derive(Clone, Debug)]
pub struct CcpInstance {
    /// Number of left nodes `|U|`.
    pub nu: usize,
    /// Number of right nodes `|V|`.
    pub nv: usize,
    /// Edges `E ⊆ U × V`.
    pub edges: Vec<(usize, usize)>,
}

impl CcpInstance {
    /// Builds an instance; validates ranges and deduplicates nothing
    /// (duplicate edges are rejected).
    pub fn new(nu: usize, nv: usize, edges: Vec<(usize, usize)>) -> Self {
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), edges.len(), "duplicate edge");
        for &(u, v) in &edges {
            assert!(u < nu && v < nv, "edge endpoint out of range");
        }
        CcpInstance { nu, nv, edges }
    }

    /// The instance underlying a PP2CNF formula.
    pub fn from_pp2cnf(phi: &Pp2Cnf) -> Self {
        CcpInstance::new(phi.nu(), phi.nv(), phi.edges().to_vec())
    }
}

/// The signature of a coloring (Definition C.2): `edge[α][β]` edge counts,
/// `left[α]` / `right[β]` node counts (the paper's `k_{α,1̂}` / `k_{1̂,β}`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CcpSignature {
    /// `k_{αβ}`: edges with colors `(α, β)`, as an `m × n` table.
    pub edge: Vec<Vec<usize>>,
    /// `k_{α,1̂}`: left nodes colored `α`.
    pub left: Vec<usize>,
    /// `k_{1̂,β}`: right nodes colored `β`.
    pub right: Vec<usize>,
}

/// Computes the signature of one coloring.
pub fn ccp_signature(
    inst: &CcpInstance,
    m: usize,
    n: usize,
    sigma: &[usize],
    tau: &[usize],
) -> CcpSignature {
    assert_eq!(sigma.len(), inst.nu);
    assert_eq!(tau.len(), inst.nv);
    let mut edge = vec![vec![0usize; n]; m];
    for &(u, v) in &inst.edges {
        edge[sigma[u]][tau[v]] += 1;
    }
    let mut left = vec![0usize; m];
    for &c in sigma {
        left[c] += 1;
    }
    let mut right = vec![0usize; n];
    for &c in tau {
        right[c] += 1;
    }
    CcpSignature { edge, left, right }
}

/// Solves `CCP(m,n)` by brute-force enumeration of all `m^|U| · n^|V|`
/// colorings. The "oracle" of Theorem C.3's reduction in our experiments.
pub fn ccp_counts(inst: &CcpInstance, m: usize, n: usize) -> BTreeMap<CcpSignature, Natural> {
    assert!(
        (inst.nu as f64) * (m as f64).log2() + (inst.nv as f64) * (n as f64).log2() <= 24.0,
        "coloring enumeration too large"
    );
    let mut counts: BTreeMap<CcpSignature, u64> = BTreeMap::new();
    let mut sigma = vec![0usize; inst.nu];
    loop {
        let mut tau = vec![0usize; inst.nv];
        loop {
            *counts
                .entry(ccp_signature(inst, m, n, &sigma, &tau))
                .or_insert(0) += 1;
            if !increment(&mut tau, n) {
                break;
            }
        }
        if !increment(&mut sigma, m) {
            break;
        }
    }
    counts
        .into_iter()
        .map(|(k, c)| (k, Natural::from(c)))
        .collect()
}

fn increment(digits: &mut [usize], radix: usize) -> bool {
    for d in digits.iter_mut() {
        *d += 1;
        if *d < radix {
            return true;
        }
        *d = 0;
    }
    false
}

/// Theorem C.3: computes `#Φ` for a PP2CNF from a `CCP(m,n)` count table
/// (`m, n ≥ 2`). Valid colorings use only colors `{0, 1}`; interpreting
/// color 0 as *false*, a clause fails iff its edge is colored `(0,0)`, so
/// `#Φ = Σ { #k : k valid, k_edge[0][0] = 0 }`.
pub fn pp2cnf_from_ccp(counts: &BTreeMap<CcpSignature, Natural>) -> Natural {
    let mut total = Natural::zero();
    for (sig, count) in counts {
        let m = sig.left.len();
        let n = sig.right.len();
        let valid_nodes =
            sig.left.iter().skip(2).all(|&c| c == 0) && sig.right.iter().skip(2).all(|&c| c == 0);
        let valid_edges = (0..m).all(|a| (0..n).all(|b| a < 2 && b < 2 || sig.edge[a][b] == 0));
        if valid_nodes && valid_edges && sig.edge[0][0] == 0 {
            total = &total + count;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_shapes() {
        let inst = CcpInstance::new(2, 2, vec![(0, 0), (1, 1)]);
        let sig = ccp_signature(&inst, 2, 3, &[0, 1], &[2, 0]);
        assert_eq!(sig.edge[0][2], 1); // edge (0,0): colors (0, 2)
        assert_eq!(sig.edge[1][0], 1); // edge (1,1): colors (1, 0)
        assert_eq!(sig.left, vec![1, 1]);
        assert_eq!(sig.right, vec![1, 0, 1]);
    }

    #[test]
    fn counts_total_all_colorings() {
        let inst = CcpInstance::new(2, 2, vec![(0, 0), (0, 1), (1, 0)]);
        let counts = ccp_counts(&inst, 2, 2);
        let total = counts.values().fold(Natural::zero(), |a, c| &a + c);
        assert_eq!(total, Natural::from(16u64)); // 2² · 2²
    }

    #[test]
    fn theorem_c3_single_edge() {
        let phi = Pp2Cnf::new(1, 1, vec![(0, 0)]);
        let inst = CcpInstance::from_pp2cnf(&phi);
        let counts = ccp_counts(&inst, 2, 2);
        assert_eq!(pp2cnf_from_ccp(&counts), phi.count_models());
    }

    #[test]
    fn theorem_c3_matches_brute_force() {
        let cases = [
            Pp2Cnf::new(2, 2, vec![(0, 0), (1, 1)]),
            Pp2Cnf::new(2, 2, vec![(0, 0), (0, 1), (1, 0), (1, 1)]),
            Pp2Cnf::new(3, 2, vec![(0, 0), (1, 0), (2, 1)]),
            Pp2Cnf::new(2, 3, vec![(0, 0), (0, 1), (1, 2)]),
        ];
        for phi in &cases {
            let inst = CcpInstance::from_pp2cnf(phi);
            let counts = ccp_counts(&inst, 2, 2);
            assert_eq!(pp2cnf_from_ccp(&counts), phi.count_models(), "{phi:?}");
        }
    }

    #[test]
    fn theorem_c3_with_more_colors() {
        // The reduction works from CCP(m,n) for any m,n ≥ 2 — extra colors
        // are filtered by validity.
        let phi = Pp2Cnf::new(2, 2, vec![(0, 0), (1, 1)]);
        let inst = CcpInstance::from_pp2cnf(&phi);
        for (m, n) in [(2, 3), (3, 2), (3, 3)] {
            let counts = ccp_counts(&inst, m, n);
            assert_eq!(pp2cnf_from_ccp(&counts), phi.count_models(), "CCP({m},{n})");
        }
        let path = Pp2Cnf::new(2, 2, vec![(0, 0), (0, 1), (1, 1)]);
        let counts = ccp_counts(&CcpInstance::from_pp2cnf(&path), 3, 3);
        assert_eq!(pp2cnf_from_ccp(&counts), path.count_models());
    }

    #[test]
    fn empty_graph_counts_everything() {
        let phi = Pp2Cnf::new(2, 1, vec![]);
        let inst = CcpInstance::from_pp2cnf(&phi);
        let counts = ccp_counts(&inst, 2, 2);
        assert_eq!(pp2cnf_from_ccp(&counts), Natural::from(8u64));
    }

    #[test]
    #[should_panic]
    fn duplicate_edge_rejected() {
        let _ = CcpInstance::new(1, 1, vec![(0, 0), (0, 0)]);
    }
}
