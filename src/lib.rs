//! # gfomc — Generalized Model Counting for Unions of Conjunctive Queries
//!
//! A from-scratch Rust implementation of the theory and constructions of
//! **Kenig & Suciu, "A Dichotomy for the Generalized Model Counting Problem
//! for Unions of Conjunctive Queries" (PODS 2021, arXiv:2008.00896)**:
//! exact probabilistic query evaluation over tuple-independent databases,
//! the safe/unsafe dichotomy with its PTIME lifted evaluator, and the full
//! #P-hardness machinery (gadget blocks, transfer matrices, the big linear
//! system, the `#P2CNF` Cook reduction, the zig-zag rewriting, and the
//! Type-II Möbius formula) as runnable, tested code.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`arith`] | `gfomc-arith` | Big integers, rationals, `Q(√d)` |
//! | [`linalg`] | `gfomc-linalg` | Exact matrices, Gaussian elimination |
//! | [`poly`] | `gfomc-poly` | Multivariate polynomials, arithmetization |
//! | [`logic`] | `gfomc-logic` | Monotone CNF, exact WMC, disconnection |
//! | [`query`] | `gfomc-query` | Bipartite ∀CNF queries, Möbius lattices |
//! | [`tid`] | `gfomc-tid` | Probabilistic databases, lineage, `Pr(Q)` |
//! | [`safety`] | `gfomc-safety` | Dichotomy classifier, lifted evaluation |
//! | [`approx`] | `gfomc-approx` | Karp–Luby sampling, (ε, δ) estimates |
//! | [`engine`] | `gfomc-engine` | Knowledge compilation, caching, routing |
//! | [`core`] | `gfomc-core` | Blocks, reductions, hardness machinery |
//!
//! ## Quickstart
//!
//! ```
//! use gfomc::prelude::*;
//!
//! // The intro's running query H1 = ∀x∀y (R(x) ∨ S(x,y)) ∧ (S(x,y) ∨ T(y)).
//! let q = catalog::h1();
//!
//! // The dichotomy: H1 is unsafe, so GFOMC(H1) is #P-hard (Theorem 2.2) …
//! let report = classify(&q);
//! assert!(!report.safe);
//! assert!(report.is_final);
//!
//! // … but any concrete instance still evaluates exactly.
//! let mut db = Tid::all_present([0], [100]);
//! db.set_prob(Tuple::R(0), Rational::one_half());
//! db.set_prob(Tuple::S(0, 0, 100), Rational::one_half());
//! db.set_prob(Tuple::T(100), Rational::one_half());
//! assert_eq!(probability(&q, &db), Rational::from_ints(5, 8));
//! ```

pub use gfomc_approx as approx;
pub use gfomc_arith as arith;
pub use gfomc_core as core;
pub use gfomc_engine as engine;
pub use gfomc_linalg as linalg;
pub use gfomc_logic as logic;
pub use gfomc_poly as poly;
pub use gfomc_query as query;
pub use gfomc_safety as safety;
pub use gfomc_tid as tid;

/// The commonly-used names, for `use gfomc::prelude::*`.
pub mod prelude {
    pub use gfomc_approx::{
        AdaptiveConfig, AdaptiveEstimate, CnfSampler, ConfidenceInterval, Estimate, KarpLuby,
    };
    pub use gfomc_arith::{Integer, Natural, QuadExt, Rational};
    pub use gfomc_core::zigzag::{zg_database, zg_query, ZigzagQuery};
    pub use gfomc_core::{
        big_system, block_database, gfomc_nonroot, parallel_block, path_block,
        probability_via_factorization, reduce_p2cnf, signature_counts, transfer_matrix, ConstAlloc,
        EigenData, OracleMode, P2Cnf, Pp2Cnf, ReductionOutcome,
    };
    pub use gfomc_engine::{
        AutoResult, Budget, CacheStats, Compiled, Engine, Route, RouteCounts, Routed, SampleMode,
        TupleWeights,
    };
    pub use gfomc_linalg::Matrix;
    pub use gfomc_logic::{wmc, Cnf, Var};
    pub use gfomc_poly::{arithmetize, PVar, Poly};
    pub use gfomc_query::{
        catalog, BipartiteQuery, Clause, MobiusLattice, PartType, Pred, QueryType,
    };
    pub use gfomc_safety::{
        classify, is_final, is_final_type_i, is_final_type_ii, is_forbidden_type_ii, is_safe,
        is_unsafe, left_ubiquitous_symbols, lifted_probability, query_length,
        right_ubiquitous_symbols, simplify_to_final, Classification,
    };
    pub use gfomc_tid::{
        generalized_model_count, lineage, probability, probability_brute_force, Tid, Tuple,
    };
}
