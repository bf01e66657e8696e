//! Runs the complete experiment suite E1–E17 and prints it as a
//! paper-vs-measured table, one row per experiment naming its paper anchor
//! (README "Theorem ↔ module correspondence" maps each anchor to its
//! module). Every line is an exact check (rational arithmetic), so "PASS"
//! means machine-verified equality, not approximate agreement.
//!
//! Run with `cargo run --release --bin experiments`.

use gfomc::core::ccp::{ccp_counts, pp2cnf_from_ccp, CcpInstance};
use gfomc::core::reduction_type2::{qab_map_is_invertible, theorem_c19_holds, type_ii_lattices};
use gfomc::core::small_matrix::{
    block_small_matrix, corollary_3_18_constant, theorem_3_16_at_half,
};
use gfomc::core::transfer::{lemma_3_19_holds, proposition_3_20_holds};
use gfomc::core::zigzag::{pseudo_random_delta, zg_database, zg_query};
use gfomc::logic::{Clause as PClause, Cnf};
use gfomc::prelude::*;
use std::time::Instant;

struct Report {
    rows: Vec<(String, String, bool, f64)>,
}

impl Report {
    fn check(&mut self, id: &str, claim: &str, f: impl FnOnce() -> bool) {
        let t0 = Instant::now();
        let ok = f();
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "{:<4} {:<58} {:>6} {:>9.3}s",
            id,
            claim,
            if ok { "PASS" } else { "FAIL" },
            dt
        );
        self.rows.push((id.to_string(), claim.to_string(), ok, dt));
    }
}

fn final_type_i() -> Vec<(&'static str, BipartiteQuery)> {
    vec![
        ("h1", catalog::h1()),
        ("h2", catalog::hk(2)),
        ("h3", catalog::hk(3)),
    ]
}

fn main() {
    println!(
        "{:<4} {:<58} {:>6} {:>10}",
        "exp", "claim (paper anchor)", "ok", "time"
    );
    println!("{}", "-".repeat(82));
    let mut r = Report { rows: Vec::new() };

    // E1: the headline reduction.
    r.check(
        "E1",
        "Thm 3.1: #P2CNF recovered via FOMC(Q) oracle (4 graphs)",
        || {
            let graphs = [
                P2Cnf::new(2, vec![(0, 1)]),
                P2Cnf::new(3, vec![(0, 1), (1, 2)]),
                P2Cnf::new(3, vec![(0, 1), (1, 2), (0, 2)]),
                P2Cnf::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
            ];
            graphs.iter().all(|phi| {
                let out = reduce_p2cnf(&catalog::h1(), phi, OracleMode::Factorized);
                out.model_count == phi.count_models()
                    && out.signature_counts == signature_counts(phi)
            })
        },
    );

    // E2: Lemma 3.19.
    r.check(
        "E2",
        "Lem 3.19: A(p) = A(1)^p / 2^(p-1), p=1..4, 3 queries",
        || {
            final_type_i()
                .iter()
                .all(|(_, q)| (1..=4).all(|p| lemma_3_19_holds(q, p)))
        },
    );

    // E3: Theorem 3.16 / Corollary 3.18.
    r.check(
        "E3",
        "Thm 3.16: det A(1) != 0 at all-1/2; Cor 3.18 shape",
        || {
            final_type_i().iter().all(|(_, q)| theorem_3_16_at_half(q))
                && corollary_3_18_constant(&catalog::h1()).is_some()
        },
    );

    // E4: Proposition 3.20.
    r.check("E4", "Prop 3.20: 0 < z00 < z01 = z10 < z11 <= 1", || {
        final_type_i()
            .iter()
            .all(|(_, q)| proposition_3_20_holds(&transfer_matrix(q, 1)))
    });

    // E5: Theorem 3.14 conditions over Q(sqrt d).
    r.check(
        "E5",
        "Thm 3.14: conditions (22)-(24) exactly in Q(sqrt d)",
        || {
            final_type_i().iter().all(|(_, q)| {
                EigenData::decompose(&transfer_matrix(q, 1)).theorem_3_14_conditions()
            })
        },
    );

    // E6: big system non-singularity.
    r.check(
        "E6",
        "Thm 3.6: big system invertible, m=1..3, 2 queries",
        || {
            [catalog::h1(), catalog::hk(2)].iter().all(|q| {
                (1..=3).all(|m| {
                    let z: Vec<Matrix<Rational>> =
                        (1..=m + 1).map(|p| transfer_matrix(q, p)).collect();
                    big_system(&z, m).matrix.is_invertible()
                })
            })
        },
    );

    // E7: the dichotomy classifier + both evaluators agree.
    r.check(
        "E7",
        "Thm 2.2: classifier + lifted/exact agreement (catalog)",
        || {
            let mut ok = true;
            for (_, q) in catalog::unsafe_catalog() {
                ok &= is_unsafe(&q);
            }
            for (_, q) in catalog::safe_catalog() {
                ok &= is_safe(&q);
                let db = uniform_db(&q, 3, 3);
                ok &= lifted_probability(&q, &db).unwrap() == probability(&q, &db);
            }
            ok
        },
    );

    // E8: Lemma 1.1.
    r.check(
        "E8",
        "Lem 1.1: {0,1/2,1} non-root found for block dets",
        || {
            final_type_i().iter().all(|(_, q)| {
                let det = block_small_matrix(q).determinant();
                let (theta, v) = gfomc_nonroot(&det);
                !v.is_zero() && det.eval(&theta) == v
            })
        },
    );

    // E9: Lemma 1.2 both directions.
    r.check(
        "E9",
        "Lem 1.2: det(y) = 0 iff lineage disconnects R,T",
        || {
            use gfomc::core::small_matrix::lemma_1_2_agrees;
            let connected = Cnf::new([
                PClause::new([Var(0), Var(1)]),
                PClause::new([Var(1), Var(2)]),
            ]);
            let disconnected = Cnf::new([
                PClause::new([Var(0), Var(1)]),
                PClause::new([Var(2), Var(3)]),
            ]);
            lemma_1_2_agrees(&connected, Var(0), Var(2))
                && lemma_1_2_agrees(&disconnected, Var(0), Var(2))
                && final_type_i()
                    .iter()
                    .all(|(_, q)| !block_small_matrix(q).is_singular())
        },
    );

    // E10: zg rewriting.
    r.check(
        "E10",
        "Lem 2.6/A.1: Pr_D(zg(Q)) = Pr_zg(D)(Q), 3 query types",
        || {
            let cases = [
                (catalog::h1(), 2, 2),
                (catalog::example_a3(), 1, 1),
                (catalog::example_c15(), 1, 2),
            ];
            cases.iter().all(|(q, nu, nv)| {
                let zq = zg_query(q);
                let delta = pseudo_random_delta(&zq, *nu, *nv, 42);
                probability(&zq.query, &delta) == probability(q, &zg_database(&zq, &delta))
            })
        },
    );

    // E11: Möbius lattice examples.
    r.check(
        "E11",
        "Def C.6/Ex C.7: Moebius values match worked examples",
        || {
            let conj =
                |vars: &[u32]| -> Cnf { Cnf::new(vars.iter().map(|&v| PClause::new([Var(v)]))) };
            let lat1 = MobiusLattice::build(&[conj(&[1, 2]), conj(&[1, 3]), conj(&[2, 3])]);
            let lat2 = MobiusLattice::build(&[conj(&[1, 2]), conj(&[2, 3]), conj(&[3, 4])]);
            lat1.elements.len() == 5
                && lat1.elements.last().unwrap().mobius == Integer::from(2i64)
                && lat2.elements.len() == 7
                && lat2.support().len() == 6
        },
    );

    // E12: Type-II Möbius formula + CCP.
    r.check(
        "E12",
        "Thm C.19 + C.3: Moebius block formula; #PP2CNF via CCP",
        || {
            let half = |_s: u32, _u: u32, _v: u32| Rational::one_half();
            let c19 = theorem_c19_holds(&catalog::example_c15(), 2, 2, &half)
                && theorem_c19_holds(&catalog::example_c9(), 2, 2, &half);
            let phi = Pp2Cnf::new(2, 2, vec![(0, 0), (0, 1), (1, 1)]);
            let counts = ccp_counts(&CcpInstance::from_pp2cnf(&phi), 2, 2);
            let lats = type_ii_lattices(&catalog::example_c15());
            c19 && pp2cnf_from_ccp(&counts) == phi.count_models()
                && lats.left.strict_support().len() == 3
                && qab_map_is_invertible(&catalog::example_c15())
        },
    );

    // E13: FOMC audit of all reduction databases.
    r.check(
        "E13",
        "Thm 2.9(1): every reduction DB uses only {1/2, 1}",
        || {
            let phi = P2Cnf::new(3, vec![(0, 1), (1, 2)]);
            let mut ok = true;
            for p1 in 1..=3 {
                for p2 in p1..=3 {
                    ok &= block_database(&catalog::h1(), &phi, &[p1, p2]).is_fomc_instance();
                }
            }
            ok
        },
    );

    // E14: lifted vs exact on random safe instances.
    r.check(
        "E14",
        "safe side: lifted PTIME plan == exact WMC (3x3)",
        || {
            catalog::safe_catalog().iter().all(|(_, q)| {
                let db = uniform_db(q, 3, 3);
                lifted_probability(q, &db).unwrap() == probability(q, &db)
            })
        },
    );

    // E15: Theorem 3.4 factorization.
    r.check(
        "E15",
        "Thm 3.4: block factorization == monolithic WMC",
        || {
            let phi = P2Cnf::new(3, vec![(0, 1), (1, 2)]);
            let q = catalog::h1();
            let tid = block_database(&q, &phi, &[1, 2]);
            let t = [transfer_matrix(&q, 1), transfer_matrix(&q, 2)];
            probability(&q, &tid) == probability_via_factorization(&phi, &t)
        },
    );

    // E16: Type-II block structure (Def. C.21, §C.8).
    r.check(
        "E16",
        "Def C.21/§C.8: block connectivity + shared recurrence",
        || {
            use gfomc::core::reduction_type2::type_ii_lattices;
            use gfomc::core::type2_block::{type2_block, y_alpha_beta, y_table};
            use gfomc::core::ConstAlloc;
            let q = catalog::example_c15();
            // Connectivity (Lemma C.23) over a p=1 block.
            let lats = type_ii_lattices(&q);
            let mut alloc = ConstAlloc::new(10, 10);
            let block = type2_block(&q, 0, 0, 1, 1, &mut alloc);
            let mut connected = true;
            for a in lats.left.strict_support() {
                for b in lats.right.strict_support() {
                    let (cnf, _) = y_alpha_beta(&q, &block, &a.formula, &b.formula);
                    connected &= cnf.is_connected();
                }
            }
            // Shared order-2 recurrence across all (α,β) (Eq. (79)).
            let tables: Vec<_> = (1..=4).map(|p| y_table(&q, p, 1)).collect();
            let s: Vec<Rational> = tables.iter().map(|t| t[0][0].clone()).collect();
            let det = &(&s[1] * &s[1]) - &(&s[2] * &s[0]);
            if det.is_zero() {
                return false;
            }
            let c1 = &(&(&s[2] * &s[1]) - &(&s[3] * &s[0])) / &det;
            let c2 = &(&(&s[3] * &s[1]) - &(&s[2] * &s[2])) / &det;
            let mut recurrence = true;
            for ai in 0..tables[0].len() {
                for bi in 0..tables[0][0].len() {
                    let seq: Vec<Rational> = tables.iter().map(|t| t[ai][bi].clone()).collect();
                    for p in 0..2 {
                        recurrence &= &(&c1 * &seq[p + 1]) + &(&c2 * &seq[p]) == seq[p + 2];
                    }
                }
            }
            connected && recurrence
        },
    );

    // E17: shattering (Example C.14).
    r.check(
        "E17",
        "Lem C.16/Ex C.14: shattering preserves Pr exactly",
        || {
            use gfomc::core::shattering::{
                random_delta_prime, shatter_database, shattered_query, source_query,
            };
            (0..4u64).all(|seed| {
                let dp = random_delta_prime(2, 2, seed);
                let d = shatter_database(&dp);
                probability(&shattered_query(), &dp) == probability(&source_query(), &d)
            })
        },
    );

    println!("{}", "-".repeat(82));
    let passed = r.rows.iter().filter(|(_, _, ok, _)| *ok).count();
    println!("{passed}/{} experiments PASS", r.rows.len());
    assert_eq!(passed, r.rows.len(), "experiment failures");
}

fn uniform_db(q: &BipartiteQuery, nu: u32, nv: u32) -> Tid {
    let left: Vec<u32> = (0..nu).collect();
    let right: Vec<u32> = (1000..1000 + nv).collect();
    let mut tid = Tid::all_present(left.clone(), right.clone());
    for &u in &left {
        tid.set_prob(Tuple::R(u), Rational::one_half());
        for &v in &right {
            for s in q.binary_symbols() {
                tid.set_prob(Tuple::S(s, u, v), Rational::one_half());
            }
        }
    }
    for &v in &right {
        tid.set_prob(Tuple::T(v), Rational::one_half());
    }
    tid
}
