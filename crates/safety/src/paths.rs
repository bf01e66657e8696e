//! Left-right paths and the safe/unsafe dichotomy for bipartite queries
//! (Definition 2.4).
//!
//! A bipartite query is **unsafe** iff some left clause is connected to some
//! right clause by a sequence of clauses in which consecutive clauses share
//! a relational symbol; the *length* of the query is the minimal number of
//! steps `k` over all such paths `C₀, C₁, …, C_k`.
//!
//! `H₀ = R(x) ∨ S(x,y) ∨ T(y)` is handled by treating a clause that mentions
//! both unary symbols as simultaneously left and right (a left-right path of
//! length 0), consistent with its #P-hardness (Theorem 2.5).
//!
//! The search is a breadth-first search over clauses. "Shares a symbol" is
//! one merge of two sorted atom slices, and a clause's role is read off its
//! atoms and variable counts, so the search builds no symbol sets or shapes.

use gfomc_query::{BipartiteQuery, Clause, Pred};
use std::cmp::Ordering;

/// Role of a clause in path analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClauseRole {
    /// Counts as a left endpoint (mentions `R` or is a Type-II left clause).
    pub leftish: bool,
    /// Counts as a right endpoint (mentions `T` or is a Type-II right clause).
    pub rightish: bool,
}

/// Determines whether a clause can serve as a left and/or right endpoint.
///
/// A clause without `R` is a left clause exactly when it is Type-II left:
/// no `T`, one `x`-variable and several `y`-variables (Definition 2.3);
/// symmetrically on the right.
pub fn clause_role(c: &Clause) -> ClauseRole {
    let (has_r, has_t) = (c.mentions(Pred::R), c.mentions(Pred::T));
    let (nx, ny) = c.var_counts();
    ClauseRole {
        leftish: has_r || (!has_t && nx == 1 && ny > 1),
        rightish: has_t || (!has_r && ny == 1 && nx > 1),
    }
}

/// True iff two clauses share a relational symbol. Atoms are stored
/// sorted and `Atom::pred` follows that order, so one merge of the two
/// atom slices decides it, for any number of symbols.
fn share_symbol(a: &Clause, b: &Clause) -> bool {
    let (a, b) = (a.atoms(), b.atoms());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].pred().cmp(&b[j].pred()) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => return true,
        }
    }
    false
}

/// Breadth-first search from all left-ish clauses at once: the first
/// right-ish clause dequeued, with each reached clause's predecessor
/// (`usize::MAX` for the unreached, itself for a start).
fn search(clauses: &[Clause]) -> (Option<usize>, Vec<usize>) {
    let roles: Vec<ClauseRole> = clauses.iter().map(clause_role).collect();
    let mut prev = vec![usize::MAX; clauses.len()];
    let mut queue = Vec::with_capacity(clauses.len());
    for (i, role) in roles.iter().enumerate() {
        if role.leftish {
            prev[i] = i;
            queue.push(i);
        }
    }
    let mut head = 0;
    while let Some(&i) = queue.get(head) {
        head += 1;
        if roles[i].rightish {
            return (Some(i), prev);
        }
        for (j, p) in prev.iter_mut().enumerate() {
            if *p == usize::MAX && share_symbol(&clauses[i], &clauses[j]) {
                *p = i;
                queue.push(j);
            }
        }
    }
    (None, prev)
}

/// Finds the minimal left-right path, returned as clause indices
/// `[C₀, …, C_k]`; `None` if the query is safe (no such path).
pub fn shortest_left_right_path(q: &BipartiteQuery) -> Option<Vec<usize>> {
    let (goal, prev) = search(q.clauses());
    let mut path = vec![goal?];
    while let Some(&last) = path.last() {
        if prev[last] == last {
            break;
        }
        path.push(prev[last]);
    }
    path.reverse();
    Some(path)
}

/// True iff the query is unsafe per Definition 2.4 (a left-right path
/// exists). The constants `true`/`false` are safe.
pub fn is_unsafe(q: &BipartiteQuery) -> bool {
    if q.is_true() || q.is_false() {
        return false;
    }
    search(q.clauses()).0.is_some()
}

/// True iff the query is safe (the complement of [`is_unsafe`]).
pub fn is_safe(q: &BipartiteQuery) -> bool {
    !is_unsafe(q)
}

/// The *length* of an unsafe query: the number of steps in the shortest
/// left-right path (Definition 2.4). `None` for safe queries.
pub fn query_length(q: &BipartiteQuery) -> Option<usize> {
    shortest_left_right_path(q).map(|p| p.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_query::catalog;

    #[test]
    fn h0_is_unsafe_length_zero() {
        let q = catalog::h0();
        assert!(is_unsafe(&q));
        assert_eq!(query_length(&q), Some(0));
    }

    #[test]
    fn h1_is_unsafe_length_one() {
        assert_eq!(query_length(&catalog::h1()), Some(1));
    }

    #[test]
    fn hk_length_matches_k() {
        for k in 1..=5 {
            assert_eq!(query_length(&catalog::hk(k)), Some(k), "h{k}");
        }
    }

    #[test]
    fn catalog_safety_labels() {
        for (name, q) in catalog::unsafe_catalog() {
            assert!(is_unsafe(&q), "{name} should be unsafe");
        }
        for (name, q) in catalog::safe_catalog() {
            assert!(is_safe(&q), "{name} should be safe");
        }
    }

    #[test]
    fn c9_and_c15_lengths() {
        assert_eq!(query_length(&catalog::example_c9()), Some(2));
        assert_eq!(query_length(&catalog::example_c15()), Some(2));
    }

    #[test]
    fn constants_are_safe() {
        assert!(is_safe(&gfomc_query::BipartiteQuery::top()));
        assert!(is_safe(&gfomc_query::BipartiteQuery::bottom()));
    }

    #[test]
    fn clause_roles_agree_with_clause_shapes() {
        use gfomc_query::{parse_clause, Clause};
        let shape_role = |c: &Clause| ClauseRole {
            leftish: c.mentions(Pred::R) || c.is_left(),
            rightish: c.mentions(Pred::T) || c.is_right(),
        };
        let mut clauses: Vec<Clause> = catalog::unsafe_catalog()
            .into_iter()
            .chain(catalog::safe_catalog())
            .flat_map(|(_, q)| q.clauses().to_vec())
            .collect();
        for text in [
            "R(x0)",
            "T(y0)",
            "R(x0) v T(y0)",
            "R(x0) v S0(x0,y0) v S1(x0,y1)",
            "S0(x0,y0) v S1(x1,y0) v T(y0)",
            "S0(x0,y0) v S1(x1,y1)",
            "S0(x0,y0) v S0(x0,y1) v S1(x1,y0)",
        ] {
            clauses.push(parse_clause(text).unwrap());
        }
        for c in &clauses {
            assert_eq!(clause_role(c), shape_role(c), "{c:?}");
        }
    }

    /// The breadth-first search over `BTreeSet` symbol sets and shape-built
    /// roles that the atom-slice search replaced.
    fn shortest_path_reference(q: &BipartiteQuery) -> Option<Vec<usize>> {
        use std::collections::VecDeque;
        let clauses = q.clauses();
        let roles: Vec<(bool, bool)> = clauses
            .iter()
            .map(|c| {
                (
                    c.mentions(Pred::R) || c.is_left(),
                    c.mentions(Pred::T) || c.is_right(),
                )
            })
            .collect();
        let mut prev: Vec<Option<usize>> = vec![None; clauses.len()];
        let mut seen = vec![false; clauses.len()];
        let mut queue = VecDeque::new();
        for (i, role) in roles.iter().enumerate() {
            if role.0 {
                seen[i] = true;
                queue.push_back(i);
            }
        }
        let mut goal = None;
        while let Some(i) = queue.pop_front() {
            if roles[i].1 {
                goal = Some(i);
                break;
            }
            let si = clauses[i].symbols();
            for j in 0..clauses.len() {
                if !seen[j] && clauses[j].symbols().iter().any(|p| si.contains(p)) {
                    seen[j] = true;
                    prev[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }
        let mut path = vec![goal?];
        while let Some(p) = prev[*path.last().unwrap()] {
            path.push(p);
        }
        path.reverse();
        Some(path)
    }

    #[test]
    fn shortest_paths_match_the_reference_on_generated_queries() {
        use gfomc_engine::workload::{random_query, SafetyTarget};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9A75);
        for _ in 0..400 {
            let target = [SafetyTarget::Any, SafetyTarget::Unsafe, SafetyTarget::Safe]
                [rng.gen_range(0..3usize)];
            let (symbols, clauses) = (rng.gen_range(1..=4), rng.gen_range(2..=5));
            let q = random_query(&mut rng, symbols, clauses, target);
            for q in [q.clone(), q.set_symbol(Pred::S(0), false)] {
                assert_eq!(
                    shortest_left_right_path(&q),
                    shortest_path_reference(&q),
                    "{q:?}"
                );
            }
        }
    }

    #[test]
    fn path_endpoints_have_roles() {
        let q = catalog::type_i_braided();
        let path = shortest_left_right_path(&q).unwrap();
        let clauses = q.clauses();
        assert!(clause_role(&clauses[*path.first().unwrap()]).leftish);
        assert!(clause_role(&clauses[*path.last().unwrap()]).rightish);
        // Consecutive clauses share a symbol.
        for w in path.windows(2) {
            let a = clauses[w[0]].symbols();
            assert!(clauses[w[1]].symbols().iter().any(|p| a.contains(p)));
        }
    }
}
