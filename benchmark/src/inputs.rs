//! The inputs of each workload, their reference answers, and the
//! composition guard that fails loudly when a generator drifts from the
//! design its workload is meant to measure (see `NOTES.md`).
//!
//! Query shapes (query, domain size) come from a fixed stream, so every
//! seed exercises the same lineages and the spread between seeds is not
//! the spread between query mixes; `--seed` draws the tuple probabilities,
//! the sampler seeds, the session update streams and the request order.

use gfomc_arith::{small_path_thread_stats, Rational};
use gfomc_engine::workload::{random_block_tid, random_query, SafetyTarget};
use gfomc_engine::{Budget, Engine, EvalRequest, Route, Routed, DEFAULT_CACHE_CAPACITY};
use gfomc_engine::{SessionResponse, TupleWeights};
use gfomc_pool::WorkerPool;
use gfomc_query::{catalog, BipartiteQuery};
use gfomc_safety::circuit_cost_estimate;
use gfomc_tid::{lineage, Tid, Tuple};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the fixed stream the query shapes are drawn from.
const SHAPE_SEED: u64 = 0x6F0C_2021;

/// `eval_hot`: unsafe 3×3 queries with distinct lineages, each asked over
/// this many databases (one lineage, different weights, so one cached
/// circuit serves them all).
const HOT_QUERIES: usize = 32;
const HOT_TIDS_PER_QUERY: usize = 2;
/// Hot queries are drawn among lineages with at most this estimated
/// circuit cost, so no single request dominates the cycle.
const HOT_MAX_ESTIMATE: u64 = 1_000;
/// `eval_hot` gives up rather than run on a working set this small.
const HOT_MIN_REQUESTS: usize = 32;

/// `eval_mixed`: requests per route, before shuffling. Every compiled
/// request has a lineage of its own, so the list holds more distinct
/// lineages than the cache and most compiled requests miss.
const MIXED_COMPILED: usize = 104;
const MIXED_LIFTED: usize = 52;
const MIXED_SAMPLED: usize = 52;
/// The fixed sample budget every `eval_mixed` request carries.
const MIXED_SAMPLES: u64 = 4_000;
/// Unsafe `eval_mixed` requests are drawn among lineages whose estimated
/// circuit cost is at most this, so no single compile or sample dominates.
const MIXED_MAX_ESTIMATE: u64 = 2_000;
/// Domain sizes of the unsafe requests: a spread of shapes gives more
/// distinct lineages.
const UNSAFE_DOMAINS: [(u32, u32); 5] = [(2, 4), (4, 2), (3, 3), (3, 4), (4, 3)];
/// Domain sizes of the lifted requests: large enough that lifted
/// evaluation is a visible share of the time.
const LIFTED_DOMAINS: [(u32, u32); 3] = [(7, 7), (8, 8), (9, 9)];
/// The circuit-cost cap that sends the sampled quarter to the sampler.
const SAMPLED_COST_CAP: u64 = 16;
/// No route may take more than this share of `eval_mixed` time.
const MAX_ROUTE_TIME_SHARE: f64 = 0.6;

/// `session_stream`: requests in the cycled list, updates per request,
/// and the cadence and size of the `explain` read (one request in every
/// `EXPLAIN_EVERY`).
const SESSION_CALLS: usize = 512;
const UPDATES_PER_CALL: usize = 8;
const EXPLAIN_EVERY: usize = 4;
const EXPLAIN_TOP: usize = 5;
/// Calls the guard replays to measure each session's arithmetic lane.
const GUARD_CALLS: usize = SESSION_CALLS;
/// Word-sized sessions must keep at least this share of their rational
/// operations on the 64-bit path, and bignum sessions at most the second.
const LIMB_MIN_SMALL_PATH: f64 = 0.99;
const BIGNUM_MAX_SMALL_PATH: f64 = 0.95;

/// The benchmark's three closed-loop workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EvalHot,
    EvalMixed,
    SessionStream,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "eval_hot" => Some(Workload::EvalHot),
            "eval_mixed" => Some(Workload::EvalMixed),
            "session_stream" => Some(Workload::SessionStream),
            _ => None,
        }
    }
}

/// One `/eval` request of a working set, with its reference answer.
pub struct EvalItem {
    pub req: EvalRequest,
    pub body: String,
    /// `Engine::evaluate_wire` of `body` on a separate, fresh engine.
    pub expected: String,
    pub route: Route,
    /// Reference evaluation time, for the route time shares.
    pub ref_nanos: u64,
}

/// A cycled list of `/eval` requests.
pub struct EvalSet {
    pub items: Vec<EvalItem>,
    /// Distinct lineages among the compiled requests.
    pub distinct_lineages: usize,
    /// Whether each request opens its own connection (`eval_mixed`).
    pub connection_per_request: bool,
    /// The checked composition, for the run's report.
    pub summary: String,
}

/// One session of `session_stream`: the spec it opens with and the
/// circuit tuples its updates draw from.
pub struct SessionSpec {
    pub open: EvalRequest,
    pub tuples: Vec<Tuple>,
    /// Weights stay quarters on a 3×3 lineage, so gate values fit one
    /// machine word; otherwise eighths on a 4×4 lineage spill into bignum.
    pub limb: bool,
}

/// One `session use` request: which session, and its op lines.
pub struct SessionCall {
    pub session: usize,
    pub ops: String,
}

/// Four sessions and the cycled list of requests against them.
pub struct SessionSet {
    pub sessions: Vec<SessionSpec>,
    pub calls: Vec<SessionCall>,
    /// The checked composition, for the run's report.
    pub summary: String,
}

pub enum Inputs {
    Eval(EvalSet),
    Session(SessionSet),
}

impl Inputs {
    pub fn summary(&self) -> &str {
        match self {
            Inputs::Eval(set) => &set.summary,
            Inputs::Session(set) => &set.summary,
        }
    }
}

/// An engine as `gfomc-serve --threads 1` builds it: default cache, one
/// shared single-worker pool, so no request fans out.
pub fn new_engine(pool: &Arc<WorkerPool>) -> Engine {
    Engine::builder().pool(Arc::clone(pool)).build()
}

pub fn open_body(spec: &EvalRequest) -> String {
    format!("session open\n{spec}")
}

pub fn use_body(id: u64, ops: &str) -> String {
    format!("session use {id}\n{ops}")
}

/// A session response without its `session <id>` line, so replies from
/// engines that numbered their sessions differently compare equal.
pub fn without_id(response: &str) -> &str {
    response.split_once('\n').map_or("", |(_, rest)| rest)
}

/// The session id a session reply names.
pub fn session_id(reply: &str) -> Result<u64, String> {
    reply
        .parse::<SessionResponse>()
        .map(|r| r.id)
        .map_err(|e| format!("unparseable session reply: {e}"))
}

/// Opens `spec` through the session wire pipeline of `engine`.
pub fn open_in_process(engine: &Engine, spec: &EvalRequest) -> Result<u64, String> {
    let reply = engine
        .session_wire(&open_body(spec))
        .map_err(|e| format!("session open rejected: {e}"))?;
    session_id(&reply)
}

/// Builds the workload's inputs from `seed`, computes every reference
/// answer, and checks the composition against the workload's design.
pub fn generate(workload: Workload, seed: u64, pool: &Arc<WorkerPool>) -> Result<Inputs, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    match workload {
        Workload::EvalHot => eval_hot(&mut rng, pool).map(Inputs::Eval),
        Workload::EvalMixed => eval_mixed(&mut rng, pool).map(Inputs::Eval),
        Workload::SessionStream => session_stream(&mut rng, pool).map(Inputs::Session),
    }
}

/// Draws `count` unsafe query shapes from `shapes` whose lineages have
/// pairwise distinct CNFs and an estimated circuit cost of at most
/// `max_estimate`. The lineage does not depend on the probabilities,
/// which are all strictly between 0 and 1.
fn unsafe_shapes(
    shapes: &mut StdRng,
    count: usize,
    domains: &[(u32, u32)],
    max_estimate: u64,
    seen: &mut HashSet<gfomc_logic::Cnf>,
) -> Vec<(BipartiteQuery, u32, u32)> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let q = random_query(shapes, 3, 3, SafetyTarget::Unsafe);
        let (nu, nv) = domains[shapes.gen_range(0..domains.len())];
        let cnf = lineage(&q, &random_block_tid(shapes, &q, nu, nv)).cnf;
        if circuit_cost_estimate(&cnf).estimated_nodes <= max_estimate && seen.insert(cnf) {
            out.push((q, nu, nv));
        }
    }
    out
}

fn reference(engine: &Engine, req: EvalRequest) -> Result<EvalItem, String> {
    let body = req.to_string();
    let t0 = Instant::now();
    let expected = engine
        .evaluate_wire(&body)
        .map_err(|e| format!("reference engine rejected a generated request: {e}"))?;
    let ref_nanos = t0.elapsed().as_nanos() as u64;
    let route = expected
        .parse::<Routed>()
        .map_err(|e| format!("unparseable reference answer: {e}"))?
        .route;
    Ok(EvalItem {
        req,
        body,
        expected,
        route,
        ref_nanos,
    })
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

const ROUTES: [Route; 3] = [Route::Lifted, Route::Compiled, Route::Sampled];

/// Shares of requests and of reference time per route, in `ROUTES` order.
fn route_shares(items: &[EvalItem]) -> ([f64; 3], [f64; 3]) {
    let total: u64 = items.iter().map(|i| i.ref_nanos).sum();
    let share = |route: Route| {
        let of_route = items.iter().filter(|i| i.route == route);
        let nanos: u64 = of_route.clone().map(|i| i.ref_nanos).sum();
        (
            of_route.count() as f64 / items.len() as f64,
            nanos as f64 / total.max(1) as f64,
        )
    };
    let shares = ROUTES.map(share);
    (shares.map(|s| s.0), shares.map(|s| s.1))
}

fn composition(items: &[EvalItem], distinct: usize) -> String {
    let (requests, time) = route_shares(items);
    format!(
        "composition: {} requests, {distinct} distinct compiled lineages (cache capacity \
         {DEFAULT_CACHE_CAPACITY}); request shares lifted/compiled/sampled {:.3}/{:.3}/{:.3}; \
         reference time shares {:.3}/{:.3}/{:.3}",
        items.len(),
        requests[0],
        requests[1],
        requests[2],
        time[0],
        time[1],
        time[2]
    )
}

fn eval_hot(rng: &mut StdRng, pool: &Arc<WorkerPool>) -> Result<EvalSet, String> {
    let mut shapes = StdRng::seed_from_u64(SHAPE_SEED);
    let hot = unsafe_shapes(
        &mut shapes,
        HOT_QUERIES,
        &[(3, 3)],
        HOT_MAX_ESTIMATE,
        &mut HashSet::new(),
    );
    let mut reqs = Vec::new();
    for (q, nu, nv) in &hot {
        for _ in 0..HOT_TIDS_PER_QUERY {
            reqs.push(EvalRequest::new(
                q.clone(),
                random_block_tid(rng, q, *nu, *nv),
            ));
        }
    }
    // Keep the requests whose lineages stay resident: on a fresh engine a
    // second pass must hit the cache for each of them. Selecting by the
    // hits observed, not by the cache's layout, keeps every request a hit
    // whatever the engine's sharding or admission policy.
    loop {
        let engine = new_engine(pool);
        let items = reqs
            .into_iter()
            .map(|req| reference(&engine, req))
            .collect::<Result<Vec<_>, _>>()?;
        let total = items.len();
        let mut resident = Vec::with_capacity(total);
        for item in items {
            let hits = engine.cache_stats().hits;
            engine
                .evaluate_wire(&item.body)
                .map_err(|e| format!("second pass rejected a request: {e}"))?;
            if engine.cache_stats().hits > hits {
                resident.push(item);
            }
        }
        if resident.len() < HOT_MIN_REQUESTS {
            return Err(format!(
                "eval_hot: only {} requests stay cache-resident (need {HOT_MIN_REQUESTS})",
                resident.len()
            ));
        }
        if resident.len() == total {
            let distinct = resident
                .iter()
                .map(|i| lineage(&i.req.query, &i.req.tid).cnf)
                .collect::<HashSet<_>>()
                .len();
            let mut items = resident;
            shuffle(rng, &mut items);
            let summary = composition(&items, distinct);
            return Ok(EvalSet {
                items,
                distinct_lineages: distinct,
                connection_per_request: false,
                summary,
            });
        }
        reqs = resident.into_iter().map(|i| i.req).collect();
    }
}

fn eval_mixed(rng: &mut StdRng, pool: &Arc<WorkerPool>) -> Result<EvalSet, String> {
    let mut shapes = StdRng::seed_from_u64(SHAPE_SEED);
    let mut seen = HashSet::new();
    let compiled = unsafe_shapes(
        &mut shapes,
        MIXED_COMPILED,
        &UNSAFE_DOMAINS,
        MIXED_MAX_ESTIMATE,
        &mut seen,
    );
    let sampled = unsafe_shapes(
        &mut shapes,
        MIXED_SAMPLED,
        &UNSAFE_DOMAINS,
        MIXED_MAX_ESTIMATE,
        &mut seen,
    );
    let lifted: Vec<(BipartiteQuery, u32, u32)> = (0..MIXED_LIFTED)
        .map(|_| {
            let q = random_query(&mut shapes, 3, 3, SafetyTarget::Safe);
            let (nu, nv) = LIFTED_DOMAINS[shapes.gen_range(0..LIFTED_DOMAINS.len())];
            (q, nu, nv)
        })
        .collect();
    let engine = new_engine(pool);
    let mut items = Vec::new();
    for (route, shapes, cap) in [
        (
            Route::Compiled,
            &compiled,
            Budget::default().max_circuit_cost,
        ),
        (Route::Lifted, &lifted, Budget::default().max_circuit_cost),
        (Route::Sampled, &sampled, SAMPLED_COST_CAP),
    ] {
        for (q, nu, nv) in shapes {
            let budget = Budget::default()
                .with_samples(MIXED_SAMPLES)
                .expect("positive sample budget")
                .with_max_circuit_cost(cap)
                .with_seed(rng.gen());
            let tid = random_block_tid(rng, q, *nu, *nv);
            let item = reference(
                &engine,
                EvalRequest::new(q.clone(), tid).with_budget(budget),
            )?;
            if item.route != route {
                return Err(format!(
                    "eval_mixed: a request meant for the {route} route took the {} route",
                    item.route
                ));
            }
            items.push(item);
        }
    }
    let summary = composition(&items, compiled.len());
    if compiled.len() <= DEFAULT_CACHE_CAPACITY {
        return Err(format!("eval_mixed: the workload must miss; {summary}"));
    }
    let (_, time_shares) = route_shares(&items);
    for (route, share) in ROUTES.into_iter().zip(time_shares) {
        if share > MAX_ROUTE_TIME_SHARE {
            return Err(format!(
                "eval_mixed: the {route} route takes {share:.2} of the reference time \
                 (limit {MAX_ROUTE_TIME_SHARE}); {summary}"
            ));
        }
    }
    shuffle(rng, &mut items);
    Ok(EvalSet {
        items,
        distinct_lineages: compiled.len(),
        connection_per_request: true,
        summary,
    })
}

/// A block TID whose probabilities are drawn from `palette`.
fn palette_tid(rng: &mut StdRng, q: &BipartiteQuery, n: u32, palette: &[Rational]) -> Tid {
    let left: Vec<u32> = (0..n).collect();
    let right: Vec<u32> = (1000..1000 + n).collect();
    let mut tid = Tid::all_present(left.clone(), right.clone());
    let mut draw = || palette[rng.gen_range(0..palette.len())].clone();
    for &u in &left {
        tid.set_prob(Tuple::R(u), draw());
        for &v in &right {
            for s in q.binary_symbols() {
                tid.set_prob(Tuple::S(s, u, v), draw());
            }
        }
    }
    for &v in &right {
        tid.set_prob(Tuple::T(v), draw());
    }
    tid
}

fn session_stream(rng: &mut StdRng, pool: &Arc<WorkerPool>) -> Result<SessionSet, String> {
    // Odd numerators only, so every weight keeps its full denominator and
    // the arithmetic cost does not drift with the seed.
    let quarters: Vec<Rational> = [1, 3].map(|k| Rational::from_ints(k, 4)).to_vec();
    let eighths: Vec<Rational> = [1, 3, 5, 7].map(|k| Rational::from_ints(k, 8)).to_vec();
    let mut sessions = Vec::new();
    for (q, limb) in [
        (catalog::h1(), true),
        (catalog::hk(2), true),
        (catalog::h1(), false),
        (catalog::hk(2), false),
    ] {
        let (n, palette) = if limb { (3, &quarters) } else { (4, &eighths) };
        let open = EvalRequest::new(q.clone(), palette_tid(rng, &q, n, palette));
        let tuples = new_engine(pool)
            .compile(&open.query, &open.tid)
            .open_session(&TupleWeights::new())
            .tuples()
            .to_vec();
        sessions.push(SessionSpec { open, tuples, limb });
    }
    let calls: Vec<SessionCall> = (0..SESSION_CALLS)
        .map(|i| {
            // Round robin, with the explain on a different session in each
            // group of four calls: every session gets the same share of
            // requests and of explains, whatever the seed.
            let session = i % sessions.len();
            let spec = &sessions[session];
            let palette = if spec.limb { &quarters } else { &eighths };
            let mut ops = String::new();
            for _ in 0..UPDATES_PER_CALL {
                let t = spec.tuples[rng.gen_range(0..spec.tuples.len())];
                let w = &palette[rng.gen_range(0..palette.len())];
                writeln!(ops, "update {t} {w}").expect("write to String");
            }
            ops.push_str("value\n");
            if (i / EXPLAIN_EVERY) % sessions.len() == session {
                writeln!(ops, "explain top {EXPLAIN_TOP}").expect("write to String");
            }
            SessionCall { session, ops }
        })
        .collect();
    let summary = check_arithmetic_split(&sessions, &calls, pool)?;
    Ok(SessionSet {
        sessions,
        calls,
        summary,
    })
}

/// Replays the first calls on a probe engine and checks that word-sized
/// sessions stay on the 64-bit rational path while bignum sessions leave it.
fn check_arithmetic_split(
    sessions: &[SessionSpec],
    calls: &[SessionCall],
    pool: &Arc<WorkerPool>,
) -> Result<String, String> {
    let engine = new_engine(pool);
    let ids = sessions
        .iter()
        .map(|s| open_in_process(&engine, &s.open))
        .collect::<Result<Vec<_>, _>>()?;
    // (small-path hits, rational ops) per arithmetic class.
    let mut limb = (0u64, 0u64);
    let mut bignum = (0u64, 0u64);
    for call in calls.iter().take(GUARD_CALLS) {
        let (h0, n0) = small_path_thread_stats();
        engine
            .session_wire(&use_body(ids[call.session], &call.ops))
            .map_err(|e| format!("guard replay rejected a session call: {e}"))?;
        let (h1, n1) = small_path_thread_stats();
        let class = if sessions[call.session].limb {
            &mut limb
        } else {
            &mut bignum
        };
        class.0 += h1 - h0;
        class.1 += n1 - n0;
    }
    let rate = |(hits, ops): (u64, u64)| hits as f64 / ops.max(1) as f64;
    let summary = format!(
        "composition: {} sessions, {} requests cycled; 64-bit small-path share {:.3} on \
         word-sized sessions, {:.3} on bignum sessions",
        sessions.len(),
        calls.len(),
        rate(limb),
        rate(bignum)
    );
    if rate(limb) < LIMB_MIN_SMALL_PATH || rate(bignum) > BIGNUM_MAX_SMALL_PATH {
        return Err(format!(
            "session_stream: need a small-path share >= {LIMB_MIN_SMALL_PATH} on word-sized \
             sessions and <= {BIGNUM_MAX_SMALL_PATH} on bignum sessions; {summary}"
        ));
    }
    Ok(summary)
}
