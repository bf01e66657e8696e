//! The traced run: replay a workload's requests in-process and time each
//! layer's public call from outside the program, in the order the router
//! makes them.
//!
//! Every request goes to several fresh engines that each see the same
//! request sequence, so their caches stay in step, and each does one job.
//! For `/eval`: A replays the router layer by layer; B runs
//! `evaluate_wire` untraced (the in-process end-to-end time); C and D run
//! `evaluate_request` and `try_evaluate_auto` (their difference is the
//! observability overhead); E serves the body over loopback HTTP (minus
//! B, the serving overhead). Sessions split the same way: S1 answers
//! `session_request`, S2 is a twin whose ops run through `with_session`
//! (their difference is the session dispatch), S3 runs `session_wire`,
//! and E serves over HTTP. Every answer is compared with the reference.

use crate::inputs::{
    generate, new_engine, open_body, open_in_process, session_id, use_body, without_id, EvalItem,
    EvalSet, Inputs, SessionSet, Workload,
};
use crate::load::{exchange_once, io_err, Tally};
use crate::{host_cpus, steal_frac_since, Metric, Outcome};
use gfomc_approx::{AdaptiveConfig, CnfSampler};
use gfomc_arith::small_path_thread_stats;
use gfomc_engine::{
    AutoResult, CacheStats, Engine, EvalRequest, Route, Routed, SampleMode, Session, SessionOp,
    SessionReply, SessionRequest, SessionResponse,
};
use gfomc_logic::EvalArena;
use gfomc_pool::WorkerPool;
use gfomc_safety::{circuit_cost_estimate, is_safe, lifted_probability};
use gfomc_serve::{Connection, Server, ServerHandle};
use gfomc_tid::lineage;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `f` and returns its result with its duration in nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as i64)
}

/// Total time and call count of one layer call.
#[derive(Default, Clone, Copy)]
struct Span {
    nanos: i64,
    calls: u64,
}

impl Span {
    fn add(&mut self, nanos: i64) {
        self.nanos += nanos;
        self.calls += 1;
    }

    fn mean_us(&self) -> f64 {
        ratio(self.nanos as f64 / 1e3, self.calls as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(values: &mut [i64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    values[values.len() / 2] as f64
}

fn route_index(route: Route) -> usize {
    match route {
        Route::Lifted => 0,
        Route::Compiled => 1,
        Route::Sampled => 2,
    }
}

/// Everything the traced replay measures.
#[derive(Default)]
struct Layers {
    requests: u64,
    parse: Span,
    serialize: Span,
    response_bytes: u64,
    classify: Span,
    cost: Span,
    cost_over_actual: Vec<f64>,
    lifted: Span,
    ground: Span,
    lineage_vars: u64,
    cache_hit: Span,
    cache: CacheStats,
    distinct_lineages: usize,
    routes: [u64; 3],
    route_nanos: [i64; 3],
    obs_overhead: Vec<i64>,
    dispatch: Span,
    compile: Span,
    gates_compiled: u64,
    eval: Span,
    gates_evaluated: u64,
    update: Span,
    repriced: u64,
    session_gates: u64,
    value: Span,
    explain: Span,
    small_hits: u64,
    small_ops: u64,
    sampler_build: Span,
    sample: Span,
    samples: u64,
    http_overhead: Vec<i64>,
    connect: Span,
    gate_rejected: u64,
    /// Σ layer times of the replayed requests.
    covered: i64,
    /// Σ wall time of the traced replay, timers and bookkeeping included.
    traced_wall: i64,
    /// Σ untraced in-process end-to-end time of the same requests.
    untraced: i64,
}

impl Layers {
    /// Counts the small-path rational operations `f` makes on this thread.
    fn small_path<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (h0, n0) = small_path_thread_stats();
        let out = f();
        let (h1, n1) = small_path_thread_stats();
        self.small_hits += h1 - h0;
        self.small_ops += n1 - n0;
        out
    }

    fn metrics(&mut self, steal_frac: f64) -> Vec<Metric> {
        let req = self.requests as f64;
        let lookups = (self.cache.hits + self.cache.misses) as f64;
        let routed: u64 = self.routes.iter().sum();
        let route_nanos: i64 = self.route_nanos.iter().sum();
        let route_share = |i: usize| ratio(self.routes[i] as f64, routed as f64);
        let time_share = |i: usize| ratio(self.route_nanos[i] as f64, route_nanos as f64);
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("api.parse_us", self.parse.mean_us(), "us"),
            m("api.serialize_us", self.serialize.mean_us(), "us"),
            m(
                "api.response_bytes",
                ratio(self.response_bytes as f64, req),
                "bytes",
            ),
            m("safety.classify_us", self.classify.mean_us(), "us"),
            m("safety.cost_us", self.cost.mean_us(), "us"),
            m(
                "safety.cost_over_actual",
                ratio(
                    self.cost_over_actual.iter().sum(),
                    self.cost_over_actual.len() as f64,
                ),
                "ratio",
            ),
            m("safety.lifted_us", self.lifted.mean_us(), "us"),
            m("tid.ground_us", self.ground.mean_us(), "us"),
            m(
                "tid.lineage_vars",
                ratio(self.lineage_vars as f64, self.ground.calls as f64),
                "count",
            ),
            m("engine.cache_hit_us", self.cache_hit.mean_us(), "us"),
            m(
                "engine.cache_hit_rate",
                ratio(self.cache.hits as f64, lookups),
                "ratio",
            ),
            m("engine.cache_lookups", lookups, "count"),
            m(
                "engine.cache_evictions",
                ratio(1e3 * self.cache.evictions as f64, req),
                "per_1k_req",
            ),
            m(
                "engine.cache_rejections",
                ratio(1e3 * self.cache.rejections as f64, req),
                "per_1k_req",
            ),
            m(
                "engine.distinct_lineages",
                self.distinct_lineages as f64,
                "count",
            ),
            m("engine.route_share.lifted", route_share(0), "ratio"),
            m("engine.route_share.compiled", route_share(1), "ratio"),
            m("engine.route_share.sampled", route_share(2), "ratio"),
            m("engine.route_time_share.lifted", time_share(0), "ratio"),
            m("engine.route_time_share.compiled", time_share(1), "ratio"),
            m("engine.route_time_share.sampled", time_share(2), "ratio"),
            m(
                "engine.obs_overhead_us",
                median(&mut self.obs_overhead) / 1e3,
                "us",
            ),
            m("engine.session_dispatch_us", self.dispatch.mean_us(), "us"),
            m("logic.compile_us", self.compile.mean_us(), "us"),
            m(
                "logic.gates_per_compile",
                ratio(self.gates_compiled as f64, self.compile.calls as f64),
                "count",
            ),
            m("logic.eval_exact_us", self.eval.mean_us(), "us"),
            m(
                "logic.eval_ns_per_gate",
                ratio(self.eval.nanos as f64, self.gates_evaluated as f64),
                "ns",
            ),
            m("logic.update_us", self.update.mean_us(), "us"),
            m(
                "logic.repriced_per_update",
                ratio(self.repriced as f64, self.update.calls as f64),
                "count",
            ),
            m(
                "logic.session_gates",
                ratio(self.session_gates as f64, self.update.calls as f64),
                "count",
            ),
            m("logic.value_us", self.value.mean_us(), "us"),
            m("logic.explain_us", self.explain.mean_us(), "us"),
            m(
                "arith.small_path_hit_rate",
                ratio(self.small_hits as f64, self.small_ops as f64),
                "ratio",
            ),
            m(
                "arith.small_path_ops",
                ratio(self.small_ops as f64, req),
                "per_req",
            ),
            m("approx.build_us", self.sampler_build.mean_us(), "us"),
            m("approx.sample_us", self.sample.mean_us(), "us"),
            m(
                "approx.samples_per_request",
                ratio(self.samples as f64, self.sample.calls as f64),
                "count",
            ),
            m(
                "approx.ns_per_sample",
                ratio(self.sample.nanos as f64, self.samples as f64),
                "ns",
            ),
            m(
                "serve.http_overhead_us",
                median(&mut self.http_overhead) / 1e3,
                "us",
            ),
            m("serve.connect_us", self.connect.mean_us(), "us"),
            m("serve.gate_rejected", self.gate_rejected as f64, "count"),
            m(
                "trace.coverage",
                ratio(self.covered as f64, self.untraced as f64),
                "ratio",
            ),
            m(
                "trace.overhead",
                ratio(self.traced_wall as f64, self.untraced as f64),
                "ratio",
            ),
            m("trace.requests", req, "count"),
            m("host.cpus", host_cpus() as f64, "count"),
            m("host.steal_frac", steal_frac, "ratio"),
        ]
    }
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    pool: &Arc<WorkerPool>,
    ticks: (u64, u64),
) -> Result<Outcome, String> {
    let inputs = generate(workload, seed, pool)?;
    let server = Server::bind(Arc::new(new_engine(pool)), "127.0.0.1:0")
        .and_then(Server::spawn)
        .map_err(io_err("start server"))?;
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let result = match &inputs {
        Inputs::Eval(set) => replay_eval(set, &server, pool, deadline, &mut layers, &mut tally),
        Inputs::Session(set) => {
            replay_sessions(set, &server, pool, deadline, &mut layers, &mut tally)
        }
    };
    layers.gate_rejected = server.gate().stats().rejected as u64;
    server.stop();
    result?;
    let mut report = vec![
        inputs.summary().to_string(),
        format!(
            "traced {} requests; layer coverage {:.3} of the untraced in-process time",
            layers.requests,
            ratio(layers.covered as f64, layers.untraced as f64)
        ),
    ];
    tally.report(&mut report);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        report,
        metrics: layers.metrics(steal_frac_since(ticks)),
    })
}

fn replay_eval(
    set: &EvalSet,
    server: &ServerHandle,
    pool: &Arc<WorkerPool>,
    deadline: Instant,
    l: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String> {
    let [a, b, c, d] = [(); 4].map(|_| new_engine(pool));
    let mut arena = EvalArena::new();
    let addr = server.addr();
    let mut conn = if set.connection_per_request {
        None
    } else {
        let (conn, n) = timed(|| Connection::open(addr));
        l.connect.add(n);
        Some(conn.map_err(io_err("connect"))?)
    };
    l.distinct_lineages = set.distinct_lineages;
    for item in set.items.iter().cycle() {
        // Whichever engine sees a request first pays its cold caches, so
        // the traced and untraced passes (and C and D) alternate order.
        let first = l.requests.is_multiple_of(2);
        let mut traced = |l: &mut Layers| {
            let (text, wall) = timed(|| router_layers(&a, item, l, &mut arena));
            l.traced_wall += wall;
            text
        };
        let untraced = || timed(|| b.evaluate_wire(&item.body));
        let ((wire, e2e), text) = if first {
            let text = traced(l);
            (untraced(), text)
        } else {
            let wire = untraced();
            (wire, traced(l))
        };
        let text = text?;
        let wire = wire.map_err(|e| format!("evaluate_wire rejected a request: {e}"))?;
        l.untraced += e2e;
        l.route_nanos[route_index(item.route)] += e2e;
        let req = &item.req;
        let with_obs = || timed(|| c.evaluate_request(req)).1;
        let without_obs = || timed(|| d.try_evaluate_auto(&req.query, &req.tid, &req.budget)).1;
        let overhead = if first {
            with_obs() - without_obs()
        } else {
            let without = without_obs();
            with_obs() - without
        };
        l.obs_overhead.push(overhead);
        let (resp, rtt) = match &mut conn {
            Some(conn) => timed(|| conn.request("POST", "/eval", &item.body)),
            None => {
                let (stream, n) = timed(|| TcpStream::connect(addr));
                l.connect.add(n);
                let stream = stream.map_err(io_err("connect"))?;
                let (resp, rtt) = timed(|| exchange_once(stream, &item.body));
                (resp, rtt + n)
            }
        };
        let resp = resp.map_err(io_err("http replay"))?;
        l.http_overhead.push(rtt - e2e);
        l.requests += 1;
        let expected = &item.expected;
        let ok = resp.status == 200 && resp.body == *expected && text == *expected;
        tally.record(ok && wire == *expected, || {
            format!(
                "status {}, http {:?}, traced {text:?}, wire {wire:?}, expected {expected:?}",
                resp.status, resp.body
            )
        });
        if Instant::now() >= deadline {
            break;
        }
    }
    l.cache = a.cache_stats();
    Ok(())
}

/// Routes one request the way `Engine::evaluate_auto` does, calling each
/// layer's public function in turn and timing it; returns the serialized
/// answer, which must equal the reference byte for byte.
fn router_layers(
    a: &Engine,
    item: &EvalItem,
    l: &mut Layers,
    arena: &mut EvalArena,
) -> Result<String, String> {
    let (req, n) = timed(|| item.body.parse::<EvalRequest>());
    let req = req.map_err(|e| format!("request did not parse: {e}"))?;
    l.parse.add(n);
    l.covered += n;
    let (safe, n) = timed(|| is_safe(&req.query));
    l.classify.add(n);
    l.covered += n;
    let routed = if safe {
        let (p, n) = timed(|| lifted_probability(&req.query, &req.tid));
        l.lifted.add(n);
        l.covered += n;
        Routed {
            result: AutoResult::Exact(p.map_err(|_| "a safe query did not lift")?),
            route: Route::Lifted,
            cost: None,
            trace: None,
        }
    } else {
        let (lin, ground) = timed(|| lineage(&req.query, &req.tid));
        l.ground.add(ground);
        l.covered += ground;
        l.lineage_vars += lin.vars.len() as u64;
        let (cost, n) = timed(|| circuit_cost_estimate(&lin.cnf));
        l.cost.add(n);
        l.covered += n;
        if cost.within(req.budget.max_circuit_cost) {
            // `Engine::compile` grounds the lineage again: time one more
            // grounding and subtract it, before or after the compile on
            // alternate requests so neither call is always the warmer one.
            let reground = || timed(|| lineage(&req.query, &req.tid)).1;
            let hits = a.cache_stats().hits;
            let ((compiled, n), reground) = if l.requests.is_multiple_of(2) {
                let reground = reground();
                (timed(|| a.compile(&req.query, &req.tid)), reground)
            } else {
                let compiled = timed(|| a.compile(&req.query, &req.tid));
                (compiled, reground())
            };
            let n = n - reground;
            let gates = compiled.node_count();
            if a.cache_stats().hits > hits {
                l.cache_hit.add(n);
            } else {
                l.compile.add(n);
                l.gates_compiled += gates as u64;
            }
            l.covered += n;
            l.cost_over_actual
                .push(cost.estimated_nodes as f64 / gates.max(1) as f64);
            let (p, n) = l.small_path(|| timed(|| compiled.evaluate_db_with(arena)));
            l.eval.add(n);
            l.covered += n;
            l.gates_evaluated += gates as u64;
            Routed {
                result: AutoResult::Exact(p),
                route: Route::Compiled,
                cost: Some(cost),
                trace: None,
            }
        } else {
            let (sampler, n) = timed(|| CnfSampler::new(&lin.cnf, lin.vars.weights()));
            l.sampler_build.add(n);
            l.covered += n;
            let b = &req.budget;
            let threads = b.threads.max(1);
            let (est, n) = timed(|| match b.mode {
                SampleMode::Fixed => {
                    sampler.estimate_seeded_on(a.pool(), b.seed, b.samples, b.delta, threads)
                }
                SampleMode::Adaptive { epsilon } => {
                    let cfg = AdaptiveConfig::new(epsilon, b.delta, b.seed).with_threads(threads);
                    sampler.estimate_adaptive_on(a.pool(), &cfg).estimate
                }
            });
            l.sample.add(n);
            l.covered += n;
            l.samples += est.samples;
            Routed {
                result: est.into(),
                route: Route::Sampled,
                cost: Some(cost),
                trace: None,
            }
        }
    };
    l.routes[route_index(routed.route)] += 1;
    let (text, n) = timed(|| routed.to_string());
    l.serialize.add(n);
    l.covered += n;
    l.response_bytes += text.len() as u64;
    Ok(text)
}

fn replay_sessions(
    set: &SessionSet,
    server: &ServerHandle,
    pool: &Arc<WorkerPool>,
    deadline: Instant,
    l: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String> {
    let [s1, s2, s3] = [(); 3].map(|_| new_engine(pool));
    let (conn, n) = timed(|| Connection::open(server.addr()));
    l.connect.add(n);
    let mut conn = conn.map_err(io_err("connect"))?;
    let (mut ids1, mut ids2, mut ids3, mut ids_http) = (vec![], vec![], vec![], vec![]);
    for spec in &set.sessions {
        // The open's layers, timed on the twin engine before it opens the
        // session (the open itself then finds the circuit cached).
        let (lin, ground) = timed(|| lineage(&spec.open.query, &spec.open.tid));
        l.ground.add(ground);
        l.lineage_vars += lin.vars.len() as u64;
        let (_, n) = timed(|| circuit_cost_estimate(&lin.cnf));
        l.cost.add(n);
        let (compiled, n) = timed(|| s2.compile(&spec.open.query, &spec.open.tid));
        l.compile.add(n - ground);
        l.gates_compiled += compiled.node_count() as u64;
        ids1.push(open_in_process(&s1, &spec.open)?);
        ids2.push(open_in_process(&s2, &spec.open)?);
        ids3.push(open_in_process(&s3, &spec.open)?);
        let resp = conn
            .request("POST", "/session", &open_body(&spec.open))
            .map_err(io_err("session open"))?;
        ids_http.push(session_id(&resp.body)?);
    }
    let render = |ids: &[u64]| -> Vec<String> {
        set.calls
            .iter()
            .map(|c| use_body(ids[c.session], &c.ops))
            .collect()
    };
    let (bodies1, bodies3, bodies_http) = (render(&ids1), render(&ids3), render(&ids_http));
    let ops: Vec<Vec<SessionOp>> = bodies1
        .iter()
        .map(|body| match body.parse::<SessionRequest>() {
            Ok(SessionRequest::Use { ops, .. }) => Ok(ops),
            _ => Err(format!("not a 'session use' request: {body:?}")),
        })
        .collect::<Result<_, _>>()?;
    for i in (0..set.calls.len()).cycle() {
        // S1: the traced request path, parse → session_request → serialize.
        let s1_request = |l: &mut Layers| -> Result<(String, i64), String> {
            let wall = Instant::now();
            let (req, n) = timed(|| bodies1[i].parse::<SessionRequest>());
            let req = req.map_err(|e| format!("session request did not parse: {e}"))?;
            l.parse.add(n);
            l.covered += n;
            let (resp, served) = timed(|| s1.session_request(&req));
            let resp = resp.map_err(|e| format!("session_request failed: {e}"))?;
            let (text, n) = timed(|| resp.to_string());
            l.serialize.add(n);
            l.covered += n;
            l.response_bytes += text.len() as u64;
            l.traced_wall += wall.elapsed().as_nanos() as i64;
            Ok((text, served))
        };
        // S2: the same ops on the twin, each public call timed.
        let id2 = ids2[set.calls[i].session];
        let s2_ops = |l: &mut Layers| -> Result<(String, i64), String> {
            let (replies, ops_nanos) =
                timed(|| s2.with_session(id2, |s| session_ops(s, &ops[i], l)));
            let replies = replies
                .map_err(|e| e.to_string())
                .and_then(|r| r)
                .map_err(|e| format!("twin session failed: {e}"))?;
            let twin = SessionResponse {
                id: id2,
                replies,
                closed: false,
            };
            Ok((twin.to_string(), ops_nanos))
        };
        let s3_wire = || timed(|| s3.session_wire(&bodies3[i]));
        // Whichever engine sees a request first pays its cold caches, so
        // S1 and S3 swap places on every other request.
        let ((text, served), (twin, ops_nanos), (wire, e2e)) = if l.requests.is_multiple_of(2) {
            let first = s1_request(l)?;
            (first, s2_ops(l)?, s3_wire())
        } else {
            let wire = s3_wire();
            let twin = s2_ops(l)?;
            (s1_request(l)?, twin, wire)
        };
        l.dispatch.add(served - ops_nanos);
        l.covered += served - ops_nanos;
        let wire = wire.map_err(|e| format!("session_wire failed: {e}"))?;
        l.untraced += e2e;
        let (http, rtt) = timed(|| conn.request("POST", "/session", &bodies_http[i]));
        let http = http.map_err(io_err("http replay"))?;
        l.http_overhead.push(rtt - e2e);
        l.requests += 1;
        let served = without_id(&text);
        let ok = http.status == 200 && without_id(&http.body) == served;
        tally.record(
            ok && without_id(&twin) == served && without_id(&wire) == served,
            || {
                format!(
                    "status {}, http {:?}, session_request {text:?}, twin {twin:?}, wire {wire:?}",
                    http.status, http.body
                )
            },
        );
        if Instant::now() >= deadline {
            break;
        }
    }
    Ok(())
}

/// Runs one request's ops on a twin session, timing each public call.
fn session_ops(
    s: &mut Session,
    ops: &[SessionOp],
    l: &mut Layers,
) -> Result<Vec<SessionReply>, String> {
    let mut replies = Vec::with_capacity(ops.len());
    for op in ops {
        let reply = match op {
            SessionOp::Update { tuple, weight } => {
                let (stats, n) = l.small_path(|| timed(|| s.update(*tuple, weight.clone())));
                let stats = stats.map_err(|e| e.to_string())?;
                l.update.add(n);
                l.covered += n;
                l.repriced += stats.repriced as u64;
                l.session_gates += s.gate_count() as u64;
                SessionReply::Updated {
                    tuple: *tuple,
                    weight: weight.clone(),
                    repriced: stats.repriced,
                    of: s.gate_count(),
                }
            }
            SessionOp::Value => {
                let (v, n) = timed(|| s.value());
                l.value.add(n);
                l.covered += n;
                SessionReply::Value(v)
            }
            SessionOp::ExplainTop { k } => {
                let (ranked, n) = timed(|| s.top_k_influential(*k));
                l.explain.add(n);
                l.covered += n;
                SessionReply::Influence(ranked)
            }
            other => return Err(format!("the session stream never sends '{other}'")),
        };
        replies.push(reply);
    }
    Ok(replies)
}
