//! End-to-end suite for the serving layer, built around the PR's two
//! acceptance drills:
//!
//! 1. **Bit-identity under concurrency** — many client threads submitting
//!    mixed exact/approx queries over real sockets receive responses
//!    byte-identical to serial direct-engine calls, in request order per
//!    connection;
//! 2. **Explicit overload** — once the admission bound is hit the server
//!    answers 429 + `Retry-After` immediately; it never queues silently
//!    and never hangs (every connection in the suite carries a read
//!    timeout, so a regression to blocking behavior fails fast).

use gfomc_arith::Rational;
use gfomc_engine::workload::{random_block_tid, random_query, SafetyTarget};
use gfomc_engine::{
    Budget, Engine, EvalRequest, Routed, SessionOp, SessionRequest, SessionResponse,
};
use gfomc_serve::{Client, Connection, Server, ServerHandle};
use gfomc_tid::Tuple;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn spawn(engine: Engine) -> ServerHandle {
    Server::bind(Arc::new(engine), "127.0.0.1:0")
        .expect("bind an ephemeral port")
        .spawn()
        .expect("spawn the accept loop")
}

fn open(handle: &ServerHandle) -> Connection {
    let conn = Connection::open(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    conn
}

/// A deterministic mixed workload: safe (lifted), small unsafe
/// (compiled), and zero-circuit-budget (sampled) requests, each with its
/// own seed so every answer is independently reproducible.
fn mixed_requests(seed: u64, n: usize) -> Vec<EvalRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let target = match i % 3 {
                0 => SafetyTarget::Safe,
                _ => SafetyTarget::Unsafe,
            };
            let q = random_query(&mut rng, 2, 3, target);
            let tid = random_block_tid(&mut rng, &q, 2, 2);
            let mut budget = Budget::default().with_seed(rng.gen::<u64>());
            if i % 3 == 2 {
                // Zero circuit budget pins the sampled route.
                budget = budget
                    .with_max_circuit_cost(0)
                    .with_samples(256)
                    .expect("positive sample budget");
            }
            EvalRequest::new(q, tid).with_budget(budget)
        })
        .collect()
}

#[test]
fn concurrent_wire_answers_are_bit_identical_to_serial_direct_calls() {
    let requests = mixed_requests(0xC0FFEE, 12);
    // Ground truth: one engine, serial, direct — no server involved.
    let oracle = Engine::new();
    let expected: Vec<String> = requests
        .iter()
        .map(|r| {
            oracle
                .evaluate_request(r)
                .expect("valid budget")
                .to_string()
        })
        .collect();

    let handle = spawn(Engine::new());
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let requests = requests.clone();
            let expected = expected.clone();
            let addr = handle.addr();
            std::thread::spawn(move || {
                let conn = Connection::open(addr).expect("connect");
                conn.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
                let mut conn = conn;
                // Each worker walks the whole workload in its own order.
                for i in (0..requests.len()).map(|i| (i + 3 * w) % requests.len()) {
                    let resp = conn
                        .request("POST", "/eval", &requests[i].to_string())
                        .expect("round trip");
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    assert_eq!(resp.body, expected[i], "request {i} on worker {w}");
                    // And the body parses back to a well-formed record.
                    resp.body.parse::<Routed>().expect("stable response text");
                }
            })
        })
        .collect();
    for t in workers {
        t.join().expect("worker thread");
    }
    handle.stop();
}

#[test]
fn pipelined_responses_arrive_in_request_order() {
    let requests = mixed_requests(0xBADC0DE, 6);
    let oracle = Engine::new();
    let expected: Vec<String> = requests
        .iter()
        .map(|r| {
            oracle
                .evaluate_request(r)
                .expect("valid budget")
                .to_string()
        })
        .collect();

    let handle = spawn(Engine::new());
    let mut conn = open(&handle);
    // Write every request before reading any response: the keep-alive
    // loop must answer them strictly in request order.
    for req in &requests {
        conn.send("POST", "/eval", &req.to_string()).expect("send");
    }
    for (i, want) in expected.iter().enumerate() {
        let resp = conn.read().expect("pipelined response");
        assert_eq!(resp.status, 200);
        assert_eq!(&resp.body, want, "response {i} out of order");
    }
    handle.stop();
}

#[test]
fn overload_is_an_explicit_429_with_retry_after_never_a_hang() {
    // Depth 1: a single held permit saturates the server.
    let handle = spawn(Engine::builder().max_queue_depth(1).build());
    let client = Client::new(handle.addr().to_string());
    let body = mixed_requests(7, 1)[0].to_string();

    let permit = handle.gate().try_admit().expect("take the only slot");
    let resp = client.post("/eval", &body).expect("round trip");
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert_eq!(resp.retry_after, Some(gfomc_serve::RETRY_AFTER_SECS));
    assert!(resp.body.contains("capacity"), "{}", resp.body);

    // Releasing the permit restores service on the same socket address.
    drop(permit);
    let resp = client.post("/eval", &body).expect("round trip");
    assert_eq!(resp.status, 200, "{}", resp.body);

    let stats = handle.gate().stats();
    assert_eq!(stats.rejected, 1);
    assert!(stats.admitted >= 1);
    handle.stop();
}

#[test]
fn zero_depth_server_rejects_every_eval() {
    let handle = spawn(Engine::builder().max_queue_depth(0).build());
    let client = Client::new(handle.addr().to_string());
    let body = mixed_requests(11, 1)[0].to_string();
    for _ in 0..3 {
        let resp = client.post("/eval", &body).expect("round trip");
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after, Some(gfomc_serve::RETRY_AFTER_SECS));
    }
    // Read-only endpoints stay reachable even with the gate shut.
    assert_eq!(client.get("/status").unwrap().status, 200);
    handle.stop();
}

#[test]
fn malformed_bodies_map_to_400_and_never_kill_the_server() {
    let handle = spawn(Engine::new());
    let mut conn = open(&handle);
    let cases = [
        "",
        "query ][\nleft 0\nright 1\n",
        "query R(x0) v S0(x0,y0) & S0(x0,y0) v T(y0)\nleft 0\nright 1\ndelta 2.0\n",
        "query R(x0) v S0(x0,y0) & S0(x0,y0) v T(y0)\nleft 0\nright 1\ntuple R(u9) 1/2\n",
        "utter nonsense\nmore nonsense\n",
        // A sample count above i64::MAX on a sampled route: a typed budget
        // error, not a panic in the sampler.
        "query [R(x0) v S0(x0,y0)] & [S0(x0,y0) v T(y0)]\nleft 0 1\nright 1000\n\
         tuple R(u0) 1/2\ntuple S0(u0,v1000) 3/8\ntuple T(v1000) 1/2\n\
         max_circuit_cost 0\nsamples 9223372036854775808\nseed 3405695742\n",
    ];
    for bad in cases {
        let resp = conn.request("POST", "/eval", bad).expect("round trip");
        assert_eq!(resp.status, 400, "{bad:?} -> {}", resp.body);
    }
    // Fuzz-ish: random bytes (valid UTF-8 by construction) over the same
    // keep-alive connection. Any panic would sever it.
    let mut rng = StdRng::seed_from_u64(0xF422);
    for _ in 0..50 {
        let len = rng.gen_range(0..200usize);
        let body: String = (0..len)
            .map(|_| char::from(rng.gen_range(32u8..127)))
            .collect();
        let resp = conn.request("POST", "/eval", &body).expect("round trip");
        assert_eq!(resp.status, 400, "{body:?}");
    }
    // The connection and the server both survived: a good request works.
    let good = mixed_requests(23, 1)[0].to_string();
    let resp = conn.request("POST", "/eval", &good).expect("round trip");
    assert_eq!(resp.status, 200, "{}", resp.body);
    handle.stop();
}

#[test]
fn introspection_endpoints_report_tenants_routes_and_errors() {
    let handle = spawn(Engine::new());
    let client = Client::new(handle.addr().to_string());

    // One tenant-labeled request, one anonymous.
    let reqs = mixed_requests(0xAB, 2);
    let labeled = reqs[0].clone().with_tenant("acme");
    assert_eq!(
        client.post("/eval", &labeled.to_string()).unwrap().status,
        200
    );
    assert_eq!(
        client.post("/eval", &reqs[1].to_string()).unwrap().status,
        200
    );

    let routes = client.get("/routes").unwrap();
    assert_eq!(routes.status, 200);
    assert!(routes.body.starts_with("total lifted "), "{}", routes.body);
    assert!(
        routes.body.contains("tenant acme lifted "),
        "{}",
        routes.body
    );

    let status = client.get("/status").unwrap();
    for key in [
        "queue_depth ",
        "queue_high_water ",
        "queue_max_depth ",
        "admitted ",
        "rejected ",
        "pool_threads ",
    ] {
        assert!(
            status.body.contains(key),
            "missing {key} in {}",
            status.body
        );
    }

    let cache = client.get("/cache").unwrap();
    for key in ["hits ", "misses ", "capacity "] {
        assert!(cache.body.contains(key), "missing {key} in {}", cache.body);
    }

    assert_eq!(client.get("/nowhere").unwrap().status, 404);
    assert_eq!(client.get("/eval").unwrap().status, 405);
    assert_eq!(client.post("/status", "").unwrap().status, 405);
    handle.stop();
}

#[test]
fn shared_engine_caches_across_connections() {
    // Two clients submitting the same compiled query: the second ride
    // hits the shared compilation cache.
    let handle = spawn(Engine::new());
    let mut reqs = mixed_requests(0x5EED5, 2);
    // Force both requests to be the same unsafe (compiled) instance.
    reqs[1] = reqs[0].clone();
    let unsafe_req = mixed_requests(0xC0, 2).remove(1); // i%3==1 -> unsafe, default budget
    for _ in 0..2 {
        let client = Client::new(handle.addr().to_string());
        let resp = client.post("/eval", &unsafe_req.to_string()).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let stats = handle.engine().cache_stats();
    assert!(
        stats.hits >= 1,
        "second submission should hit the cache: {stats:?}"
    );
    handle.stop();
}

#[test]
fn stop_drains_open_connections_and_joins_their_threads() {
    // A keep-alive client is still connected when the server stops: `stop`
    // closes its connection and returns only once the connection thread
    // (which holds a reference to the engine) has exited.
    let handle = spawn(Engine::new());
    let engine = handle.engine();
    let mut conn = open(&handle);
    let body = mixed_requests(0xD7A1, 1).remove(0).to_string();
    let resp = conn.request("POST", "/eval", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    handle.stop();
    assert_eq!(
        Arc::strong_count(&engine),
        1,
        "a server thread outlived stop"
    );
    assert!(
        conn.request("POST", "/eval", &body).is_err(),
        "the drained connection is closed"
    );
}

#[test]
fn metrics_and_slow_expose_the_request_telemetry() {
    // Zero slow threshold: every request lands in the slow log.
    let handle = spawn(Engine::builder().slow_threshold_nanos(0).build());
    let client = Client::new(handle.addr().to_string());

    let reqs = mixed_requests(0x0B5E, 3); // lifted, compiled, sampled
    for req in &reqs {
        let resp = client.post("/eval", &req.to_string()).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let body = &metrics.body;
    // Exposition is well-formed line by line: either a `# TYPE` header
    // or `name{labels} value`.
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut words = rest.split_whitespace();
            assert!(words.next().is_some(), "unnamed family: {line}");
            assert!(
                matches!(words.next(), Some("counter" | "gauge" | "histogram")),
                "bad family type: {line}"
            );
        } else {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty(), "{line}");
            assert!(value.parse::<u64>().is_ok(), "non-numeric sample: {line}");
        }
    }
    // The three requests produced nonzero per-route histograms whose
    // total count equals the requests sent.
    assert!(
        body.contains("# TYPE engine_request_nanos histogram"),
        "{body}"
    );
    for route in ["lifted", "compiled", "sampled"] {
        assert!(
            body.contains(&format!(
                "engine_request_nanos_count{{route=\"{route}\"}} 1"
            )),
            "missing {route} histogram in {body}"
        );
    }
    assert!(body.contains("engine_requests_total 3"), "{body}");
    // Gate and pool gauges ride along.
    assert!(body.contains("gate_queue_max_depth"), "{body}");
    assert!(body.contains("pool_threads"), "{body}");

    // `/status` renders the same registry: every plain key is a metric
    // family (or histogram derivation) of the exposition.
    let status = client.get("/status").unwrap().body;
    for line in status.lines() {
        let (name, _) = line.rsplit_once(' ').expect("key value line");
        let family = name
            .split('{')
            .next()
            .unwrap()
            .trim_end_matches(|c: char| c.is_ascii_digit())
            .trim_end_matches("_p")
            .trim_end_matches("_count")
            .trim_end_matches("_sum");
        assert!(
            body.contains(family),
            "status key {name} missing from /metrics"
        );
    }

    // The slow log holds all three traces.
    let slow = client.get("/slow").unwrap();
    assert_eq!(slow.status, 200);
    assert!(slow.body.starts_with("slowlog count 3 "), "{}", slow.body);
    for route in ["lifted", "compiled", "sampled"] {
        assert!(
            slow.body.contains(&format!("route {route}")),
            "{}",
            slow.body
        );
    }
    assert!(slow.body.contains("span route "), "{}", slow.body);
    assert!(slow.body.contains("total "), "{}", slow.body);

    assert_eq!(client.post("/metrics", "").unwrap().status, 405);
    assert_eq!(client.post("/slow", "").unwrap().status, 405);
    handle.stop();
}

#[test]
fn capacity_rejections_carry_machine_readable_depth() {
    let handle = spawn(Engine::builder().max_queue_depth(1).build());
    let client = Client::new(handle.addr().to_string());
    let body = mixed_requests(21, 1)[0].to_string();

    let _permit = handle.gate().try_admit().expect("take the only slot");
    let resp = client.post("/eval", &body).expect("round trip");
    assert_eq!(resp.status, 429);
    assert!(resp.body.contains("capacity"), "{}", resp.body);
    assert!(resp.body.contains("in_flight 1"), "{}", resp.body);
    assert!(resp.body.contains("max_depth 1"), "{}", resp.body);

    // The rejection is visible in the registry the next scrape.
    let metrics = client.get("/metrics").unwrap().body;
    assert!(metrics.contains("gate_rejected 1"), "{metrics}");
    handle.stop();
}

/// An unsafe (compiled-route) request with some uncertain tuples to
/// update, plus an update/explain op stream over its tuples.
fn session_fixture() -> (EvalRequest, Vec<SessionOp>) {
    let spec = mixed_requests(0x5E55, 2).remove(1); // i%3==1 -> unsafe, default budget
                                                    // The op stream targets the lineage's live support (deterministic
                                                    // slot order) — explicit tuples the grounding folded out would be
                                                    // typed UnknownTuple rejections, which other tests cover.
    let tuples: Vec<Tuple> = Engine::new().compile(&spec.query, &spec.tid).tuples();
    let mut ops: Vec<SessionOp> = tuples
        .iter()
        .enumerate()
        .map(|(i, &tuple)| SessionOp::Update {
            tuple,
            weight: Rational::from_ints(i as i64 + 1, tuples.len() as i64 + 2),
        })
        .collect();
    ops.push(SessionOp::Value);
    ops.push(SessionOp::ExplainTop { k: 3 });
    ops.push(SessionOp::WhatIf { tuple: tuples[0] });
    (spec, ops)
}

#[test]
fn session_lifecycle_over_the_wire_matches_in_process_replay() {
    let (spec, ops) = session_fixture();
    let handle = spawn(Engine::new());
    let mut conn = open(&handle);

    // Open (no ops yet), then drive the update stream and the explain
    // query through separate `session use` requests, then close — the
    // full lifecycle across several wire exchanges.
    let open_body = SessionRequest::Open {
        spec: Box::new(spec.clone()),
        ops: Vec::new(),
        close_after: false,
    }
    .to_string();
    let resp = conn.request("POST", "/session", &open_body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let opened: SessionResponse = resp.body.parse().expect("open response parses");
    let id = opened.id;

    let use_req = SessionRequest::Use {
        id,
        ops: ops.clone(),
        close_after: false,
    };
    let resp = conn
        .request("POST", "/session", &use_req.to_string())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let wire: SessionResponse = resp.body.parse().expect("use response parses");

    // In-process replay on a fresh engine: open, run the same ops — the
    // replies must be bit-identical (ids differ; fresh engines start
    // numbering at 1).
    let oracle = Engine::new();
    let oracle_id = oracle.open_session(&spec).unwrap();
    let direct = oracle
        .session_request(&SessionRequest::Use {
            id: oracle_id,
            ops,
            close_after: false,
        })
        .unwrap();
    assert_eq!(wire.replies, direct.replies, "wire diverged from replay");
    // And the wire body round-trips byte-identically.
    assert_eq!(
        resp.body.parse::<SessionResponse>().unwrap().to_string(),
        resp.body
    );

    let close_body = SessionRequest::Close { id }.to_string();
    let resp = conn.request("POST", "/session", &close_body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("closed"), "{}", resp.body);
    handle.stop();
}

#[test]
fn closed_and_unknown_session_ids_are_400s_never_a_dead_connection() {
    let (spec, _) = session_fixture();
    let handle = spawn(Engine::new());
    let mut conn = open(&handle);
    let open_close = SessionRequest::Open {
        spec: Box::new(spec.clone()),
        ops: vec![SessionOp::Value],
        close_after: true,
    };
    let resp = conn
        .request("POST", "/session", &open_close.to_string())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let closed_id = resp.body.parse::<SessionResponse>().unwrap().id;

    // The closed id, a never-allocated id, malformed bodies — all typed
    // 400s on the same keep-alive connection, which then still serves.
    for bad in [
        format!("session use {closed_id}\nvalue\n"),
        format!("session close {closed_id}\n"),
        "session use 999999\nvalue\n".to_string(),
        "session open\nvalue\n".to_string(), // no spec
        "value\n".to_string(),               // no header
        "session use 1\nexplain top 0\n".to_string(),
    ] {
        let resp = conn.request("POST", "/session", &bad).unwrap();
        assert_eq!(resp.status, 400, "{bad:?} -> {}", resp.body);
    }
    let resp = conn
        .request("POST", "/session", &open_close.to_string())
        .unwrap();
    assert_eq!(resp.status, 200, "connection survived: {}", resp.body);
    assert_eq!(conn.request("GET", "/session", "").unwrap().status, 405);
    handle.stop();
}

#[test]
fn tenant_session_cap_is_a_429_with_retry_after() {
    let (spec, _) = session_fixture();
    let handle = spawn(Engine::builder().max_sessions_per_tenant(1).build());
    let client = Client::new(handle.addr().to_string());
    let open = |tenant: &str| {
        SessionRequest::Open {
            spec: Box::new(spec.clone().with_tenant(tenant)),
            ops: Vec::new(),
            close_after: false,
        }
        .to_string()
    };
    let first = client.post("/session", &open("acme")).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    let second = client.post("/session", &open("acme")).unwrap();
    assert_eq!(second.status, 429, "{}", second.body);
    assert_eq!(second.retry_after, Some(gfomc_serve::RETRY_AFTER_SECS));
    assert!(second.body.contains("session cap"), "{}", second.body);
    // Another tenant is unaffected, and closing refunds the slot.
    assert_eq!(client.post("/session", &open("other")).unwrap().status, 200);
    let id = first.body.parse::<SessionResponse>().unwrap().id;
    let close = SessionRequest::Close { id }.to_string();
    assert_eq!(client.post("/session", &close).unwrap().status, 200);
    assert_eq!(client.post("/session", &open("acme")).unwrap().status, 200);
    handle.stop();
}

#[test]
fn session_metrics_reach_the_scrape_endpoints() {
    let (spec, ops) = session_fixture();
    let handle = spawn(Engine::new());
    let client = Client::new(handle.addr().to_string());
    let body = SessionRequest::Open {
        spec: Box::new(spec),
        ops,
        close_after: false,
    }
    .to_string();
    let resp = client.post("/session", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let metrics = client.get("/metrics").unwrap().body;
    assert!(metrics.contains("engine_update_nanos_count"), "{metrics}");
    assert!(metrics.contains("engine_explain_nanos_count"), "{metrics}");
    assert!(
        metrics.contains("engine_sessions_opened_total 1"),
        "{metrics}"
    );
    assert!(metrics.contains("engine_sessions_open 1"), "{metrics}");
    assert!(
        metrics.contains("engine_request_nanos_count{route=\"session\"} 1"),
        "{metrics}"
    );
    handle.stop();
}

#[test]
fn traced_wire_responses_round_trip_with_phases() {
    let handle = spawn(Engine::new());
    let client = Client::new(handle.addr().to_string());
    let req = mixed_requests(0x7ACE, 2).remove(1).with_trace(); // unsafe -> compiled
    let resp = client.post("/eval", &req.to_string()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let routed: Routed = resp.body.parse().expect("traced response parses");
    let trace = routed.trace.expect("trace requested");
    // The wire path always records the parse phase.
    assert!(trace.span("parse").is_some(), "{trace}");
    assert!(trace.span("route").is_some(), "{trace}");
    assert!(trace.total_nanos > 0);
    assert_eq!(trace.route.as_deref(), Some("compiled"));
    handle.stop();
}
