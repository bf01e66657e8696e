//! Session lifecycle integration suite: open → update stream → explain →
//! close, driven both in-process and through the wire grammar, with the
//! bit-identity and typed-error contracts the serving layer depends on.

use gfomc_arith::Rational;
use gfomc_engine::{
    Engine, EvalRequest, SessionError, SessionOp, SessionReply, SessionRequest, SessionResponse,
    SessionWireError, TupleWeights,
};
use gfomc_query::catalog;
use gfomc_tid::{Tid, Tuple};

fn r(n: i64, d: i64) -> Rational {
    Rational::from_ints(n, d)
}

fn small_request() -> EvalRequest {
    let q = catalog::h1();
    let mut tid = Tid::all_present([0, 1], [1000, 1001]);
    tid.set_prob(Tuple::R(0), r(1, 2));
    tid.set_prob(Tuple::R(1), r(1, 3));
    tid.set_prob(Tuple::S(0, 0, 1000), r(3, 8));
    tid.set_prob(Tuple::S(0, 1, 1001), r(2, 5));
    tid.set_prob(Tuple::T(1000), r(1, 2));
    tid.set_prob(Tuple::T(1001), r(5, 7));
    EvalRequest::new(q, tid)
}

/// A deterministic update stream touching every relation, with a repeat
/// (no-op) and a revert mixed in.
fn update_stream() -> Vec<(Tuple, Rational)> {
    vec![
        (Tuple::R(0), r(1, 3)),
        (Tuple::T(1000), r(9, 10)),
        (Tuple::R(0), r(1, 3)), // exact repeat: must re-price nothing
        (Tuple::S(0, 0, 1000), r(1, 16)),
        (Tuple::R(0), r(1, 2)), // revert to the database weight
        (Tuple::T(1001), r(0, 1)),
        (Tuple::S(0, 1, 1001), r(1, 1)),
    ]
}

/// After any update stream, the session's value is bit-identical to a
/// stateless `Compiled::evaluate` under the final weights — at every
/// intermediate step, not just the end.
#[test]
fn update_stream_matches_stateless_evaluation_stepwise() {
    let engine = Engine::new();
    let req = small_request();
    let compiled = engine.compile(&req.query, &req.tid);
    let id = engine.open_session(&req).unwrap();
    let mut overrides = TupleWeights::new();
    for (t, p) in update_stream() {
        let before = engine
            .with_session(id, |s| s.weight_of(t))
            .unwrap()
            .unwrap();
        let stats = engine
            .with_session(id, |s| s.update(t, p.clone()))
            .unwrap()
            .unwrap();
        if before == p {
            assert_eq!(stats.repriced, 0, "no-op update of {t} re-priced gates");
        }
        overrides.set(t, p);
        let live = engine.with_session(id, |s| s.value()).unwrap();
        assert_eq!(live, compiled.evaluate(&overrides), "after updating {t}");
    }
    engine.close_session(id).unwrap();
}

/// Gradients and rankings agree with a fresh session opened directly
/// under the final weights (the explain queries see exactly the updated
/// state, not stale caches).
#[test]
fn explanations_after_updates_match_fresh_session() {
    let engine = Engine::new();
    let req = small_request();
    let compiled = engine.compile(&req.query, &req.tid);
    let id = engine.open_session(&req).unwrap();
    let mut overrides = TupleWeights::new();
    for (t, p) in update_stream() {
        engine
            .with_session(id, |s| s.update(t, p.clone()))
            .unwrap()
            .unwrap();
        overrides.set(t, p);
    }
    let mut fresh = compiled.open_session(&overrides);
    let tuples = compiled.tuples();
    for &t in &tuples {
        let live = engine.with_session(id, |s| s.gradient(t)).unwrap().unwrap();
        assert_eq!(live, fresh.gradient(t).unwrap(), "gradient of {t}");
        let band = engine
            .with_session(id, |s| s.what_if_band(t))
            .unwrap()
            .unwrap();
        assert_eq!(band, fresh.what_if_band(t).unwrap(), "band of {t}");
    }
    let live_rank = engine
        .with_session(id, |s| s.top_k_influential(tuples.len()))
        .unwrap();
    assert_eq!(live_rank, fresh.top_k_influential(tuples.len()));
}

/// The full lifecycle over the wire grammar — open → N updates → explain
/// → close — is byte-identical to rendering the in-process replay of the
/// same request on a fresh engine.
#[test]
fn wire_lifecycle_is_byte_identical_to_in_process_replay() {
    let mut ops: Vec<SessionOp> = update_stream()
        .into_iter()
        .map(|(tuple, weight)| SessionOp::Update { tuple, weight })
        .collect();
    ops.push(SessionOp::Value);
    ops.push(SessionOp::ExplainTop { k: 4 });
    ops.push(SessionOp::Gradient { tuple: Tuple::R(0) });
    ops.push(SessionOp::WhatIf {
        tuple: Tuple::T(1000),
    });
    let req = SessionRequest::Open {
        spec: Box::new(small_request()),
        ops,
        close_after: true,
    };
    let wire = Engine::new().session_wire(&req.to_string()).unwrap();
    let direct = Engine::new().session_request(&req).unwrap();
    assert_eq!(wire, direct.to_string(), "wire body diverged from replay");
    // And the parsed response round-trips bit-identically.
    let parsed: SessionResponse = wire.parse().unwrap();
    assert_eq!(parsed, direct);
    assert_eq!(parsed.to_string(), wire);
}

/// A multi-request lifecycle: open once, then operate through separate
/// `session use` requests — state persists across requests, and the
/// close releases the id permanently.
#[test]
fn state_persists_across_use_requests_and_ids_are_never_reused() {
    let engine = Engine::new();
    let opened = engine
        .session_request(&SessionRequest::Open {
            spec: Box::new(small_request()),
            ops: Vec::new(),
            close_after: false,
        })
        .unwrap();
    let id = opened.id;
    engine
        .session_request(&SessionRequest::Use {
            id,
            ops: vec![SessionOp::Update {
                tuple: Tuple::R(0),
                weight: r(1, 5),
            }],
            close_after: false,
        })
        .unwrap();
    let resp = engine
        .session_request(&SessionRequest::Use {
            id,
            ops: vec![SessionOp::Value],
            close_after: false,
        })
        .unwrap();
    // The earlier request's update is visible: the value equals the
    // stateless evaluation under the override.
    let compiled = engine.compile(&small_request().query, &small_request().tid);
    let expected = compiled.evaluate(&TupleWeights::new().with(Tuple::R(0), r(1, 5)));
    assert_eq!(resp.replies, vec![SessionReply::Value(expected)]);
    engine
        .session_request(&SessionRequest::Close { id })
        .unwrap();
    // The id is gone for good — every later touch is the typed error.
    assert_eq!(
        engine.session_request(&SessionRequest::Close { id }),
        Err(SessionError::UnknownSession(id))
    );
    // A new open gets a fresh id, never the recycled one.
    let next = engine.open_session(&small_request()).unwrap();
    assert_ne!(next, id);
    assert!(next > id);
}

/// Closed and never-allocated ids produce the typed error through every
/// entry point — `session_request`, `session_wire` — never a panic.
#[test]
fn unknown_and_closed_ids_are_typed_errors_everywhere() {
    let engine = Engine::new();
    let id = engine.open_session(&small_request()).unwrap();
    engine.close_session(id).unwrap();
    for bad in [id, 424242] {
        assert_eq!(
            engine.session_request(&SessionRequest::Use {
                id: bad,
                ops: vec![SessionOp::Value],
                close_after: false,
            }),
            Err(SessionError::UnknownSession(bad))
        );
        assert_eq!(
            engine.session_wire(&format!("session use {bad}\nvalue\n")),
            Err(SessionWireError::Session(SessionError::UnknownSession(bad)))
        );
        assert_eq!(
            engine.session_wire(&format!("session close {bad}\n")),
            Err(SessionWireError::Session(SessionError::UnknownSession(bad)))
        );
    }
}

/// A failing op inside `session open` must not leak the just-opened
/// session: the client gets an error with no id, so an open session
/// would be unreachable and pin its cap slot until process restart.
#[test]
fn failed_open_ops_do_not_leak_sessions() {
    let engine = Engine::builder().max_sessions_per_tenant(1).build();
    let bad_open = SessionRequest::Open {
        spec: Box::new(small_request()),
        ops: vec![SessionOp::Update {
            tuple: Tuple::R(99), // not in the lineage: fails at run time
            weight: r(1, 2),
        }],
        close_after: false,
    };
    assert_eq!(
        engine.session_request(&bad_open),
        Err(SessionError::UnknownTuple(Tuple::R(99)))
    );
    assert_eq!(engine.session_count(), 0, "failed open leaked a session");
    // The cap slot was refunded: the next open still admits.
    let id = engine.open_session(&small_request()).unwrap();
    engine.close_session(id).unwrap();
}

/// `session use ... close` honours the close even when an op fails —
/// the request asked for teardown, and earlier updates staying applied
/// must not keep the session alive past it.
#[test]
fn use_with_close_after_closes_even_when_an_op_fails() {
    let engine = Engine::new();
    let id = engine.open_session(&small_request()).unwrap();
    assert_eq!(
        engine.session_request(&SessionRequest::Use {
            id,
            ops: vec![SessionOp::Update {
                tuple: Tuple::R(99),
                weight: r(1, 2),
            }],
            close_after: true,
        }),
        Err(SessionError::UnknownTuple(Tuple::R(99)))
    );
    assert_eq!(engine.session_count(), 0, "requested close was skipped");
    assert_eq!(
        engine.session_request(&SessionRequest::Close { id }),
        Err(SessionError::UnknownSession(id))
    );
}

/// Failed session requests are visible to observability: the request
/// counter, the `route=session` latency histogram, and the slow-query
/// log record errors, not just successes.
#[test]
fn failed_session_requests_are_observable() {
    let engine = Engine::new();
    assert!(engine
        .session_request(&SessionRequest::Close { id: 424242 })
        .is_err());
    let registry = engine.registry();
    assert_eq!(
        registry
            .histogram_snapshot("engine_request_nanos", &[("route", "session")])
            .expect("session request histogram")
            .count,
        1
    );
    assert_eq!(
        registry.counter_value("engine_session_requests_total", &[]),
        1
    );
}

/// Sessions are charged against the per-tenant admission cap, and a
/// close refunds the charge.
#[test]
fn tenant_cap_charges_and_refunds() {
    let engine = Engine::builder().max_sessions_per_tenant(1).build();
    let acme = small_request().with_tenant("acme");
    let id = engine.open_session(&acme).unwrap();
    assert_eq!(
        engine.open_session(&acme),
        Err(SessionError::Limit {
            tenant: "acme".into(),
            cap: 1
        })
    );
    engine.close_session(id).unwrap();
    // The refunded slot admits the next open.
    engine.open_session(&acme).unwrap();
}

/// A panic while a session is held (here: right after an update, before
/// the caller's closure returns) poisons it. The next operation closes
/// the session instead of serving its possibly half re-priced state: it
/// answers `Poisoned`, refunds the tenant-cap charge, and counts a close.
#[test]
fn poisoned_session_is_closed_not_reused() {
    let engine = Engine::builder().max_sessions_per_tenant(1).build();
    let acme = small_request().with_tenant("acme");
    let id = engine.open_session(&acme).unwrap();
    let open = engine.session_count();
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.with_session(id, |s| {
            s.update(Tuple::R(0), r(1, 3)).unwrap();
            panic!("injected failure mid-operation");
        })
    }));
    assert!(panicked.is_err());
    assert_eq!(engine.session_count(), open, "a panic alone closes nothing");
    assert_eq!(
        engine.with_session(id, |s| s.value()),
        Err(SessionError::Poisoned(id))
    );
    assert_eq!(engine.session_count(), open - 1);
    assert_eq!(
        engine
            .registry()
            .counter_value("engine_sessions_closed_total", &[]),
        1
    );
    // The session is gone for good, and its cap slot is free again.
    assert_eq!(
        engine.with_session(id, |s| s.value()),
        Err(SessionError::UnknownSession(id))
    );
    engine.open_session(&acme).unwrap();
}

/// Update and explain latencies land in the observability registry, and
/// the session gauge tracks the open count.
#[test]
fn session_phases_are_observable() {
    let engine = Engine::new();
    let req = SessionRequest::Open {
        spec: Box::new(small_request()),
        ops: vec![
            SessionOp::Update {
                tuple: Tuple::R(0),
                weight: r(1, 3),
            },
            SessionOp::Update {
                tuple: Tuple::T(1000),
                weight: r(2, 3),
            },
            SessionOp::ExplainTop { k: 2 },
        ],
        close_after: false,
    };
    let resp = engine.session_request(&req).unwrap();
    let registry = engine.registry();
    assert_eq!(
        registry
            .histogram_snapshot("engine_update_nanos", &[])
            .expect("update histogram")
            .count,
        2
    );
    assert_eq!(
        registry
            .histogram_snapshot("engine_explain_nanos", &[])
            .expect("explain histogram")
            .count,
        1
    );
    assert_eq!(
        registry
            .histogram_snapshot("engine_request_nanos", &[("route", "session")])
            .expect("session request histogram")
            .count,
        1
    );
    engine.refresh_gauges();
    let rendered = registry.render_plain();
    assert!(
        rendered.contains("engine_sessions_open 1"),
        "gauge missing from:\n{rendered}"
    );
    engine.close_session(resp.id).unwrap();
    engine.refresh_gauges();
    assert!(engine
        .registry()
        .render_plain()
        .contains("engine_sessions_open 0"));
}

/// Update replies report dirty-cone sizes strictly smaller than the
/// circuit when the change is localized — the incremental contract is
/// visible at the wire level, not just in the logic crate.
#[test]
fn update_replies_expose_dirty_cone_sizes() {
    let engine = Engine::new();
    let resp = engine
        .session_request(&SessionRequest::Open {
            spec: Box::new(small_request()),
            ops: vec![SessionOp::Update {
                tuple: Tuple::S(0, 0, 1000),
                weight: r(1, 9),
            }],
            close_after: true,
        })
        .unwrap();
    let [SessionReply::Updated { repriced, of, .. }] = resp.replies.as_slice() else {
        panic!("expected exactly one update reply, got {:?}", resp.replies);
    };
    assert!(*repriced > 0, "a real update must re-price something");
    assert!(of > repriced, "dirty cone covered the whole circuit");
}

/// The h1 query over a 2×2 block, every tuple at ½ — the paper's
/// generalized model counting weights.
const H1_BLOCK: &str = "\
query [R(x0) v S0(x0,y0)] & [S0(x0,y0) v T(y0)]
left 0 1
right 1000 1001
tuple R(u0) 1/2
tuple R(u1) 1/2
tuple S0(u0,v1000) 1/2
tuple S0(u0,v1001) 1/2
tuple S0(u1,v1000) 1/2
tuple S0(u1,v1001) 1/2
tuple T(v1000) 1/2
tuple T(v1001) 1/2
";

/// Golden session replies: fixed bodies through [`Engine::session_wire`]
/// on a fresh engine, compared byte for byte — values, gradients and the
/// `repriced N of M` dirty-cone sizes included. The `repriced` counts are
/// an implementation detail of incremental re-pricing, so no
/// build-against-itself check (the load benchmark's twin engine,
/// `gfomc-cli check`) notices when they drift; this test does.
#[test]
fn golden_session_replies_are_pinned_byte_for_byte() {
    let engine = Engine::new();
    let bodies = [
        // Updates to 0, 1 and ⅓, a repeated no-op, then a revert to ½.
        format!(
            "session open\n{H1_BLOCK}update R(u0) 0\nupdate T(v1000) 1\n\
             update S0(u1,v1001) 1/3\nupdate S0(u1,v1001) 1/3\nvalue\n\
             update R(u0) 1/2\nvalue\nexplain top 3\n"
        ),
        // The same session, driven by a later request.
        "session use 1\nupdate S0(u0,v1000) 0\nupdate R(u1) 1\nupdate R(u1) 1\n\
         gradient T(v1001)\nwhatif S0(u1,v1000)\nvalue\nsession close\n"
            .to_string(),
        // A second session whose first update hits a deterministic weight.
        format!(
            "session open\n{H1_BLOCK}update T(v1001) 0\nupdate T(v1001) 0\n\
             update S0(u1,v1000) 1/3\nvalue\nsession close\n"
        ),
    ];
    let replies: Vec<String> = bodies
        .iter()
        .map(|b| engine.session_wire(b).unwrap())
        .collect();
    let expected = [
        "session 1\n\
         updated R(u0) 0 repriced 1 of 24\n\
         updated T(v1000) 1 repriced 11 of 24\n\
         updated S0(u1,v1001) 1/3 repriced 12 of 24\n\
         updated S0(u1,v1001) 1/3 repriced 0 of 24\n\
         value 5/48\n\
         updated R(u0) 1/2 repriced 1 of 24\n\
         value 11/48\n\
         influence 1 R(u1) 7/24\n\
         influence 2 T(v1001) 13/48\n\
         influence 3 R(u0) 1/4\n",
        "session 1\n\
         updated S0(u0,v1000) 0 repriced 6 of 24\n\
         updated R(u1) 1 repriced 4 of 24\n\
         updated R(u1) 1 repriced 0 of 24\n\
         gradient T(v1001) 5/12\n\
         whatif S0(u1,v1000) 7/24 7/24\n\
         value 7/24\n\
         closed\n",
        "session 2\n\
         updated T(v1001) 0 repriced 11 of 24\n\
         updated T(v1001) 0 repriced 0 of 24\n\
         updated S0(u1,v1000) 1/3 repriced 12 of 24\n\
         value 1/12\n\
         closed\n",
    ];
    assert_eq!(replies, expected);
}
