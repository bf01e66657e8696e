//! Observation must be passive: enabling tracing, metrics, and the slow
//! log cannot change a single result bit.
//!
//! The contracts under test:
//!
//! * **traced ≡ untraced** — for a mixed workload (lifted / compiled /
//!   sampled routes), the wire text of a trace-carrying response with its
//!   `trace ` lines stripped is byte-identical to the untraced response
//!   of a fresh engine, and the parsed values agree field-for-field;
//! * **concurrent hammer** — 8 OS threads driving traced requests
//!   through one fully instrumented engine (zero slow-log threshold, so
//!   every request is recorded) still produce bit-identical results.

use gfomc_engine::workload::{random_block_tid, random_query, SafetyTarget};
use gfomc_engine::{Budget, Engine, EvalRequest, Routed};
use gfomc_query::BipartiteQuery;
use gfomc_tid::Tid;
use rand::{rngs::StdRng, SeedableRng};

/// A mixed workload of safe and unsafe queries.
fn mixed_workload(seed: u64, n: usize) -> Vec<(BipartiteQuery, Tid)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let target = match i % 3 {
                0 => SafetyTarget::Safe,
                _ => SafetyTarget::Unsafe,
            };
            let q = random_query(&mut rng, 2, 2, target);
            let tid = random_block_tid(&mut rng, &q, 2, 2);
            (q, tid)
        })
        .collect()
}

/// A budget that exercises the sampled route on every third query (the
/// cost cap rejects all but the smallest lineages).
fn tight_budget() -> Budget {
    Budget::default()
        .with_max_circuit_cost(64)
        .with_samples(512)
        .expect("positive sample budget")
}

/// The response text with its `trace ` lines removed — what an untraced
/// request would have produced if tracing is truly passive.
fn strip_trace(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("trace "))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn traced_responses_are_byte_identical_to_untraced() {
    let workload = mixed_workload(0x0B5, 9);
    let budget = tight_budget();
    let traced_engine = Engine::builder()
        .slow_threshold_nanos(0)
        .slow_capacity(16)
        .build();
    let plain_engine = Engine::new();
    for (q, tid) in &workload {
        let traced_req = EvalRequest::new(q.clone(), tid.clone())
            .with_budget(budget.clone())
            .with_trace();
        let plain_req = EvalRequest::new(q.clone(), tid.clone()).with_budget(budget.clone());
        let traced = traced_engine
            .evaluate_wire(&traced_req.to_string())
            .unwrap();
        let plain = plain_engine.evaluate_wire(&plain_req.to_string()).unwrap();
        assert_eq!(strip_trace(&traced), plain);
        // The trace itself is present and parses back.
        let parsed: Routed = traced.parse().unwrap();
        assert!(parsed.trace.is_some());
    }
    // Zero threshold: every request landed in the slow log (ring-capped).
    assert_eq!(traced_engine.slow_log().len(), workload.len());
    // The latency histograms conserve the request count.
    let total: u64 = traced_engine
        .registry()
        .histograms_named("engine_request_nanos")
        .iter()
        .map(|(_, snap)| snap.count)
        .sum();
    assert_eq!(total, workload.len() as u64);
}

#[test]
fn concurrent_traced_hammer_is_bit_identical_to_serial() {
    const THREADS: usize = 8;
    let workload = mixed_workload(0xFACE, 12);
    let budget = tight_budget();
    // Serial reference on an engine with telemetry at defaults.
    let reference: Vec<String> = {
        let engine = Engine::new();
        workload
            .iter()
            .map(|(q, tid)| {
                let req = EvalRequest::new(q.clone(), tid.clone()).with_budget(budget.clone());
                engine.evaluate_wire(&req.to_string()).unwrap()
            })
            .collect()
    };
    // Hammer: every thread runs the whole workload with tracing on,
    // against one shared engine recording every request.
    let engine = Engine::builder()
        .slow_threshold_nanos(0)
        .slow_capacity(THREADS * workload.len())
        .build();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for (i, (q, tid)) in workload.iter().enumerate() {
                    let req = EvalRequest::new(q.clone(), tid.clone())
                        .with_budget(budget.clone())
                        .with_trace();
                    let got = engine.evaluate_wire(&req.to_string()).unwrap();
                    assert_eq!(strip_trace(&got), reference[i]);
                }
            });
        }
    });
    // Every one of the THREADS × workload requests was observed.
    let n = (THREADS * workload.len()) as u64;
    assert_eq!(
        engine
            .registry()
            .counter_value("engine_requests_total", &[]),
        n
    );
    assert_eq!(engine.slow_log().len(), n as usize);
    let total: u64 = engine
        .registry()
        .histograms_named("engine_request_nanos")
        .iter()
        .map(|(_, snap)| snap.count)
        .sum();
    assert_eq!(total, n);
}
