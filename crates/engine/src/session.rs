//! Stateful evaluation sessions: incremental re-pricing, derivative and
//! explanation queries, and the session wire grammar.
//!
//! [`Compiled`] is stateless — every [`Compiled::evaluate`] call prices
//! the whole circuit from a weight assignment and discards the interior.
//! A [`Session`] keeps the interior: it wraps one
//! [`PricedCircuit`] (persisted per-gate exact values) plus the
//! tuple ↔ variable table of the grounding, so
//! repeated interactions with one compiled query pay only for what
//! actually changed:
//!
//! * [`Session::update`] re-prices the dirty cone of one tuple's weight
//!   change ([`PricedCircuit::update_weight`]) — bit-identical to a full
//!   re-evaluation, usually touching a small fraction of the gates;
//! * [`Session::gradient`] / [`Session::top_k_influential`] /
//!   [`Session::what_if_band`] answer *explanation* queries from one
//!   downward derivative pass ([`PricedCircuit::gradients`]): `∂Pr/∂p_t`
//!   for every uncertain tuple at once, exact by multilinearity, cached
//!   until the next effective update.
//!
//! The engine layers lifecycle management on top:
//! [`Engine::open_session`] admission-gates the compile cost against the
//! request budget and charges the open session against a per-tenant cap
//! ([`crate::EngineBuilder::max_sessions_per_tenant`]);
//! [`Engine::session_request`] runs a batch of session operations with
//! per-phase observability (`engine_update_nanos` /
//! `engine_explain_nanos` histograms, `open`/`update`/`explain` trace
//! spans, the slow-query log); [`Engine::session_wire`] is the parse →
//! run → render pipeline a network handler needs, with every failure a
//! typed error — never a panic.
//!
//! ## Session wire grammar
//!
//! Line-oriented like the [`EvalRequest`] body; blank lines and `#`
//! comments are skipped. The first line is a header:
//!
//! ```text
//! session open              # compile + price a new session…
//! query  [R(x0) v S0(x0,y0)] & [S0(x0,y0) v T(y0)]
//! left   0 1                # …from an interleaved EvalRequest spec
//! right  1000
//! tuple  R(u0) 1/2
//! update R(u0) 1/3          # then any number of session operations
//! value
//! explain top 2
//! gradient R(u0)
//! whatif R(u0)
//! session close             # optional trailing line: close when done
//! ```
//!
//! ```text
//! session use 3             # operate on an already-open session
//! update T(v1000) 2/3
//! value
//! ```
//!
//! ```text
//! session close 3           # just close it
//! ```
//!
//! The response echoes the session id, one line per operation, and a
//! final `closed` marker when the session was closed — all of it
//! round-tripping through [`SessionResponse`]'s
//! [`FromStr`]/[`fmt::Display`] pair bit-identically, so a client
//! parsing the body holds exactly what an in-process caller would.

use crate::api::{keyword, parse_prob, parse_tuple, token};
use crate::router::BudgetError;
use crate::{
    Admission, Compiled, Engine, EvalRequest, RequestParseError, ResponseParseError, TupleWeights,
};
use gfomc_arith::Rational;
use gfomc_logic::{PricedCircuit, UpdateStats};
use gfomc_obs::Trace;
use gfomc_tid::{lineage, Tuple, VarTable};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Everything a session operation can reject — all typed, so the serving
/// layer maps them to 4xx responses instead of panicking a worker.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// No open session has this id (never allocated, or already closed —
    /// ids are never reused, so a closed id stays unknown forever).
    UnknownSession(u64),
    /// The tuple is not an uncertain tuple of this session's lineage.
    UnknownTuple(Tuple),
    /// The proposed weight is outside `[0, 1]`.
    InvalidWeight {
        /// The tuple the update targeted.
        tuple: Tuple,
        /// The rejected weight.
        weight: Rational,
    },
    /// The tenant already holds its cap of open sessions.
    Limit {
        /// The tenant label (`anonymous` for unlabeled requests).
        tenant: String,
        /// The per-tenant cap the open would have exceeded.
        cap: usize,
    },
    /// The estimated compile cost exceeds the request's circuit budget.
    Cost {
        /// The a-priori node estimate of the lineage.
        estimated: u64,
        /// The request's `max_circuit_cost` ceiling.
        cap: u64,
    },
    /// An earlier operation panicked while holding the session, so its
    /// priced state may be half updated. The session was closed (its
    /// tenant-cap charge refunded) instead of being served again.
    Poisoned(u64),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownSession(id) => write!(f, "unknown session {id}"),
            SessionError::UnknownTuple(t) => {
                write!(f, "tuple {t} is not uncertain in this session's lineage")
            }
            SessionError::InvalidWeight { tuple, weight } => {
                write!(f, "weight {weight} for {tuple} outside [0, 1]")
            }
            SessionError::Limit { tenant, cap } => {
                write!(f, "tenant '{tenant}' at its open-session cap ({cap})")
            }
            SessionError::Cost { estimated, cap } => {
                write!(
                    f,
                    "estimated circuit cost {estimated} exceeds the session budget {cap}"
                )
            }
            SessionError::Poisoned(id) => {
                write!(
                    f,
                    "session {id} closed: an earlier operation on it panicked"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

// ---------------------------------------------------------------------
// Session: one priced circuit plus tuple-name resolution.
// ---------------------------------------------------------------------

/// One stateful evaluation session: a [`PricedCircuit`] held live, with
/// tuple-level naming on top. Obtained from [`Compiled::open_session`]
/// (in-process) or [`Engine::open_session`] (id-managed).
#[derive(Clone, Debug)]
pub struct Session {
    priced: PricedCircuit,
    vars: VarTable,
    /// The circuit's distinct tuples, in slot order.
    tuples: Vec<Tuple>,
    /// Weights accepted for uncertain tuples the CNF minimizer folded
    /// out of the circuit: `Pr` provably does not depend on them, so
    /// updates are value-preserving no-ops, but the session still
    /// remembers the weight it was told.
    off_circuit: HashMap<Tuple, Rational>,
    /// The downward derivative pass, cached until an effective update.
    grads: Option<Vec<Rational>>,
}

impl Compiled {
    /// Opens a stateful session on this compiled query: prices the
    /// circuit once under `weights` (overrides on top of the database
    /// probabilities, exactly like [`Compiled::evaluate`]) and persists
    /// the full valuation for incremental re-pricing and explanation
    /// queries. The circuit itself is shared (`Arc`), not copied.
    pub fn open_session(&self, weights: &TupleWeights) -> Session {
        let slot_weights: Vec<Rational> = self
            .circuit
            .vars()
            .iter()
            .map(|&v| {
                weights
                    .get(&self.vars.tuple_of(v))
                    .cloned()
                    .unwrap_or_else(|| self.vars.weight(v).clone())
            })
            .collect();
        let tuples = self
            .circuit
            .vars()
            .iter()
            .map(|&v| self.vars.tuple_of(v))
            .collect();
        Session {
            priced: PricedCircuit::new(Arc::clone(&self.circuit), &slot_weights),
            vars: self.vars.clone(),
            tuples,
            off_circuit: HashMap::new(),
            grads: None,
        }
    }
}

impl Session {
    /// Resolves a tuple to its circuit slot. `Ok(None)` for an uncertain
    /// tuple the circuit provably does not depend on.
    fn slot(&self, t: Tuple) -> Result<Option<u32>, SessionError> {
        let v = self.vars.lookup(&t).ok_or(SessionError::UnknownTuple(t))?;
        Ok(self.priced.slot_of(v))
    }

    /// Sets `t`'s probability to `p`, incrementally re-pricing only the
    /// ancestors of `t`'s gates. The resulting state is bit-identical to
    /// a fresh session opened under the updated weights.
    pub fn update(&mut self, t: Tuple, p: Rational) -> Result<UpdateStats, SessionError> {
        if !p.is_probability() {
            return Err(SessionError::InvalidWeight {
                tuple: t,
                weight: p,
            });
        }
        match self.slot(t)? {
            Some(slot) => {
                let stats = self.priced.update_weight(slot, p);
                if stats.repriced > 0 {
                    self.grads = None;
                }
                Ok(stats)
            }
            None => {
                self.off_circuit.insert(t, p);
                Ok(UpdateStats {
                    repriced: 0,
                    full_pass: false,
                })
            }
        }
    }

    /// `Pr(Q)` under the current weights — a read of the persisted root.
    pub fn value(&self) -> Rational {
        self.priced.value()
    }

    /// Gate count of the underlying circuit (the `of` denominator in
    /// update replies: how much a full re-evaluation would touch).
    pub fn gate_count(&self) -> usize {
        self.priced.gate_count()
    }

    /// The uncertain tuples the circuit actually depends on, slot order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The current weight of an uncertain tuple.
    pub fn weight_of(&self, t: Tuple) -> Result<Rational, SessionError> {
        match self.slot(t)? {
            Some(slot) => Ok(self.priced.weight(slot).clone()),
            None => Ok(self
                .off_circuit
                .get(&t)
                .cloned()
                .unwrap_or_else(|| self.vars.weight(self.vars.lookup(&t).unwrap()).clone())),
        }
    }

    fn ensure_grads(&mut self) -> &[Rational] {
        if self.grads.is_none() {
            self.grads = Some(self.priced.gradients());
        }
        self.grads.as_deref().unwrap()
    }

    /// `∂Pr/∂p_t` at the current weights, exact. Zero for a tuple the
    /// circuit does not depend on.
    pub fn gradient(&mut self, t: Tuple) -> Result<Rational, SessionError> {
        match self.slot(t)? {
            Some(slot) => {
                let si = slot as usize;
                Ok(self.ensure_grads()[si].clone())
            }
            None => Ok(Rational::zero()),
        }
    }

    /// The `k` most influential tuples: largest `|∂Pr/∂p_t|` first, ties
    /// broken by tuple order so the ranking is deterministic.
    pub fn top_k_influential(&mut self, k: usize) -> Vec<(Tuple, Rational)> {
        self.ensure_grads();
        let grads = self.grads.as_deref().unwrap();
        let mut ranked: Vec<(Tuple, Rational)> = self
            .tuples
            .iter()
            .zip(grads.iter())
            .map(|(&t, g)| (t, g.clone()))
            .collect();
        ranked.sort_by(|a, b| b.1.abs().cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// The exact range `Pr` can take as `t`'s weight sweeps `[0, 1]`
    /// with everything else fixed: by multilinearity that range is the
    /// segment between `Pr|p_t=0 = v − p·g` and `Pr|p_t=1 = v + (1−p)·g`,
    /// returned as `(min, max)`. For a tuple the circuit does not depend
    /// on, the band collapses to the current value.
    pub fn what_if_band(&mut self, t: Tuple) -> Result<(Rational, Rational), SessionError> {
        let v = self.value();
        match self.slot(t)? {
            Some(slot) => {
                let p = self.priced.weight(slot).clone();
                let si = slot as usize;
                let g = self.ensure_grads()[si].clone();
                let at0 = &v - &(&p * &g);
                let at1 = &at0 + &g;
                Ok(if at0 <= at1 { (at0, at1) } else { (at1, at0) })
            }
            None => Ok((v.clone(), v)),
        }
    }
}

// ---------------------------------------------------------------------
// Engine-level session management.
// ---------------------------------------------------------------------

/// One registry entry: the owning tenant (for the per-tenant cap) and
/// the individually locked session, so holding the registry lock never
/// overlaps session work.
#[derive(Debug)]
pub(crate) struct SessionSlot {
    pub(crate) tenant: Option<String>,
    pub(crate) inner: Arc<Mutex<Session>>,
}

/// The display name unlabeled sessions are accounted under.
const ANONYMOUS: &str = "anonymous";

impl Engine {
    /// Poison-tolerant registry lock, for the same reason as the cache
    /// shards: one panicking session must not wedge the whole registry.
    fn lock_sessions(&self) -> MutexGuard<'_, HashMap<u64, SessionSlot>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a session for `req`: charges the session against the
    /// tenant's open-session cap, admits the lineage under
    /// `req.budget.max_circuit_cost` exactly as the router does (cache
    /// first: a resident lineage reuses the estimate stored with its
    /// circuit, anything else is estimated and then compiled), prices it
    /// under the database probabilities, and returns the new session's
    /// id.
    pub fn open_session(&self, req: &EvalRequest) -> Result<u64, SessionError> {
        let cap = self.max_sessions_per_tenant;
        let over_cap = |sessions: &HashMap<u64, SessionSlot>| {
            sessions.values().filter(|s| s.tenant == req.tenant).count() >= cap
        };
        let limit = || SessionError::Limit {
            tenant: req.tenant.clone().unwrap_or_else(|| ANONYMOUS.into()),
            cap,
        };
        // Cheap pre-check so an over-cap tenant cannot force compiles.
        if over_cap(&self.lock_sessions()) {
            return Err(limit());
        }
        let max_cost = req.budget.max_circuit_cost;
        let compiled = match self.admit(lineage(&req.query, &req.tid), max_cost, || {}) {
            Admission::Resident(compiled, _) | Admission::CompiledNow(compiled, _) => compiled,
            Admission::OverBudget(cost, _) => {
                return Err(SessionError::Cost {
                    estimated: cost.estimated_nodes,
                    cap: max_cost,
                })
            }
        };
        let session = compiled.open_session(&TupleWeights::new());
        let mut sessions = self.lock_sessions();
        // Re-check under the lock: a racing open may have filled the cap
        // while we compiled.
        if over_cap(&sessions) {
            return Err(limit());
        }
        let id = self.session_ids.fetch_add(1, Ordering::Relaxed) + 1;
        sessions.insert(
            id,
            SessionSlot {
                tenant: req.tenant.clone(),
                inner: Arc::new(Mutex::new(session)),
            },
        );
        drop(sessions);
        self.registry()
            .counter("engine_sessions_opened_total", &[])
            .inc();
        Ok(id)
    }

    /// Closes a session, releasing its tenant-cap charge. Closing an
    /// unknown (or already-closed) id is a typed error.
    pub fn close_session(&self, id: u64) -> Result<(), SessionError> {
        self.lock_sessions()
            .remove(&id)
            .ok_or(SessionError::UnknownSession(id))?;
        self.registry()
            .counter("engine_sessions_closed_total", &[])
            .inc();
        Ok(())
    }

    /// Runs `f` on the session `id`, holding only that session's lock.
    ///
    /// A session whose lock was poisoned (an earlier `f` panicked while
    /// holding it, e.g. in the middle of an update) may hold a half
    /// re-priced circuit, so it is never served again: it is closed —
    /// refunding its tenant-cap charge — and the call answers
    /// [`SessionError::Poisoned`].
    pub fn with_session<R>(
        &self,
        id: u64,
        f: impl FnOnce(&mut Session) -> R,
    ) -> Result<R, SessionError> {
        let slot = self
            .lock_sessions()
            .get(&id)
            .map(|s| Arc::clone(&s.inner))
            .ok_or(SessionError::UnknownSession(id))?;
        let Ok(mut session) = slot.lock() else {
            // A racing caller may have closed it already; either way it
            // is gone, and the close is counted once.
            let _ = self.close_session(id);
            return Err(SessionError::Poisoned(id));
        };
        Ok(f(&mut session))
    }

    /// Number of currently open sessions (all tenants).
    pub fn session_count(&self) -> usize {
        self.lock_sessions().len()
    }

    /// Runs one batch of operations against session `id` under a single
    /// session lock (the op stream is atomic with respect to other
    /// callers of the same session). Per-op latencies land in the
    /// `engine_update_nanos` / `engine_explain_nanos` histograms; the
    /// summed phase times go to `tr` as `update` / `explain` spans.
    ///
    /// Ops apply in order; a failing op aborts the remainder but earlier
    /// updates stay applied — the session is stateful by design. (A
    /// `close` trailer in the wire body is still honoured on failure:
    /// see [`Engine::session_request`].)
    fn run_ops(
        &self,
        id: u64,
        ops: &[SessionOp],
        tr: &mut Trace,
    ) -> Result<Vec<SessionReply>, SessionError> {
        let registry = Arc::clone(self.registry());
        let mut update_nanos = 0u64;
        let mut explain_nanos = 0u64;
        let replies = self.with_session(id, |s| -> Result<Vec<SessionReply>, SessionError> {
            let mut replies = Vec::with_capacity(ops.len());
            for op in ops {
                match op {
                    SessionOp::Update { tuple, weight } => {
                        let t0 = Instant::now();
                        let stats = s.update(*tuple, weight.clone())?;
                        let nanos = t0.elapsed().as_nanos() as u64;
                        update_nanos += nanos;
                        registry.histogram("engine_update_nanos", &[]).record(nanos);
                        replies.push(SessionReply::Updated {
                            tuple: *tuple,
                            weight: weight.clone(),
                            repriced: stats.repriced,
                            of: s.gate_count(),
                        });
                    }
                    SessionOp::Value => replies.push(SessionReply::Value(s.value())),
                    SessionOp::ExplainTop { k } => {
                        let t0 = Instant::now();
                        let ranked = s.top_k_influential(*k);
                        let nanos = t0.elapsed().as_nanos() as u64;
                        explain_nanos += nanos;
                        registry
                            .histogram("engine_explain_nanos", &[])
                            .record(nanos);
                        replies.push(SessionReply::Influence(ranked));
                    }
                    SessionOp::Gradient { tuple } => {
                        let t0 = Instant::now();
                        let g = s.gradient(*tuple)?;
                        let nanos = t0.elapsed().as_nanos() as u64;
                        explain_nanos += nanos;
                        registry
                            .histogram("engine_explain_nanos", &[])
                            .record(nanos);
                        replies.push(SessionReply::Gradient {
                            tuple: *tuple,
                            gradient: g,
                        });
                    }
                    SessionOp::WhatIf { tuple } => {
                        let t0 = Instant::now();
                        let (lo, hi) = s.what_if_band(*tuple)?;
                        let nanos = t0.elapsed().as_nanos() as u64;
                        explain_nanos += nanos;
                        registry
                            .histogram("engine_explain_nanos", &[])
                            .record(nanos);
                        replies.push(SessionReply::WhatIf {
                            tuple: *tuple,
                            lo,
                            hi,
                        });
                    }
                }
            }
            Ok(replies)
        })??;
        if update_nanos > 0 {
            tr.push_span("update", update_nanos);
        }
        if explain_nanos > 0 {
            tr.push_span("explain", explain_nanos);
        }
        Ok(replies)
    }

    /// The typed session front door: open / operate-on / close sessions
    /// with the same per-request observability as
    /// [`Engine::evaluate_request`] — a `session`-routed entry in the
    /// request-latency histogram and the slow-query log, with `open` /
    /// `update` / `explain` phase spans. Every request is counted and
    /// timed, including the ones that fail.
    pub fn session_request(&self, req: &SessionRequest) -> Result<SessionResponse, SessionError> {
        let start = Instant::now();
        let mut tr = Trace::new();
        tr.route = Some("session".into());
        let result = self.session_request_traced(req, &mut tr);
        tr.total_nanos = start.elapsed().as_nanos() as u64;
        let registry = self.registry();
        registry.counter("engine_session_requests_total", &[]).inc();
        registry
            .histogram("engine_request_nanos", &[("route", "session")])
            .record(tr.total_nanos);
        self.slow_log().record(&tr);
        result
    }

    fn session_request_traced(
        &self,
        req: &SessionRequest,
        tr: &mut Trace,
    ) -> Result<SessionResponse, SessionError> {
        match req {
            SessionRequest::Close { id } => {
                self.close_session(*id)?;
                Ok(SessionResponse {
                    id: *id,
                    replies: Vec::new(),
                    closed: true,
                })
            }
            SessionRequest::Open {
                spec,
                ops,
                close_after,
            } => {
                let t0 = Instant::now();
                let id = self.open_session(spec)?;
                tr.push_span("open", t0.elapsed().as_nanos() as u64);
                // On any failure past this point the client gets an error
                // with no session id, so an open session would be
                // unreachable and hold a cap slot until process restart —
                // tear it down before propagating.
                let replies = match self.run_ops(id, ops, tr) {
                    Ok(replies) => replies,
                    Err(e) => {
                        let _ = self.close_session(id);
                        return Err(e);
                    }
                };
                if *close_after {
                    self.close_session(id)?;
                }
                Ok(SessionResponse {
                    id,
                    replies,
                    closed: *close_after,
                })
            }
            SessionRequest::Use {
                id,
                ops,
                close_after,
            } => {
                let ops_result = self.run_ops(*id, ops, tr);
                if *close_after {
                    // The request asked for the close; honour it even when
                    // an op failed. The close is best-effort on the error
                    // path (the op error is the one the client needs —
                    // e.g. an unknown id would fail both identically).
                    match &ops_result {
                        Ok(_) => self.close_session(*id)?,
                        Err(_) => {
                            let _ = self.close_session(*id);
                        }
                    }
                }
                Ok(SessionResponse {
                    id: *id,
                    replies: ops_result?,
                    closed: *close_after,
                })
            }
        }
    }

    /// The complete session wire pipeline: parse `body` as a
    /// [`SessionRequest`], validate the spec budget, run it, and render
    /// the [`SessionResponse`] to the exact text the server sends back.
    /// Every failure is a typed [`SessionWireError`], never a panic.
    pub fn session_wire(&self, body: &str) -> Result<String, SessionWireError> {
        let req: SessionRequest = body.parse().map_err(SessionWireError::Parse)?;
        if let SessionRequest::Open { spec, .. } = &req {
            spec.budget.validate().map_err(SessionWireError::Budget)?;
        }
        let resp = self
            .session_request(&req)
            .map_err(SessionWireError::Session)?;
        Ok(resp.to_string())
    }
}

// ---------------------------------------------------------------------
// The session wire grammar.
// ---------------------------------------------------------------------

/// One session operation (an op line of the wire grammar).
#[derive(Clone, Debug, PartialEq)]
pub enum SessionOp {
    /// `update <tuple> <probability>` — set one tuple's weight.
    Update {
        /// The tuple whose weight changes.
        tuple: Tuple,
        /// The new probability.
        weight: Rational,
    },
    /// `value` — read the current exact `Pr(Q)`.
    Value,
    /// `explain top <k>` — the `k` most influential tuples by `|∂Pr/∂p|`.
    ExplainTop {
        /// How many tuples to rank (`≥ 1`, enforced at parse time).
        k: usize,
    },
    /// `gradient <tuple>` — the exact `∂Pr/∂p_t`.
    Gradient {
        /// The tuple to differentiate by.
        tuple: Tuple,
    },
    /// `whatif <tuple>` — the exact range of `Pr` over the tuple's
    /// weight sweep.
    WhatIf {
        /// The tuple to sweep.
        tuple: Tuple,
    },
}

impl fmt::Display for SessionOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionOp::Update { tuple, weight } => write!(f, "update {tuple} {weight}"),
            SessionOp::Value => f.write_str("value"),
            SessionOp::ExplainTop { k } => write!(f, "explain top {k}"),
            SessionOp::Gradient { tuple } => write!(f, "gradient {tuple}"),
            SessionOp::WhatIf { tuple } => write!(f, "whatif {tuple}"),
        }
    }
}

/// One complete session wire request (see the module-level grammar).
#[derive(Clone, Debug, PartialEq)]
pub enum SessionRequest {
    /// `session open` + an interleaved [`EvalRequest`] spec + ops.
    Open {
        /// The query/database/budget spec the session compiles.
        spec: Box<EvalRequest>,
        /// The operations to run right after opening.
        ops: Vec<SessionOp>,
        /// Close the session after the ops (the trailing `session close`).
        close_after: bool,
    },
    /// `session use <id>` + ops against an already-open session.
    Use {
        /// The session id from a previous open.
        id: u64,
        /// The operations to run.
        ops: Vec<SessionOp>,
        /// Close the session after the ops.
        close_after: bool,
    },
    /// `session close <id>` — close and nothing else.
    Close {
        /// The session id to close.
        id: u64,
    },
}

/// Failure to parse a [`SessionRequest`] wire body.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionParseError {
    /// The interleaved [`EvalRequest`] spec under `session open` failed.
    Spec(RequestParseError),
    /// Anything else: bad header, malformed op, misplaced line.
    Malformed(String),
}

impl fmt::Display for SessionParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionParseError::Spec(e) => write!(f, "session spec: {e}"),
            SessionParseError::Malformed(m) => write!(f, "malformed session request: {m}"),
        }
    }
}

impl std::error::Error for SessionParseError {}

/// The serving layer's error union for the session endpoint.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionWireError {
    /// The body did not parse.
    Parse(SessionParseError),
    /// The spec parsed but carried an invalid budget.
    Budget(BudgetError),
    /// The request was well-formed but the session layer rejected it.
    Session(SessionError),
}

impl fmt::Display for SessionWireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionWireError::Parse(e) => write!(f, "{e}"),
            SessionWireError::Budget(e) => write!(f, "budget: {e}"),
            SessionWireError::Session(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionWireError {}

impl fmt::Display for SessionRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionRequest::Open {
                spec,
                ops,
                close_after,
            } => {
                writeln!(f, "session open")?;
                write!(f, "{spec}")?;
                for op in ops {
                    writeln!(f, "{op}")?;
                }
                if *close_after {
                    writeln!(f, "session close")?;
                }
                Ok(())
            }
            SessionRequest::Use {
                id,
                ops,
                close_after,
            } => {
                writeln!(f, "session use {id}")?;
                for op in ops {
                    writeln!(f, "{op}")?;
                }
                if *close_after {
                    writeln!(f, "session close")?;
                }
                Ok(())
            }
            SessionRequest::Close { id } => writeln!(f, "session close {id}"),
        }
    }
}

/// The keys of the [`EvalRequest`] grammar, which may interleave with op
/// lines under `session open`.
const SPEC_KEYS: [&str; 14] = [
    "query",
    "tenant",
    "trace",
    "left",
    "right",
    "default",
    "tuple",
    "max_circuit_cost",
    "samples",
    "delta",
    "seed",
    "threads",
    "mode",
    "threshold",
];

enum Header {
    Open,
    Use(u64),
    Close(u64),
}

impl FromStr for SessionRequest {
    type Err = SessionParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mal = |m: String| SessionParseError::Malformed(m);
        let mut header: Option<Header> = None;
        let mut spec_text = String::new();
        let mut ops: Vec<SessionOp> = Vec::new();
        let mut close_after = false;
        for (lineno, raw) in s.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |m: &str| mal(format!("line {}: {m}", lineno + 1));
            if close_after {
                return Err(at("nothing may follow the trailing 'session close'"));
            }
            let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            if key == "session" {
                let parse_id = |w: &str| {
                    w.parse::<u64>()
                        .map_err(|_| at(&format!("bad session id '{w}'")))
                };
                let words: Vec<&str> = rest.split_whitespace().collect();
                match (words.as_slice(), &header) {
                    (["open"], None) => header = Some(Header::Open),
                    (["use", id], None) => header = Some(Header::Use(parse_id(id)?)),
                    (["close", id], None) => header = Some(Header::Close(parse_id(id)?)),
                    (["close"], Some(Header::Open | Header::Use(_))) => close_after = true,
                    (["close"], None) => {
                        return Err(at(
                            "'session close' without an id must follow 'session open' or \
                             'session use <id>'",
                        ))
                    }
                    (_, Some(_)) => return Err(at("duplicate session header")),
                    _ => {
                        return Err(at("expected 'session open', 'session use <id>', or \
                             'session close [<id>]'"))
                    }
                }
                continue;
            }
            match header {
                None => {
                    return Err(at("first line must be a session header ('session open', \
                         'session use <id>', or 'session close <id>')"))
                }
                Some(Header::Close(_)) => {
                    return Err(at("'session close <id>' takes no further lines"))
                }
                Some(Header::Open | Header::Use(_)) => {}
            }
            if SPEC_KEYS.contains(&key) {
                if !matches!(header, Some(Header::Open)) {
                    return Err(at(&format!(
                        "request line '{key}' only allowed under 'session open'"
                    )));
                }
                spec_text.push_str(line);
                spec_text.push('\n');
                continue;
            }
            match key {
                "update" => {
                    let (t, p) = rest
                        .rsplit_once(char::is_whitespace)
                        .ok_or_else(|| at("expected 'update <tuple> <probability>'"))?;
                    let tuple = parse_tuple(t).map_err(|e| at(&e.to_string()))?;
                    let weight = parse_prob(p.trim())
                        .ok_or_else(|| at(&format!("probability '{p}' not in [0, 1]")))?;
                    ops.push(SessionOp::Update { tuple, weight });
                }
                "value" => {
                    if !rest.is_empty() {
                        return Err(at("'value' takes no arguments"));
                    }
                    ops.push(SessionOp::Value);
                }
                "explain" => {
                    let words: Vec<&str> = rest.split_whitespace().collect();
                    match words.as_slice() {
                        ["top", kw] => {
                            let k = kw
                                .parse::<usize>()
                                .ok()
                                .filter(|&k| k >= 1)
                                .ok_or_else(|| at(&format!("bad top-k count '{kw}'")))?;
                            ops.push(SessionOp::ExplainTop { k });
                        }
                        _ => return Err(at("expected 'explain top <k>'")),
                    }
                }
                "gradient" => {
                    let tuple = parse_tuple(rest).map_err(|e| at(&e.to_string()))?;
                    ops.push(SessionOp::Gradient { tuple });
                }
                "whatif" => {
                    let tuple = parse_tuple(rest).map_err(|e| at(&e.to_string()))?;
                    ops.push(SessionOp::WhatIf { tuple });
                }
                other => return Err(at(&format!("unknown session line '{other}'"))),
            }
        }
        match header {
            None => Err(mal("empty session request".into())),
            Some(Header::Open) => {
                let spec: EvalRequest = spec_text.parse().map_err(SessionParseError::Spec)?;
                Ok(SessionRequest::Open {
                    spec: Box::new(spec),
                    ops,
                    close_after,
                })
            }
            Some(Header::Use(id)) => Ok(SessionRequest::Use {
                id,
                ops,
                close_after,
            }),
            Some(Header::Close(id)) => Ok(SessionRequest::Close { id }),
        }
    }
}

// ---------------------------------------------------------------------
// The session wire response.
// ---------------------------------------------------------------------

/// One reply line per session operation, in op order.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionReply {
    /// `value <r>` — the current exact probability.
    Value(Rational),
    /// `updated <tuple> <w> repriced <n> of <m>` — the update was
    /// applied; `n` of the circuit's `m` gates were re-priced.
    Updated {
        /// The tuple whose weight changed.
        tuple: Tuple,
        /// The applied weight.
        weight: Rational,
        /// Gates the dirty-path pass re-priced (0 for a no-op update).
        repriced: usize,
        /// Total circuit gate count, for scale.
        of: usize,
    },
    /// `influence <rank> <tuple> <gradient>` lines (rank starts at 1;
    /// `influence none` for an empty ranking).
    Influence(Vec<(Tuple, Rational)>),
    /// `gradient <tuple> <g>` — the exact derivative (can be negative).
    Gradient {
        /// The differentiated tuple.
        tuple: Tuple,
        /// `∂Pr/∂p_t`, exact.
        gradient: Rational,
    },
    /// `whatif <tuple> <lo> <hi>` — the exact reachable range of `Pr`.
    WhatIf {
        /// The swept tuple.
        tuple: Tuple,
        /// Minimum reachable probability.
        lo: Rational,
        /// Maximum reachable probability.
        hi: Rational,
    },
}

/// The session wire response: the session id, one reply per op, and a
/// `closed` marker when the request closed the session. Round-trips
/// bit-identically through [`fmt::Display`] / [`FromStr`].
#[derive(Clone, Debug, PartialEq)]
pub struct SessionResponse {
    /// The session the request operated on (fresh for an open).
    pub id: u64,
    /// One reply per operation, in request order.
    pub replies: Vec<SessionReply>,
    /// Whether the request closed the session.
    pub closed: bool,
}

impl fmt::Display for SessionReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionReply::Value(v) => writeln!(f, "value {v}"),
            SessionReply::Updated {
                tuple,
                weight,
                repriced,
                of,
            } => writeln!(f, "updated {tuple} {weight} repriced {repriced} of {of}"),
            SessionReply::Influence(items) => {
                if items.is_empty() {
                    return writeln!(f, "influence none");
                }
                for (rank, (t, g)) in items.iter().enumerate() {
                    writeln!(f, "influence {} {t} {g}", rank + 1)?;
                }
                Ok(())
            }
            SessionReply::Gradient { tuple, gradient } => {
                writeln!(f, "gradient {tuple} {gradient}")
            }
            SessionReply::WhatIf { tuple, lo, hi } => writeln!(f, "whatif {tuple} {lo} {hi}"),
        }
    }
}

impl fmt::Display for SessionResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "session {}", self.id)?;
        for r in &self.replies {
            write!(f, "{r}")?;
        }
        if self.closed {
            writeln!(f, "closed")?;
        }
        Ok(())
    }
}

impl FromStr for SessionResponse {
    type Err = ResponseParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut id: Option<u64> = None;
        let mut replies: Vec<SessionReply> = Vec::new();
        let mut closed = false;
        for line in s.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if closed {
                return Err(ResponseParseError("lines after 'closed'".into()));
            }
            let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            if id.is_none() {
                if key != "session" {
                    return Err(ResponseParseError(
                        "response must start with 'session <id>'".into(),
                    ));
                }
                id = Some(
                    rest.parse::<u64>()
                        .map_err(|_| ResponseParseError(format!("bad session id '{rest}'")))?,
                );
                continue;
            }
            let mut words = rest.split_whitespace();
            match key {
                "session" => {
                    return Err(ResponseParseError("duplicate 'session' line".into()));
                }
                "value" => {
                    let v = token(&mut words, "probability", parse_prob)?;
                    replies.push(SessionReply::Value(v));
                }
                "updated" => {
                    let tuple = token(&mut words, "tuple", |w| parse_tuple(w).ok())?;
                    let weight = token(&mut words, "weight", parse_prob)?;
                    keyword(&mut words, "repriced")?;
                    let repriced = token(&mut words, "repriced count", |w| w.parse().ok())?;
                    keyword(&mut words, "of")?;
                    let of = token(&mut words, "gate count", |w| w.parse().ok())?;
                    replies.push(SessionReply::Updated {
                        tuple,
                        weight,
                        repriced,
                        of,
                    });
                }
                "influence" => {
                    if rest == "none" {
                        replies.push(SessionReply::Influence(Vec::new()));
                        continue;
                    }
                    let rank: usize = token(&mut words, "influence rank", |w| w.parse().ok())?;
                    let tuple = token(&mut words, "tuple", |w| parse_tuple(w).ok())?;
                    let grad = token(&mut words, "gradient", Rational::from_decimal)?;
                    if let Some(extra) = words.next() {
                        return Err(ResponseParseError(format!("trailing input '{extra}'")));
                    }
                    if rank == 1 {
                        replies.push(SessionReply::Influence(vec![(tuple, grad)]));
                        continue;
                    }
                    match replies.last_mut() {
                        Some(SessionReply::Influence(items)) if items.len() + 1 == rank => {
                            items.push((tuple, grad));
                        }
                        _ => {
                            return Err(ResponseParseError(format!(
                                "influence rank {rank} out of order"
                            )))
                        }
                    }
                    continue;
                }
                "gradient" => {
                    let tuple = token(&mut words, "tuple", |w| parse_tuple(w).ok())?;
                    let gradient = token(&mut words, "gradient", Rational::from_decimal)?;
                    replies.push(SessionReply::Gradient { tuple, gradient });
                }
                "whatif" => {
                    let tuple = token(&mut words, "tuple", |w| parse_tuple(w).ok())?;
                    let lo = token(&mut words, "band lower endpoint", parse_prob)?;
                    let hi = token(&mut words, "band upper endpoint", parse_prob)?;
                    if lo > hi {
                        return Err(ResponseParseError("band endpoints out of order".into()));
                    }
                    replies.push(SessionReply::WhatIf { tuple, lo, hi });
                }
                "closed" => {
                    if !rest.is_empty() {
                        return Err(ResponseParseError("'closed' takes no arguments".into()));
                    }
                    closed = true;
                    continue;
                }
                other => {
                    return Err(ResponseParseError(format!(
                        "unknown session response line '{other}'"
                    )))
                }
            }
            if let Some(extra) = words.next() {
                return Err(ResponseParseError(format!("trailing input '{extra}'")));
            }
        }
        Ok(SessionResponse {
            id: id.ok_or_else(|| ResponseParseError("empty session response".into()))?,
            replies,
            closed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Budget;
    use gfomc_query::catalog;
    use gfomc_tid::Tid;

    fn half() -> Rational {
        Rational::one_half()
    }

    fn small_request() -> EvalRequest {
        let q = catalog::h1();
        let mut tid = Tid::all_present([0, 1], [1000]);
        tid.set_prob(Tuple::R(0), half());
        tid.set_prob(Tuple::S(0, 0, 1000), Rational::from_ints(3, 8));
        tid.set_prob(Tuple::T(1000), half());
        EvalRequest::new(q, tid)
    }

    #[test]
    fn session_tracks_updates_and_matches_stateless_evaluation() {
        let engine = Engine::new();
        let req = small_request();
        let compiled = engine.compile(&req.query, &req.tid);
        let mut s = compiled.open_session(&TupleWeights::new());
        assert_eq!(s.value(), compiled.evaluate_db());
        let stats = s.update(Tuple::R(0), Rational::from_ints(1, 3)).unwrap();
        assert!(stats.repriced > 0);
        let expected =
            compiled.evaluate(&TupleWeights::new().with(Tuple::R(0), Rational::from_ints(1, 3)));
        assert_eq!(s.value(), expected);
        assert_eq!(s.weight_of(Tuple::R(0)).unwrap(), Rational::from_ints(1, 3));
    }

    #[test]
    fn session_rejects_bad_updates_with_typed_errors() {
        let engine = Engine::new();
        let req = small_request();
        let mut s = engine
            .compile(&req.query, &req.tid)
            .open_session(&TupleWeights::new());
        assert_eq!(
            s.update(Tuple::R(7), half()),
            Err(SessionError::UnknownTuple(Tuple::R(7)))
        );
        assert!(matches!(
            s.update(Tuple::R(0), Rational::from_ints(3, 2)),
            Err(SessionError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn what_if_band_brackets_reachable_values() {
        let engine = Engine::new();
        let req = small_request();
        let compiled = engine.compile(&req.query, &req.tid);
        let mut s = compiled.open_session(&TupleWeights::new());
        let (lo, hi) = s.what_if_band(Tuple::R(0)).unwrap();
        let at0 = compiled.evaluate(&TupleWeights::new().with(Tuple::R(0), Rational::zero()));
        let at1 = compiled.evaluate(&TupleWeights::new().with(Tuple::R(0), Rational::one()));
        assert_eq!(lo, at0.clone().min(at1.clone()));
        assert_eq!(hi, at0.max(at1));
        assert!(lo <= s.value() && s.value() <= hi);
    }

    #[test]
    fn top_k_ranking_is_deterministic_and_truncated() {
        let engine = Engine::new();
        let req = small_request();
        let mut s = engine
            .compile(&req.query, &req.tid)
            .open_session(&TupleWeights::new());
        let all = s.top_k_influential(usize::MAX);
        assert_eq!(all.len(), s.tuples().len());
        for w in all.windows(2) {
            assert!(w[0].1.abs() >= w[1].1.abs());
        }
        let top1 = s.top_k_influential(1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0], all[0]);
    }

    #[test]
    fn engine_session_lifecycle_and_typed_errors() {
        let engine = Engine::new();
        let id = engine.open_session(&small_request()).unwrap();
        assert_eq!(engine.session_count(), 1);
        let v = engine.with_session(id, |s| s.value()).unwrap();
        assert!(v > Rational::zero());
        engine.close_session(id).unwrap();
        assert_eq!(engine.session_count(), 0);
        assert_eq!(
            engine.close_session(id),
            Err(SessionError::UnknownSession(id))
        );
        assert_eq!(
            engine.with_session(id, |s| s.value()),
            Err(SessionError::UnknownSession(id))
        );
    }

    #[test]
    fn per_tenant_cap_is_enforced() {
        let engine = Engine::builder().max_sessions_per_tenant(2).build();
        let acme = small_request().with_tenant("acme");
        engine.open_session(&acme).unwrap();
        engine.open_session(&acme).unwrap();
        assert_eq!(
            engine.open_session(&acme),
            Err(SessionError::Limit {
                tenant: "acme".into(),
                cap: 2
            })
        );
        // A different tenant (and the anonymous pool) are unaffected.
        engine
            .open_session(&small_request().with_tenant("other"))
            .unwrap();
        engine.open_session(&small_request()).unwrap();
    }

    #[test]
    fn cost_gate_rejects_expensive_opens() {
        let engine = Engine::new();
        let req = small_request().with_budget(Budget::default().with_max_circuit_cost(0));
        assert!(matches!(
            engine.open_session(&req),
            Err(SessionError::Cost { cap: 0, .. })
        ));
        assert_eq!(engine.session_count(), 0);
    }

    #[test]
    fn session_request_roundtrips_through_text() {
        let open = SessionRequest::Open {
            spec: Box::new(small_request()),
            ops: vec![
                SessionOp::Update {
                    tuple: Tuple::R(0),
                    weight: Rational::from_ints(1, 3),
                },
                SessionOp::Value,
                SessionOp::ExplainTop { k: 2 },
                SessionOp::Gradient {
                    tuple: Tuple::T(1000),
                },
                SessionOp::WhatIf { tuple: Tuple::R(0) },
            ],
            close_after: true,
        };
        assert_eq!(open.to_string().parse::<SessionRequest>().unwrap(), open);
        let use_req = SessionRequest::Use {
            id: 7,
            ops: vec![SessionOp::Value],
            close_after: false,
        };
        assert_eq!(
            use_req.to_string().parse::<SessionRequest>().unwrap(),
            use_req
        );
        let close = SessionRequest::Close { id: 9 };
        assert_eq!(close.to_string().parse::<SessionRequest>().unwrap(), close);
    }

    #[test]
    fn session_request_parse_rejects_malformed_bodies() {
        for bad in [
            "",
            "value\n",
            "session banana\n",
            "session open\nsession open\n",
            "session use 3\nquery R(x0)\n",
            "session close 3\nvalue\n",
            "session use 1\nsession close\nvalue\n",
            "session use 1\nexplain top 0\n",
            "session use 1\nexplain top x\n",
            "session use 1\nupdate R(u0) 3/2\n",
            "session use 1\nupdate R(u0)\n",
            "session use 1\nfrobnicate\n",
            "session close\n",
        ] {
            assert!(
                bad.parse::<SessionRequest>().is_err(),
                "{bad:?} should not parse"
            );
        }
        // A bad spec under `session open` is the typed Spec variant.
        assert!(matches!(
            "session open\nvalue\n".parse::<SessionRequest>(),
            Err(SessionParseError::Spec(_))
        ));
        // A spec may list a tuple once; `update` lines may repeat one.
        let spec = "session open\nquery R(x0) v S0(x0,y0) & S0(x0,y0) v T(y0)\n\
                    left 0\nright 1\ntuple R(u0) 1/2\n";
        assert!(matches!(
            format!("{spec}tuple R(u0) 1/3\n").parse::<SessionRequest>(),
            Err(SessionParseError::Spec(RequestParseError::Malformed(m)))
                if m.contains("duplicate 'tuple R(u0)' line")
        ));
        assert!(format!("{spec}update R(u0) 1/3\nupdate R(u0) 1/4\n")
            .parse::<SessionRequest>()
            .is_ok());
    }

    #[test]
    fn session_response_roundtrips_through_text() {
        let resp = SessionResponse {
            id: 3,
            replies: vec![
                SessionReply::Updated {
                    tuple: Tuple::R(0),
                    weight: Rational::from_ints(1, 3),
                    repriced: 5,
                    of: 40,
                },
                SessionReply::Value(Rational::from_ints(7, 16)),
                SessionReply::Influence(vec![
                    (Tuple::S(0, 0, 1000), Rational::from_ints(-1, 2)),
                    (Tuple::R(0), Rational::from_ints(1, 4)),
                ]),
                SessionReply::Influence(Vec::new()),
                SessionReply::Gradient {
                    tuple: Tuple::T(1000),
                    gradient: Rational::from_ints(-3, 8),
                },
                SessionReply::WhatIf {
                    tuple: Tuple::R(0),
                    lo: Rational::from_ints(1, 4),
                    hi: Rational::from_ints(3, 4),
                },
            ],
            closed: true,
        };
        assert_eq!(resp.to_string().parse::<SessionResponse>().unwrap(), resp);
    }

    #[test]
    fn session_response_parse_rejects_malformed_bodies() {
        for bad in [
            "",
            "value 1/2\n",
            "session 3\nsession 4\n",
            "session 3\nvalue 3/2\n",
            "session 3\nclosed\nvalue 1/2\n",
            "session 3\ninfluence 2 R(u0) 1/2\n",
            "session 3\nvalue 1/2 extra\n",
            "session 3\nwhatif R(u0) 3/4 1/4\n",
            "session 3\nupdated R(u0) 1/2 repriced x of 4\n",
            "session 3\nbogus 1\n",
        ] {
            assert!(
                bad.parse::<SessionResponse>().is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn wire_pipeline_matches_in_process_session() {
        let engine = Engine::new();
        let req = SessionRequest::Open {
            spec: Box::new(small_request()),
            ops: vec![
                SessionOp::Update {
                    tuple: Tuple::R(0),
                    weight: Rational::from_ints(2, 3),
                },
                SessionOp::Value,
                SessionOp::ExplainTop { k: 3 },
            ],
            close_after: true,
        };
        let wire = engine.session_wire(&req.to_string()).unwrap();
        let resp: SessionResponse = wire.parse().unwrap();
        assert!(resp.closed);
        // Replay in-process on a fresh engine: bit-identical replies.
        let direct = Engine::new().session_request(&req).unwrap();
        assert_eq!(resp.replies, direct.replies);
        assert_eq!(wire.parse::<SessionResponse>().unwrap().to_string(), wire);
    }

    #[test]
    fn wire_errors_are_typed_never_panics() {
        let engine = Engine::new();
        assert!(matches!(
            engine.session_wire("session use 999\nvalue\n"),
            Err(SessionWireError::Session(SessionError::UnknownSession(999)))
        ));
        assert!(matches!(
            engine.session_wire("gibberish\n"),
            Err(SessionWireError::Parse(_))
        ));
        let bad_budget = format!("session open\n{}delta 1.5\n", {
            let mut spec = small_request();
            spec.budget = Budget::default();
            spec.to_string()
                .lines()
                .filter(|l| !l.starts_with("delta"))
                .map(|l| format!("{l}\n"))
                .collect::<String>()
        });
        assert!(matches!(
            engine.session_wire(&bad_budget),
            Err(SessionWireError::Parse(_)) | Err(SessionWireError::Budget(_))
        ));
    }

    #[test]
    fn session_metrics_land_in_the_registry() {
        let engine = Engine::new();
        let id = engine.open_session(&small_request()).unwrap();
        let req = SessionRequest::Use {
            id,
            ops: vec![
                SessionOp::Update {
                    tuple: Tuple::R(0),
                    weight: Rational::from_ints(1, 4),
                },
                SessionOp::ExplainTop { k: 1 },
            ],
            close_after: true,
        };
        engine.session_request(&req).unwrap();
        let registry = engine.registry();
        assert_eq!(
            registry.counter_value("engine_sessions_opened_total", &[]),
            1
        );
        assert_eq!(
            registry.counter_value("engine_sessions_closed_total", &[]),
            1
        );
        let updates = registry
            .histogram_snapshot("engine_update_nanos", &[])
            .expect("update histogram exists");
        assert_eq!(updates.count, 1);
        let explains = registry
            .histogram_snapshot("engine_explain_nanos", &[])
            .expect("explain histogram exists");
        assert_eq!(explains.count, 1);
        engine.refresh_gauges();
        assert_eq!(engine.session_count(), 0);
    }
}
