//! The dichotomy-aware query router: one entry point, three regimes.
//!
//! [`Engine::evaluate_auto`] turns the paper's dichotomy into a *runtime
//! routing decision*:
//!
//! 1. **Safe query** ⇒ the PTIME lifted evaluator
//!    ([`gfomc_safety::lifted_probability`]) — exact, polynomial in the
//!    database, no lineage ever materialized.
//! 2. **Unsafe query, affordable lineage** ⇒ knowledge compilation
//!    ([`Engine::compile`]) — still exact; the refined Shannon cost
//!    bound ([`gfomc_safety::circuit_cost_estimate`]) must fit the
//!    budget. Routing is **cache first**: the grounded lineage is looked
//!    up in the engine's compilation cache (LRU on interned canonical
//!    lineages) before anything is estimated. The estimate is computed
//!    once per resident lineage and stored with its circuit, so a
//!    repeated query skips both the estimate and the compile and only
//!    re-checks the stored estimate against its own budget.
//! 3. **Unsafe query, lineage over budget** ⇒ the Karp–Luby sampler
//!    ([`gfomc_approx::CnfSampler`]) — a seeded-deterministic estimate
//!    with a conservative confidence interval, in time linear in the
//!    sample budget rather than exponential in the lineage. The default
//!    [`SampleMode::Adaptive`] stops as soon as the interval is within
//!    the accuracy target (never exceeding the fixed Karp–Luby–Madras
//!    budget); [`SampleMode::Fixed`] keeps the PR 3 fixed-budget path.
//!    Either way the sampled path may fan across [`Budget::threads`]
//!    workers of the engine's persistent pool without changing a single
//!    bit of the estimate.
//!
//! The result is tagged ([`AutoResult::Exact`] vs [`AutoResult::Approx`])
//! so callers can never mistake an estimate for an exact probability, and
//! carries the [`Route`] taken plus the cost estimate that justified it.
//!
//! Both entry points take `&self`: one shared engine serves concurrent
//! callers, and [`Engine::evaluate_auto_batch`] fans a whole batch of
//! routed queries across the pool with a shared compilation cache.

use crate::{Admission, Engine};
use gfomc_approx::{AdaptiveConfig, CnfSampler, ConfidenceInterval, Estimate};
use gfomc_arith::Rational;
use gfomc_logic::EvalArena;
use gfomc_obs::Trace;
use gfomc_query::BipartiteQuery;
use gfomc_safety::{is_safe, lifted_probability, CircuitCostEstimate};
use gfomc_tid::{lineage, Lineage, Tid};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// Per-thread evaluation arena for the compiled route: repeated
    /// queries on one serving thread reuse a single values buffer, and
    /// threads never contend for it (the engine itself stays lock-free on
    /// this path).
    static ROUTE_ARENA: RefCell<EvalArena> = RefCell::new(EvalArena::new());
}

/// A [`Budget`] parameter rejected at construction — the typed form of
/// what used to be a panic deep inside the sampler.
///
/// ε and δ feed `ln`/`sqrt`/float-to-integer casts in the Karp–Luby budget
/// arithmetic; outside the open unit interval (NaN included) they would
/// silently produce NaN-derived or saturated sample counts. Validation now
/// happens **once**, at [`Budget`] construction (and again in
/// [`Budget::validate`] for struct-literal escapes), so the serving layer
/// can turn a bad request into a 400-style response instead of a crashed
/// worker; the sampler's own checks are demoted to debug assertions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BudgetError {
    /// `δ` outside the open unit interval `(0, 1)`.
    Delta(f64),
    /// An adaptive-mode `ε` outside the open unit interval `(0, 1)`.
    Epsilon(f64),
    /// A fixed-mode sample budget of zero.
    ZeroSamples,
    /// A certification threshold outside `[0, 1]` — thresholds compare
    /// against probabilities, so anything else is certifiable vacuously
    /// and almost certainly a client bug.
    Threshold,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::Delta(v) => {
                write!(f, "delta must lie strictly inside (0, 1), got {v}")
            }
            BudgetError::Epsilon(v) => {
                write!(f, "epsilon must lie strictly inside (0, 1), got {v}")
            }
            BudgetError::ZeroSamples => write!(f, "fixed sample budget must be positive"),
            BudgetError::Threshold => {
                write!(f, "certification threshold must lie inside [0, 1]")
            }
        }
    }
}

impl std::error::Error for BudgetError {}

/// `Ok(value)` iff `value` lies strictly inside `(0, 1)` (NaN rejected).
fn unit_open(value: f64, err: fn(f64) -> BudgetError) -> Result<f64, BudgetError> {
    if value > 0.0 && value < 1.0 {
        Ok(value)
    } else {
        Err(err(value))
    }
}

/// How the sampler spends its budget on the [`Route::Sampled`] path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SampleMode {
    /// Draw exactly [`Budget::samples`] samples — the PR 3 behavior.
    Fixed,
    /// Draw in geometrically growing rounds and stop as soon as the
    /// outward-rounded CI half-width is at most `epsilon`, hard-capped at
    /// the fixed Karp–Luby–Madras budget
    /// [`gfomc_approx::KarpLuby::fpras_samples`]`(epsilon, δ)` — never
    /// more samples than the fixed path, usually far fewer.
    Adaptive {
        /// Absolute accuracy target for the early exit.
        epsilon: f64,
    },
}

/// Resource limits and sampling parameters for [`Engine::evaluate_auto`].
#[derive(Clone, Debug, PartialEq)]
pub struct Budget {
    /// Maximum estimated circuit gates the exact compiled path may cost
    /// (compared against [`CircuitCostEstimate::estimated_nodes`]). The
    /// estimate is computed once per resident lineage and stored with it,
    /// so a cache hit compares this cap against the stored value; a
    /// resident lineage whose estimate exceeds a tighter cap still samples
    /// and leaves the cache untouched.
    pub max_circuit_cost: u64,
    /// Monte-Carlo sample count for [`SampleMode::Fixed`] (ignored by the
    /// adaptive mode, which derives its own cap).
    pub samples: u64,
    /// Failure probability `δ` of the sampler's confidence interval.
    pub delta: f64,
    /// Seed of the sampler's deterministic chunked plan: same budget, same
    /// TID, same query ⇒ bit-identical [`AutoResult::Approx`], whatever
    /// [`Budget::threads`] says.
    pub seed: u64,
    /// Stopping rule of the sampled path.
    pub mode: SampleMode,
    /// OS threads for the sampled path (1 = serial). Thread count never
    /// changes the estimate — only the wall-clock.
    pub threads: usize,
    /// Optional certification threshold: when set, the exact routes
    /// answer the **decision** `Pr ≤ t?` instead of materializing the
    /// probability — the compiled route decides it on the interval lane
    /// first ([`crate::Compiled::certify_le_db`]), escalating to exact
    /// arithmetic only when the enclosure straddles `t`, and the result
    /// comes back as [`AutoResult::Certified`]. The sampled route ignores
    /// the threshold (a sampler cannot *certify* a comparison) and
    /// returns its usual estimate.
    pub threshold: Option<Rational>,
}

impl Default for Budget {
    /// Compile lineages up to ~4M estimated gates; beyond that, adaptive
    /// sampling to ±0.05 at 95% confidence from a fixed seed, one thread.
    fn default() -> Self {
        Budget {
            max_circuit_cost: 1 << 22,
            samples: 20_000,
            delta: 0.05,
            seed: 0x5EED,
            mode: SampleMode::Adaptive { epsilon: 0.05 },
            threads: 1,
            threshold: None,
        }
    }
}

impl Budget {
    /// Builder-style override of the circuit-cost cap.
    pub fn with_max_circuit_cost(mut self, cap: u64) -> Self {
        self.max_circuit_cost = cap;
        self
    }

    /// Builder-style override of the fixed-mode sample count (also
    /// switches to [`SampleMode::Fixed`], which is the only mode that
    /// reads it). A zero budget is rejected as
    /// [`BudgetError::ZeroSamples`].
    pub fn with_samples(mut self, samples: u64) -> Result<Self, BudgetError> {
        if samples == 0 {
            return Err(BudgetError::ZeroSamples);
        }
        self.samples = samples;
        self.mode = SampleMode::Fixed;
        Ok(self)
    }

    /// Builder-style override of the CI failure probability. Values
    /// outside the open unit interval (NaN included) are rejected with a
    /// typed [`BudgetError`] instead of panicking later in the sampler.
    pub fn with_delta(mut self, delta: f64) -> Result<Self, BudgetError> {
        self.delta = unit_open(delta, BudgetError::Delta)?;
        Ok(self)
    }

    /// Builder-style override of the sampler seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the sampling stopping rule. An adaptive
    /// `ε` outside the open unit interval is rejected with a typed
    /// [`BudgetError`].
    pub fn with_mode(mut self, mode: SampleMode) -> Result<Self, BudgetError> {
        if let SampleMode::Adaptive { epsilon } = mode {
            unit_open(epsilon, BudgetError::Epsilon)?;
        }
        self.mode = mode;
        Ok(self)
    }

    /// Builder-style override of the sampled-path thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style certification threshold: the exact routes will answer
    /// `Pr ≤ threshold?` as an [`AutoResult::Certified`] verdict. A
    /// threshold outside `[0, 1]` is rejected with
    /// [`BudgetError::Threshold`].
    pub fn with_threshold(mut self, threshold: Rational) -> Result<Self, BudgetError> {
        if !threshold.is_probability() {
            return Err(BudgetError::Threshold);
        }
        self.threshold = Some(threshold);
        Ok(self)
    }

    /// Re-checks every validated invariant — the struct-literal escape
    /// hatch. A `Budget` built through the `with_*` builders always
    /// passes; one assembled field-by-field may not, and the router
    /// ([`Engine::try_evaluate_auto`]) rejects it here with the same typed
    /// error the builders return.
    pub fn validate(&self) -> Result<(), BudgetError> {
        unit_open(self.delta, BudgetError::Delta)?;
        if let Some(t) = &self.threshold {
            if !t.is_probability() {
                return Err(BudgetError::Threshold);
            }
        }
        match self.mode {
            SampleMode::Fixed if self.samples == 0 => Err(BudgetError::ZeroSamples),
            SampleMode::Adaptive { epsilon } => {
                unit_open(epsilon, BudgetError::Epsilon).map(|_| ())
            }
            _ => Ok(()),
        }
    }
}

/// Which evaluation regime [`Engine::evaluate_auto`] dispatched to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Safe query: PTIME lifted evaluation, exact.
    Lifted,
    /// Unsafe query within budget: compiled circuit, exact.
    Compiled,
    /// Unsafe query over budget: Karp–Luby sampling, approximate.
    Sampled,
}

/// The tagged outcome: an exact probability or a sampler estimate. The tag
/// is the API contract — downstream code must match, so an approximation
/// can never silently masquerade as an exact answer.
#[derive(Clone, Debug, PartialEq)]
pub enum AutoResult {
    /// An exact probability (lifted or compiled path).
    Exact(Rational),
    /// A sampler estimate with its confidence interval and sampling effort.
    Approx {
        /// Seeded-deterministic point estimate (exact arithmetic).
        estimate: Rational,
        /// Two-sided Hoeffding interval at confidence `1 − Budget::delta`.
        ci: ConfidenceInterval,
        /// Number of Monte-Carlo samples drawn.
        samples: u64,
    },
    /// A certified decision `Pr ≤ threshold` from a threshold-carrying
    /// budget ([`Budget::with_threshold`]) on an exact route. The verdict
    /// always agrees with comparing the exact probability against the
    /// threshold, but the probability itself may never have been
    /// materialized — the compiled route answers on the interval lane
    /// whenever the enclosure decides.
    Certified {
        /// `true` iff `Pr ≤ threshold`.
        le: bool,
        /// The threshold the verdict compares against.
        threshold: Rational,
    },
}

impl AutoResult {
    /// The point value: the exact probability, the sampler estimate, or —
    /// for a certified verdict, which never materializes the probability —
    /// the threshold the verdict compares against.
    pub fn point(&self) -> &Rational {
        match self {
            AutoResult::Exact(p) => p,
            AutoResult::Approx { estimate, .. } => estimate,
            AutoResult::Certified { threshold, .. } => threshold,
        }
    }

    /// True iff the result is exact (certified verdicts are: the answer
    /// bit always agrees with the exact comparison).
    pub fn is_exact(&self) -> bool {
        matches!(self, AutoResult::Exact(_) | AutoResult::Certified { .. })
    }
}

impl From<Estimate> for AutoResult {
    fn from(e: Estimate) -> Self {
        if e.exact {
            // The sampler short-circuited on a degenerate lineage: the
            // value is exact, so tag it as such.
            AutoResult::Exact(e.estimate)
        } else {
            AutoResult::Approx {
                estimate: e.estimate,
                ci: e.ci,
                samples: e.samples,
            }
        }
    }
}

/// The full routing record: result, route taken, and (for unsafe queries)
/// the cost estimate that picked between circuit and sampler.
#[derive(Clone, Debug, PartialEq)]
pub struct Routed {
    /// The tagged probability.
    pub result: AutoResult,
    /// The regime that produced it.
    pub route: Route,
    /// The lineage cost estimate — `None` on the lifted path, which never
    /// grounds a lineage. It is computed once per resident lineage and
    /// stored with it, so a cache hit reports the stored estimate: the
    /// same value, byte for byte, a fresh engine would compute.
    pub cost: Option<CircuitCostEstimate>,
    /// The request's phase trace — `Some` only when the caller opted in
    /// ([`EvalRequest::with_trace`](crate::EvalRequest::with_trace)).
    /// Observation is passive: `result` is bit-identical whether or not a
    /// trace was recorded, and trace-carrying responses still round-trip
    /// through the wire grammar.
    pub trace: Option<Trace>,
}

/// Running tally of routing decisions, per [`Engine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteCounts {
    /// Queries answered by the lifted evaluator.
    pub lifted: usize,
    /// Queries answered by circuit compilation.
    pub compiled: usize,
    /// Queries answered by the sampler.
    pub sampled: usize,
}

impl Engine {
    /// Evaluates `Pr_∆(q)` by the cheapest adequate regime under `budget`:
    /// lifted-exact for safe queries, compiled-circuit for unsafe queries
    /// whose estimated compilation cost fits the budget, and the Karp–Luby
    /// sampler otherwise.
    ///
    /// Safe queries return results bit-identical to
    /// [`lifted_probability`]; sampled results are bit-identical across
    /// runs for a fixed `budget.seed`. Takes `&self`: any number of
    /// threads may route queries through one shared engine concurrently.
    pub fn evaluate_auto(&self, q: &BipartiteQuery, tid: &Tid, budget: &Budget) -> Routed {
        self.try_evaluate_auto(q, tid, budget)
            .unwrap_or_else(|e| panic!("invalid budget: {e}"))
    }

    /// The fallible form of [`Engine::evaluate_auto`]: a malformed
    /// [`Budget`] (assembled as a struct literal, or deserialized from
    /// the wire) comes back as a typed [`BudgetError`] instead of a panic
    /// — the contract the serving layer needs to answer 400 instead of
    /// killing a worker thread. A budget that passes
    /// [`Budget::validate`] always takes the `Ok` path, bit-identical to
    /// [`Engine::evaluate_auto`].
    pub fn try_evaluate_auto(
        &self,
        q: &BipartiteQuery,
        tid: &Tid,
        budget: &Budget,
    ) -> Result<Routed, BudgetError> {
        budget.validate()?;
        Ok(self.evaluate_auto_validated(q, tid, budget))
    }

    /// The routing core, entered only with a validated budget. The phase
    /// trace it records is discarded here; the request front door
    /// ([`Engine::evaluate_request`](crate::api)) keeps it.
    fn evaluate_auto_validated(&self, q: &BipartiteQuery, tid: &Tid, budget: &Budget) -> Routed {
        self.evaluate_auto_core(q, tid, budget, &mut Trace::new())
    }

    /// The traced routing core: routes exactly as
    /// [`Engine::evaluate_auto`] and records the phase timings and
    /// routing facts into `tr` along the way. Tracing is **passive** —
    /// clocks are read between phases, never inside the arithmetic, so
    /// the returned [`Routed`] is bit-identical with any `tr`. The
    /// returned record carries `trace: None`; attaching the trace is the
    /// caller's opt-in decision.
    pub(crate) fn evaluate_auto_core(
        &self,
        q: &BipartiteQuery,
        tid: &Tid,
        budget: &Budget,
        tr: &mut Trace,
    ) -> Routed {
        let mut mark = Instant::now();
        // Reads the clock, closes the current phase, and opens the next.
        let mut span = |tr: &mut Trace, name: &str| {
            let now = Instant::now();
            tr.push_span(name, now.duration_since(mark).as_nanos() as u64);
            mark = now;
        };
        if is_safe(q) {
            span(tr, "route");
            let p = lifted_probability(q, tid).expect("safe query must lift");
            span(tr, "evaluate");
            tr.route = Some(Route::Lifted.to_string());
            self.count_route(Route::Lifted);
            // The lifted evaluator materializes the exact probability
            // anyway, so a threshold verdict here is a plain comparison.
            let result = match &budget.threshold {
                Some(t) => AutoResult::Certified {
                    le: &p <= t,
                    threshold: t.clone(),
                },
                None => AutoResult::Exact(p),
            };
            return Routed {
                result,
                route: Route::Lifted,
                cost: None,
                trace: None,
            };
        }
        // Cache first: a resident lineage reuses the estimate stored with
        // its circuit, so only a lineage that is not resident pays for
        // one. On a hit `route` covers classify + ground + lookup; on a
        // miss it also covers the estimate, and `compile` the compile.
        let admission = self.admit(lineage(q, tid), budget.max_circuit_cost, || {
            span(tr, "route")
        });
        let (compiled, cost, hit) = match admission {
            Admission::Resident(compiled, cost) => {
                span(tr, "route");
                span(tr, "cache");
                (compiled, cost, true)
            }
            Admission::CompiledNow(compiled, cost) => {
                span(tr, "compile");
                (compiled, cost, false)
            }
            Admission::OverBudget(cost, lin) => {
                span(tr, "route");
                tr.gates = Some(cost.estimated_nodes);
                let est = self.sample(&lin, budget, tr);
                span(tr, "sample");
                tr.samples = Some(est.samples);
                tr.route = Some(Route::Sampled.to_string());
                self.count_route(Route::Sampled);
                return Routed {
                    result: est.into(),
                    route: Route::Sampled,
                    cost: Some(cost),
                    trace: None,
                };
            }
        };
        tr.gates = Some(cost.estimated_nodes);
        tr.cache_hit = Some(hit);
        self.count_route(Route::Compiled);
        let fallbacks_before = gfomc_logic::interval_fallbacks_thread();
        // With a threshold, the decision is answered on the interval
        // lane first — the exact pass runs only when the enclosure
        // straddles `t` (visible as a fallback in the trace).
        let result = match &budget.threshold {
            Some(t) => {
                let (le, _fell_back) = compiled.certify_le_db(t);
                AutoResult::Certified {
                    le,
                    threshold: t.clone(),
                }
            }
            None => AutoResult::Exact(
                ROUTE_ARENA.with(|arena| compiled.evaluate_db_with(&mut arena.borrow_mut())),
            ),
        };
        span(tr, "evaluate");
        tr.fallbacks = Some(gfomc_logic::interval_fallbacks_thread() - fallbacks_before);
        tr.route = Some(Route::Compiled.to_string());
        Routed {
            result,
            route: Route::Compiled,
            cost: Some(cost),
            trace: None,
        }
    }

    /// The sampled route: a Karp–Luby estimate of an over-budget lineage
    /// under the budget's stopping rule, on [`Budget::threads`] pool
    /// workers.
    fn sample(&self, lin: &Lineage, budget: &Budget, tr: &mut Trace) -> Estimate {
        // Normalize at the point of use: a `Budget` built as a struct
        // literal can carry `threads: 0` past the `with_threads` clamp,
        // and a zero must never reach the pool fan-out.
        let threads = budget.threads.max(1);
        let sampler = CnfSampler::new(&lin.cnf, lin.vars.weights());
        match budget.mode {
            SampleMode::Fixed => sampler.estimate_seeded_on(
                self.pool(),
                budget.seed,
                budget.samples,
                budget.delta,
                threads,
            ),
            SampleMode::Adaptive { epsilon } => {
                let cfg =
                    AdaptiveConfig::new(epsilon, budget.delta, budget.seed).with_threads(threads);
                let adaptive = sampler.estimate_adaptive_on(self.pool(), &cfg);
                tr.rounds = Some(u64::from(adaptive.rounds));
                adaptive.estimate
            }
        }
    }

    /// The concurrent serving front-end: routes every query of `queries`
    /// through [`Engine::evaluate_auto`], fanned across up to
    /// [`Budget::threads`] workers of the engine's shared pool. All
    /// workers share this engine's compilation cache, so duplicate
    /// lineages inside one batch compile once.
    ///
    /// Output order matches input order, and every element is
    /// **bit-identical** to a serial loop of [`Engine::evaluate_auto`]
    /// calls with the same budget: the exact routes are deterministic,
    /// and the sampled route's chunk-seeded plan is thread-count
    /// invariant. Only the route/cache *counters* may interleave
    /// differently; their totals agree.
    pub fn evaluate_auto_batch(
        &self,
        queries: &[(BipartiteQuery, Tid)],
        budget: &Budget,
    ) -> Vec<Routed> {
        self.try_evaluate_auto_batch(queries, budget)
            .unwrap_or_else(|e| panic!("invalid budget: {e}"))
    }

    /// The fallible form of [`Engine::evaluate_auto_batch`]: the budget is
    /// validated once, up front, so a malformed one rejects the whole
    /// batch before any work is fanned out.
    pub fn try_evaluate_auto_batch(
        &self,
        queries: &[(BipartiteQuery, Tid)],
        budget: &Budget,
    ) -> Result<Vec<Routed>, BudgetError> {
        budget.validate()?;
        let workers = budget.threads.max(1).min(queries.len().max(1));
        if workers <= 1 {
            return Ok(queries
                .iter()
                .map(|(q, tid)| self.evaluate_auto_validated(q, tid, budget))
                .collect());
        }
        // Queries are the unit of parallelism here, so each one samples
        // serially — oversubscribing the pool with nested fan-out buys
        // nothing once every worker is busy.
        let per_query = Budget {
            threads: 1,
            ..budget.clone()
        };
        let cursor = AtomicUsize::new(0);
        let mut out: Vec<Option<Routed>> = vec![None; queries.len()];
        let slots = Mutex::new(&mut out);
        self.pool().scope(|scope| {
            for _ in 0..workers {
                let cursor = &cursor;
                let slots = &slots;
                let per_query = &per_query;
                scope.spawn(move || {
                    let mut local: Vec<(usize, Routed)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= queries.len() {
                            break;
                        }
                        let (q, tid) = &queries[i];
                        local.push((i, self.evaluate_auto_validated(q, tid, per_query)));
                    }
                    let mut slots = slots.lock().expect("batch output lock");
                    for (i, routed) in local {
                        slots[i] = Some(routed);
                    }
                });
            }
        });
        Ok(out
            .into_iter()
            .map(|r| r.expect("every query routed"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{random_block_tid, random_query, unsafe_block_preset, SafetyTarget};
    use gfomc_query::catalog;
    use gfomc_tid::probability;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn safe_query_routes_to_lifted_bit_identical() {
        let q = catalog::safe_three_components();
        let mut rng = StdRng::seed_from_u64(1);
        let tid = random_block_tid(&mut rng, &q, 3, 3);
        let engine = Engine::new();
        let routed = engine.evaluate_auto(&q, &tid, &Budget::default());
        assert_eq!(routed.route, Route::Lifted);
        assert!(routed.cost.is_none());
        assert_eq!(
            routed.result,
            AutoResult::Exact(lifted_probability(&q, &tid).unwrap())
        );
        assert_eq!(engine.route_counts().lifted, 1);
    }

    #[test]
    fn small_unsafe_query_compiles_exactly() {
        let q = catalog::h1();
        let mut rng = StdRng::seed_from_u64(2);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        let engine = Engine::new();
        let routed = engine.evaluate_auto(&q, &tid, &Budget::default());
        assert_eq!(routed.route, Route::Compiled);
        assert_eq!(routed.result, AutoResult::Exact(probability(&q, &tid)));
        assert!(routed
            .cost
            .unwrap()
            .within(Budget::default().max_circuit_cost));
        // The compiled route goes through the engine's instrumented path.
        assert_eq!(engine.compiled_count(), 1);
        assert_eq!(engine.route_counts().compiled, 1);
    }

    #[test]
    fn over_budget_unsafe_query_samples_deterministically() {
        let q = catalog::h1();
        let mut rng = StdRng::seed_from_u64(3);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        let budget = Budget::default()
            .with_max_circuit_cost(0)
            .with_samples(2_000)
            .expect("positive sample budget");
        let engine = Engine::new();
        let routed = engine.evaluate_auto(&q, &tid, &budget);
        assert_eq!(routed.route, Route::Sampled);
        assert_eq!(engine.route_counts().sampled, 1);
        let AutoResult::Approx {
            estimate,
            ci,
            samples,
        } = &routed.result
        else {
            panic!("expected an approximate result, got {routed:?}");
        };
        assert_eq!(*samples, 2_000);
        let exact = probability(&q, &tid);
        assert!(ci.contains(&exact), "{estimate} ± {ci:?} vs {exact}");
        // Same seed ⇒ bit-identical routing outcome.
        let again = Engine::new().evaluate_auto(&q, &tid, &budget);
        assert_eq!(routed, again);
        // A different seed (almost surely) moves the estimate.
        let moved = Engine::new().evaluate_auto(&q, &tid, &budget.clone().with_seed(1234));
        assert_ne!(routed, moved);
    }

    #[test]
    fn budget_builders_reject_out_of_range_parameters() {
        for bad in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
            assert!(matches!(
                Budget::default().with_delta(bad),
                Err(BudgetError::Delta(_))
            ));
            assert!(matches!(
                Budget::default().with_mode(SampleMode::Adaptive { epsilon: bad }),
                Err(BudgetError::Epsilon(_))
            ));
        }
        assert_eq!(
            Budget::default().with_samples(0),
            Err(BudgetError::ZeroSamples)
        );
        let ok = Budget::default()
            .with_delta(0.01)
            .and_then(|b| b.with_mode(SampleMode::Adaptive { epsilon: 0.25 }))
            .unwrap();
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn router_propagates_typed_budget_errors() {
        // A struct literal smuggles an invalid δ past the builders; the
        // fallible router reports it instead of panicking, whatever route
        // the query would have taken.
        let engine = Engine::new();
        let bad = Budget {
            delta: f64::NAN,
            ..Budget::default()
        };
        let q = catalog::h1();
        let mut rng = StdRng::seed_from_u64(9);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        assert!(matches!(
            engine.try_evaluate_auto(&q, &tid, &bad),
            Err(BudgetError::Delta(_))
        ));
        assert!(matches!(
            engine.try_evaluate_auto_batch(std::slice::from_ref(&(q.clone(), tid.clone())), &bad),
            Err(BudgetError::Delta(_))
        ));
        // The valid default budget agrees bit-for-bit with the infallible
        // entry point.
        let ok = Budget::default();
        assert_eq!(
            engine.try_evaluate_auto(&q, &tid, &ok).unwrap(),
            engine.evaluate_auto(&q, &tid, &ok)
        );
    }

    #[test]
    fn threshold_budget_certifies_on_the_compiled_route() {
        // Unsafe preset: the threshold query must take the compiled route
        // and answer on the interval-certify lane, with verdicts
        // byte-identical to comparing the exact probability: an h1 block
        // on a k/8 sweep, and the seeded 3×3 unsafe-block preset on k/16.
        let q = catalog::h1();
        let mut rng = StdRng::seed_from_u64(7);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        let (preset_q, preset_tid) =
            unsafe_block_preset(&mut StdRng::seed_from_u64(0xA55E55), 2, 3);
        for (q, tid, denom) in [(q, tid, 8), (preset_q, preset_tid, 16)] {
            let exact = probability(&q, &tid);
            let engine = Engine::new();
            for k in 0..=denom {
                let t = Rational::from_ints(k, denom);
                let budget = Budget::default().with_threshold(t.clone()).unwrap();
                let routed = engine.evaluate_auto(&q, &tid, &budget);
                assert_eq!(routed.route, Route::Compiled);
                assert!(routed.result.is_exact());
                let AutoResult::Certified { le, threshold } = &routed.result else {
                    panic!("expected a certified verdict, got {routed:?}");
                };
                assert_eq!(threshold, &t);
                assert_eq!(*le, exact <= t, "verdict at t = {t} vs exact {exact}");
            }
            // A threshold equal to the exact value forces the interval lane
            // to fall back — the verdict must still be the exact comparison.
            let budget = Budget::default().with_threshold(exact.clone()).unwrap();
            let routed = engine.evaluate_auto(&q, &tid, &budget);
            assert_eq!(
                routed.result,
                AutoResult::Certified {
                    le: true,
                    threshold: exact
                }
            );
        }
    }

    #[test]
    fn threshold_budget_certifies_on_the_lifted_route() {
        let q = catalog::safe_three_components();
        let mut rng = StdRng::seed_from_u64(8);
        let tid = random_block_tid(&mut rng, &q, 3, 3);
        let exact = lifted_probability(&q, &tid).unwrap();
        let engine = Engine::new();
        for t in [Rational::zero(), Rational::one_half(), Rational::one()] {
            let budget = Budget::default().with_threshold(t.clone()).unwrap();
            let routed = engine.evaluate_auto(&q, &tid, &budget);
            assert_eq!(routed.route, Route::Lifted);
            assert_eq!(
                routed.result,
                AutoResult::Certified {
                    le: exact <= t,
                    threshold: t
                }
            );
        }
    }

    #[test]
    fn threshold_is_ignored_on_the_sampled_route() {
        // A sampler cannot certify a comparison, so an over-budget unsafe
        // query returns its usual estimate even with a threshold set.
        let q = catalog::h1();
        let mut rng = StdRng::seed_from_u64(11);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        let budget = Budget::default()
            .with_max_circuit_cost(0)
            .with_samples(512)
            .unwrap()
            .with_threshold(Rational::one_half())
            .unwrap();
        let routed = Engine::new().evaluate_auto(&q, &tid, &budget);
        assert_eq!(routed.route, Route::Sampled);
        assert!(matches!(routed.result, AutoResult::Approx { .. }));
    }

    #[test]
    fn threshold_builder_rejects_out_of_range_values() {
        assert_eq!(
            Budget::default().with_threshold(Rational::from_ints(3, 2)),
            Err(BudgetError::Threshold)
        );
        let smuggled = Budget {
            threshold: Some(Rational::from_ints(-1, 2)),
            ..Budget::default()
        };
        assert_eq!(smuggled.validate(), Err(BudgetError::Threshold));
    }

    #[test]
    fn random_queries_route_by_safety_and_budget() {
        let mut rng = StdRng::seed_from_u64(4);
        let engine = Engine::new();
        let budget = Budget::default();
        for _ in 0..10 {
            let q = random_query(&mut rng, 2, 2, SafetyTarget::Any);
            let tid = random_block_tid(&mut rng, &q, 2, 2);
            let routed = engine.evaluate_auto(&q, &tid, &budget);
            if is_safe(&q) {
                assert_eq!(routed.route, Route::Lifted);
            } else {
                assert_ne!(routed.route, Route::Lifted);
            }
            assert!(routed.result.is_exact() || matches!(routed.route, Route::Sampled));
        }
        let counts = engine.route_counts();
        assert_eq!(counts.lifted + counts.compiled + counts.sampled, 10);
    }
}
