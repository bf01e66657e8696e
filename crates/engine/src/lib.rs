//! # gfomc-engine
//!
//! Knowledge-compiled query evaluation: compile the lineage of a query over
//! a TID **once** into a d-DNNF-style arithmetic circuit, then evaluate it
//! under **many** weight assignments, each in time linear in the circuit.
//!
//! The naive oracle ([`gfomc_tid::probability`]) re-runs Shannon expansion
//! from scratch for every query/weight pair. But the paper's block
//! constructions (§3, Theorem 3.4) — and any workload sweeping tuple
//! probabilities over a fixed database — evaluate the *same* lineage under
//! *many* weight assignments. That is exactly the workload knowledge
//! compilation amortizes:
//!
//! ```
//! use gfomc_engine::{Engine, TupleWeights};
//! use gfomc_arith::Rational;
//! use gfomc_query::catalog;
//! use gfomc_tid::{Tid, Tuple};
//!
//! let q = catalog::h1();
//! let mut tid = Tid::all_present([0], [10]);
//! tid.set_prob(Tuple::R(0), Rational::one_half());
//! tid.set_prob(Tuple::S(0, 0, 10), Rational::one_half());
//! tid.set_prob(Tuple::T(10), Rational::one_half());
//!
//! let engine = Engine::new();
//! let compiled = engine.compile(&q, &tid);          // lineage + circuit, once
//! let base = compiled.evaluate_db();                 // Pr at the stored probabilities
//! let swept = compiled.evaluate(                     // Pr with R(0) forced present
//!     &TupleWeights::new().with(Tuple::R(0), Rational::one()),
//! );
//! assert!(base < swept);
//! ```
//!
//! The compiled form is exact: evaluation returns the same [`Rational`] as
//! enumerating the lineage's assignments
//! ([`wmc_brute_force`](gfomc_logic::wmc_brute_force())); the property
//! suites assert equality, not approximation. The [`workload`] module generates random block TIDs
//! and random bipartite queries at controlled safety for tests and benches.
//!
//! When exactness is not affordable, [`Engine::evaluate_auto`] (the
//! [`router`] module) turns the dichotomy into a runtime decision: safe
//! queries go to the PTIME lifted evaluator, unsafe queries go to the
//! compiled circuit while the estimated compilation cost fits a [`Budget`],
//! and everything beyond falls back to the seeded Karp–Luby sampler of
//! `gfomc-approx` — returning a result tagged [`AutoResult::Exact`] or
//! [`AutoResult::Approx`] so the two regimes can never be confused.

pub mod api;
pub mod router;
pub mod session;
pub mod workload;

pub use api::{EvalError, EvalRequest, EvalResponse, RequestParseError, ResponseParseError};
pub use router::{AutoResult, Budget, BudgetError, Route, RouteCounts, Routed, SampleMode};
pub use session::{
    Session, SessionError, SessionOp, SessionParseError, SessionReply, SessionRequest,
    SessionResponse, SessionWireError,
};

// The observability vocabulary is part of the engine's public surface:
// `Engine::registry()` hands out the `Registry`, traced responses carry a
// `Trace`, and the slow-query ring buffer is a `SlowLog`.
pub use gfomc_obs::{HistogramSnapshot, Registry, SlowLog, Trace};

use gfomc_arith::Rational;
use gfomc_logic::{Circuit, Cnf, EvalArena, FlatCircuit, WeightsFromFn};
use gfomc_obs::Counter;
use gfomc_pool::WorkerPool;
use gfomc_query::BipartiteQuery;
use gfomc_safety::{circuit_cost_estimate, CircuitCostEstimate};
use gfomc_tid::{lineage, Lineage, Tid, Tuple, VarTable};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default number of compiled circuits the engine keeps hot.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Default bound on concurrently admitted serving requests (the
/// [`EngineBuilder::max_queue_depth`] knob read by `gfomc-serve`).
pub const DEFAULT_MAX_QUEUE_DEPTH: usize = 64;

/// Default slow-query threshold: requests at or above 1 ms end-to-end are
/// recorded in the [`SlowLog`] ([`EngineBuilder::slow_threshold_nanos`]).
pub const DEFAULT_SLOW_THRESHOLD_NANOS: u64 = 1_000_000;

/// Default capacity of the slow-query ring buffer
/// ([`EngineBuilder::slow_capacity`]).
pub const DEFAULT_SLOW_CAPACITY: usize = 64;

/// Maximum number of independently locked cache shards (fewer when the
/// capacity is smaller, so the `entries <= capacity` bound stays exact).
const MAX_CACHE_SHARDS: usize = 8;

/// Hit/miss record of the engine's compilation cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Compilations skipped because the canonical lineage was cached.
    pub hits: usize,
    /// Compilations actually performed.
    pub misses: usize,
    /// Circuits currently cached.
    pub entries: usize,
    /// Maximum number of cached circuits (0 = caching disabled).
    pub capacity: usize,
    /// Resident circuits displaced by a costlier-to-recompute newcomer.
    pub evictions: usize,
    /// Newly compiled circuits denied admission because their compile cost
    /// did not justify displacing anything resident (cost-aware admission).
    pub rejections: usize,
}

impl CacheStats {
    /// Hits over total lookups, or 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident circuit of a cache shard.
///
/// Residents are kept in flat struct-of-arrays form ([`FlatCircuit`]):
/// smaller per-entry footprint than the pointer-y compile-time tree (no
/// per-`Product` child vector), and already in the layout every
/// evaluation path wants.
#[derive(Debug)]
struct CacheEntry {
    circuit: Arc<FlatCircuit>,
    /// The lineage's cost estimate, stored by the first budgeted request
    /// that admitted or hit the entry (the estimate is a pure function of
    /// the canonical CNF this entry is keyed on). `None` for an entry that
    /// only the unbudgeted [`Engine::compile`] has touched.
    estimate: Option<CircuitCostEstimate>,
    /// Eviction priority `last-touch stamp + compile cost` (see
    /// [`Engine::compile`] — higher survives longer).
    priority: u64,
    /// Compile cost in **exact flat gate count** — the same unit
    /// `gfomc_safety::CircuitCostEstimate` reports, so admission duels and
    /// routing budgets speak one currency.
    cost: u64,
}

/// The verdict of budgeted admission ([`Engine::admit`]) for one lineage.
#[derive(Debug)]
pub(crate) enum Admission {
    /// The circuit was resident (a cache hit), with its stored estimate.
    Resident(Compiled, CircuitCostEstimate),
    /// The circuit was compiled by this request (a cache miss).
    CompiledNow(Compiled, CircuitCostEstimate),
    /// The estimate exceeds the budget: nothing was compiled, and the
    /// lineage goes back to the caller for the sampler.
    OverBudget(CircuitCostEstimate, Lineage),
}

/// One independently locked shard of the compilation cache: its
/// resident circuits, keyed by canonical CNF. Lineages are assigned to
/// shards by the hash of their canonical CNF.
#[derive(Debug)]
struct CacheShard {
    entries: HashMap<Cnf, CacheEntry>,
    capacity: usize,
}

/// Compiles query/TID pairs, caches the resulting circuits, and tracks
/// aggregate compilation statistics. **Thread-safe**: `Engine` is
/// `Send + Sync` and every method takes `&self`, so one engine can be
/// shared behind an `Arc` (or a plain reference) by any number of
/// concurrent callers — `gfomc-serve` answers every connection thread
/// from one engine.
///
/// Each [`Engine::compile`] call produces a self-contained [`Compiled`]
/// artifact. Circuits are cached in a **sharded, cost-aware LRU** keyed on
/// the canonical CNF ([`Cnf`]): two queries
/// (or the same query over two TIDs) whose groundings canonicalize to the
/// same lineage share one compilation — the second [`Engine::compile`] is
/// a cache hit that only re-binds the tuple ↔ variable table. Cached
/// circuits are behind [`Arc`], so a hit costs one reference bump, not a
/// deep copy.
///
/// Concurrency model: the cache is split into up to 8 mutex-guarded
/// shards selected by the lineage hash, statistics are atomics, and the
/// parallel paths run on a persistent [`WorkerPool`] created once per
/// engine's lifetime (the process-shared pool by default,
/// [`EngineBuilder::pool`] to dedicate one). Concurrent compiles of
/// *distinct* lineages proceed in parallel with probability
/// `1 − 1/shards`; concurrent compiles of the *same* lineage serialize on
/// its shard so the work is done once, not duplicated.
///
/// Eviction is **cost-aware** (a GreedyDual-flavored LRU): the victim
/// minimizes `last-touch stamp + compile cost`, so a 10⁶-gate circuit is
/// never displaced by a 10²-gate newcomer — the cheap newcomer is denied
/// admission instead (and, because the stamp keeps advancing, a dead
/// giant still ages out eventually).
#[derive(Debug)]
pub struct Engine {
    /// The engine's metric namespace: every counter below is a handle
    /// into this registry, so `/metrics` and the typed getters
    /// ([`Engine::cache_stats`], [`Engine::route_counts`]) read the same
    /// cells and can never drift apart.
    registry: Arc<Registry>,
    /// Slow-request ring buffer fed by
    /// [`Engine::evaluate_request`](crate::api) (full phase traces of the
    /// slowest requests; see [`EngineBuilder::slow_threshold_nanos`]).
    slow_log: Arc<SlowLog>,
    pub(crate) requests: Arc<Counter>,
    compiled: Arc<Counter>,
    nodes: Arc<Counter>,
    decisions: Arc<Counter>,
    routes_lifted: Arc<Counter>,
    routes_compiled: Arc<Counter>,
    routes_sampled: Arc<Counter>,
    /// Per-tenant routing tallies, keyed by the tenant label of the
    /// [`EvalRequest`](crate::EvalRequest) that carried the query (the
    /// serving layer's multi-tenant accounting; empty until a labeled
    /// request arrives).
    tenant_routes: Mutex<HashMap<String, RouteCounts>>,
    shards: Box<[Mutex<CacheShard>]>,
    cache_capacity: usize,
    cache_stamp: AtomicU64,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_rejections: Arc<Counter>,
    /// Calls of the cost estimator on the request path: once per admitted
    /// distinct lineage, plus every request that is not resident.
    cost_estimates: Arc<Counter>,
    /// Serving knob carried by the engine so server, CLI, and benches all
    /// read one source of truth: how many admitted-but-unfinished requests
    /// a front-end may hold before it must reject explicitly.
    max_queue_depth: usize,
    /// Open priced sessions, keyed by the id handed out at open time
    /// (see [`session`]). Each session is individually locked so the
    /// registry lock is never held across session work.
    pub(crate) sessions: Mutex<HashMap<u64, session::SessionSlot>>,
    /// Monotone session-id allocator (ids are never reused, so a closed
    /// id stays a typed "unknown session" error forever).
    pub(crate) session_ids: AtomicU64,
    /// Per-tenant cap on concurrently open sessions — an open session is
    /// charged against the same admission budget the serving gate
    /// enforces for in-flight requests (defaults to
    /// [`EngineBuilder::max_queue_depth`]).
    pub(crate) max_sessions_per_tenant: usize,
    pool: Arc<WorkerPool>,
}

/// The one construction path for [`Engine`]: a fluent builder covering
/// every knob the four historical constructors spread across ad-hoc
/// entry points, plus the serving-layer knobs introduced with
/// `gfomc-serve`.
///
/// ```
/// use gfomc_engine::Engine;
/// use gfomc_pool::WorkerPool;
/// use std::sync::Arc;
///
/// let engine = Engine::builder()
///     .cache_capacity(16)
///     .pool(Arc::new(WorkerPool::new(2)))
///     .max_queue_depth(8)
///     .build();
/// assert_eq!(engine.cache_stats().capacity, 16);
/// assert_eq!(engine.max_queue_depth(), 8);
/// ```
#[derive(Debug)]
pub struct EngineBuilder {
    cache_capacity: usize,
    pool: Option<Arc<WorkerPool>>,
    max_queue_depth: usize,
    slow_threshold_nanos: u64,
    slow_capacity: usize,
    max_sessions_per_tenant: Option<usize>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            pool: None,
            max_queue_depth: DEFAULT_MAX_QUEUE_DEPTH,
            slow_threshold_nanos: DEFAULT_SLOW_THRESHOLD_NANOS,
            slow_capacity: DEFAULT_SLOW_CAPACITY,
            max_sessions_per_tenant: None,
        }
    }
}

impl EngineBuilder {
    /// Compilation-cache capacity in circuits (0 disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// A dedicated worker pool for the engine's parallel path: the
    /// sampled route's rounds, fanned across [`Budget::threads`] workers.
    /// Defaults to the process-shared [`WorkerPool::global`].
    pub fn pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Bound on concurrently admitted serving requests, read by the
    /// `gfomc-serve` admission gate: beyond this depth a front-end must
    /// reject explicitly (429-style) instead of queueing. 0 means "reject
    /// everything" — useful for drain/maintenance modes and overload tests.
    pub fn max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth;
        self
    }

    /// End-to-end duration (nanoseconds) at or above which a request's
    /// full phase trace is kept in the slow-query ring buffer
    /// ([`Engine::slow_log`]). 0 records every request.
    pub fn slow_threshold_nanos(mut self, nanos: u64) -> Self {
        self.slow_threshold_nanos = nanos;
        self
    }

    /// Capacity of the slow-query ring buffer (0 disables slow-query
    /// recording entirely).
    pub fn slow_capacity(mut self, capacity: usize) -> Self {
        self.slow_capacity = capacity;
        self
    }

    /// Per-tenant cap on concurrently **open sessions**
    /// ([`Engine::open_session`]). A session holds priced circuit state
    /// between requests, so it is charged against the same admission
    /// budget the serving gate enforces for in-flight requests: the cap
    /// defaults to [`EngineBuilder::max_queue_depth`]. 0 rejects every
    /// open (drain mode).
    pub fn max_sessions_per_tenant(mut self, cap: usize) -> Self {
        self.max_sessions_per_tenant = Some(cap);
        self
    }

    /// Builds the engine with zeroed statistics.
    pub fn build(self) -> Engine {
        let capacity = self.cache_capacity;
        // A small cache stays unsharded: splitting e.g. capacity 2 into
        // two 1-slot shards would let hash-colliding hot lineages thrash
        // a shard while the other sits empty — strictly worse than one
        // lock around a cache this tiny. Larger caches split into
        // MAX_CACHE_SHARDS shards whose capacities (each ≥ 1) sum to
        // exactly `capacity`, preserving the user-visible bound
        // `entries <= capacity`.
        let shard_count = if capacity <= MAX_CACHE_SHARDS {
            1
        } else {
            MAX_CACHE_SHARDS
        };
        let shards = (0..shard_count)
            .map(|i| {
                Mutex::new(CacheShard {
                    entries: HashMap::new(),
                    capacity: capacity / shard_count + usize::from(i < capacity % shard_count),
                })
            })
            .collect();
        let registry = Arc::new(Registry::new());
        let counter = |name: &str| registry.counter(name, &[]);
        let route = |name: &str| registry.counter("engine_route_total", &[("route", name)]);
        Engine {
            requests: counter("engine_requests_total"),
            compiled: counter("engine_compiled_circuits_total"),
            nodes: counter("engine_circuit_gates_total"),
            decisions: counter("engine_circuit_decisions_total"),
            routes_lifted: route("lifted"),
            routes_compiled: route("compiled"),
            routes_sampled: route("sampled"),
            tenant_routes: Mutex::new(HashMap::new()),
            shards,
            cache_capacity: capacity,
            cache_stamp: AtomicU64::new(0),
            cache_hits: counter("engine_cache_hits_total"),
            cache_misses: counter("engine_cache_misses_total"),
            cache_evictions: counter("engine_cache_evictions_total"),
            cache_rejections: counter("engine_cache_rejections_total"),
            cost_estimates: counter("engine_cost_estimates_total"),
            max_queue_depth: self.max_queue_depth,
            sessions: Mutex::new(HashMap::new()),
            session_ids: AtomicU64::new(0),
            max_sessions_per_tenant: self.max_sessions_per_tenant.unwrap_or(self.max_queue_depth),
            pool: self
                .pool
                .unwrap_or_else(|| Arc::clone(WorkerPool::global())),
            slow_log: Arc::new(SlowLog::new(self.slow_threshold_nanos, self.slow_capacity)),
            registry,
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::builder().build()
    }
}

impl Engine {
    /// A fresh engine with zeroed statistics and every knob at its
    /// default — the trivial case of [`Engine::builder`].
    pub fn new() -> Self {
        Engine::default()
    }

    /// The configuration entry point: see [`EngineBuilder`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The worker pool this engine fans its parallel work across.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The serving-layer admission bound this engine was built with (see
    /// [`EngineBuilder::max_queue_depth`]).
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Grounds `q` over `tid` and compiles the lineage into a circuit —
    /// or fetches the circuit from the cache if an identical canonical
    /// lineage was compiled before (by this thread or any other).
    ///
    /// Compilation is the expensive step — it performs the full component
    /// / Shannon decomposition exactly once per *distinct* lineage. Every
    /// subsequent [`Compiled::evaluate`] is a single bottom-up pass. No
    /// budget applies here, so no cost estimate is computed.
    pub fn compile(&self, q: &BipartiteQuery, tid: &Tid) -> Compiled {
        let lin = lineage(q, tid);
        let (circuit, _) = self.compile_cnf(&lin.cnf, None, || {});
        Compiled {
            circuit,
            vars: lin.vars,
        }
    }

    /// Budgeted admission, shared by the router and
    /// [`Engine::open_session`]: decides whether `lin` may take the exact
    /// compiled path under a `max_cost` gate budget, looking in the cache
    /// **before** estimating. A resident lineage whose estimate is stored
    /// with it pays one lookup; the estimator runs only for a lineage that
    /// is not resident (or was admitted by the unbudgeted
    /// [`Engine::compile`], whose entry adopts the estimate on its first
    /// budgeted hit).
    ///
    /// An over-budget verdict leaves the cache exactly as it found it: no
    /// hit or miss is counted and no entry's priority moves, even when the
    /// lineage is resident. `before_compile` runs just before a compile
    /// starts (the router closes its `route` span there).
    pub(crate) fn admit(
        &self,
        lin: Lineage,
        max_cost: u64,
        before_compile: impl FnOnce(),
    ) -> Admission {
        if self.cache_capacity > 0 {
            let mut shard = Engine::lock_shard(self.shard_of(&lin.cnf));
            if let Some(entry) = shard.entries.get_mut(&lin.cnf) {
                if let Some(cost) = entry.estimate {
                    if !cost.within(max_cost) {
                        return Admission::OverBudget(cost, lin);
                    }
                    let circuit = self.touch(entry);
                    return Admission::Resident(
                        Compiled {
                            circuit,
                            vars: lin.vars,
                        },
                        cost,
                    );
                }
            }
        }
        // Not resident with a stored estimate: estimate outside any lock,
        // then let the cache core re-check residency under the shard lock.
        self.cost_estimates.inc();
        let cost = circuit_cost_estimate(&lin.cnf);
        if !cost.within(max_cost) {
            return Admission::OverBudget(cost, lin);
        }
        let (circuit, hit) = self.compile_cnf(&lin.cnf, Some(cost), before_compile);
        let compiled = Compiled {
            circuit,
            vars: lin.vars,
        };
        if hit {
            Admission::Resident(compiled, cost)
        } else {
            Admission::CompiledNow(compiled, cost)
        }
    }

    /// The shard a canonical CNF belongs to.
    fn shard_of(&self, cnf: &Cnf) -> &Mutex<CacheShard> {
        let mut hasher = DefaultHasher::new();
        cnf.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Poison-tolerant shard lock: a panic inside `Circuit::compile` (one
    /// pathological lineage) unwinds while the shard is held, and letting
    /// that poison wedge every later query hashing to the shard would turn
    /// one bad query into a persistent denial of service for a shared
    /// serving engine. Recovery is safe: a compile runs before its entry
    /// is inserted, so an unwind leaves the lineage non-resident, and the
    /// next compile of that lineage simply fills it in.
    fn lock_shard(shard: &Mutex<CacheShard>) -> std::sync::MutexGuard<'_, CacheShard> {
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a cache hit on `entry`: refreshes its eviction priority and
    /// hands out its circuit.
    fn touch(&self, entry: &mut CacheEntry) -> Arc<FlatCircuit> {
        let stamp = self.cache_stamp.fetch_add(1, Ordering::Relaxed) + 1;
        entry.priority = stamp.saturating_add(entry.cost);
        self.cache_hits.inc();
        Arc::clone(&entry.circuit)
    }

    /// The cache-aware compilation core: looks the canonical CNF up in its
    /// shard and either returns the resident circuit or compiles, admits,
    /// and possibly evicts under the cost-aware policy. The flag is `true`
    /// iff the circuit was already resident (a cache hit). A budgeted
    /// caller passes the lineage's `estimate`, which is stored with a new
    /// entry and adopted by a resident one that lacks it;
    /// `before_compile` runs only when a compile is about to start.
    fn compile_cnf(
        &self,
        cnf: &Cnf,
        estimate: Option<CircuitCostEstimate>,
        before_compile: impl FnOnce(),
    ) -> (Arc<FlatCircuit>, bool) {
        if self.cache_capacity == 0 {
            self.cache_misses.inc();
            before_compile();
            return (self.compile_fresh(cnf), false);
        }
        let mut shard = Engine::lock_shard(self.shard_of(cnf));
        if let Some(entry) = shard.entries.get_mut(cnf) {
            entry.estimate = entry.estimate.or(estimate);
            return (self.touch(entry), true);
        }
        let stamp = self.cache_stamp.fetch_add(1, Ordering::Relaxed) + 1;
        self.cache_misses.inc();
        // Compile while holding the shard lock: concurrent callers of the
        // *same* lineage wait for one compilation instead of duplicating
        // it, and callers of distinct lineages collide only when their
        // hashes share a shard.
        before_compile();
        let circuit = self.compile_fresh(cnf);
        let cost = circuit.gate_count() as u64;
        shard.entries.insert(
            cnf.clone(),
            CacheEntry {
                circuit: Arc::clone(&circuit),
                estimate,
                priority: stamp.saturating_add(cost),
                cost,
            },
        );
        if shard.entries.len() > shard.capacity {
            // Cost-aware eviction: linear scan for the minimum priority
            // (the cache is small and eviction is rare next to compile
            // work). When the newcomer itself is the minimum — its
            // compile cost does not justify displacing any resident
            // circuit — it is the one dropped: admission denied.
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.priority)
                .map(|(key, _)| key.clone())
                .expect("eviction scan over a non-empty shard");
            shard.entries.remove(&victim);
            if victim == *cnf {
                self.cache_rejections.inc();
            } else {
                self.cache_evictions.inc();
            }
        }
        (circuit, false)
    }

    /// Uncached compilation plus instrumentation: the Shannon/component
    /// decomposition builds the tree form, which is immediately flattened
    /// into the struct-of-arrays evaluation form (gate ids and counts are
    /// preserved 1:1) and the tree is dropped.
    fn compile_fresh(&self, cnf: &Cnf) -> Arc<FlatCircuit> {
        let circuit = Circuit::compile(cnf).flatten();
        self.compiled.inc();
        self.nodes.add(circuit.gate_count() as u64);
        self.decisions.add(circuit.decision_count() as u64);
        Arc::new(circuit)
    }

    /// Number of lineages actually compiled by this engine (cache hits
    /// are not compilations).
    pub fn compiled_count(&self) -> usize {
        self.compiled.get() as usize
    }

    /// Total circuit gates produced across all compilations.
    pub fn total_nodes(&self) -> usize {
        self.nodes.get() as usize
    }

    /// Total Shannon-split gates produced across all compilations.
    pub fn total_decisions(&self) -> usize {
        self.decisions.get() as usize
    }

    /// Compilation-cache counters, surfaced next to
    /// [`Engine::route_counts`] for workload instrumentation. Counter
    /// fields are point-in-time atomic snapshots; under concurrent
    /// traffic they are mutually consistent only once the traffic quiesces.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits.get() as usize,
            misses: self.cache_misses.get() as usize,
            entries: self
                .shards
                .iter()
                .map(|s| Engine::lock_shard(s).entries.len())
                .sum(),
            capacity: self.cache_capacity,
            evictions: self.cache_evictions.get() as usize,
            rejections: self.cache_rejections.get() as usize,
        }
    }

    /// Bumps one route counter — the router's bookkeeping.
    pub(crate) fn count_route(&self, route: router::Route) {
        let counter = match route {
            router::Route::Lifted => &self.routes_lifted,
            router::Route::Compiled => &self.routes_compiled,
            router::Route::Sampled => &self.routes_sampled,
        };
        counter.inc();
    }

    /// Routing decisions made by this engine so far.
    pub fn route_counts(&self) -> RouteCounts {
        RouteCounts {
            lifted: self.routes_lifted.get() as usize,
            compiled: self.routes_compiled.get() as usize,
            sampled: self.routes_sampled.get() as usize,
        }
    }

    /// The engine's metrics registry: every counter the typed getters
    /// report lives here, plus the per-route / per-tenant request-latency
    /// histograms recorded by
    /// [`Engine::evaluate_request`](crate::api). Render it with
    /// [`Registry::render_prometheus`] (the `/metrics` endpoint) or
    /// [`Registry::render_plain`] (the `/status` endpoint).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The slow-query ring buffer: full phase traces of requests whose
    /// end-to-end time met [`EngineBuilder::slow_threshold_nanos`].
    pub fn slow_log(&self) -> &Arc<SlowLog> {
        &self.slow_log
    }

    /// Publishes the point-in-time state the counters cannot carry —
    /// cache occupancy, worker-pool counters, the open-session count and
    /// the process-wide sampler tally — as registry gauges. Called
    /// by the serving layer just before rendering `/metrics` or
    /// `/status`, so scrapes see fresh values without the engine paying
    /// for gauge upkeep on the request path.
    pub fn refresh_gauges(&self) {
        let cache = self.cache_stats();
        self.registry
            .set_gauge("engine_cache_entries", &[], cache.entries as u64);
        self.registry
            .set_gauge("engine_cache_capacity", &[], cache.capacity as u64);
        let pool = self.pool.stats();
        self.registry
            .set_gauge("pool_threads", &[], pool.threads as u64);
        self.registry.set_gauge("pool_jobs", &[], pool.jobs);
        self.registry.set_gauge("pool_steals", &[], pool.steals);
        self.registry
            .set_gauge("pool_broadcasts", &[], pool.broadcasts);
        self.registry.set_gauge(
            "sampler_samples_drawn",
            &[],
            gfomc_approx::samples_drawn_total(),
        );
        self.registry
            .set_gauge("engine_sessions_open", &[], self.session_count() as u64);
    }

    /// Bumps the routing tally of one tenant — called by
    /// [`Engine::evaluate_request`](crate::api) for requests that carry a
    /// tenant label. Tenants are created on first use.
    pub(crate) fn count_tenant_route(&self, tenant: &str, route: router::Route) {
        let mut map = self
            .tenant_routes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let counts = map.entry(tenant.to_string()).or_default();
        match route {
            router::Route::Lifted => counts.lifted += 1,
            router::Route::Compiled => counts.compiled += 1,
            router::Route::Sampled => counts.sampled += 1,
        }
    }

    /// Per-tenant routing tallies, sorted by tenant label — the
    /// multi-tenant half of [`Engine::route_counts`]. Only requests routed
    /// through [`Engine::evaluate_request`](crate::api) with a tenant label
    /// are counted here; anonymous traffic appears in the global tallies
    /// only.
    pub fn tenant_route_counts(&self) -> Vec<(String, RouteCounts)> {
        let map = self
            .tenant_routes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out: Vec<(String, RouteCounts)> =
            map.iter().map(|(k, v)| (k.clone(), *v)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// One-shot convenience: compile `q` over `tid` with a throwaway [`Engine`].
pub fn compile(q: &BipartiteQuery, tid: &Tid) -> Compiled {
    Engine::new().compile(q, tid)
}

/// `Pr_∆(Q)` through the compiled path — drop-in for
/// [`gfomc_tid::probability`] when only one evaluation is needed.
pub fn probability(q: &BipartiteQuery, tid: &Tid) -> Rational {
    compile(q, tid).evaluate_db()
}

/// A compiled query lineage: the flat arithmetic circuit plus the tuple ↔
/// variable table of the grounding.
///
/// The circuit is held in struct-of-arrays form ([`FlatCircuit`]), so
/// every evaluation is one forward loop over dense slices with weights
/// resolved once per distinct tuple. Every method stays bit-identical to
/// the tree evaluator (the flat exact pass replays the same gate
/// arithmetic).
///
/// Deterministic tuples (probability 0 or 1 in the source TID) were folded
/// away during grounding, so the circuit's variables are exactly the
/// *uncertain* tuples of the database; those are the tuples whose weight a
/// [`TupleWeights`] assignment can override. Overrides may be deterministic
/// (0 or 1): the Shannon gates degenerate to the forced branch
/// arithmetically, so no recompilation is needed.
#[derive(Clone, Debug)]
pub struct Compiled {
    pub(crate) circuit: Arc<FlatCircuit>,
    pub(crate) vars: VarTable,
}

impl Compiled {
    /// Evaluates the circuit under the database's own tuple probabilities.
    pub fn evaluate_db(&self) -> Rational {
        self.circuit.eval_exact(self.vars.weights())
    }

    /// [`Compiled::evaluate_db`] with a caller-provided values arena.
    pub fn evaluate_db_with(&self, arena: &mut EvalArena) -> Rational {
        self.circuit.eval_exact_with(self.vars.weights(), arena)
    }

    /// Evaluates the circuit under `weights`: each uncertain tuple takes
    /// its override if present, its database probability otherwise.
    pub fn evaluate(&self, weights: &TupleWeights) -> Rational {
        self.evaluate_with(weights, &mut EvalArena::new())
    }

    /// [`Compiled::evaluate`] with a caller-provided values arena, so a
    /// loop over many weightings reuses one buffer instead of allocating a
    /// fresh values vector per assignment. The override lookup runs once
    /// per distinct tuple (the flat slot table), not once per gate.
    pub fn evaluate_with(&self, weights: &TupleWeights, arena: &mut EvalArena) -> Rational {
        let w = WeightsFromFn(|v| {
            weights
                .get(&self.vars.tuple_of(v))
                .cloned()
                .unwrap_or_else(|| self.vars.weights()[&v].clone())
        });
        self.circuit.eval_exact_with(&w, arena)
    }

    /// The uncertain tuples of the compiled lineage — the tuples whose
    /// weight an assignment can change.
    pub fn tuples(&self) -> Vec<Tuple> {
        (0..self.vars.len())
            .map(|i| self.vars.tuple_of(gfomc_logic::Var(i as u32)))
            .collect()
    }

    /// The underlying flat circuit.
    pub fn circuit(&self) -> &FlatCircuit {
        &self.circuit
    }

    /// The tuple ↔ variable table of the grounding.
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// Number of circuit gates (flat gate count — identical to the tree
    /// node count, and the unit of the cache-admission cost).
    pub fn node_count(&self) -> usize {
        self.circuit.gate_count()
    }
}

/// A weight assignment for a compiled lineage: per-tuple probability
/// overrides on top of the database probabilities.
///
/// Tuples without an override keep the probability they had when the
/// lineage was compiled. Overriding a tuple that was deterministic at
/// compile time has no effect — it was folded out of the circuit during
/// grounding (see [`Compiled::tuples`] for the live support).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TupleWeights {
    overrides: HashMap<Tuple, Rational>,
}

impl TupleWeights {
    /// An empty assignment (every tuple at its database probability).
    pub fn new() -> Self {
        TupleWeights::default()
    }

    /// Builder-style override of one tuple's probability.
    pub fn with(mut self, t: Tuple, p: Rational) -> Self {
        self.set(t, p);
        self
    }

    /// Overrides one tuple's probability in place.
    pub fn set(&mut self, t: Tuple, p: Rational) {
        assert!(p.is_probability(), "probability out of [0,1] for {t}");
        self.overrides.insert(t, p);
    }

    /// The override for a tuple, if any.
    pub fn get(&self, t: &Tuple) -> Option<&Rational> {
        self.overrides.get(t)
    }

    /// Number of overridden tuples.
    pub fn len(&self) -> usize {
        self.overrides.len()
    }

    /// True iff no tuple is overridden.
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty()
    }

    /// The overridden tuples with their probabilities.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &Rational)> {
        self.overrides.iter()
    }
}

impl FromIterator<(Tuple, Rational)> for TupleWeights {
    fn from_iter<I: IntoIterator<Item = (Tuple, Rational)>>(iter: I) -> Self {
        let mut w = TupleWeights::new();
        for (t, p) in iter {
            w.set(t, p);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_query::catalog;
    use gfomc_tid::probability as naive_probability;

    fn half() -> Rational {
        Rational::one_half()
    }

    fn uniform_tid(q: &BipartiteQuery, nu: u32, nv: u32) -> Tid {
        let left: Vec<u32> = (0..nu).collect();
        let right: Vec<u32> = (100..100 + nv).collect();
        let mut tid = Tid::all_present(left.clone(), right.clone());
        for &u in &left {
            tid.set_prob(Tuple::R(u), half());
            for &v in &right {
                for s in q.binary_symbols() {
                    tid.set_prob(Tuple::S(s, u, v), half());
                }
            }
        }
        for &v in &right {
            tid.set_prob(Tuple::T(v), half());
        }
        tid
    }

    #[test]
    fn compiled_matches_naive_oracle_on_catalog() {
        let engine = Engine::new();
        for (name, q) in catalog::unsafe_catalog()
            .iter()
            .chain(&catalog::safe_catalog())
        {
            let tid = uniform_tid(q, 2, 2);
            let compiled = engine.compile(q, &tid);
            assert_eq!(compiled.evaluate_db(), naive_probability(q, &tid), "{name}");
        }
        assert_eq!(
            engine.compiled_count(),
            catalog::unsafe_catalog().len() + catalog::safe_catalog().len()
        );
        assert!(engine.total_nodes() > 0);
    }

    #[test]
    fn overrides_match_recompiled_database() {
        // Overriding S0(0,100) to ¼ must equal compiling a database that
        // had ¼ there all along.
        let q = catalog::h1();
        let tid = uniform_tid(&q, 2, 2);
        let compiled = compile(&q, &tid);
        let quarter = Rational::from_ints(1, 4);
        let w = TupleWeights::new().with(Tuple::S(0, 0, 100), quarter.clone());
        let mut tid2 = tid.clone();
        tid2.set_prob(Tuple::S(0, 0, 100), quarter);
        assert_eq!(compiled.evaluate(&w), naive_probability(&q, &tid2));
    }

    #[test]
    fn deterministic_overrides_need_no_recompilation() {
        // Forcing the endpoint tuples to 0/1 (the transfer-matrix workload,
        // Eq. (20)) through the compiled circuit matches restricting the
        // lineage before counting.
        let q = catalog::h1();
        let tid = uniform_tid(&q, 2, 2);
        let compiled = compile(&q, &tid);
        for r0 in [Rational::zero(), Rational::one()] {
            let w = TupleWeights::new().with(Tuple::R(0), r0.clone());
            let mut tid2 = tid.clone();
            tid2.set_prob(Tuple::R(0), r0);
            assert_eq!(compiled.evaluate(&w), naive_probability(&q, &tid2));
        }
    }

    #[test]
    fn support_is_the_uncertain_tuples() {
        let q = catalog::h1();
        let mut tid = uniform_tid(&q, 1, 1);
        tid.set_prob(Tuple::R(0), Rational::one());
        let compiled = compile(&q, &tid);
        // R(0) was deterministic at compile time: not in the support.
        assert!(!compiled.tuples().contains(&Tuple::R(0)));
        assert!(compiled.tuples().contains(&Tuple::T(100)));
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Compiled>();
    }

    #[test]
    fn cost_aware_eviction_keeps_the_expensive_circuit() {
        // Capacity 1 forces every admission decision to be a duel. The
        // 3×3 lineage compiles to a much larger circuit than the 1×1, so
        // after the cheap lineage is compiled the expensive one must still
        // be resident (the newcomer is denied admission, not the giant).
        let q = catalog::h1();
        let big = uniform_tid(&q, 3, 3);
        let small = uniform_tid(&q, 1, 1);
        let engine = Engine::builder().cache_capacity(1).build();
        let big_compiled = engine.compile(&q, &big);
        let small_compiled = engine.compile(&q, &small);
        assert!(
            big_compiled.node_count() > 10 * small_compiled.node_count(),
            "preset sizes must differ by an order of magnitude: {} vs {}",
            big_compiled.node_count(),
            small_compiled.node_count()
        );
        let before = engine.cache_stats();
        assert_eq!(before.rejections, 1, "{before:?}");
        engine.compile(&q, &big);
        let after = engine.cache_stats();
        assert_eq!(after.hits, before.hits + 1, "giant must still be hot");
        assert_eq!(after.entries, 1);
        // The rejected lineage left no trace: compiling it again is one
        // more miss, and it loses the same duel (victim == newcomer).
        engine.compile(&q, &small);
        let again = engine.cache_stats();
        assert_eq!(again.misses, after.misses + 1, "{again:?}");
        assert_eq!(again.rejections, after.rejections + 1, "{again:?}");
        assert_eq!(again.evictions, 0, "{again:?}");
        assert_eq!(again.entries, 1);
        // An even costlier newcomer does displace it (cost dominates the
        // duel), so the cache is not wedged on its first giant forever.
        let bigger = uniform_tid(&q, 4, 4);
        engine.compile(&q, &bigger);
        let end = engine.cache_stats();
        assert_eq!(end.entries, 1);
        assert_eq!(end.evictions, 1, "{end:?}");
    }

    #[test]
    fn canonically_equal_lineages_share_one_compilation() {
        // h1 ∧ ∀x∀y (R(x) ∨ S1(x,y)) with every S1 tuple deterministic:
        // an S1 tuple at 0 grounds the unit clause R(0), one at 1 grounds
        // nothing. Two absent S1 tuples ground R(0) twice, one grounds it
        // once; `Cnf::new` drops the duplicate (and the `R(0) ∨ S0(0,y)`
        // clauses it subsumes), so the two lineages are equal only after
        // canonicalization, and S1 never takes a variable.
        let q = BipartiteQuery::new([
            gfomc_query::Clause::left_i([0]),
            gfomc_query::Clause::right_i([0]),
            gfomc_query::Clause::left_i([1]),
        ]);
        let mut twice = uniform_tid(&q, 1, 2);
        twice.set_prob(Tuple::S(1, 0, 100), Rational::zero());
        twice.set_prob(Tuple::S(1, 0, 101), Rational::zero());
        let mut once = twice.clone();
        once.set_prob(Tuple::S(1, 0, 101), Rational::one());
        assert_eq!(lineage(&q, &twice).cnf, lineage(&q, &once).cnf);
        let engine = Engine::new();
        let a = engine.compile(&q, &twice);
        let b = engine.compile(&q, &once);
        let stats = engine.cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
        assert_eq!(a.evaluate_db(), naive_probability(&q, &twice));
        assert_eq!(b.evaluate_db(), naive_probability(&q, &once));
    }

    #[test]
    fn over_budget_request_leaves_the_resident_entry_untouched() {
        // `(priority, estimate)` of every resident entry, plus the stamp.
        let snapshot = |engine: &Engine| {
            let entries: Vec<_> = engine
                .shards
                .iter()
                .flat_map(|s| {
                    let shard = Engine::lock_shard(s);
                    let all: Vec<_> = shard
                        .entries
                        .values()
                        .map(|e| (e.priority, e.estimate))
                        .collect();
                    all
                })
                .collect();
            (entries, engine.cache_stamp.load(Ordering::Relaxed))
        };
        let q = catalog::h1();
        let tid = uniform_tid(&q, 2, 2);
        let engine = Engine::new();
        let routed = engine.evaluate_auto(&q, &tid, &Budget::default());
        let before = snapshot(&engine);
        assert_eq!(before.0, vec![(before.0[0].0, routed.cost)]);
        let tight = Budget::default().with_max_circuit_cost(0);
        assert_eq!(engine.evaluate_auto(&q, &tid, &tight).route, Route::Sampled);
        assert_eq!(
            snapshot(&engine),
            before,
            "an over-budget request is no hit"
        );
        engine.evaluate_auto(&q, &tid, &Budget::default());
        assert!(snapshot(&engine).0[0].0 > before.0[0].0, "a hit refreshes");
    }

    #[test]
    fn probability_shortcut_agrees() {
        let q = catalog::example_c9();
        let tid = uniform_tid(&q, 2, 2);
        assert_eq!(probability(&q, &tid), naive_probability(&q, &tid));
    }
}
