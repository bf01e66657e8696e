//! # gfomc-obs
//!
//! Observability primitives for the gfomc engine and its serving layer,
//! std-only and dependency-free:
//!
//! * [`Counter`] — a lock-free monotone event counter.
//! * [`Histogram`] — a lock-free latency histogram on a fixed 64-bucket
//!   log2 nanosecond scale. Recording is one atomic add per event;
//!   [`HistogramSnapshot`]s are mergeable (associative and commutative,
//!   conserving count and sum exactly) and answer p50/p95/p99 queries
//!   with a value guaranteed to lie inside the bucket that contains the
//!   requested rank.
//! * [`Registry`] — a named store of counters, histograms, and gauges
//!   behind one handle. Registration takes a lock; recording through the
//!   returned [`Arc`] handles is lock-free. One store renders both the
//!   Prometheus text exposition ([`Registry::render_prometheus`]) and the
//!   line-oriented `key value` form ([`Registry::render_plain`]) the
//!   `/status` endpoint speaks, so the two views cannot drift apart.
//! * [`Trace`] — a per-request phase record (timed spans plus routing
//!   facts) with a line-oriented `Display`/`FromStr` pair that
//!   round-trips exactly, in the same grammar style as the engine's wire
//!   format.
//! * [`SlowLog`] — a fixed-capacity ring buffer of the traces of
//!   requests slower than a threshold.
//!
//! Everything here is **passive**: nothing in this crate touches query
//! evaluation, so results are bit-identical with telemetry on or off —
//! the invariant the engine's trace-identity test asserts.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of histogram buckets. Bucket `i < 63` holds values whose
/// binary magnitude is `i` bits (inclusive upper bound `2^i − 1`); the
/// last bucket is unbounded.
pub const BUCKETS: usize = 64;

/// Poison-tolerant lock: observability state is a set of plain values,
/// so recovering from a panicked writer is always safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The bucket a value falls into: 0 for 0, otherwise the bit length of
/// the value, saturated into the last bucket.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket,
/// which is unbounded — rendered `+Inf` in the Prometheus exposition).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1).min(62),
    }
}

/// A monotone event counter. Incrementing is one relaxed atomic add —
/// safe to share across any number of threads without coordination.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free latency histogram on the fixed log2 nanosecond scale.
///
/// Each [`Histogram::record`] touches exactly one bucket plus the count
/// and sum atomics, so concurrent recorders never contend on a lock.
/// Under concurrent traffic a [`Histogram::snapshot`] is a point-in-time
/// read of each atomic; once traffic quiesces, `count` equals the sum of
/// the buckets exactly (the conservation law the proptests assert).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation (a duration in nanoseconds).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state: mergeable and
/// queryable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts on the fixed log2 scale.
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, modulo 2⁶⁴ — irrelevant for
    /// nanosecond timings, which would need centuries of recorded time
    /// to wrap.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The bucket-wise sum of two snapshots. Merging is associative and
    /// commutative, and conserves `count` and `sum` exactly — the
    /// algebra that lets per-thread or per-shard histograms be combined
    /// into one fleet view.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = *self;
        for (slot, b) in out.buckets.iter_mut().zip(&other.buckets) {
            *slot += b;
        }
        out.count += other.count;
        // Modular, matching the recorder's atomic accumulator.
        out.sum = out.sum.wrapping_add(other.sum);
        out
    }

    /// True iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the inclusive upper bound of
    /// the bucket containing the rank-`⌈q·count⌉` observation — so the
    /// answer is guaranteed to lie in the same bucket as the true
    /// order statistic. Returns 0 on an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= rank {
                return bucket_upper_bound(i);
            }
        }
        // Unreachable when count == Σ buckets; mid-traffic snapshots can
        // briefly disagree, and the last bucket bound is the safe answer.
        u64::MAX
    }

    /// The median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A metric identity: name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// `{k="v",…}`, or the empty string without labels; `extra` appends
    /// one more pair (the histogram `le` label).
    fn label_block(&self, extra: Option<(&str, &str)>) -> String {
        let mut pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        if let Some((k, v)) = extra {
            pairs.push(format!("{k}=\"{v}\""));
        }
        if pairs.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", pairs.join(","))
        }
    }
}

/// The metrics store: named counters, histograms, and gauges behind one
/// handle.
///
/// Registration ([`Registry::counter`], [`Registry::histogram`]) locks a
/// `BTreeMap` once and hands back an [`Arc`] handle; recording through
/// the handle is lock-free, so hot paths register at startup (or on
/// first use) and never touch the maps again. Gauges are plain values
/// overwritten at scrape time ([`Registry::set_gauge`]) — the bridge for
/// state owned elsewhere (gate depth, pool counters, cache occupancy).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<Histogram>>>,
    gauges: Mutex<BTreeMap<MetricKey, u64>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name` + `labels`, created at zero
    /// on first use. The same identity always returns the same counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        Arc::clone(lock(&self.counters).entry(key).or_default())
    }

    /// The histogram registered under `name` + `labels`, created empty
    /// on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        Arc::clone(lock(&self.histograms).entry(key).or_default())
    }

    /// Sets (or creates) a gauge — a point-in-time value the scraper
    /// overwrites on every render.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        lock(&self.gauges).insert(MetricKey::new(name, labels), value);
    }

    /// The current value of a counter (0 if never registered) — a test
    /// and bench convenience.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        lock(&self.counters)
            .get(&MetricKey::new(name, labels))
            .map_or(0, |c| c.get())
    }

    /// A snapshot of one histogram, if registered.
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        lock(&self.histograms)
            .get(&MetricKey::new(name, labels))
            .map(|h| h.snapshot())
    }

    /// Every histogram registered under `name`, as `(labels, snapshot)`
    /// pairs in label order.
    pub fn histograms_named(&self, name: &str) -> Vec<(Vec<(String, String)>, HistogramSnapshot)> {
        lock(&self.histograms)
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(k, h)| (k.labels.clone(), h.snapshot()))
            .collect()
    }

    /// The Prometheus text exposition of the whole store: `# TYPE` lines
    /// per metric family, counters and gauges as single samples,
    /// histograms as cumulative `le` buckets plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (key, counter) in lock(&self.counters).iter() {
            if key.name != last_family {
                out.push_str(&format!("# TYPE {} counter\n", key.name));
                last_family.clone_from(&key.name);
            }
            out.push_str(&format!(
                "{}{} {}\n",
                key.name,
                key.label_block(None),
                counter.get()
            ));
        }
        last_family.clear();
        for (key, value) in lock(&self.gauges).iter() {
            if key.name != last_family {
                out.push_str(&format!("# TYPE {} gauge\n", key.name));
                last_family.clone_from(&key.name);
            }
            out.push_str(&format!("{}{} {value}\n", key.name, key.label_block(None)));
        }
        last_family.clear();
        for (key, histogram) in lock(&self.histograms).iter() {
            if key.name != last_family {
                out.push_str(&format!("# TYPE {} histogram\n", key.name));
                last_family.clone_from(&key.name);
            }
            let snap = histogram.snapshot();
            let mut cumulative = 0u64;
            for (i, &b) in snap.buckets.iter().enumerate() {
                cumulative += b;
                let le = if i == BUCKETS - 1 {
                    "+Inf".to_string()
                } else {
                    bucket_upper_bound(i).to_string()
                };
                out.push_str(&format!(
                    "{}_bucket{} {cumulative}\n",
                    key.name,
                    key.label_block(Some(("le", &le)))
                ));
            }
            out.push_str(&format!(
                "{}_sum{} {}\n",
                key.name,
                key.label_block(None),
                snap.sum
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                key.name,
                key.label_block(None),
                snap.count
            ));
        }
        out
    }

    /// The same store as `key value` lines — the `/status` rendering.
    /// Counters and gauges print verbatim; each histogram contributes
    /// `_count`, `_sum`, and `_p50`/`_p95`/`_p99` lines. Because both
    /// renderings read one store, a key present here is present on
    /// `/metrics` under the same name.
    pub fn render_plain(&self) -> String {
        let mut out = String::new();
        for (key, counter) in lock(&self.counters).iter() {
            out.push_str(&format!(
                "{}{} {}\n",
                key.name,
                key.label_block(None),
                counter.get()
            ));
        }
        for (key, value) in lock(&self.gauges).iter() {
            out.push_str(&format!("{}{} {value}\n", key.name, key.label_block(None)));
        }
        for (key, histogram) in lock(&self.histograms).iter() {
            let snap = histogram.snapshot();
            let labels = key.label_block(None);
            out.push_str(&format!("{}_count{labels} {}\n", key.name, snap.count));
            out.push_str(&format!("{}_sum{labels} {}\n", key.name, snap.sum));
            out.push_str(&format!("{}_p50{labels} {}\n", key.name, snap.p50()));
            out.push_str(&format!("{}_p95{labels} {}\n", key.name, snap.p95()));
            out.push_str(&format!("{}_p99{labels} {}\n", key.name, snap.p99()));
        }
        out
    }
}

/// One request's phase record: named timed spans in execution order,
/// plus the routing facts the engine learned along the way.
///
/// Serializes to line-oriented text (one `span <name> <nanos>` line per
/// span, one `<key> <value>` line per set fact, always a final
/// `total <nanos>`) and parses back exactly — the same grammar style as
/// the engine's request/response wire format, which is what lets a
/// trace ride inside an `EvalResponse` body.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// `(phase name, nanoseconds)` in execution order. Phase names are
    /// single words (no whitespace) so the line grammar round-trips.
    /// The engine's vocabulary: `parse` / `route` / `cache` / `compile`
    /// / `evaluate` / `sample` phases on the evaluation routes (a cache
    /// hit records `cache`, a miss `compile`, an over-budget lineage
    /// `sample` in place of `evaluate`), and `open` / `update` /
    /// `explain` on session requests (the latter two summed across a
    /// request's ops; per-op latencies go to the `engine_update_nanos` /
    /// `engine_explain_nanos` histograms instead).
    pub spans: Vec<(String, u64)>,
    /// The route taken (`lifted` / `compiled` / `sampled`, or `session`
    /// for stateful session requests).
    pub route: Option<String>,
    /// Compiled route: whether the circuit came from the cache.
    pub cache_hit: Option<bool>,
    /// Unsafe queries: the flat-gate cost estimate that priced the
    /// route decision.
    pub gates: Option<u64>,
    /// Sampled route: Monte-Carlo samples drawn.
    pub samples: Option<u64>,
    /// Sampled route (adaptive mode): rounds before stopping.
    pub rounds: Option<u64>,
    /// End-to-end nanoseconds (what the slow log thresholds on).
    pub total_nanos: u64,
}

impl Trace {
    /// A fresh, empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends one timed span. `name` must be a single word.
    pub fn push_span(&mut self, name: &str, nanos: u64) {
        debug_assert!(
            !name.is_empty() && !name.contains(char::is_whitespace),
            "span names must be single words: {name:?}"
        );
        self.spans.push((name.to_string(), nanos));
    }

    /// The duration of the first span named `name`, if recorded.
    pub fn span(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, nanos)| nanos)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, nanos) in &self.spans {
            writeln!(f, "span {name} {nanos}")?;
        }
        if let Some(route) = &self.route {
            writeln!(f, "route {route}")?;
        }
        if let Some(hit) = self.cache_hit {
            writeln!(f, "cache {}", if hit { "hit" } else { "miss" })?;
        }
        if let Some(gates) = self.gates {
            writeln!(f, "gates {gates}")?;
        }
        if let Some(samples) = self.samples {
            writeln!(f, "samples {samples}")?;
        }
        if let Some(rounds) = self.rounds {
            writeln!(f, "rounds {rounds}")?;
        }
        writeln!(f, "total {}", self.total_nanos)
    }
}

/// Failure to parse a [`Trace`] body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError(pub String);

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed trace: {}", self.0)
    }
}

impl std::error::Error for TraceParseError {}

impl FromStr for Trace {
    type Err = TraceParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut trace = Trace::new();
        let mut total: Option<u64> = None;
        let parse_u64 = |what: &str, w: &str| -> Result<u64, TraceParseError> {
            w.parse()
                .map_err(|_| TraceParseError(format!("bad {what} '{w}'")))
        };
        for line in s.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            let dup = |what: &str| TraceParseError(format!("duplicate '{what}' line"));
            match key {
                "span" => {
                    let (name, nanos) = rest
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| TraceParseError(format!("bad span line '{line}'")))?;
                    trace
                        .spans
                        .push((name.to_string(), parse_u64("span nanos", nanos.trim())?));
                }
                "route" => {
                    if rest.is_empty() || rest.contains(char::is_whitespace) {
                        return Err(TraceParseError(format!("bad route '{rest}'")));
                    }
                    if trace.route.replace(rest.to_string()).is_some() {
                        return Err(dup("route"));
                    }
                }
                "cache" => {
                    let hit = match rest {
                        "hit" => true,
                        "miss" => false,
                        other => return Err(TraceParseError(format!("bad cache state '{other}'"))),
                    };
                    if trace.cache_hit.replace(hit).is_some() {
                        return Err(dup("cache"));
                    }
                }
                "gates" => {
                    if trace.gates.replace(parse_u64("gates", rest)?).is_some() {
                        return Err(dup("gates"));
                    }
                }
                "samples" => {
                    if trace.samples.replace(parse_u64("samples", rest)?).is_some() {
                        return Err(dup("samples"));
                    }
                }
                "rounds" => {
                    if trace.rounds.replace(parse_u64("rounds", rest)?).is_some() {
                        return Err(dup("rounds"));
                    }
                }
                "total" => {
                    if total.replace(parse_u64("total", rest)?).is_some() {
                        return Err(dup("total"));
                    }
                }
                other => return Err(TraceParseError(format!("unknown trace line '{other}'"))),
            }
        }
        trace.total_nanos = total.ok_or_else(|| TraceParseError("missing 'total' line".into()))?;
        Ok(trace)
    }
}

/// A fixed-capacity ring buffer of the [`Trace`]s of slow requests.
///
/// A trace is admitted when its `total_nanos` reaches the threshold;
/// once the buffer is full, the oldest admitted trace is dropped. The
/// serving layer renders the buffer on `GET /slow`.
#[derive(Debug)]
pub struct SlowLog {
    threshold_nanos: u64,
    capacity: usize,
    entries: Mutex<VecDeque<Trace>>,
}

impl SlowLog {
    /// A slow log admitting traces of at least `threshold_nanos`,
    /// keeping the most recent `capacity` of them (0 disables logging).
    pub fn new(threshold_nanos: u64, capacity: usize) -> SlowLog {
        SlowLog {
            threshold_nanos,
            capacity,
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// The admission threshold in nanoseconds.
    pub fn threshold_nanos(&self) -> u64 {
        self.threshold_nanos
    }

    /// The buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offers one trace; it is cloned into the buffer only if it is
    /// slow enough (so the fast path never allocates).
    pub fn record(&self, trace: &Trace) {
        if self.capacity == 0 || trace.total_nanos < self.threshold_nanos {
            return;
        }
        let mut entries = lock(&self.entries);
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(trace.clone());
    }

    /// Number of traces currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// True iff nothing slow has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered traces, oldest first.
    pub fn snapshot(&self) -> Vec<Trace> {
        lock(&self.entries).iter().cloned().collect()
    }

    /// The `/slow` rendering: a `slowlog` header line, then each trace
    /// introduced by a `trace <ordinal>` line — every line a
    /// `key value…` pair in the trace grammar.
    pub fn render(&self) -> String {
        let entries = self.snapshot();
        let mut out = format!(
            "slowlog count {} threshold_nanos {} capacity {}\n",
            entries.len(),
            self.threshold_nanos,
            self.capacity
        );
        for (i, trace) in entries.iter().enumerate() {
            out.push_str(&format!("trace {}\n", i + 1));
            out.push_str(&trace.to_string());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bucket_bounds_partition_the_u64_line() {
        // Every value lands in exactly the bucket whose bounds bracket it.
        for v in [0u64, 1, 2, 3, 4, 255, 256, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower_bound(i) <= v, "{v}");
            assert!(v <= bucket_upper_bound(i), "{v}");
        }
        // Bounds are strictly monotone and adjacent.
        for i in 1..BUCKETS {
            assert_eq!(bucket_lower_bound(i), bucket_upper_bound(i - 1) + 1, "{i}");
        }
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_conserves_count_and_sum() {
        let h = Histogram::new();
        let values = [0u64, 1, 17, 1000, 1 << 40];
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(snap.sum, values.iter().sum::<u64>());
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8_000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 8_000);
    }

    #[test]
    fn quantiles_fall_in_the_right_bucket() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        // Rank 50 of 1..=100 is 50: bucket 6 (32..=63), upper bound 63.
        assert_eq!(snap.p50(), 63);
        // Rank 95 is 95: bucket 7 (64..=127), upper bound 127.
        assert_eq!(snap.p95(), 127);
        // Rank 1 is value 1: bucket 1, whose sole member (and bound) is 1.
        assert_eq!(snap.quantile(0.01), 1);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn merge_is_the_bucket_wise_sum() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        a.record(1 << 30);
        b.record(5);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 10 + (1 << 30));
        assert_eq!(
            merged,
            b.snapshot().merge(&a.snapshot()),
            "merge must commute"
        );
    }

    #[test]
    fn registry_handles_are_shared_and_lockfree_to_record() {
        let reg = Registry::new();
        let c1 = reg.counter("requests_total", &[("route", "lifted")]);
        let c2 = reg.counter("requests_total", &[("route", "lifted")]);
        c1.inc();
        c2.inc();
        assert_eq!(
            reg.counter_value("requests_total", &[("route", "lifted")]),
            2
        );
        // Label order does not split the identity.
        let h1 = reg.histogram("lat", &[("a", "1"), ("b", "2")]);
        let h2 = reg.histogram("lat", &[("b", "2"), ("a", "1")]);
        h1.record(7);
        assert_eq!(h2.snapshot().count, 1);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let reg = Registry::new();
        reg.counter("requests_total", &[("route", "lifted")]).inc();
        reg.set_gauge("queue_depth", &[], 3);
        reg.histogram("request_nanos", &[("route", "lifted")])
            .record(100);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter\n"));
        assert!(text.contains("requests_total{route=\"lifted\"} 1\n"));
        assert!(text.contains("# TYPE queue_depth gauge\n"));
        assert!(text.contains("queue_depth 3\n"));
        assert!(text.contains("# TYPE request_nanos histogram\n"));
        assert!(text.contains("request_nanos_bucket{route=\"lifted\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("request_nanos_sum{route=\"lifted\"} 100\n"));
        assert!(text.contains("request_nanos_count{route=\"lifted\"} 1\n"));
        // Cumulative le buckets are monotone non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
        // Plain rendering reads the same store: same keys, same values.
        let plain = reg.render_plain();
        assert!(plain.contains("requests_total{route=\"lifted\"} 1\n"));
        assert!(plain.contains("queue_depth 3\n"));
        assert!(plain.contains("request_nanos_count{route=\"lifted\"} 1\n"));
    }

    #[test]
    fn trace_roundtrips_through_text() {
        let mut trace = Trace::new();
        trace.push_span("parse", 1_200);
        trace.push_span("route", 300);
        trace.push_span("compile", 90_000);
        trace.route = Some("compiled".into());
        trace.cache_hit = Some(false);
        trace.gates = Some(512);
        trace.total_nanos = 95_000;
        let text = trace.to_string();
        assert_eq!(text.parse::<Trace>().unwrap(), trace);
        // A minimal trace (defaults only) round-trips too.
        let minimal = Trace::new();
        assert_eq!(minimal.to_string().parse::<Trace>().unwrap(), minimal);
    }

    #[test]
    fn trace_parse_rejects_malformed_bodies() {
        for bad in [
            "",                       // missing total
            "span parse\ntotal 1\n",  // span without nanos
            "cache maybe\ntotal 1\n", // bad cache state
            "total 1\ntotal 2\n",     // duplicate
            "unknown 3\ntotal 1\n",   // unknown key
            "route two words\ntotal 1\n",
            "fallbacks 0\ntotal 1\n", // not a trace key
        ] {
            assert!(bad.parse::<Trace>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn slow_log_thresholds_and_rings() {
        let log = SlowLog::new(100, 2);
        let mut fast = Trace::new();
        fast.total_nanos = 99;
        log.record(&fast);
        assert!(log.is_empty(), "below threshold is not logged");
        for total in [100, 200, 300] {
            let mut t = Trace::new();
            t.total_nanos = total;
            log.record(&t);
        }
        let entries = log.snapshot();
        assert_eq!(entries.len(), 2, "ring keeps the most recent entries");
        assert_eq!(entries[0].total_nanos, 200);
        assert_eq!(entries[1].total_nanos, 300);
        let text = log.render();
        assert!(text.starts_with("slowlog count 2 threshold_nanos 100 capacity 2\n"));
        assert!(text.contains("trace 1\n"));
        assert!(text.contains("total 300\n"));
    }
}
