//! The Karp–Luby FPRAS for monotone DNF probability, and its CNF wrapper.
//!
//! Given a monotone DNF `D = T_1 ∨ … ∨ T_m` over independent variables,
//! the Karp–Luby estimator samples from the *union space*: pick a term
//! `T_j` with probability `Pr(T_j)/S` (importance sampling against the
//! union bound `S = Σ_i Pr(T_i)`), then a world conditioned on `T_j`
//! holding, and score 1 iff `T_j` is the **canonical** (first-in-order)
//! satisfied term of that world. The indicator's mean is
//! `μ = Pr(D)/S ∈ [1/m, 1]`, so `Ŝ·hits/N` is an unbiased estimate of
//! `Pr(D)` whose relative error is controlled with only
//! `N = ⌈3·m·ln(2/δ)/ε²⌉` samples — a fully polynomial randomized
//! approximation scheme (Karp–Luby–Madras 1989).
//!
//! Everything except the confidence-interval square root runs in exact
//! rational arithmetic: term selection and every Bernoulli draw compare a
//! 53-bit dyadic draw against exact rational quantities (cumulative term
//! weights, variable probabilities) folded at construction time into
//! integer thresholds — one u64 comparison per draw, deciding identically
//! to the rational comparison, with no per-sample allocation. Under the
//! workspace's deterministic [`rand`] stand-in, a fixed seed therefore
//! yields a bit-identical [`Estimate`] on every platform.
//!
//! [`CnfSampler`] adapts the estimator to the workspace's native
//! representation: the probability of a monotone CNF `F` (a query lineage)
//! is `1 − Pr(D)` for the complement-DNF `D` of `F` under flipped weights
//! (see [`gfomc_logic::dnf`]).

use crate::estimate::{rational_upper_bound, ConfidenceInterval, Estimate};
use gfomc_arith::Rational;
use gfomc_logic::{Cnf, Dnf, Var, WeightFn, WeightsFromFn};
use gfomc_pool::WorkerPool;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Samples per deterministic chunk of the seeded sampling plan (see
/// [`KarpLuby::estimate_seeded`]).
///
/// A sampling run at seed `s` is partitioned into fixed-size chunks; chunk
/// `k` draws all of its samples from its own RNG stream seeded with
/// `chunk_seed(s, k)`. Hit counts are integers and addition commutes, so
/// the merged estimate depends only on `(seed, sample count)` — never on
/// how many threads executed the chunks or in which order.
pub const SAMPLE_CHUNK: u64 = 256;

/// Process-wide count of Monte-Carlo samples drawn by the seeded chunked
/// sampler (telemetry only — never read on the sampling path).
static SAMPLES_DRAWN: AtomicU64 = AtomicU64::new(0);

/// Total Monte-Carlo samples drawn across the process so far.
pub fn samples_drawn_total() -> u64 {
    SAMPLES_DRAWN.load(Ordering::Relaxed)
}

/// Asserts `0 < value < 1` — NaN included — in every build. The engine's
/// `Budget` builders reject bad parameters first with a typed
/// `BudgetError` (the front door a network request can reach); this check
/// guards the public entry points of this crate (`AdaptiveConfig::new`,
/// `KarpLuby::fpras_samples`, `estimate_seeded`) for callers that skip
/// those builders. It costs two float compares per call.
pub(crate) fn validate_unit_open(name: &str, value: f64) {
    assert!(
        value > 0.0 && value < 1.0,
        "{name} must lie strictly inside (0, 1), got {value}"
    );
}

/// The SplitMix64 finalizer: a bijective avalanche mix.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-chunk RNG seed: a double avalanche of (seed, chunk index) so
/// chunk streams are decorrelated even for adjacent indices.
fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    mix64(
        seed ^ mix64(
            chunk
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0xD1B5_4A32_D192_ED03),
        ),
    )
}

/// A prepared Karp–Luby sampler for `Pr(D)` of a monotone DNF under
/// independent variable probabilities.
///
/// Construction precomputes the term weights and their cumulative sums;
/// each [`KarpLuby::estimate_seeded`] call is then
/// `O(samples · (vars + scan))` with no allocation beyond one world bitset
/// per worker, reused across every chunk that worker executes.
///
/// Worlds are word-packed: a sampled world is a `[u64]` bitset, one bit
/// per variable position, and the canonical-term scan runs in whole-word
/// AND/compare steps against per-term masks instead of per-variable
/// `bool` loads.
#[derive(Clone, Debug)]
pub struct KarpLuby {
    /// Position → Bernoulli threshold on the 53-bit dyadic grid:
    /// `u < p ⇔ r < ceil(p·2^53)` for `u = r/2^53`, so each conditional
    /// draw is a single u64 comparison yet decides exactly like the
    /// rational comparison would.
    thresholds: Vec<u64>,
    /// Term → sorted positions of its variables (zero-probability terms are
    /// dropped: they hold in no world and cannot affect the canonical scan).
    terms: Vec<Vec<usize>>,
    /// Term → sparse word masks `(word, bits)` over the packed world: term
    /// `i` holds in `world` iff `world[word] & bits == bits` for every
    /// entry. Positions are sorted, so entries are grouped per word and the
    /// canonical scan touches each 64-variable window at most once.
    term_masks: Vec<Vec<(u32, u64)>>,
    /// Cumulative term weights on the dyadic grid:
    /// `cum_thresholds[j] = ceil((Σ_{i ≤ j} Pr(T_i))·2^53 / S)`. Term
    /// selection is then a u64 binary search deciding identically to the
    /// exact-rational comparison `u·S < Σ_{i ≤ j} Pr(T_i)`.
    cum_thresholds: Vec<u64>,
    /// The union bound `S = Σ_i Pr(T_i)`.
    total: Rational,
    /// Exact short-circuit for degenerate formulas (`⊤`, `⊥`, all terms
    /// impossible): no sampling needed.
    exact: Option<Rational>,
}

/// Words in the packed world bitset for `n` variable positions.
fn world_words(n: usize) -> usize {
    n.div_ceil(64)
}

impl KarpLuby {
    /// Prepares a sampler for `Pr(d)` under `w`. Weights must be
    /// probabilities; variables not occurring in `d` are never queried.
    pub fn new<W: WeightFn>(d: &Dnf, w: &W) -> Self {
        if d.is_true() {
            return KarpLuby::trivial(Rational::one());
        }
        if d.is_false() {
            return KarpLuby::trivial(Rational::zero());
        }
        let vars: Vec<Var> = d.vars().into_iter().collect();
        let mut thresholds = Vec::with_capacity(vars.len());
        for &v in &vars {
            let p = w.weight(v);
            assert!(p.is_probability(), "weight out of [0,1] for {v:?}");
            thresholds.push(dyadic_threshold(&p));
        }
        let position = |v: Var| vars.binary_search(&v).expect("term var in support");
        let mut terms: Vec<Vec<usize>> = Vec::with_capacity(d.len());
        let mut cum: Vec<Rational> = Vec::with_capacity(d.len());
        let mut total = Rational::zero();
        for i in 0..d.len() {
            let p = d.term_probability(i, w);
            if p.is_zero() {
                // The term mentions a probability-0 variable: it holds in no
                // world, so it can neither be drawn nor beat a drawn term in
                // the canonical scan. Drop it.
                continue;
            }
            terms.push(d.terms()[i].vars().iter().map(|&v| position(v)).collect());
            total = &total + &p;
            cum.push(total.clone());
        }
        if terms.is_empty() {
            // Every term was impossible: Pr(D) = 0 exactly.
            return KarpLuby::trivial(Rational::zero());
        }
        // Normalization hoist: `ceil((c/S)·2^53)` is computed as one integer
        // ceiling division per term on cross-multiplied numerators — never
        // materializing the reduced rational `c/S`, whose per-term gcd
        // normalization used to dominate construction. Ceiling division is
        // scale-invariant (`⌈ka/kb⌉ = ⌈a/b⌉`), so the thresholds are
        // bit-identical to the old per-term `dyadic_threshold(c/S)` path.
        let s_numer = total.numer().magnitude();
        let s_denom = total.denom();
        let cum_thresholds = cum
            .iter()
            .map(|c| {
                let numer = (c.numer().magnitude() * s_denom).shl_bits(53);
                let denom = c.denom() * s_numer;
                let (q, r) = numer.div_rem(&denom);
                let q = q.to_u64().expect("cum ≤ S keeps the threshold within 2^53");
                if r.is_zero() {
                    q
                } else {
                    q + 1
                }
            })
            .collect();
        let term_masks = terms.iter().map(|t| word_masks(t)).collect();
        KarpLuby {
            thresholds,
            terms,
            term_masks,
            cum_thresholds,
            total,
            exact: None,
        }
    }

    fn trivial(value: Rational) -> Self {
        KarpLuby {
            thresholds: Vec::new(),
            terms: Vec::new(),
            term_masks: Vec::new(),
            cum_thresholds: Vec::new(),
            total: Rational::zero(),
            exact: Some(value),
        }
    }

    /// Number of live (nonzero-probability) terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// The union bound `S` the estimator normalizes against.
    pub fn union_bound(&self) -> &Rational {
        &self.total
    }

    /// True iff the formula was degenerate and [`KarpLuby::estimate_seeded`]
    /// will return an exact value without sampling.
    pub fn is_exact(&self) -> bool {
        self.exact.is_some()
    }

    /// The Karp–Luby–Madras sample budget sufficient for relative error
    /// `ε` with probability `1 − δ`: `⌈3·m·ln(2/δ)/ε²⌉`. (The indicator
    /// mean is at least `1/m`, so a multiplicative Chernoff bound at
    /// `N ≥ 3·ln(2/δ)/(ε²μ)` suffices; we substitute the worst case.)
    pub fn fpras_samples(&self, epsilon: f64, delta: f64) -> u64 {
        validate_unit_open("epsilon", epsilon);
        validate_unit_open("delta", delta);
        let m = self.terms.len().max(1) as f64;
        (3.0 * m * (2.0 / delta).ln() / (epsilon * epsilon)).ceil() as u64
    }

    /// The estimate assembled from a merged hit count: `Ŝ·hits/N` in exact
    /// arithmetic (the seeded-deterministic point) with a two-sided
    /// Hoeffding interval at confidence `1 − δ`.
    ///
    /// The interval is conservative (distribution-free): the indicator mean
    /// `μ` satisfies `|hits/N − μ| ≤ √(ln(2/δ)/2N)` with probability at
    /// least `1 − δ`, and the bound is scaled by `S` and rounded outward.
    ///
    /// The raw unbiased estimator can overshoot 1 when the union bound is
    /// loose and samples are few; since the target is a probability, the
    /// *reported* point is clamped into [0, 1] (mean clipping — it can only
    /// reduce absolute error). The interval is still centered on the raw
    /// value, which is what the Hoeffding bound speaks about.
    pub(crate) fn estimate_from_hits(&self, hits: u64, samples: u64, delta: f64) -> Estimate {
        let frac = Rational::from_ints(hits as i64, samples as i64);
        let raw = &self.total * &frac;
        // Hoeffding half-width on μ, scaled by S, rounded outward.
        let h = ((2.0 / delta).ln() / (2.0 * samples as f64)).sqrt();
        let half = &self.total * &rational_upper_bound(h);
        let ci = ConfidenceInterval::new(&raw - &half, &raw + &half, delta);
        Estimate {
            estimate: crate::estimate::clamp_unit(raw),
            ci,
            samples,
            hits,
            exact: false,
        }
    }

    /// The raw point `Ŝ·hits/N` with an explicit outward-rounded half-width
    /// (used by the adaptive stopper, whose interval is empirical-Bernstein
    /// rather than Hoeffding).
    pub(crate) fn estimate_with_half_width(
        &self,
        hits: u64,
        samples: u64,
        half: &Rational,
        delta: f64,
    ) -> Estimate {
        let frac = Rational::from_ints(hits as i64, samples as i64);
        let raw = &self.total * &frac;
        let ci = ConfidenceInterval::new(&raw - half, &raw + half, delta);
        Estimate {
            estimate: crate::estimate::clamp_unit(raw),
            ci,
            samples,
            hits,
            exact: false,
        }
    }

    /// The exact short-circuit value, if the formula was degenerate.
    pub(crate) fn exact_value(&self) -> Option<&Rational> {
        self.exact.as_ref()
    }

    /// One Karp–Luby sample: draw a term, a world conditioned on it, and
    /// report whether the canonical indicator fired. `world` is scratch
    /// (fully overwritten by the draw — no re-zeroing between samples).
    fn draw_hit<R: Rng>(&self, rng: &mut R, world: &mut [u64]) -> bool {
        let j = self.draw_term(rng);
        self.draw_world(rng, j, world);
        self.is_canonical(j, world)
    }

    /// Hit count of one deterministic chunk: `n` samples from the chunk's
    /// own seed stream (see [`SAMPLE_CHUNK`]). `world` is caller-owned
    /// scratch, so a worker executing many chunks allocates it once.
    fn chunk_hits(&self, seed: u64, chunk: u64, n: u64, world: &mut [u64]) -> u64 {
        let mut rng = StdRng::seed_from_u64(chunk_seed(seed, chunk));
        let mut hits = 0u64;
        for _ in 0..n {
            if self.draw_hit(&mut rng, world) {
                hits += 1;
            }
        }
        hits
    }

    /// Merged hit count of samples `from..to` of the seeded sampling plan,
    /// executed on up to `threads` logical workers of the process-wide
    /// shared [`WorkerPool`].
    ///
    /// `from` must sit on a [`SAMPLE_CHUNK`] boundary (rounds of the
    /// adaptive stopper and whole runs both do), unless the range is
    /// empty. The result is the integer sum of per-chunk hit counts, so it
    /// is **bit-identical for every thread count** — parallelism changes
    /// only who executes a chunk, never what the chunk draws.
    pub fn hits_in_range(&self, seed: u64, from: u64, to: u64, threads: usize) -> u64 {
        self.hits_in_range_on(WorkerPool::global(), seed, from, to, threads)
    }

    /// [`KarpLuby::hits_in_range`] on a caller-provided pool — the engine
    /// routes its sampling through its own shared pool. Workers claim
    /// chunk indices from a shared cursor (an idle worker steals the next
    /// pending chunk), so stragglers never serialize a round.
    pub fn hits_in_range_on(
        &self,
        pool: &WorkerPool,
        seed: u64,
        from: u64,
        to: u64,
        workers: usize,
    ) -> u64 {
        assert!(from <= to, "inverted sample range");
        if from == to {
            // An empty range draws no chunks wherever it starts — checked
            // before the alignment assert, so callers whose previous round
            // ended exactly on a non-chunk-aligned cap may ask for the
            // empty remainder without panicking.
            return 0;
        }
        assert!(
            from.is_multiple_of(SAMPLE_CHUNK),
            "sample ranges must start on a chunk boundary"
        );
        // Telemetry only: the draw count is decided above, and observing
        // it cannot change a single sample.
        SAMPLES_DRAWN.fetch_add(to - from, Ordering::Relaxed);
        let first = from / SAMPLE_CHUNK;
        let last = to.div_ceil(SAMPLE_CHUNK);
        let len = |c: u64| (to - c * SAMPLE_CHUNK).min(SAMPLE_CHUNK);
        let workers = workers.clamp(1, (last - first) as usize);
        if workers == 1 {
            let mut world = vec![0u64; world_words(self.thresholds.len())];
            return (first..last)
                .map(|c| self.chunk_hits(seed, c, len(c), &mut world))
                .sum();
        }
        let cursor = AtomicU64::new(first);
        let hits = AtomicU64::new(0);
        pool.broadcast(workers, |_| {
            // One world bitset per worker, reused across every chunk it
            // claims from the cursor.
            let mut world = vec![0u64; world_words(self.thresholds.len())];
            let mut local = 0u64;
            loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= last {
                    break;
                }
                local += self.chunk_hits(seed, c, len(c), &mut world);
            }
            hits.fetch_add(local, Ordering::Relaxed);
        });
        hits.load(Ordering::Relaxed)
    }

    /// Draws `samples` Karp–Luby samples of the chunked plan for `seed`
    /// across up to `threads` workers of the process-wide shared
    /// [`WorkerPool`] (1 = serial), and returns the estimate of `Pr(D)`
    /// with a two-sided Hoeffding interval at confidence `1 − δ`.
    ///
    /// Determinism guarantee: for a fixed `(seed, samples, delta)` the
    /// returned [`Estimate`] is bit-identical for **every** thread count —
    /// see [`SAMPLE_CHUNK`].
    pub fn estimate_seeded(&self, seed: u64, samples: u64, delta: f64, threads: usize) -> Estimate {
        self.estimate_seeded_on(WorkerPool::global(), seed, samples, delta, threads)
    }

    /// [`KarpLuby::estimate_seeded`] on a caller-provided pool. The pool
    /// choice can never change the estimate — only the wall-clock.
    pub fn estimate_seeded_on(
        &self,
        pool: &WorkerPool,
        seed: u64,
        samples: u64,
        delta: f64,
        workers: usize,
    ) -> Estimate {
        validate_unit_open("delta", delta);
        if let Some(value) = &self.exact {
            return Estimate::exact(value.clone(), delta);
        }
        assert!(samples > 0, "need at least one sample");
        assert!(samples <= i64::MAX as u64, "sample budget out of range");
        let hits = self.hits_in_range_on(pool, seed, 0, samples, workers);
        self.estimate_from_hits(hits, samples, delta)
    }

    /// Importance-samples a term index proportionally to its weight: a
    /// 53-bit dyadic draw `r`, then the first `j` with
    /// `r < cum_thresholds[j]` — exactly the rational comparison
    /// `r/2^53·S < cum[j]`, one u64 binary search per sample.
    fn draw_term<R: Rng>(&self, rng: &mut R) -> usize {
        let r = rng.next_u64() >> 11;
        let j = self.cum_thresholds.partition_point(|&t| t <= r);
        debug_assert!(j < self.terms.len());
        j.min(self.terms.len() - 1)
    }

    /// Fills `world` with a sample conditioned on term `j` holding: its
    /// variables are forced true, every other variable is an independent
    /// Bernoulli draw against its exact dyadic threshold.
    ///
    /// The RNG consumption order is load-bearing: exactly one draw per
    /// non-forced position, in position order, none for forced positions —
    /// identical to the historical `Vec<bool>` walk, so seeded estimates
    /// are unchanged by the packing. Each word is rebuilt from zero in a
    /// register and stored once, which is what lets callers reuse the
    /// scratch without clearing it.
    fn draw_world<R: Rng>(&self, rng: &mut R, j: usize, world: &mut [u64]) {
        let n = self.thresholds.len();
        let term = &self.terms[j];
        let mut next_forced = 0usize;
        let mut word = 0u64;
        for pos in 0..n {
            let bit = if next_forced < term.len() && term[next_forced] == pos {
                next_forced += 1;
                true
            } else {
                (rng.next_u64() >> 11) < self.thresholds[pos]
            };
            word |= (bit as u64) << (pos % 64);
            if pos % 64 == 63 {
                world[pos / 64] = word;
                word = 0;
            }
        }
        if !n.is_multiple_of(64) {
            world[n / 64] = word;
        }
    }

    /// True iff no earlier term also holds in `world` (term `j` holds by
    /// construction): the coverage partition of the union space. Each
    /// earlier term is tested by whole-word mask containment.
    fn is_canonical(&self, j: usize, world: &[u64]) -> bool {
        !self.term_masks[..j]
            .iter()
            .any(|masks| masks.iter().all(|&(w, m)| world[w as usize] & m == m))
    }
}

/// Packs sorted variable positions into sparse `(word, bits)` masks —
/// consecutive positions sharing a 64-bit window merge into one entry.
fn word_masks(positions: &[usize]) -> Vec<(u32, u64)> {
    let mut masks: Vec<(u32, u64)> = Vec::new();
    for &pos in positions {
        let word = (pos / 64) as u32;
        let bit = 1u64 << (pos % 64);
        match masks.last_mut() {
            Some((w, m)) if *w == word => *m |= bit,
            _ => masks.push((word, bit)),
        }
    }
    masks
}

/// `ceil(p·2^53)` as a u64, for a probability `p`: the exact comparison
/// threshold on the dyadic grid. For a 53-bit draw `r`,
/// `r/2^53 < p ⇔ r < ceil(p·2^53)` (whether or not `p·2^53` is an
/// integer), so the u64 comparison decides *identically* to the rational
/// one — just without allocating per draw. Used for both the Bernoulli
/// draws (`p` a variable probability) and term selection (`p` a
/// normalized cumulative weight `cum[j]/S`).
fn dyadic_threshold(p: &Rational) -> u64 {
    let scaled = p.numer().magnitude().shl_bits(53);
    let (q, r) = scaled.div_rem(p.denom());
    let q = q.to_u64().expect("p ≤ 1 keeps the threshold within 2^53");
    if r.is_zero() {
        q
    } else {
        q + 1
    }
}

/// Karp–Luby sampling for the probability of a monotone **CNF** (a query
/// lineage): `Pr(F) = 1 − Pr(D)` for the complement-DNF `D` of `F` under
/// the flipped weights `w̄(v) = 1 − w(v)`.
///
/// Deterministic (probability-0/1) variables are eliminated by restriction
/// before complementing, mirroring the exact counter — the sampler then
/// only ever draws strictly-interior Bernoullis.
///
/// The (ε, δ) relative-error guarantee of the underlying FPRAS applies to
/// `Pr(¬F)`; the additive Hoeffding interval on the returned [`Estimate`]
/// applies to `Pr(F)` directly.
#[derive(Clone, Debug)]
pub struct CnfSampler {
    kl: KarpLuby,
}

impl CnfSampler {
    /// Prepares a sampler for `Pr(f)` under `w`.
    pub fn new<W: WeightFn>(f: &Cnf, w: &W) -> Self {
        let det: Vec<(Var, bool)> = f
            .vars()
            .into_iter()
            .filter_map(|v| {
                let p = w.weight(v);
                if p.is_zero() {
                    Some((v, false))
                } else if p.is_one() {
                    Some((v, true))
                } else {
                    None
                }
            })
            .collect();
        let reduced;
        let f = if det.is_empty() {
            f
        } else {
            reduced = f.restrict_all(&det);
            &reduced
        };
        let d = Dnf::complement_of(f);
        let flipped = WeightsFromFn(|v| w.weight(v).complement());
        CnfSampler {
            kl: KarpLuby::new(&d, &flipped),
        }
    }

    /// Number of live complement-DNF terms (falsifiable lineage clauses).
    pub fn term_count(&self) -> usize {
        self.kl.term_count()
    }

    /// True iff the lineage was degenerate and estimates are exact.
    pub fn is_exact(&self) -> bool {
        self.kl.is_exact()
    }

    /// The Karp–Luby–Madras budget for relative error `ε` on `Pr(¬F)` at
    /// confidence `1 − δ`.
    pub fn fpras_samples(&self, epsilon: f64, delta: f64) -> u64 {
        self.kl.fpras_samples(epsilon, delta)
    }

    /// Estimates `Pr(f)` from `samples` draws of the chunked plan for
    /// `seed`, with a two-sided Hoeffding interval at confidence `1 − δ`:
    /// bit-identical for every thread count at a fixed
    /// `(seed, samples, delta)` — see [`KarpLuby::estimate_seeded`].
    pub fn estimate_seeded(&self, seed: u64, samples: u64, delta: f64, threads: usize) -> Estimate {
        self.kl
            .estimate_seeded(seed, samples, delta, threads)
            .complement()
    }

    /// [`CnfSampler::estimate_seeded`] on a caller-provided pool — the
    /// engine's router fans sampling across the engine's own shared pool.
    pub fn estimate_seeded_on(
        &self,
        pool: &WorkerPool,
        seed: u64,
        samples: u64,
        delta: f64,
        workers: usize,
    ) -> Estimate {
        self.kl
            .estimate_seeded_on(pool, seed, samples, delta, workers)
            .complement()
    }

    /// The underlying complement-DNF sampler.
    pub fn karp_luby(&self) -> &KarpLuby {
        &self.kl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_logic::{wmc_brute_force, Clause, UniformWeight};
    use std::collections::HashMap;

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    fn half() -> UniformWeight {
        UniformWeight(Rational::one_half())
    }

    #[test]
    fn degenerate_formulas_are_exact() {
        let kl = KarpLuby::new(&Dnf::top(), &half());
        assert!(kl.is_exact());
        let e = kl.estimate_seeded(1, 100, 0.05, 1);
        assert!(e.exact);
        assert_eq!(e.estimate, Rational::one());
        let kl = KarpLuby::new(&Dnf::bottom(), &half());
        assert_eq!(
            kl.estimate_seeded(1, 100, 0.05, 1).estimate,
            Rational::zero()
        );

        let s = CnfSampler::new(&Cnf::top(), &half());
        assert_eq!(s.estimate_seeded(1, 100, 0.05, 1).estimate, Rational::one());
        let s = CnfSampler::new(&Cnf::bottom(), &half());
        assert_eq!(
            s.estimate_seeded(1, 100, 0.05, 1).estimate,
            Rational::zero()
        );
    }

    #[test]
    fn impossible_terms_are_dropped() {
        // Term (x1∧x2) with Pr(x2)=0 is impossible; only (x3) remains.
        let d = Dnf::new([cl(&[1, 2]), cl(&[3])]);
        let mut w = HashMap::new();
        w.insert(Var(1), Rational::one_half());
        w.insert(Var(2), Rational::zero());
        w.insert(Var(3), Rational::from_ints(1, 4));
        let kl = KarpLuby::new(&d, &w);
        assert_eq!(kl.term_count(), 1);
        assert_eq!(kl.union_bound(), &Rational::from_ints(1, 4));
        // With a single live term the canonical indicator always fires:
        // the estimate is exactly the union bound, from any seed.
        let e = kl.estimate_seeded(7, 64, 0.05, 1);
        assert_eq!(e.hits, 64);
        assert_eq!(e.estimate, Rational::from_ints(1, 4));
    }

    #[test]
    fn all_terms_impossible_is_exact_zero() {
        let d = Dnf::new([cl(&[1])]);
        let mut w = HashMap::new();
        w.insert(Var(1), Rational::zero());
        let kl = KarpLuby::new(&d, &w);
        assert!(kl.is_exact());
        assert_eq!(
            kl.estimate_seeded(3, 10, 0.05, 1).estimate,
            Rational::zero()
        );
    }

    #[test]
    fn single_term_estimate_is_exact_product() {
        // Pr(x1∧x2) at ½: indicator is constantly 1, estimate = S = ¼.
        let d = Dnf::new([cl(&[1, 2])]);
        let kl = KarpLuby::new(&d, &half());
        let e = kl.estimate_seeded(11, 32, 0.05, 1);
        assert_eq!(e.estimate, Rational::from_ints(1, 4));
        assert!(e.ci.contains(&Rational::from_ints(1, 4)));
    }

    #[test]
    fn same_seed_same_estimate() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[1, 3])]);
        let s = CnfSampler::new(&f, &half());
        let run = |seed: u64| s.estimate_seeded(seed, 500, 0.05, 1);
        assert_eq!(run(99), run(99));
        // …and a different seed (almost surely) moves the hit count.
        assert_ne!(run(99).hits, run(100).hits);
    }

    #[test]
    fn ci_covers_brute_force_on_fixed_formulas() {
        let formulas = [
            Cnf::new([cl(&[1, 2]), cl(&[2, 3])]),
            Cnf::new([cl(&[1, 2, 3]), cl(&[2, 4]), cl(&[1, 4])]),
            Cnf::new([cl(&[1]), cl(&[2, 3]), cl(&[4, 5, 6])]),
            Cnf::new([cl(&[1, 2]), cl(&[3, 4]), cl(&[5, 6]), cl(&[1, 6])]),
        ];
        for (i, f) in formulas.iter().enumerate() {
            let truth = wmc_brute_force(f, &half());
            let s = CnfSampler::new(f, &half());
            let e = s.estimate_seeded(0xC0FFEE + i as u64, 2_000, 0.05, 1);
            assert!(e.ci.contains(&truth), "{f:?}: {e:?} vs {truth}");
            assert!(!e.exact);
            assert_eq!(e.samples, 2_000);
        }
    }

    #[test]
    fn deterministic_variables_are_eliminated() {
        // Pr(x1)=1 satisfies the first clause; Pr(x2)=0 drops from the
        // second, leaving exactly Pr(x3).
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let mut w = HashMap::new();
        w.insert(Var(1), Rational::one());
        w.insert(Var(2), Rational::zero());
        w.insert(Var(3), Rational::from_ints(2, 7));
        let s = CnfSampler::new(&f, &w);
        assert_eq!(s.term_count(), 1);
        let e = s.estimate_seeded(5, 64, 0.05, 1);
        assert_eq!(e.estimate, Rational::from_ints(2, 7));
    }

    #[test]
    fn empty_range_at_unaligned_offset_is_zero() {
        // Regression: the chunk-alignment assert used to run before the
        // `from == to` early return, so an empty range at a non-chunk-
        // aligned offset (an adaptive round landing exactly on its cap)
        // panicked instead of reporting zero hits.
        let d = Dnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let kl = KarpLuby::new(&d, &half());
        let off = SAMPLE_CHUNK + SAMPLE_CHUNK / 2 + 7;
        assert!(!off.is_multiple_of(SAMPLE_CHUNK));
        assert_eq!(kl.hits_in_range(9, off, off, 1), 0);
        assert_eq!(kl.hits_in_range(9, off, off, 4), 0);
        assert_eq!(kl.hits_in_range(9, 0, 0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "chunk boundary")]
    fn nonempty_unaligned_range_still_panics() {
        let d = Dnf::new([cl(&[1])]);
        let kl = KarpLuby::new(&d, &half());
        kl.hits_in_range(9, 7, 100, 1);
    }

    #[test]
    fn sampler_parameters_are_validated_at_both_endpoints() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let d = Dnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let kl = KarpLuby::new(&d, &half());
        // Valid interior values pass…
        assert!(kl.fpras_samples(0.5, 0.5) > 0);
        // …every endpoint, out-of-range value, and NaN panics with a
        // message naming the parameter, instead of silently producing a
        // NaN-derived or saturated budget.
        for eps in [0.0, 1.0, -0.1, 2.0, f64::NAN] {
            let err = catch_unwind(AssertUnwindSafe(|| kl.fpras_samples(eps, 0.05)))
                .expect_err("ε out of (0,1) must panic");
            let msg = err.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains("epsilon"), "{msg}");
        }
        for delta in [0.0, 1.0, -1.0, 3.5, f64::NAN] {
            let err = catch_unwind(AssertUnwindSafe(|| kl.fpras_samples(0.1, delta)))
                .expect_err("δ out of (0,1) must panic");
            let msg = err.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains("delta"), "{msg}");
            let err = catch_unwind(AssertUnwindSafe(|| kl.estimate_seeded(1, 64, delta, 1)))
                .expect_err("δ out of (0,1) must panic in estimate_seeded");
            let msg = err.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains("delta"), "{msg}");
        }
    }

    #[test]
    fn seeded_estimates_agree_across_pools() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[1, 3])]);
        let s = CnfSampler::new(&f, &half());
        let base = s.estimate_seeded(42, 2_000, 0.05, 1);
        let own = gfomc_pool::WorkerPool::new(3);
        for workers in [1usize, 2, 8] {
            assert_eq!(base, s.estimate_seeded_on(&own, 42, 2_000, 0.05, workers));
        }
    }

    #[test]
    fn hoisted_cum_thresholds_match_per_term_division() {
        // The cross-multiplied ceiling division must be bit-identical to
        // the historical reduced-rational path `dyadic_threshold(c/S)` —
        // awkward coprime weights make the gcd normalization nontrivial.
        let d = Dnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4]), cl(&[1, 4]), cl(&[5])]);
        let mut w = HashMap::new();
        w.insert(Var(1), Rational::from_ints(1, 3));
        w.insert(Var(2), Rational::from_ints(2, 7));
        w.insert(Var(3), Rational::from_ints(3, 5));
        w.insert(Var(4), Rational::from_ints(5, 11));
        w.insert(Var(5), Rational::from_ints(12, 13));
        let kl = KarpLuby::new(&d, &w);
        let mut total = Rational::zero();
        let mut cum = Vec::new();
        for i in 0..d.len() {
            total = &total + &d.term_probability(i, &w);
            cum.push(total.clone());
        }
        let old_way: Vec<u64> = cum
            .iter()
            .map(|c| dyadic_threshold(&(c / &total)))
            .collect();
        assert_eq!(kl.cum_thresholds, old_way);
        assert_eq!(kl.union_bound(), &total);
    }

    #[test]
    fn constructor_cost_is_linear_in_term_count() {
        // Regression guard for the normalization hoist: growing the term
        // count 8× must grow `KarpLuby::new` by roughly 8×, not 64×. The
        // 48× ceiling leaves a wide noise margin while still failing any
        // reintroduced per-term quadratic pass.
        use std::time::Instant;
        let build = |m: u32| Dnf::new((0..m).map(|i| cl(&[i + 1])));
        let time = |d: &Dnf| {
            let mut best = None;
            for _ in 0..3 {
                let t0 = Instant::now();
                let kl = KarpLuby::new(d, &half());
                let dt = t0.elapsed();
                assert_eq!(kl.term_count(), d.len());
                best = Some(best.map_or(dt, |b: std::time::Duration| b.min(dt)));
            }
            best.unwrap()
        };
        let small = build(1_000);
        let large = build(8_000);
        let t_small = time(&small).max(std::time::Duration::from_micros(200));
        let t_large = time(&large);
        assert!(
            t_large < t_small * 48,
            "constructor no longer linear: {t_small:?} for 1k terms vs {t_large:?} for 8k"
        );
    }

    #[test]
    fn fpras_budget_grows_with_terms_and_precision() {
        let d3 = Dnf::new([cl(&[1]), cl(&[2]), cl(&[3])]);
        let d1 = Dnf::new([cl(&[1])]);
        let kl3 = KarpLuby::new(&d3, &half());
        let kl1 = KarpLuby::new(&d1, &half());
        assert!(kl3.fpras_samples(0.1, 0.05) > kl1.fpras_samples(0.1, 0.05));
        assert!(kl3.fpras_samples(0.05, 0.05) > kl3.fpras_samples(0.1, 0.05));
        // The textbook number: 3·m·ln(2/δ)/ε², ceiled.
        let expect = (3.0 * 3.0 * (2.0f64 / 0.05).ln() / 0.01).ceil() as u64;
        assert_eq!(kl3.fpras_samples(0.1, 0.05), expect);
    }
}
