//! # gfomc-pool
//!
//! A persistent worker pool for the workspace's parallel hot paths —
//! chunk-seeded sampling (`gfomc-approx`) and the engine's concurrent
//! query front-end (`gfomc-engine`).
//!
//! Before this crate, every parallel call site opened its own
//! `std::thread::scope`, paying OS thread spawn/join for each batch and
//! each sampling round. The pool spawns its workers **once** and reuses
//! them across calls; call sites fan work out through [`WorkerPool::scope`]
//! (or the [`WorkerPool::broadcast`] convenience) and block until their
//! jobs complete.
//!
//! ## Scheduling model
//!
//! Jobs are *self-scheduling*: a fan-out call spawns one job per logical
//! worker, and the jobs claim work items (sample chunks, batch indices)
//! from a shared atomic cursor — an idle worker steals the next pending
//! item rather than being assigned a fixed slice, so stragglers cannot
//! serialize a batch. On top of that, the **caller participates**: while a
//! scope waits for its jobs it steals them back from its own queue and runs
//! them inline. Two consequences:
//!
//! * a pool with *fewer threads than requested workers* (even zero) still
//!   completes every scope — degraded to inline execution, never deadlock;
//! * nested scopes are safe: a pool worker whose job opens an inner scope
//!   drains that scope's jobs itself if no other worker is free.
//!
//! ## Determinism
//!
//! The pool schedules *who* runs a job, never *what* the job computes. All
//! workspace call sites partition work into items whose results are merged
//! by commutative integer addition or scattered into per-item output slots,
//! so results are bit-identical for every pool size and worker count — the
//! same guarantee the per-call `thread::scope` code provided, now without
//! the per-call spawn cost.
//!
//! ```
//! use gfomc_pool::WorkerPool;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = WorkerPool::new(4);
//! let sum = AtomicU64::new(0);
//! pool.broadcast(4, |worker| {
//!     sum.fetch_add(worker as u64 + 1, Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
//! ```

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Lifetime totals of a pool's scheduling activity — incremented with
/// relaxed atomics on the job-completion path, so keeping them costs one
/// add per job, never a lock.
#[derive(Debug, Default)]
struct PoolCounters {
    /// Scope jobs run to completion (by workers and stealing callers).
    jobs: AtomicU64,
    /// The subset of `jobs` a scope owner stole back and ran inline.
    steals: AtomicU64,
    /// [`WorkerPool::broadcast`] calls (including inline `workers <= 1`).
    broadcasts: AtomicU64,
}

/// Point-in-time snapshot of a pool's scheduling counters — the pool's
/// contribution to `/status` and `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Persistent worker threads ([`WorkerPool::threads`]).
    pub threads: usize,
    /// Scope jobs run to completion over the pool's lifetime.
    pub jobs: u64,
    /// Jobs a waiting scope owner stole back and ran inline instead of
    /// idling — nonzero steals mean callers outpace the workers.
    pub steals: u64,
    /// [`WorkerPool::broadcast`] fan-outs issued.
    pub broadcasts: u64,
}

/// A lifetime-erased scope job. Erasure is sound because a scope never
/// returns (even by unwind) before every one of its jobs has run to
/// completion — see [`WorkerPool::scope`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Poison-tolerant lock. Jobs run with no pool lock held, so a panicking
/// job cannot poison these mutexes mid-update; recovering the guard keeps
/// the pool usable even if a *caller* thread panics at an awkward time.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Jobs of one scope plus the count of spawned-but-unfinished jobs.
struct ScopeState {
    jobs: VecDeque<Job>,
    pending: usize,
}

/// The part of a scope shared between its owner and the pool workers.
struct ScopeShared {
    state: Mutex<ScopeState>,
    /// Signalled whenever `pending` hits zero.
    done: Condvar,
    /// First panic payload raised by a job, replayed at scope exit.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    /// The owning pool's counters, bumped as this scope's jobs complete.
    counters: Arc<PoolCounters>,
}

impl ScopeShared {
    fn new(counters: Arc<PoolCounters>) -> Arc<Self> {
        Arc::new(ScopeShared {
            state: Mutex::new(ScopeState {
                jobs: VecDeque::new(),
                pending: 0,
            }),
            done: Condvar::new(),
            panic: Mutex::new(None),
            counters,
        })
    }

    /// Pops and runs one queued job of this scope, if any is still queued.
    /// Returns whether a job ran. A job panic is captured (first payload
    /// wins) and the pending count is decremented either way. `stolen`
    /// marks a scope owner running its own job inline (vs a pool worker).
    fn run_one(&self, stolen: bool) -> bool {
        let job = lock(&self.state).jobs.pop_front();
        let Some(job) = job else {
            return false;
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        self.counters.jobs.fetch_add(1, Ordering::Relaxed);
        if stolen {
            self.counters.steals.fetch_add(1, Ordering::Relaxed);
        }
        let mut st = lock(&self.state);
        st.pending -= 1;
        if st.pending == 0 {
            self.done.notify_all();
        }
        true
    }
}

/// State shared by the pool's worker threads: a queue of *tickets*, each
/// naming a scope with at least one queued job.
struct PoolShared {
    tickets: Mutex<VecDeque<Arc<ScopeShared>>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Worker-thread count, fixed at construction. A pool with no workers
    /// never receives tickets (nobody would drain them); its scopes run
    /// entirely on the caller-steals path.
    workers: usize,
}

/// A persistent pool of OS worker threads (see the crate docs).
///
/// Created once and shared — per engine, or process-wide via
/// [`WorkerPool::global`]. Dropping the pool joins its workers; scopes
/// borrow the pool, so no scope can outlive it.
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<PoolCounters>,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared")
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// A pool with `threads` persistent OS workers. `threads == 0` is
    /// legal: every scope then runs its jobs on the calling thread (the
    /// caller-steals rule), which is handy for tests and tiny machines.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            tickets: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers: threads,
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gfomc-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            counters: Arc::new(PoolCounters::default()),
        }
    }

    /// The process-wide shared pool, created on first use with one worker
    /// per available CPU minus one (the calling thread always participates
    /// in its own scopes), clamped to [1, 16].
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2);
            Arc::new(WorkerPool::new(n.saturating_sub(1).clamp(1, 16)))
        })
    }

    /// Number of persistent worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Point-in-time snapshot of the pool's scheduling counters. Totals
    /// are exact once traffic quiesces; mid-traffic reads may observe a
    /// job's `jobs` bump before its `steals` bump.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.workers.len(),
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            steals: self.counters.steals.load(Ordering::Relaxed),
            broadcasts: self.counters.broadcasts.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` with a [`PoolScope`] through which jobs borrowing local
    /// state (`'env`) can be spawned onto the pool. Does not return —
    /// **even by unwind** — until every spawned job has run to completion;
    /// the first job panic is replayed on the caller after the scope
    /// drains.
    ///
    /// While waiting, the calling thread steals this scope's still-queued
    /// jobs and runs them inline, so progress never depends on a pool
    /// worker being free.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&PoolScope<'_, 'env>) -> R,
    {
        let shared = ScopeShared::new(Arc::clone(&self.counters));
        let result = {
            // The guard waits on drop, so the borrow checker's promise —
            // jobs never outlive `'env` — holds even if `f` unwinds.
            let _wait = WaitGuard(&shared);
            let scope = PoolScope {
                pool: &self.shared,
                shared: Arc::clone(&shared),
                _env: PhantomData,
            };
            f(&scope)
        };
        if let Some(payload) = lock(&shared.panic).take() {
            resume_unwind(payload);
        }
        result
    }

    /// Convenience fan-out: runs `f(worker)` for `workers` logical workers
    /// and blocks until all return. Worker 0 is the calling thread itself;
    /// the rest are pool jobs (stolen back by the caller if every pool
    /// thread is busy). `workers <= 1` runs `f(0)` inline with no pool
    /// round-trip.
    pub fn broadcast<F>(&self, workers: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.counters.broadcasts.fetch_add(1, Ordering::Relaxed);
        if workers <= 1 {
            f(0);
            return;
        }
        self.scope(|scope| {
            let f = &f;
            for w in 1..workers {
                scope.spawn(move || f(w));
            }
            f(0);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Blocks until the scope's pending count is zero, helping with the
/// scope's own queued jobs first.
struct WaitGuard<'a>(&'a ScopeShared);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        loop {
            if self.0.run_one(true) {
                continue;
            }
            let mut st = lock(&self.0.state);
            loop {
                if st.pending == 0 {
                    return;
                }
                if !st.jobs.is_empty() {
                    // A job is still queued: steal it back (outer loop)
                    // instead of idling on a busy pool.
                    break;
                }
                // Jobs are in flight on pool workers; wait for the last
                // one. (Spurious wakeups just re-run this check.)
                st = self
                    .0
                    .done
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            drop(st);
        }
    }
}

/// Handle for spawning borrowed jobs onto the pool — see
/// [`WorkerPool::scope`].
pub struct PoolScope<'pool, 'env> {
    pool: &'pool PoolShared,
    shared: Arc<ScopeShared>,
    /// `'env` must be invariant (as in `std::thread::Scope`): a covariant
    /// `'env` could be shrunk to let a job borrow data that dies before
    /// the scope's wait.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> PoolScope<'_, 'env> {
    /// Queues `f` to run on a pool worker (or on the scope owner while it
    /// waits). Returns immediately; completion is awaited by the enclosing
    /// [`WorkerPool::scope`] call.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the enclosing `scope` call blocks (on return *and* on
        // unwind, via `WaitGuard`) until `pending == 0`, and `pending` only
        // reaches zero after every queued job has been popped and run to
        // completion. The erased closure therefore never outlives `'env`.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        {
            let mut st = lock(&self.shared.state);
            st.pending += 1;
            st.jobs.push_back(job);
        }
        // One ticket per job: an idle worker claims the ticket, then pops
        // whatever job of this scope is still queued (maybe none, if the
        // owner already stole it — the ticket is then a cheap no-op). With
        // no workers, nobody would ever drain the ticket queue, so don't
        // grow it: the scope owner runs every job itself.
        if self.pool.workers > 0 {
            lock(&self.pool.tickets).push_back(Arc::clone(&self.shared));
            self.pool.available.notify_one();
        }
    }
}

/// The worker main loop: claim a ticket, run one job of its scope, repeat.
fn worker_loop(pool: &PoolShared) {
    loop {
        let ticket = {
            let mut q = lock(&pool.tickets);
            loop {
                if let Some(t) = q.pop_front() {
                    break Some(t);
                }
                if pool.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = pool
                    .available
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match ticket {
            Some(scope) => {
                scope.run_one(false);
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_worker_exactly_once() {
        let pool = WorkerPool::new(3);
        for workers in [1usize, 2, 4, 9] {
            let mask = AtomicUsize::new(0);
            pool.broadcast(workers, |w| {
                mask.fetch_or(1 << w, Ordering::Relaxed);
            });
            assert_eq!(mask.load(Ordering::Relaxed), (1 << workers) - 1);
        }
    }

    #[test]
    fn zero_thread_pool_still_completes_scopes() {
        let pool = WorkerPool::new(0);
        let count = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn zero_thread_pool_does_not_accumulate_tickets() {
        // With no workers to drain the ticket queue, spawns must not grow
        // it — a serving loop on a 0-thread pool would otherwise leak one
        // Arc per job for the pool's lifetime.
        let pool = WorkerPool::new(0);
        for _ in 0..50 {
            pool.scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {});
                }
            });
        }
        assert!(lock(&pool.shared.tickets).is_empty());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Every outer job opens an inner scope: with a single pool worker,
        // the inner jobs can only make progress because blocked scopes
        // steal their own work back.
        let pool = WorkerPool::new(1);
        let count = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let pool = &pool;
                let count = &count;
                outer.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn jobs_borrow_caller_state() {
        let pool = WorkerPool::new(2);
        let data = [1u64, 2, 3, 4, 5];
        let sum = Mutex::new(0u64);
        pool.scope(|s| {
            for chunk in data.chunks(2) {
                let sum = &sum;
                s.spawn(move || {
                    *lock(sum) += chunk.iter().sum::<u64>();
                });
            }
        });
        assert_eq!(*lock(&sum), 15);
    }

    #[test]
    fn job_panics_propagate_to_the_scope_owner() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("job boom"));
            });
        }));
        assert!(caught.is_err());
        // The pool survives a panicked job.
        let ok = AtomicUsize::new(0);
        pool.broadcast(2, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(Arc::ptr_eq(a, b));
        assert!(a.threads() >= 1);
    }

    #[test]
    fn stats_count_jobs_steals_and_broadcasts() {
        let pool = WorkerPool::new(2);
        assert_eq!(
            pool.stats(),
            PoolStats {
                threads: 2,
                ..PoolStats::default()
            }
        );
        pool.broadcast(4, |_| {});
        pool.scope(|s| {
            for _ in 0..5 {
                s.spawn(|| {});
            }
        });
        let stats = pool.stats();
        // broadcast(4) spawns 3 pool jobs (worker 0 is the caller).
        assert_eq!(stats.jobs, 3 + 5, "{stats:?}");
        assert_eq!(stats.broadcasts, 1);
        assert!(stats.steals <= stats.jobs);

        // On a zero-thread pool every job is a caller steal.
        let inline = WorkerPool::new(0);
        inline.scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {});
            }
        });
        let stats = inline.stats();
        assert_eq!((stats.jobs, stats.steals), (4, 4), "{stats:?}");
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = WorkerPool::new(4);
        let count = AtomicUsize::new(0);
        pool.broadcast(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }
}
