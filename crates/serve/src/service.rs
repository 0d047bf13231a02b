//! The worker-pool service: bounded queue, fixed threads, shared cache.
//!
//! [`Service`] owns a FIFO job queue with a hard depth bound and a fixed
//! pool of worker threads. Submission is the *only* admission point:
//! [`Service::submit`] rejects instantly with [`JobError::QueueFull`] when
//! the queue is at its bound (the backpressure policy — never silent
//! drops), while [`Service::submit_blocking`] waits for space (what batch
//! mode wants: every job eventually runs). Workers pull jobs in order,
//! resolve the trace, consult the [`ArtifactCache`], and walk the frontier
//! for the job's budget; outcomes park in a results map until polled.
//!
//! ## Job lifecycle
//!
//! ```text
//! submitted ──▶ queued ──▶ running ──▶ done(ok | error)
//!     │                       │
//!     └─ rejected(queue-full  └─ failed(timeout, trace, explore,
//!        | shutdown)             artifact-corrupt)
//! ```
//!
//! Timeouts are deadline checks at stage boundaries (after load, after
//! analyze, before the frontier walk) — cooperative, so a worker is never
//! killed mid-build, and `timeout_ms: 0` deterministically times out at
//! the first check.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cachedse_core::dfs;
use cachedse_store::{ArtifactCache, ArtifactKey, ArtifactStore, Found, TraceArtifacts};
use cachedse_sync::atomic::{AtomicBool, Ordering};
use cachedse_sync::thread::{self, JoinHandle};
use cachedse_sync::{Condvar, Mutex};
use cachedse_trace::io::read_din;
use cachedse_trace::Trace;

use crate::job::{JobError, JobOutcome, JobOutput, JobSpec, TraceSide, TraceSource};
use crate::metrics::{Metrics, Stage, StatsSnapshot};

/// Service sizing and policy knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool (minimum 1).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs (minimum 1);
    /// [`Service::submit`] rejects beyond this.
    pub queue_depth: usize,
    /// Maximum distinct traces kept in the artifact cache.
    pub cache_capacity: usize,
    /// Deadline applied to jobs that do not set their own `timeout_ms`
    /// (`None` = no default deadline).
    pub default_timeout_ms: Option<u64>,
    /// Before every reuse — a memory hit or a warm store load — re-derive
    /// the entry's per-depth profiles with the depth-first engine and
    /// compare them to the bytes that will answer the job.
    pub validate: bool,
    /// Backing artifact store attached to the cache (`None` = memory-only).
    /// With a store, analyses write through and survive both in-memory
    /// eviction and process restart, and jobs may name their trace by
    /// digest alone.
    pub store: Option<Arc<dyn ArtifactStore>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 64,
            cache_capacity: 16,
            default_timeout_ms: None,
            validate: false,
            store: None,
        }
    }
}

/// Handle to a submitted job, redeemable for its outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

struct QueuedJob {
    id: JobId,
    label: String,
    spec: JobSpec,
}

#[derive(Default)]
struct State {
    queue: VecDeque<QueuedJob>,
    outcomes: HashMap<JobId, (String, JobOutcome)>,
    /// Jobs finished (outcome recorded), including already-polled ones.
    finished: u64,
    /// Jobs admitted to the queue.
    admitted: u64,
    next_id: u64,
}

struct Inner {
    config: ServiceConfig,
    state: Mutex<State>,
    /// Signalled when the queue gains a job or the service shuts down.
    work_ready: Condvar,
    /// Signalled when the queue loses a job (space for blocked submitters).
    space_ready: Condvar,
    /// Signalled when an outcome lands.
    outcome_ready: Condvar,
    cache: ArtifactCache,
    metrics: Metrics,
    /// Drain signal. The `Release` store in `stop_and_join` pairs with the
    /// `Acquire` loads in `admit` and the worker loop so that everything
    /// written before the stop (the final queue state) is visible to a
    /// thread that observes the flag; the flag is additionally re-checked
    /// under the state mutex via the condvar wakeups, so `Relaxed` would
    /// in fact suffice — the explicit pairing documents the intent and
    /// costs nothing on the wake path.
    shutdown: AtomicBool,
}

/// The batch design-space-exploration service.
///
/// Dropping a `Service` without calling [`Service::shutdown`] still joins
/// the workers (after letting the queue drain).
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Service {
    /// Starts the worker pool.
    #[must_use]
    pub fn start(mut config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        // A bound of 0 could never admit a job: `submit` would always
        // answer `queue-full` and `submit_blocking` would wait forever.
        config.queue_depth = config.queue_depth.max(1);
        let cache = match config.store.clone() {
            Some(store) => ArtifactCache::with_store(config.cache_capacity, store),
            None => ArtifactCache::new(config.cache_capacity),
        };
        let inner = Arc::new(Inner {
            cache,
            config,
            state: Mutex::new(State::default()),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            outcome_ready: Condvar::new(),
            metrics: Metrics::default(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Self { inner, workers }
    }

    /// Submits a job, rejecting immediately when the queue is full or the
    /// service is shutting down.
    ///
    /// # Errors
    ///
    /// [`JobError::QueueFull`] at the queue bound, [`JobError::Shutdown`]
    /// after [`Service::shutdown`] began. Both are counted as rejections in
    /// the stats.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, JobError> {
        self.admit(spec, false)
    }

    /// Submits a job, waiting for queue space instead of rejecting.
    ///
    /// # Errors
    ///
    /// [`JobError::Shutdown`] if the service stops while waiting.
    pub fn submit_blocking(&self, spec: JobSpec) -> Result<JobId, JobError> {
        self.admit(spec, true)
    }

    fn admit(&self, spec: JobSpec, block: bool) -> Result<JobId, JobError> {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        loop {
            if inner.shutdown.load(Ordering::Acquire) {
                inner.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(JobError::Shutdown);
            }
            if state.queue.len() < inner.config.queue_depth {
                break;
            }
            if !block {
                inner.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(JobError::QueueFull {
                    depth: inner.config.queue_depth,
                });
            }
            state = inner.space_ready.wait(state);
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        let label = spec.id.clone().unwrap_or_else(|| format!("job-{}", id.0));
        state.queue.push_back(QueuedJob { id, label, spec });
        state.admitted += 1;
        inner.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        inner.work_ready.notify_one();
        Ok(id)
    }

    /// Takes the outcome of `id` if it has finished (non-blocking). Each
    /// outcome can be taken once.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding the state lock.
    #[must_use]
    pub fn poll(&self, id: JobId) -> Option<(String, JobOutcome)> {
        self.inner.state.lock().outcomes.remove(&id)
    }

    /// Blocks until `id` finishes and takes its outcome, returning the
    /// job's label alongside.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never admitted by this service, or was already
    /// taken by [`Service::poll`] / a previous `wait` — the outcome can
    /// never arrive, so waiting would wedge forever.
    pub fn wait(&self, id: JobId) -> (String, JobOutcome) {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        loop {
            if let Some(outcome) = state.outcomes.remove(&id) {
                return outcome;
            }
            assert!(
                id.0 < state.next_id,
                "waited on a job id this service never issued"
            );
            let pending = state.queue.iter().any(|j| j.id == id);
            let running = state.finished < state.admitted;
            assert!(
                pending || running,
                "waited on a job whose outcome was already taken"
            );
            state = inner.outcome_ready.wait(state);
        }
    }

    /// Blocks until every admitted job has finished (their outcomes remain
    /// pollable).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding the state lock.
    pub fn drain(&self) {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        while state.finished < state.admitted {
            state = inner.outcome_ready.wait(state);
        }
    }

    /// Counts one request line refused as `bad-spec` before it reached
    /// the queue.
    pub(crate) fn count_bad_request(&self) {
        self.inner
            .metrics
            .bad_requests
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time metrics snapshot, with the artifact cache's
    /// store-tier counters merged in.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        merged_stats(&self.inner)
    }

    /// Number of distinct traces currently cached.
    #[must_use]
    pub fn cached_traces(&self) -> usize {
        self.inner.cache.len()
    }

    /// The shared artifact cache, for tests that inspect or seed it.
    #[must_use]
    pub fn cache(&self) -> &ArtifactCache {
        &self.inner.cache
    }

    /// Stops accepting jobs, lets the queue drain, joins the workers, and
    /// returns the final stats.
    #[must_use]
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop_and_join();
        merged_stats(&self.inner)
    }

    fn stop_and_join(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Bridge the waiters' check-then-wait window before notifying: a
        // worker that loaded `shutdown == false` still holds the state
        // lock until its wait enqueues it on the condvar, so acquiring
        // (and immediately releasing) the lock here orders the notifies
        // after every such enqueue. Without it the notify can fire inside
        // that window and the worker sleeps forever — a lost wakeup the
        // model checker surfaces at unbounded preemption depth.
        drop(self.inner.state.lock());
        self.inner.work_ready.notify_all();
        self.inner.space_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The metrics snapshot plus the cache's store-tier counters, which live
/// on the [`ArtifactCache`] rather than in [`Metrics`] (the cache owns
/// the store and is the only component that probes it).
fn merged_stats(inner: &Inner) -> StatsSnapshot {
    let mut snap = inner.metrics.snapshot();
    snap.store_misses = inner.cache.store_misses();
    snap.store_evictions = inner.cache.evictions();
    snap.store_bytes = inner.cache.stored_bytes();
    snap.store_errors = inner.cache.store_errors();
    snap
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut state = inner.state.lock();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    inner.space_ready.notify_one();
                    break job;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                state = inner.work_ready.wait(state);
            }
        };
        let outcome = run_job(inner, &job.label, &job.spec);
        match &outcome {
            Ok(_) => {
                inner.metrics.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                inner.metrics.failed.fetch_add(1, Ordering::Relaxed);
                if matches!(e, JobError::Timeout { .. }) {
                    inner.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut state = inner.state.lock();
        state.outcomes.insert(job.id, (job.label, outcome));
        state.finished += 1;
        inner.outcome_ready.notify_all();
    }
}

fn check_deadline(start: Instant, limit_ms: Option<u64>) -> Result<(), JobError> {
    match limit_ms {
        Some(ms) if start.elapsed() >= Duration::from_millis(ms) => {
            Err(JobError::Timeout { limit_ms: ms })
        }
        _ => Ok(()),
    }
}

fn run_job(inner: &Inner, label: &str, spec: &JobSpec) -> JobOutcome {
    let start = Instant::now();
    let limit_ms = spec.timeout_ms.or(inner.config.default_timeout_ms);
    check_deadline(start, limit_ms)?;

    let metrics = &inner.metrics;
    let (key, artifacts, found) = if let TraceSource::Digest(digest) = spec.trace {
        resolve_by_digest(inner, digest, spec.max_index_bits)?
    } else {
        let load_start = Instant::now();
        let mut trace = load_trace(&spec.trace)?;
        if spec.line_bits > 0 {
            trace = trace.block_aligned(spec.line_bits);
        }
        metrics.record_stage(Stage::Load, load_start.elapsed());
        check_deadline(start, limit_ms)?;

        let max_index_bits = spec.max_index_bits.unwrap_or_else(|| trace.address_bits());
        let key = ArtifactKey::of(&trace, max_index_bits);
        let (artifacts, found) = inner.cache.get_or_build(key, || {
            let analyze_start = Instant::now();
            let built = TraceArtifacts::build(&trace, max_index_bits);
            metrics.record_stage(Stage::Analyze, analyze_start.elapsed());
            built.map_err(JobError::from)
        })?;
        (key, artifacts, found)
    };
    let counter = match found {
        Found::Hit => &metrics.cache_hits,
        Found::Warm => &metrics.store_warm,
        Found::Miss => &metrics.cache_misses,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    // A fresh build is what the engine just computed; reused bytes — a
    // memory hit, or a warm load that passed only the store's stats gate
    // — are re-derived before they answer.
    if inner.config.validate && found != Found::Miss {
        validate_profiles(inner, &key, &artifacts)?;
    }
    check_deadline(start, limit_ms)?;

    let frontier_start = Instant::now();
    let result = artifacts.exploration.result(spec.budget)?;
    metrics.record_stage(Stage::Frontier, frontier_start.elapsed());

    let total = start.elapsed();
    metrics.record_stage(Stage::Total, total);
    Ok(JobOutput {
        id: label.to_owned(),
        result,
        cache: found,
        digest: key.digest,
        total_micros: u64::try_from(total.as_micros()).unwrap_or(u64::MAX),
    })
}

/// Resolves a digest-only job spec against the cache and its backing
/// store — there is no trace to (re)analyze, so an absent digest is a
/// structured [`JobError::DigestUnknown`], never a rebuild.
fn resolve_by_digest(
    inner: &Inner,
    digest: cachedse_trace::digest::TraceDigest,
    max_index_bits: Option<u32>,
) -> Result<(ArtifactKey, Arc<TraceArtifacts>, Found), JobError> {
    let key = match max_index_bits {
        Some(bits) => ArtifactKey {
            digest,
            max_index_bits: bits,
        },
        // No cap given: serve the widest analysis stored for this digest
        // (its frontier subsumes every narrower cap's).
        None => inner
            .cache
            .keys_for(digest)
            .into_iter()
            .max_by_key(|k| k.max_index_bits)
            .ok_or(JobError::DigestUnknown { digest })?,
    };
    let (artifacts, found) = inner
        .cache
        .get(&key)
        .ok_or(JobError::DigestUnknown { digest })?;
    Ok((key, artifacts, found))
}

/// Re-derives the profiles from the stripped trace with the depth-first
/// engine (linear memory) and compares them level by level against the
/// entry's; a mismatch evicts the entry from memory and the store.
fn validate_profiles(
    inner: &Inner,
    key: &ArtifactKey,
    artifacts: &TraceArtifacts,
) -> Result<(), JobError> {
    inner.metrics.validations.fetch_add(1, Ordering::Relaxed);
    let served = artifacts.exploration.profiles();
    let derived = dfs::level_profiles(&artifacts.stripped, key.max_index_bits);
    if served == derived {
        return Ok(());
    }
    inner.cache.evict(key);
    let depths: Vec<String> = (0..served.len().max(derived.len()))
        .filter(|&level| served.get(level) != derived.get(level))
        .map(|level| (1u64 << level).to_string())
        .collect();
    Err(JobError::ArtifactCorrupt(format!(
        "profiles differ from a depth-first re-derivation at depth {}",
        depths.join(", ")
    )))
}

fn load_trace(source: &TraceSource) -> Result<Trace, JobError> {
    match source {
        // Digest specs never reach here: `run_job` resolves them against
        // the cache/store instead of loading a trace.
        TraceSource::Digest(digest) => Err(JobError::DigestUnknown { digest: *digest }),
        TraceSource::File(path) => {
            // Opening a FIFO or a pipe (`/dev/stdin`) blocks until a writer
            // comes and reading it until the writer leaves, so it could hold
            // a worker past any deadline. `metadata` follows symlinks and
            // never blocks.
            let cannot_open = |e| JobError::Trace(format!("cannot open {path}: {e}"));
            if !std::fs::metadata(path).map_err(cannot_open)?.is_file() {
                return Err(JobError::Trace(format!("{path}: not a regular file")));
            }
            let file = std::fs::File::open(path).map_err(cannot_open)?;
            read_din(file).map_err(|e| JobError::Trace(format!("{path}: {e}")))
        }
        TraceSource::Workload { name, side, seed } => {
            let kernel = cachedse_workloads::by_name(name).ok_or_else(|| {
                JobError::Trace(format!("unknown kernel {name:?}; see `cachedse workloads`"))
            })?;
            let run = match seed {
                Some(seed) => kernel.capture_with_seed(*seed),
                None => kernel.capture(),
            };
            Ok(match side {
                TraceSide::Data => run.data,
                TraceSide::Instr => run.instr,
            })
        }
        // Parsed specs were checked already; a spec built in code was not.
        TraceSource::Pattern(spec) => spec
            .generate()
            .map_err(|e| JobError::BadSpec(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::PatternSpec;
    use cachedse_core::{Engine, MissBudget};

    fn loop_spec(id: &str, iterations: u32, budget: u64) -> JobSpec {
        JobSpec {
            id: Some(id.to_owned()),
            trace: TraceSource::Pattern(PatternSpec::Loop {
                base: 0,
                len: 64,
                iterations,
            }),
            budget: MissBudget::Absolute(budget),
            max_index_bits: None,
            line_bits: 0,
            timeout_ms: None,
        }
    }

    #[test]
    fn runs_a_job_end_to_end() {
        let service = Service::start(ServiceConfig::default());
        let id = service.submit(loop_spec("basic", 10, 0)).unwrap();
        let (label, outcome) = service.wait(id);
        assert_eq!(label, "basic");
        let output = outcome.unwrap();
        assert_eq!(output.cache, Found::Miss);
        assert!(!output.result.pairs().is_empty());
        let stats = service.shutdown();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn identical_traces_share_one_analysis() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let ids: Vec<JobId> = (0u64..4)
            .map(|i| service.submit(loop_spec(&format!("j{i}"), 10, i)).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            let (_, outcome) = service.wait(*id);
            let expected = if i > 0 { Found::Hit } else { Found::Miss };
            assert_eq!(outcome.unwrap().cache, expected);
        }
        let stats = service.shutdown();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 3);
    }

    #[test]
    fn zero_timeout_deterministically_times_out() {
        let service = Service::start(ServiceConfig::default());
        let mut spec = loop_spec("deadline", 10, 0);
        spec.timeout_ms = Some(0);
        let id = service.submit(spec).unwrap();
        let (_, outcome) = service.wait(id);
        assert_eq!(outcome.unwrap_err(), JobError::Timeout { limit_ms: 0 });
        let stats = service.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.timeouts, 1);
    }

    #[test]
    fn unknown_kernel_is_a_structured_trace_error() {
        let service = Service::start(ServiceConfig::default());
        let spec = JobSpec {
            id: None,
            trace: TraceSource::Workload {
                name: "doom".to_owned(),
                side: TraceSide::Data,
                seed: None,
            },
            budget: MissBudget::Absolute(0),
            max_index_bits: None,
            line_bits: 0,
            timeout_ms: None,
        };
        let id = service.submit(spec).unwrap();
        let (label, outcome) = service.wait(id);
        assert_eq!(label, "job-0");
        assert!(matches!(outcome.unwrap_err(), JobError::Trace(_)));
    }

    /// A pattern built in code skips the parser's checks; the worker
    /// checks it again, so the job fails instead of panicking its worker.
    #[test]
    fn unchecked_pattern_is_a_bad_spec_not_a_dead_worker() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let mut spec = loop_spec("empty-space", 1, 0);
        spec.trace = TraceSource::Pattern(PatternSpec::Phases {
            phases: 1,
            len: 8,
            ws: 0,
            seed: 1,
        });
        let id = service.submit(spec).unwrap();
        let (_, outcome) = service.wait(id);
        assert!(matches!(outcome.unwrap_err(), JobError::BadSpec(m) if m.contains("\"ws\"")));
        let id = service.submit(loop_spec("after", 1, 0)).unwrap();
        assert!(service.wait(id).1.is_ok(), "the worker survived");
    }

    #[test]
    fn submit_rejects_at_queue_bound_but_blocking_waits() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_depth: 1,
            ..ServiceConfig::default()
        });
        // A slow first job keeps the worker busy while we saturate the queue.
        let slow = loop_spec("slow", 2000, 0);
        let slow_id = service.submit(slow).unwrap();
        let mut rejected = 0;
        let mut admitted = Vec::new();
        for i in 0..24 {
            match service.submit(loop_spec(&format!("fill{i}"), 2000, 0)) {
                Ok(id) => admitted.push(id),
                Err(JobError::QueueFull { depth }) => {
                    assert_eq!(depth, 1);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(rejected > 0, "queue bound never hit");
        // Blocking submission still lands despite the bound.
        let late_id = service.submit_blocking(loop_spec("late", 10, 0)).unwrap();
        let (_, outcome) = service.wait(slow_id);
        outcome.unwrap();
        for id in admitted {
            let (_, outcome) = service.wait(id);
            outcome.unwrap();
        }
        let (label, outcome) = service.wait(late_id);
        assert_eq!(label, "late");
        outcome.unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.rejected, rejected);
    }

    #[test]
    fn shutdown_rejects_new_work_and_drains_queue() {
        let mut service = Service::start(ServiceConfig::default());
        let id = service.submit(loop_spec("before", 10, 0)).unwrap();
        service.drain();
        service.stop_and_join();
        let err = service.submit(loop_spec("after", 10, 0)).unwrap_err();
        assert_eq!(err, JobError::Shutdown);
        let (_, outcome) = service.poll(id).unwrap();
        outcome.unwrap();
    }

    #[test]
    fn validate_mode_counts_validations() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            validate: true,
            ..ServiceConfig::default()
        });
        let a = service.submit(loop_spec("a", 10, 0)).unwrap();
        let b = service.submit(loop_spec("b", 10, 1)).unwrap();
        service.wait(a).1.unwrap();
        service.wait(b).1.unwrap();
        let stats = service.shutdown();
        // Only the cache hit (job b) is re-validated.
        assert_eq!(stats.validations, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    /// Validation re-derives the profiles with depth-first, so it also
    /// passes an entry depth-first built, and leaves that entry in the
    /// cache. A uniform random trace over a large space is one `Auto`
    /// sends to depth-first.
    #[test]
    fn validate_with_depth_first_engine() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            validate: true,
            ..ServiceConfig::default()
        });
        let random = |id: &str, budget| JobSpec {
            trace: TraceSource::Pattern(PatternSpec::Random {
                len: 20_000,
                space: 1 << 14,
                seed: 3,
            }),
            ..loop_spec(id, 0, budget)
        };
        let a = service.submit(random("a", 0)).unwrap();
        let b = service.submit(random("b", 1)).unwrap();
        let digest = service.wait(a).1.unwrap().digest;
        service.wait(b).1.unwrap();
        let key = service.cache().keys_for(digest)[0];
        let (cached, _) = service.cache().get(&key).unwrap();
        assert_eq!(cached.exploration.engine(), Engine::DepthFirst);
        let stats = service.shutdown();
        assert_eq!(stats.validations, 1);
    }

    /// A cached entry whose profiles were skewed (totals intact, so every
    /// stats gate passes) is caught on reuse, evicted, and reported.
    #[test]
    fn validate_rejects_skewed_cached_profiles() {
        use cachedse_check::{inject_profiles, FaultKind};
        use cachedse_core::Exploration;

        let service = Service::start(ServiceConfig {
            workers: 1,
            validate: true,
            ..ServiceConfig::default()
        });
        let trace = load_trace(&loop_spec("x", 10, 0).trace).unwrap();
        let key = ArtifactKey::of(&trace, trace.address_bits());
        let built =
            TraceArtifacts::build_with(&trace, key.max_index_bits, Engine::Streamed).unwrap();
        let mut profiles = built.exploration.profiles().to_vec();
        assert!(inject_profiles(&mut profiles, FaultKind::StreamedCountSkew));
        let exploration =
            Exploration::from_parts(profiles, built.exploration.stats(), Engine::Streamed).unwrap();
        let skewed = TraceArtifacts {
            exploration,
            ..built
        };
        service
            .cache()
            .get_or_build(key, || Ok::<_, JobError>(skewed))
            .unwrap();

        let spec = JobSpec {
            trace: TraceSource::Digest(key.digest),
            ..loop_spec("skewed", 10, 0)
        };
        let id = service.submit(spec).unwrap();
        let err = service.wait(id).1.unwrap_err();
        assert!(matches!(err, JobError::ArtifactCorrupt(_)), "{err:?}");
        assert!(err.to_string().contains("at depth "), "{err}");
        assert!(service.cache().keys_for(key.digest).is_empty(), "evicted");
        let stats = service.shutdown();
        assert_eq!(stats.validations, 1);
    }

    #[test]
    fn missing_file_is_a_structured_error() {
        let err = load_trace(&TraceSource::File("/nonexistent/trace.din".into())).unwrap_err();
        assert!(matches!(err, JobError::Trace(_)));
        assert!(err.to_string().contains("/nonexistent/trace.din"));
    }

    /// A job may name its trace by digest once another job has analyzed
    /// it; the digest job answers from cache and matches the original.
    #[test]
    fn digest_job_reuses_a_cached_analysis() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let first = service.submit(loop_spec("seed", 10, 2)).unwrap();
        let (_, outcome) = service.wait(first);
        let seeded = outcome.unwrap();

        let by_digest = JobSpec {
            id: Some("replay".to_owned()),
            trace: TraceSource::Digest(seeded.digest),
            budget: MissBudget::Absolute(2),
            max_index_bits: None,
            line_bits: 0,
            timeout_ms: None,
        };
        let id = service.submit(by_digest).unwrap();
        let (_, outcome) = service.wait(id);
        let replayed = outcome.unwrap();
        assert_eq!(replayed.cache, Found::Hit);
        assert_eq!(replayed.digest, seeded.digest);
        assert_eq!(replayed.result, seeded.result);
        let _ = service.shutdown();
    }

    #[test]
    fn unknown_digest_is_a_structured_error() {
        use cachedse_trace::digest::TraceDigest;
        let service = Service::start(ServiceConfig::default());
        let spec = JobSpec {
            id: None,
            trace: TraceSource::Digest(TraceDigest::from_raw(0xDEAD_BEEF)),
            budget: MissBudget::Absolute(0),
            max_index_bits: None,
            line_bits: 0,
            timeout_ms: None,
        };
        let id = service.submit(spec).unwrap();
        let (_, outcome) = service.wait(id);
        assert!(matches!(
            outcome.unwrap_err(),
            JobError::DigestUnknown { .. }
        ));
        let _ = service.shutdown();
    }

    /// A service restarted over the same backing store answers the first
    /// repeat-trace job with a warm load — no re-analysis.
    #[test]
    fn restart_over_shared_store_serves_warm() {
        let store: Arc<dyn ArtifactStore> = Arc::new(cachedse_store::MemoryStore::new());
        let config = || ServiceConfig {
            workers: 1,
            store: Some(Arc::clone(&store)),
            ..ServiceConfig::default()
        };

        let first = Service::start(config());
        let id = first.submit(loop_spec("cold", 10, 0)).unwrap();
        let (_, outcome) = first.wait(id);
        let cold = outcome.unwrap();
        assert_eq!(cold.cache, Found::Miss);
        let stats = first.shutdown();
        assert!(stats.store_bytes > 0);

        let second = Service::start(config());
        let id = second.submit(loop_spec("warm", 10, 0)).unwrap();
        let (_, outcome) = second.wait(id);
        let warm = outcome.unwrap();
        assert_eq!(warm.cache, Found::Warm);
        assert_eq!(warm.result, cold.result);
        // And by digest alone, without resubmitting the trace.
        let by_digest = JobSpec {
            id: None,
            trace: TraceSource::Digest(cold.digest),
            budget: MissBudget::Absolute(0),
            max_index_bits: None,
            line_bits: 0,
            timeout_ms: None,
        };
        let id = second.submit(by_digest).unwrap();
        let (_, outcome) = second.wait(id);
        assert_eq!(outcome.unwrap().result, cold.result);
        let stats = second.shutdown();
        assert_eq!(stats.store_hits, 1);
        assert_eq!(stats.cache_misses, 0);
    }
}
