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
//! analyze, before the frontier walk) and before each read of a `file`
//! source — cooperative, so a worker is never killed mid-build, and
//! `timeout_ms: 0` deterministically times out at the first check.
//!
//! A `file` job whose bytes match what its path last parsed into skips the
//! parse and takes the recorded key (see [`crate::fingerprint`]).

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

use crate::fingerprint::{Fingerprint, FingerprintReader, Fingerprints, Parsed};
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
    /// Maximum distinct traces kept in the artifact cache, and maximum
    /// `file` paths whose last parse is remembered.
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
    /// What each recent `file` path parsed into. Never locked across I/O
    /// or together with the cache.
    fingerprints: Fingerprints,
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
            fingerprints: Fingerprints::new(config.cache_capacity),
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

/// A job's deadline: `limit_ms` after `start`, or none.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Deadline {
    pub(crate) start: Instant,
    pub(crate) limit_ms: Option<u64>,
}

impl Deadline {
    /// No deadline at all.
    #[cfg(test)]
    pub(crate) fn none() -> Self {
        Self {
            start: Instant::now(),
            limit_ms: None,
        }
    }

    /// [`JobError::Timeout`] once the deadline has passed.
    pub(crate) fn check(self) -> Result<(), JobError> {
        match self.limit_ms {
            Some(ms) if self.start.elapsed() >= Duration::from_millis(ms) => {
                Err(JobError::Timeout { limit_ms: ms })
            }
            _ => Ok(()),
        }
    }
}

fn run_job(inner: &Inner, label: &str, spec: &JobSpec) -> JobOutcome {
    let start = Instant::now();
    let deadline = Deadline {
        start,
        limit_ms: spec.timeout_ms.or(inner.config.default_timeout_ms),
    };
    deadline.check()?;

    let metrics = &inner.metrics;
    let (key, artifacts, found) = if let TraceSource::Digest(digest) = spec.trace {
        resolve_by_digest(inner, digest, spec.max_index_bits)?
    } else {
        resolve_source(inner, spec, deadline)?
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
    deadline.check()?;

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

/// Resolves a job that carries its trace. A `file` whose bytes match what
/// its path last parsed into answers from the recorded key, when the cache
/// or store still holds it; every other job loads its trace, keys it by
/// digest and builds it once.
fn resolve_source(
    inner: &Inner,
    spec: &JobSpec,
    deadline: Deadline,
) -> Result<(ArtifactKey, Arc<TraceArtifacts>, Found), JobError> {
    let metrics = &inner.metrics;
    let load_start = Instant::now();
    if let TraceSource::File(path) = &spec.trace {
        if let Some(key) = unchanged_file(inner, path, spec, deadline)? {
            let load = load_start.elapsed();
            deadline.check()?;
            if let Some((artifacts, found)) = inner.cache.get(&key) {
                metrics.record_stage(Stage::Load, load);
                metrics.parses_skipped.fetch_add(1, Ordering::Relaxed);
                return Ok((key, artifacts, found));
            }
        }
    }
    let (mut trace, source) = load_trace(&spec.trace, deadline)?;
    if spec.line_bits > 0 {
        trace = trace.block_aligned(spec.line_bits);
    }
    metrics.record_stage(Stage::Load, load_start.elapsed());
    deadline.check()?;

    let max_index_bits = spec.max_index_bits.unwrap_or_else(|| trace.address_bits());
    let key = ArtifactKey::of(&trace, max_index_bits);
    if let (TraceSource::File(path), Some(source)) = (&spec.trace, source) {
        let parsed = Parsed {
            source,
            digest: key.digest,
            address_bits: trace.address_bits(),
        };
        inner.fingerprints.record(path, spec.line_bits, parsed);
    }
    let (artifacts, found) = inner.cache.get_or_build(key, || {
        let analyze_start = Instant::now();
        let built = TraceArtifacts::build(&trace, max_index_bits);
        metrics.record_stage(Stage::Analyze, analyze_start.elapsed());
        built.map_err(JobError::from)
    })?;
    Ok((key, artifacts, found))
}

/// The key `path` parsed into last time under the job's `line_bits`, when
/// the file still has that parse's length and hash; `None` sends the job
/// to the parse. The length is compared before the file is read.
fn unchanged_file(
    inner: &Inner,
    path: &str,
    spec: &JobSpec,
    deadline: Deadline,
) -> Result<Option<ArtifactKey>, JobError> {
    let len = regular_file(path)?.len();
    let Some(parsed) = inner.fingerprints.get(path, spec.line_bits) else {
        return Ok(None);
    };
    if parsed.source.len != len {
        return Ok(None);
    }
    let file = open(path)?;
    if FingerprintReader::new(file, deadline).hash_to_end(path)? != parsed.source {
        return Ok(None);
    }
    Ok(Some(ArtifactKey {
        digest: parsed.digest,
        max_index_bits: spec.max_index_bits.unwrap_or(parsed.address_bits),
    }))
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

/// The metadata of `path`, refusing anything but a regular file. Opening a
/// FIFO or a pipe (`/dev/stdin`) blocks until a writer comes and reading
/// it until the writer leaves, so it could hold a worker past any
/// deadline. `metadata` follows symlinks and never blocks.
fn regular_file(path: &str) -> Result<std::fs::Metadata, JobError> {
    let metadata = std::fs::metadata(path).map_err(|e| cannot_open(path, e))?;
    if !metadata.is_file() {
        return Err(JobError::Trace(format!("{path}: not a regular file")));
    }
    Ok(metadata)
}

fn open(path: &str) -> Result<std::fs::File, JobError> {
    std::fs::File::open(path).map_err(|e| cannot_open(path, e))
}

fn cannot_open(path: &str, e: std::io::Error) -> JobError {
    JobError::Trace(format!("cannot open {path}: {e}"))
}

/// Loads or generates the job's trace; a `file` source also gives the
/// fingerprint of the bytes its parse consumed.
fn load_trace(
    source: &TraceSource,
    deadline: Deadline,
) -> Result<(Trace, Option<Fingerprint>), JobError> {
    match source {
        // Digest specs never reach here: `run_job` resolves them against
        // the cache/store instead of loading a trace.
        TraceSource::Digest(digest) => Err(JobError::DigestUnknown { digest: *digest }),
        TraceSource::File(path) => {
            regular_file(path)?;
            let mut reader = FingerprintReader::new(open(path)?, deadline);
            let trace = read_din(&mut reader).map_err(|e| reader.error(path, e))?;
            Ok((trace, Some(reader.fingerprint())))
        }
        TraceSource::Workload { name, side, seed } => {
            let kernel = cachedse_workloads::by_name(name).ok_or_else(|| {
                JobError::Trace(format!("unknown kernel {name:?}; see `cachedse workloads`"))
            })?;
            let run = match seed {
                Some(seed) => kernel.capture_with_seed(*seed),
                None => kernel.capture(),
            };
            let trace = match side {
                TraceSide::Data => run.data,
                TraceSide::Instr => run.instr,
            };
            Ok((trace, None))
        }
        // Parsed specs were checked already; a spec built in code was not.
        TraceSource::Pattern(spec) => spec
            .generate()
            .map(|trace| (trace, None))
            .map_err(|e| JobError::BadSpec(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::PatternSpec;
    use cachedse_core::{Engine, MissBudget};
    use cachedse_trace::digest::TraceDigest;
    use cachedse_trace::generate;
    use cachedse_trace::io::write_din;
    use std::path::{Path, PathBuf};

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
        let (trace, _) = load_trace(&loop_spec("x", 10, 0).trace, Deadline::none()).unwrap();
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
        let err = load_trace(
            &TraceSource::File("/nonexistent/trace.din".into()),
            Deadline::none(),
        )
        .unwrap_err();
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

    /// An empty directory of the calling test's own.
    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cachedse-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn din_text(seed: u64) -> String {
        let mut text = Vec::new();
        write_din(&mut text, &generate::working_set_phases(2, 400, 64, seed)).unwrap();
        String::from_utf8(text).unwrap()
    }

    fn file_spec(id: &str, path: &Path, budget: MissBudget) -> JobSpec {
        JobSpec {
            id: Some(id.to_owned()),
            trace: TraceSource::File(path.to_str().unwrap().to_owned()),
            budget,
            max_index_bits: None,
            line_bits: 0,
            timeout_ms: None,
        }
    }

    fn run(service: &Service, spec: JobSpec) -> JobOutcome {
        let id = service.submit_blocking(spec).unwrap();
        service.wait(id).1
    }

    fn one_worker() -> Service {
        Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
    }

    /// The paper's K-sweep over one file: one parse and one analysis, then
    /// seven answers from the recorded parse, each equal to what a fresh
    /// parse and build of the file answers.
    #[test]
    fn a_file_k_sweep_parses_once() {
        let dir = test_dir("sweep");
        let path = dir.join("t.din");
        std::fs::write(&path, din_text(1)).unwrap();
        let trace = read_din(std::fs::File::open(&path).unwrap()).unwrap();
        let fresh = TraceArtifacts::build(&trace, trace.address_bits()).unwrap();
        let service = one_worker();
        let fractions = [0.01, 0.02, 0.05, 0.08, 0.10, 0.12, 0.15, 0.20];
        for (k, fraction) in fractions.into_iter().enumerate() {
            let budget = MissBudget::FractionOfMax(fraction);
            let output = run(&service, file_spec(&format!("k{k}"), &path, budget)).unwrap();
            let expected = if k == 0 { Found::Miss } else { Found::Hit };
            assert_eq!(output.cache, expected);
            assert_eq!(output.digest, TraceDigest::of_trace(&trace));
            assert_eq!(output.result, fresh.exploration.result(budget).unwrap());
        }
        let stats = service.shutdown();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 7);
        assert_eq!(stats.parses_skipped, 7);
        assert_eq!(stats.load.count(), 8, "one load sample per job");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A rewrite of the same length, one hex digit changed, fails the hash
    /// and is parsed again; the job answers the new trace, whose parse is
    /// then the one recorded.
    #[test]
    fn a_same_length_rewrite_is_parsed_again() {
        let dir = test_dir("rewrite");
        let path = dir.join("t.din");
        let budget = MissBudget::Absolute(0);
        let service = one_worker();
        std::fs::write(&path, "0 10\n0 20\n0 10\n0 30\n").unwrap();
        let before = run(&service, file_spec("before", &path, budget)).unwrap();
        let rewritten = "0 10\n0 20\n0 10\n0 38\n";
        std::fs::write(&path, rewritten).unwrap();
        let after = run(&service, file_spec("after", &path, budget)).unwrap();
        assert_eq!(after.cache, Found::Miss);
        assert_ne!(after.digest, before.digest);
        let trace = read_din(rewritten.as_bytes()).unwrap();
        assert_eq!(after.digest, TraceDigest::of_trace(&trace));
        let again = run(&service, file_spec("again", &path, budget)).unwrap();
        assert_eq!((again.cache, again.digest), (Found::Hit, after.digest));
        assert_eq!(service.shutdown().parses_skipped, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The CR-LF spelling of a trace has other bytes, so it is parsed
    /// again, and its canonical digest finds the LF spelling's analysis.
    #[test]
    fn a_crlf_rewrite_is_parsed_again_and_hits() {
        let dir = test_dir("crlf");
        let path = dir.join("t.din");
        let budget = MissBudget::FractionOfMax(0.05);
        let service = one_worker();
        let text = din_text(2);
        std::fs::write(&path, &text).unwrap();
        let lf = run(&service, file_spec("lf", &path, budget)).unwrap();
        std::fs::write(&path, text.replace('\n', "\r\n")).unwrap();
        let crlf = run(&service, file_spec("crlf", &path, budget)).unwrap();
        assert_eq!((crlf.cache, crlf.digest), (Found::Hit, lf.digest));
        assert_eq!(crlf.result, lf.result);
        assert_eq!(service.shutdown().parses_skipped, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A path whose parse was recorded, then replaced by a directory or a
    /// FIFO, is still refused before anything opens it.
    #[cfg(unix)]
    #[test]
    fn a_path_replaced_by_a_directory_or_fifo_is_refused() {
        let dir = test_dir("replaced");
        let path = dir.join("t.din");
        let budget = MissBudget::Absolute(0);
        let service = one_worker();
        std::fs::write(&path, din_text(3)).unwrap();
        run(&service, file_spec("file", &path, budget)).unwrap();
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        let err = run(&service, file_spec("dir", &path, budget)).unwrap_err();
        assert!(err.to_string().contains("not a regular file"), "{err}");
        std::fs::remove_dir(&path).unwrap();
        let made = std::process::Command::new("mkfifo")
            .arg(&path)
            .status()
            .unwrap();
        assert!(made.success());
        let err = run(&service, file_spec("fifo", &path, budget)).unwrap_err();
        assert!(err.to_string().contains("not a regular file"), "{err}");
        assert_eq!(service.shutdown().parses_skipped, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Only a successful parse is recorded.
    #[test]
    fn a_failed_parse_records_no_fingerprint() {
        let dir = test_dir("malformed");
        let path = dir.join("t.din");
        let budget = MissBudget::Absolute(0);
        let service = one_worker();
        std::fs::write(&path, "0 10\nnot a trace line\n").unwrap();
        let err = run(&service, file_spec("bad", &path, budget)).unwrap_err();
        assert!(matches!(err, JobError::Trace(_)), "{err:?}");
        assert_eq!(service.inner.fingerprints.len(), 0);
        std::fs::write(&path, "0 10\n0 20\n").unwrap();
        run(&service, file_spec("good", &path, budget)).unwrap();
        assert_eq!(service.inner.fingerprints.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A parse is recorded per `(path, line_bits)`, and the key it gives
    /// carries the job's own `max_index_bits`: each of the three keys is
    /// built once and answers as a fresh build does.
    #[test]
    fn line_bits_and_max_index_bits_get_their_own_keys() {
        let dir = test_dir("keys");
        let path = dir.join("t.din");
        let budget = MissBudget::FractionOfMax(0.1);
        let service = one_worker();
        std::fs::write(&path, din_text(4)).unwrap();
        let trace = read_din(std::fs::File::open(&path).unwrap()).unwrap();
        let aligned_trace = trace.block_aligned(2);
        let spec = |line_bits, max_index_bits| JobSpec {
            line_bits,
            max_index_bits,
            ..file_spec("k", &path, budget)
        };
        let expected = |trace: &Trace, bits: u32| {
            let built = TraceArtifacts::build(trace, bits).unwrap();
            built.exploration.result(budget).unwrap()
        };
        for round in 0..2 {
            let found = if round == 0 { Found::Miss } else { Found::Hit };
            let plain = run(&service, spec(0, None)).unwrap();
            assert_eq!(plain.cache, found);
            assert_eq!(plain.digest, TraceDigest::of_trace(&trace));
            assert_eq!(plain.result, expected(&trace, trace.address_bits()));
            let aligned = run(&service, spec(2, None)).unwrap();
            assert_eq!(aligned.cache, found);
            assert_eq!(aligned.digest, TraceDigest::of_trace(&aligned_trace));
            let bits = aligned_trace.address_bits();
            assert_eq!(aligned.result, expected(&aligned_trace, bits));
            let capped = run(&service, spec(0, Some(4))).unwrap();
            assert_eq!(capped.cache, found);
            assert_eq!(capped.digest, plain.digest);
            assert_eq!(capped.result, expected(&trace, 4));
        }
        assert_eq!(service.inner.fingerprints.len(), 2);
        let stats = service.shutdown();
        assert_eq!((stats.cache_misses, stats.cache_hits), (3, 3));
        // The capped job's first run matched the file but found no key
        // built under its cap, so it parsed; every second run skipped.
        assert_eq!(stats.parses_skipped, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A matching file whose analysis left memory answers from the store.
    #[test]
    fn a_matching_file_warm_loads_from_the_store() {
        let dir = test_dir("warm");
        let path = dir.join("t.din");
        let budget = MissBudget::Absolute(0);
        let service = Service::start(ServiceConfig {
            workers: 1,
            cache_capacity: 1,
            store: Some(Arc::new(cachedse_store::MemoryStore::new())),
            ..ServiceConfig::default()
        });
        std::fs::write(&path, din_text(5)).unwrap();
        let first = run(&service, file_spec("a", &path, budget)).unwrap();
        let capped = JobSpec {
            max_index_bits: Some(4),
            ..file_spec("capped", &path, budget)
        };
        run(&service, capped).unwrap();
        let warm = run(&service, file_spec("b", &path, budget)).unwrap();
        assert_eq!(warm.cache, Found::Warm);
        assert_eq!(warm.result, first.result);
        let stats = service.shutdown();
        assert_eq!(stats.parses_skipped, 1);
        assert_eq!(stats.store_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The map holds at most `cache_capacity` paths, dropping the oldest.
    #[test]
    fn the_fingerprint_map_never_outgrows_the_cache_capacity() {
        let dir = test_dir("bounded");
        let budget = MissBudget::Absolute(0);
        let service = Service::start(ServiceConfig {
            workers: 1,
            cache_capacity: 2,
            ..ServiceConfig::default()
        });
        let paths: Vec<PathBuf> = (0..5).map(|i| dir.join(format!("t{i}.din"))).collect();
        for (i, path) in paths.iter().enumerate() {
            std::fs::write(path, din_text(10 + i as u64)).unwrap();
            run(&service, file_spec("fill", path, budget)).unwrap();
            assert!(service.inner.fingerprints.len() <= 2);
        }
        assert_eq!(service.inner.fingerprints.len(), 2);
        run(&service, file_spec("newest", &paths[4], budget)).unwrap();
        assert_eq!(service.stats().parses_skipped, 1);
        run(&service, file_spec("oldest", &paths[0], budget)).unwrap();
        assert_eq!(service.shutdown().parses_skipped, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
