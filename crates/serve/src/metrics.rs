//! Service metrics: lock-free counters and per-stage wall-clock histograms.
//!
//! # Memory-ordering audit
//!
//! Every atomic here uses `Ordering::Relaxed`, and that is deliberate.
//! The counters are monotone statistics: each increment is an independent
//! event, no reader derives a decision from the *relationship* between
//! two counters, and no non-atomic data is published under any of them —
//! so the only property needed is per-counter atomicity, which `Relaxed`
//! already guarantees. Cross-counter consistency is explicitly not
//! promised (a snapshot taken mid-job may show an accepted job that is
//! neither completed nor rejected yet); that is the usual contract for
//! service telemetry, and it keeps the hot path to a handful of
//! uncontended atomic adds. Anything stronger (`Acquire`/`Release`)
//! would buy nothing here and cost a fence on weakly-ordered targets.
//!
//! The one place the service *does* need ordering — the shutdown flag
//! that gates worker exit — lives in `service.rs` with its own
//! `Release`-store/`Acquire`-load pairing, documented there.

use cachedse_sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cachedse_json::Value;

/// Number of log2 buckets in a latency histogram: bucket `i` counts samples
/// in `[2^i, 2^(i+1))` microseconds, with the last bucket open-ended
/// (≈ 34 minutes and beyond).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A log2-bucketed wall-clock histogram over microseconds.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// Records one duration.
    pub fn record(&self, elapsed: Duration) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let bucket = if micros == 0 {
            0
        } else {
            (63 - micros.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A plain-data copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))` microseconds.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Renders as a sparse JSON object `{"<bucket-floor-us>": count, …}` —
    /// empty buckets are omitted so the common case is tiny.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object(
            self.buckets
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| (format!("{}", 1u64 << i), Value::from(n))),
        )
    }
}

/// The pipeline stages the service times individually.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Loading or generating the trace named by the job spec.
    Load,
    /// Building the shared artifacts (strip, then the per-depth profiles
    /// from the engine `Auto` picks) — charged only to cache misses.
    Analyze,
    /// Resolving one budget against the cached profiles.
    Frontier,
    /// End-to-end job wall clock, queue wait excluded.
    Total,
}

/// All service counters plus the per-stage histograms.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Jobs admitted to the queue.
    pub accepted: AtomicU64,
    /// Jobs that produced a successful result.
    pub completed: AtomicU64,
    /// Jobs rejected at submission (queue saturation or shutdown).
    pub rejected: AtomicU64,
    /// Jobs that failed after admission (bad trace, explore error,
    /// timeout, corrupt artifact).
    pub failed: AtomicU64,
    /// Failed jobs whose specific failure was a deadline miss.
    pub timeouts: AtomicU64,
    /// Artifact-cache hits.
    pub cache_hits: AtomicU64,
    /// Artifact-cache misses (one per distinct trace analyzed).
    pub cache_misses: AtomicU64,
    /// Cached artifact sets re-validated (a depth-first re-derivation)
    /// before reuse.
    pub validations: AtomicU64,
    /// Jobs answered by loading the persistent store ([`Found::Warm`] —
    /// codec + validation, no analysis). The store tier's own counters
    /// (probe misses, evictions, bytes, errors) live on the
    /// `ArtifactCache` and are merged into the [`StatsSnapshot`] by
    /// `Service::stats`; this one is job-level and increments alongside
    /// `completed`.
    ///
    /// [`Found::Warm`]: cachedse_store::Found::Warm
    pub store_warm: AtomicU64,
    /// Request lines answered `bad-spec` before reaching the queue:
    /// over-long or non-UTF-8 lines, bad JSON, unknown ops and invalid
    /// job specs.
    pub bad_requests: AtomicU64,
    /// `file` jobs answered from the recorded parse of a file whose bytes
    /// still matched it, without parsing the file again.
    pub parses_skipped: AtomicU64,
    load_hist: Histogram,
    analyze_hist: Histogram,
    frontier_hist: Histogram,
    total_hist: Histogram,
}

impl Metrics {
    /// Adds one sample to a stage histogram.
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        let hist = match stage {
            Stage::Load => &self.load_hist,
            Stage::Analyze => &self.analyze_hist,
            Stage::Frontier => &self.frontier_hist,
            Stage::Total => &self.total_hist,
        };
        hist.record(elapsed);
    }

    /// A point-in-time copy of every counter and histogram.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            validations: self.validations.load(Ordering::Relaxed),
            store_hits: self.store_warm.load(Ordering::Relaxed),
            store_misses: 0,
            store_evictions: 0,
            store_bytes: 0,
            store_errors: 0,
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            parses_skipped: self.parses_skipped.load(Ordering::Relaxed),
            load: self.load_hist.snapshot(),
            analyze: self.analyze_hist.snapshot(),
            frontier: self.frontier_hist.snapshot(),
            total: self.total_hist.snapshot(),
        }
    }
}

/// A plain-data metrics snapshot, renderable as the one-line stats summary
/// (CI greps it) or as a JSON object (the `stats` protocol request).
#[derive(Clone, Debug, PartialEq)]
pub struct StatsSnapshot {
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs rejected at submission.
    pub rejected: u64,
    /// Jobs failed after admission.
    pub failed: u64,
    /// Deadline misses among the failures.
    pub timeouts: u64,
    /// Artifact-cache hits.
    pub cache_hits: u64,
    /// Artifact-cache misses.
    pub cache_misses: u64,
    /// Artifact re-validations performed.
    pub validations: u64,
    /// Jobs answered from the persistent store (warm loads).
    pub store_hits: u64,
    /// Persistent-store probes that found nothing (filled from the
    /// cache's counters by `Service::stats`; 0 in a bare
    /// `Metrics::snapshot`).
    pub store_misses: u64,
    /// In-memory FIFO evictions (the entries survive in the store).
    pub store_evictions: u64,
    /// Encoded bytes currently held by the persistent store.
    pub store_bytes: u64,
    /// Persistent-store operations that failed: corrupt or invalid
    /// entries (rebuilt), failed saves and failed evicts, each also logged
    /// to stderr naming its entry (filled like `store_misses`).
    pub store_errors: u64,
    /// Request lines refused as `bad-spec` before reaching the queue.
    pub bad_requests: u64,
    /// `file` jobs answered without a parse: the file's length and hash
    /// matched its path's last parse.
    pub parses_skipped: u64,
    /// Trace load/generate stage latencies.
    pub load: HistogramSnapshot,
    /// Artifact-build stage latencies (cache misses only).
    pub analyze: HistogramSnapshot,
    /// Frontier-walk stage latencies.
    pub frontier: HistogramSnapshot,
    /// End-to-end job latencies.
    pub total: HistogramSnapshot,
}

impl StatsSnapshot {
    /// Renders the snapshot as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object([
            ("accepted", Value::from(self.accepted)),
            ("completed", Value::from(self.completed)),
            ("rejected", Value::from(self.rejected)),
            ("failed", Value::from(self.failed)),
            ("timeouts", Value::from(self.timeouts)),
            ("cache_hits", Value::from(self.cache_hits)),
            ("cache_misses", Value::from(self.cache_misses)),
            ("validations", Value::from(self.validations)),
            ("store_hits", Value::from(self.store_hits)),
            ("store_misses", Value::from(self.store_misses)),
            ("store_evictions", Value::from(self.store_evictions)),
            ("store_bytes", Value::from(self.store_bytes)),
            ("store_errors", Value::from(self.store_errors)),
            ("bad_requests", Value::from(self.bad_requests)),
            ("parses_skipped", Value::from(self.parses_skipped)),
            (
                "stage_histograms_us",
                Value::object([
                    ("load", self.load.to_json()),
                    ("analyze", self.analyze.to_json()),
                    ("frontier", self.frontier.to_json()),
                    ("total", self.total.to_json()),
                ]),
            ),
        ])
    }
}

impl std::fmt::Display for StatsSnapshot {
    /// The grep-friendly one-liner:
    /// `stats: accepted=… completed=… rejected=… failed=… timeouts=…
    /// cache_hits=… cache_misses=… validations=… store_hits=…
    /// store_misses=… store_evictions=… store_bytes=… store_errors=…
    /// parses_skipped=…` — existing fields keep their positions (CI greps
    /// them); new fields append.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stats: accepted={} completed={} rejected={} failed={} timeouts={} \
             cache_hits={} cache_misses={} validations={} store_hits={} \
             store_misses={} store_evictions={} store_bytes={} store_errors={} \
             parses_skipped={}",
            self.accepted,
            self.completed,
            self.rejected,
            self.failed,
            self.timeouts,
            self.cache_hits,
            self.cache_misses,
            self.validations,
            self.store_hits,
            self.store_misses,
            self.store_evictions,
            self.store_bytes,
            self.store_errors,
            self.parses_skipped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_micros() {
        let h = Histogram::default();
        h.record(Duration::from_micros(0)); // bucket 0
        h.record(Duration::from_micros(1)); // bucket 0
        h.record(Duration::from_micros(2)); // bucket 1
        h.record(Duration::from_micros(3)); // bucket 1
        h.record(Duration::from_micros(1024)); // bucket 10
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[1], 2);
        assert_eq!(snap.buckets[10], 1);
        assert_eq!(snap.count(), 5);
    }

    #[test]
    fn histogram_saturates_at_last_bucket() {
        let h = Histogram::default();
        h.record(Duration::from_secs(1 << 40));
        assert_eq!(h.snapshot().buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn histogram_json_is_sparse() {
        let h = Histogram::default();
        h.record(Duration::from_micros(5));
        let json = h.snapshot().to_json();
        assert_eq!(json.get("4").and_then(Value::as_u64), Some(1));
        assert_eq!(json.as_object().unwrap().len(), 1);
    }

    #[test]
    fn stats_line_and_json() {
        let m = Metrics::default();
        m.accepted.store(20, Ordering::Relaxed);
        m.completed.store(19, Ordering::Relaxed);
        m.failed.store(1, Ordering::Relaxed);
        m.cache_hits.store(15, Ordering::Relaxed);
        m.cache_misses.store(5, Ordering::Relaxed);
        m.parses_skipped.store(12, Ordering::Relaxed);
        m.record_stage(Stage::Frontier, Duration::from_micros(12));
        let snap = m.snapshot();
        let line = snap.to_string();
        assert!(line.starts_with("stats: accepted=20 "));
        assert!(line.contains("cache_hits=15"));
        assert!(line.contains("cache_misses=5"));
        assert!(
            line.ends_with(" store_bytes=0 store_errors=0 parses_skipped=12"),
            "{line}"
        );
        let json = snap.to_json();
        assert_eq!(json.get("completed").and_then(Value::as_u64), Some(19));
        assert_eq!(json.get("store_errors").and_then(Value::as_u64), Some(0));
        assert_eq!(json.get("bad_requests").and_then(Value::as_u64), Some(0));
        assert_eq!(json.get("parses_skipped").and_then(Value::as_u64), Some(12));
        assert!(json
            .get("stage_histograms_us")
            .and_then(|h| h.get("frontier"))
            .is_some());
    }
}
