//! Batch design-space-exploration service for the analytical cache model.
//!
//! One trace analysis answers *every* budget: the per-depth miss profiles
//! of Ghosh & Givargis (DATE 2003) are budget-independent, and a budget
//! query is then a cheap frontier walk over them. This crate exploits
//! that split at service scale: jobs (trace source × miss budget × knobs)
//! run on a fixed worker pool, and a content-addressed [`ArtifactCache`]
//! — keyed by the FNV-1a digest of the canonical trace — shares the
//! stripped trace and its profiles across every job that analyzes the
//! same trace. N budgets against one trace cost one analysis plus N
//! frontier walks.
//!
//! Three surfaces, all speaking the same JSONL job codec ([`job`]):
//!
//! - the library API: [`Service`] with [`Service::submit`] /
//!   [`Service::poll`] / [`Service::drain`];
//! - one-shot batch mode ([`run_batch`], the `cachedse batch` subcommand):
//!   specs in, results out in input order, stats to stderr;
//! - a long-running TCP server ([`serve`], the `cachedse serve`
//!   subcommand): per-connection request/response lines with bounded-queue
//!   backpressure, per-job timeouts, and a queryable metrics snapshot.
//!
//! # Examples
//!
//! ```
//! use cachedse_core::MissBudget;
//! use cachedse_serve::{JobSpec, PatternSpec, Service, ServiceConfig, TraceSource};
//!
//! let service = Service::start(ServiceConfig::default());
//! let trace = TraceSource::Pattern(PatternSpec::Loop { base: 0, len: 64, iterations: 10 });
//! let ids: Vec<_> = (0..4)
//!     .map(|k| {
//!         service
//!             .submit(JobSpec {
//!                 id: Some(format!("budget-{k}")),
//!                 trace: trace.clone(),
//!                 budget: MissBudget::Absolute(k * 8),
//!                 max_index_bits: None,
//!                 line_bits: 0,
//!                 timeout_ms: None,
//!             })
//!             .unwrap()
//!     })
//!     .collect();
//! for id in ids {
//!     let (label, outcome) = service.wait(id);
//!     assert!(outcome.is_ok(), "{label} failed");
//! }
//! let stats = service.shutdown();
//! assert_eq!(stats.cache_misses, 1); // one analysis served all four budgets
//! assert_eq!(stats.cache_hits, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod job;
mod line;
pub mod metrics;
pub mod net;
pub mod service;

pub use batch::{run_batch, BatchSummary};
pub use cache::{ArtifactCache, ArtifactKey, Found, TraceArtifacts};
pub use job::{
    outcome_json, JobError, JobOutcome, JobOutput, JobSpec, PatternSpec, SpecError, TraceSide,
    TraceSource,
};
pub use metrics::{Histogram, HistogramSnapshot, Metrics, Stage, StatsSnapshot};
pub use net::serve;
pub use service::{JobId, Service, ServiceConfig};
