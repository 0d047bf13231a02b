//! The content-addressed artifact bundle and its key.
//!
//! Moved here from `cachedse-serve` so both the serve tier and the
//! persistence tiers speak the same types; `cachedse_serve::cache`
//! re-exports them unchanged. The stripped trace and the per-depth miss
//! profiles depend only on the trace content and the index-bit cap, so
//! one [`TraceArtifacts`] answers every budget query against its trace.
//! The BCAT and MRCT are intermediates on the way to the profiles: no
//! bundle keeps them, whichever engine built it.

use std::fmt;

use cachedse_core::{prepare_stripped, Engine, ExploreError};
use cachedse_trace::digest::TraceDigest;
use cachedse_trace::strip::StrippedTrace;
use cachedse_trace::Trace;

/// The cache key: trace content digest folded with the analysis parameters
/// that shape the artifacts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Content digest of the (already line-aligned) trace.
    pub digest: TraceDigest,
    /// The index-bit cap the artifacts were built under.
    pub max_index_bits: u32,
}

impl ArtifactKey {
    /// Builds the key for `trace` under `max_index_bits`.
    #[must_use]
    pub fn of(trace: &Trace, max_index_bits: u32) -> Self {
        Self {
            digest: TraceDigest::of_trace(trace),
            max_index_bits,
        }
    }
}

/// `<digest>-<max_index_bits>`, the stem of the key's disk file
/// (`f301cd62042bc445-11`), so a log line names the entry it is about.
impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.digest, self.max_index_bits)
    }
}

/// The shared, budget-independent artifacts of one analyzed trace.
///
/// All engines produce byte-identical [`Exploration`]s (the workspace
/// differential suite is the oracle), so the cache key stays engine-free:
/// a hit is valid whatever engine built the entry.
///
/// [`Exploration`]: cachedse_core::Exploration
#[derive(Debug, PartialEq)]
pub struct TraceArtifacts {
    /// The stripped trace (unique references + id sequence).
    pub stripped: StrippedTrace,
    /// Always `None`: no bundle carries a BCAT/MRCT tree, and the
    /// uninhabited type keeps any code from populating it. The field
    /// survives only because the benchmark harness builds this struct
    /// with a literal; the next change to that harness deletes it.
    pub tree: Option<std::convert::Infallible>,
    /// The per-depth miss profiles, queryable under any budget.
    pub exploration: cachedse_core::Exploration,
}

impl TraceArtifacts {
    /// Analyzes `trace` with the engine [`Engine::Auto`] picks for it:
    /// shorthand for [`build_with`](Self::build_with) with
    /// [`Engine::default`].
    ///
    /// # Errors
    ///
    /// Propagates [`ExploreError`] (empty trace, oversized index cap).
    pub fn build(trace: &Trace, max_index_bits: u32) -> Result<Self, ExploreError> {
        Self::build_with(trace, max_index_bits, Engine::default())
    }

    /// Strips `trace` and analyzes it with `engine` through
    /// [`prepare_stripped`]. Every engine answers byte-identical profiles,
    /// and the bundle keeps only those and the stripped trace.
    ///
    /// # Errors
    ///
    /// Propagates [`ExploreError`] (empty trace, oversized index cap).
    pub fn build_with(
        trace: &Trace,
        max_index_bits: u32,
        engine: Engine,
    ) -> Result<Self, ExploreError> {
        let stripped = StrippedTrace::from_trace(trace);
        let exploration = prepare_stripped(&stripped, Some(max_index_bits), engine, None)?;
        Ok(Self {
            stripped,
            tree: None,
            exploration,
        })
    }
}

/// What a cache lookup found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Found {
    /// The artifacts were already in memory.
    Hit,
    /// The artifacts were loaded from the backing [`ArtifactStore`] — no
    /// analysis ran, but the codec and validation gates did.
    ///
    /// [`ArtifactStore`]: crate::ArtifactStore
    Warm,
    /// This call built (and inserted) the artifacts.
    Miss,
}

impl Found {
    /// The JSONL wire tag (`hit`, `warm`, `miss`).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Warm => "warm",
            Self::Miss => "miss",
        }
    }
}
