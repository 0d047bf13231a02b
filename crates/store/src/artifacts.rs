//! The content-addressed artifact bundle and its key.
//!
//! Moved here from `cachedse-serve` so both the serve tier and the
//! persistence tiers speak the same types; `cachedse_serve::cache`
//! re-exports them unchanged. The stripped trace and the per-depth miss
//! profiles depend only on the trace content and the index-bit cap, so
//! one [`TraceArtifacts`] answers every budget query against its trace.
//! The BCAT and MRCT are intermediates on the way to the profiles: no
//! bundle keeps them, whichever engine built it.

use cachedse_core::{prepare_stripped, Engine, ExploreError};
use cachedse_trace::digest::{Fnv1a, TraceDigest};
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

    /// A single `u64` folding both fields (handy for logs).
    #[must_use]
    pub fn fold(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.update_u64(self.digest.raw());
        h.update_u32(self.max_index_bits);
        h.finish()
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
    /// [`Engine::default`] and no worker pin.
    ///
    /// # Errors
    ///
    /// Propagates [`ExploreError`] (empty trace, oversized index cap).
    pub fn build(trace: &Trace, max_index_bits: u32) -> Result<Self, ExploreError> {
        Self::build_with(trace, max_index_bits, Engine::default(), None)
    }

    /// Strips `trace` and analyzes it with `engine` through
    /// [`prepare_stripped`], `threads ≥ 2` selecting the engine's
    /// parallel implementation. Every combination answers byte-identical
    /// profiles, and the bundle keeps only those and the stripped trace.
    ///
    /// # Errors
    ///
    /// Propagates [`ExploreError`] (empty trace, oversized index cap).
    pub fn build_with(
        trace: &Trace,
        max_index_bits: u32,
        engine: Engine,
        threads: Option<std::num::NonZeroUsize>,
    ) -> Result<Self, ExploreError> {
        let stripped = StrippedTrace::from_trace(trace);
        let exploration = prepare_stripped(&stripped, Some(max_index_bits), engine, threads)?;
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
