//! The content-addressed artifact bundle and its key.
//!
//! Moved here from `cachedse-serve` so both the serve tier and the
//! persistence tiers speak the same types; `cachedse_serve::cache`
//! re-exports them unchanged. Every budget-independent structure of the
//! analytical pipeline — the stripped trace, the zero/one sets, the
//! BCAT, the MRCT, and the per-depth miss profiles they induce — depends
//! only on the trace content and the index-bit cap, so one
//! [`TraceArtifacts`] answers every budget query against its trace.

use cachedse_core::{prepare_stripped, Bcat, Engine, ExploreError, Mrct, ZeroOneSets};
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

/// The materialized tree/table structures of the paper's Algorithms 1–2,
/// retained only by the tree-table engine, which builds them anyway. Both
/// tables are flat-arena backed: the
/// BCAT's node sets are ranges of its permutation arena (DESIGN.md §13) and
/// the MRCT is a CSR arena (§12), so a cached entry holds a handful of
/// contiguous buffers rather than per-node allocations — which is also
/// exactly what makes the bundle spillable to disk (§15).
#[derive(Debug, PartialEq, Eq)]
pub struct TreeArtifacts {
    /// Per-address-bit zero/one sets (Table 3).
    pub zero_one: ZeroOneSets,
    /// The binary cache allocation tree (Algorithm 1), owning its
    /// permutation arena.
    pub bcat: Bcat,
    /// The memory reference conflict table (Algorithm 2).
    pub mrct: Mrct,
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
    /// The materialized BCAT/MRCT structures, when retained.
    pub tree: Option<TreeArtifacts>,
    /// The per-depth miss profiles, queryable under any budget.
    pub exploration: cachedse_core::Exploration,
}

impl TraceArtifacts {
    /// Runs the full tree+table prelude + postlude once for `trace`,
    /// retaining the materialized structures.
    ///
    /// # Errors
    ///
    /// Propagates [`ExploreError`] (empty trace, oversized index cap).
    pub fn build(trace: &Trace, max_index_bits: u32) -> Result<Self, ExploreError> {
        Self::build_with(trace, max_index_bits, Engine::TreeTable, None)
    }

    /// Analyzes `trace` with `engine`. Only [`Engine::TreeTable`]
    /// materializes (and keeps) the BCAT/MRCT; the other engines go
    /// through [`prepare_stripped`](cachedse_core::prepare_stripped) and
    /// allocate nothing beyond their scratch state, with `threads ≥ 2`
    /// selecting their parallel implementation. Every combination answers
    /// byte-identical profiles.
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
        if stripped.is_empty() {
            return Err(ExploreError::EmptyTrace);
        }
        if engine == Engine::TreeTable {
            let zero_one = ZeroOneSets::from_stripped(&stripped);
            // The radix builder reads addresses straight off the stripped
            // trace; the zero/one sets are still materialized for the
            // store's load gate (`cachedse-check` consumes them).
            let bcat = Bcat::from_stripped(&stripped, max_index_bits);
            let mrct = Mrct::build(&stripped);
            let exploration = cachedse_core::Exploration::from_artifacts(
                &bcat,
                &mrct,
                &stripped,
                max_index_bits,
            )?;
            Ok(Self {
                stripped,
                tree: Some(TreeArtifacts {
                    zero_one,
                    bcat,
                    mrct,
                }),
                exploration,
            })
        } else {
            let exploration = prepare_stripped(&stripped, Some(max_index_bits), engine, threads)?;
            Ok(Self {
                stripped,
                tree: None,
                exploration,
            })
        }
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
